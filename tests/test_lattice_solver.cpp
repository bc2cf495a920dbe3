// Tests for S5, the lattice trapezoid solver: descend() must agree with a
// pure naive descent across base-case sizes and task settings, on both the
// binomial and the trinomial call lattice.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/topm.hpp"

namespace {

using namespace amopt;
using pricing::OptionSpec;

/// Reference: descend by repeated step_naive only (base_case effectively
/// infinite disables trapezoids without touching the naive code path).
core::LatticeRow naive_descend(core::LatticeSolver& solver,
                               core::LatticeRow row, std::int64_t i_stop) {
  while (row.i > i_stop) row = solver.step_naive(row);
  return row;
}

struct SolverCase {
  int base_case;
  bool parallel;
};

class BopmSolverConfigs : public ::testing::TestWithParam<SolverCase> {};

TEST_P(BopmSolverConfigs, TrapezoidDescendMatchesNaiveDescend) {
  // T = 4096: the top trapezoids' halves clear core::kTaskCutoff, so the
  // parallel cases fork, and the automatic conv policy takes both the FFT
  // and the direct path across the recursion's sizes.
  const auto [base, parallel] = GetParam();
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 4096;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);

  core::SolverConfig cfg;
  cfg.base_case = base;
  cfg.parallel = parallel;
  core::LatticeSolver fast({{prm.s0, prm.s1}, 0}, green, cfg);
  core::LatticeSolver slow({{prm.s0, prm.s1}, 0}, green, {});

  core::LatticeRow top = pricing::bopm::expiry_row(prm, green);
  top = fast.step_naive(top);
  top = fast.step_naive(top);

  const core::LatticeRow a = fast.descend(top, 0);
  const core::LatticeRow b = naive_descend(slow, top, 0);
  EXPECT_EQ(a.q, b.q);
  ASSERT_EQ(a.red.size(), b.red.size());
  for (std::size_t j = 0; j < a.red.size(); ++j)
    EXPECT_NEAR(a.red[j], b.red[j], 1e-9) << "j=" << j;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BopmSolverConfigs,
    ::testing::Values(SolverCase{2, false}, SolverCase{8, false},
                      SolverCase{8, true}, SolverCase{32, true},
                      SolverCase{64, false}));

TEST(LatticeSolver, IntermediateStopsAgree) {
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 500;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::LatticeSolver fast({{prm.s0, prm.s1}, 0}, green, {});
  core::LatticeSolver slow({{prm.s0, prm.s1}, 0}, green, {});

  core::LatticeRow top = pricing::bopm::expiry_row(prm, green);
  top = fast.step_naive(top);
  top = fast.step_naive(top);
  for (std::int64_t i_stop : {400L, 250L, 97L, 3L}) {
    const auto a = fast.descend(top, i_stop);
    const auto b = naive_descend(slow, top, i_stop);
    EXPECT_EQ(a.q, b.q) << "i_stop=" << i_stop;
    ASSERT_EQ(a.red.size(), b.red.size());
    for (std::size_t j = 0; j < a.red.size(); ++j)
      EXPECT_NEAR(a.red[j], b.red[j], 1e-9);
  }
}

TEST(LatticeSolver, TrinomialDescendMatchesNaive) {
  // g = 2 cones can reach past a fully red row's last cell; the sweep over
  // T covers many trapezoid shapes, and each descent must keep its
  // boundary inside the lattice (row 0 holds one cell).
  const OptionSpec spec = pricing::paper_spec();
  for (std::int64_t T = 64; T <= 4096; T *= 2) {
    const auto prm = pricing::derive_topm(spec, T);
    const pricing::topm::CallGreen green(spec, prm);
    core::LatticeSolver fast({{prm.s0, prm.s1, prm.s2}, 0}, green, {});
    core::LatticeSolver slow({{prm.s0, prm.s1, prm.s2}, 0}, green, {});

    core::LatticeRow top = pricing::topm::expiry_row(prm, green);
    top = fast.step_naive(top);
    top = fast.step_naive(top);
    const auto a = fast.descend(top, 0);
    const auto b = naive_descend(slow, top, 0);
    EXPECT_EQ(a.q, b.q) << "T=" << T;
    ASSERT_EQ(a.red.size(), b.red.size()) << "T=" << T;
    for (std::size_t j = 0; j < a.red.size(); ++j)
      EXPECT_NEAR(a.red[j], b.red[j], 1e-9) << "T=" << T << " j=" << j;
  }
}

TEST(LatticeSolver, AllGreenRowShortCircuits) {
  // Huge dividend yield: exercising dominates everywhere, the expiry row is
  // all green, and descend must return an all-green row immediately.
  OptionSpec spec = pricing::paper_spec();
  spec.S = 400.0;  // deep in the money everywhere that matters
  spec.Y = 0.5;
  const std::int64_t T = 64;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::LatticeSolver solver({{prm.s0, prm.s1}, 0}, green, {});
  core::LatticeRow row;
  row.i = T;
  row.q = -1;
  const auto out = solver.descend(row, 0);
  EXPECT_EQ(out.i, 0);
  EXPECT_EQ(out.q, -1);
}

TEST(LatticeSolver, StepNaiveShrinksRowWidth) {
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 16;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::LatticeSolver solver({{prm.s0, prm.s1}, 0}, green, {});
  core::LatticeRow row = pricing::bopm::expiry_row(prm, green);
  while (row.i > 0) {
    const auto next = solver.step_naive(row);
    EXPECT_EQ(next.i, row.i - 1);
    EXPECT_LE(next.q, row.q);          // call boundary never moves right
    EXPECT_GE(next.q, -1);
    row = next;
  }
}

}  // namespace
