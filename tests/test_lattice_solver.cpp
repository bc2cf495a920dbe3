// Tests for S5, the lattice trapezoid solver: descend() must agree exactly
// with a pure naive descent for both drift modes, across base-case sizes,
// conv policies, and task settings.

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
  conv::Policy::Path path;
};

class BopmSolverConfigs : public ::testing::TestWithParam<SolverCase> {};

TEST_P(BopmSolverConfigs, TrapezoidDescendMatchesNaiveDescend) {
  const auto [base, parallel, path] = GetParam();
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 700;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);

  core::SolverConfig cfg;
  cfg.base_case = base;
  cfg.parallel = parallel;
  cfg.task_cutoff = 64;
  cfg.conv_policy.path = path;
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
    ::testing::Values(SolverCase{2, false, conv::Policy::Path::automatic},
                      SolverCase{8, false, conv::Policy::Path::automatic},
                      SolverCase{8, false, conv::Policy::Path::direct},
                      SolverCase{8, false, conv::Policy::Path::fft},
                      SolverCase{8, true, conv::Policy::Path::automatic},
                      SolverCase{32, true, conv::Policy::Path::fft},
                      SolverCase{64, false, conv::Policy::Path::automatic}));

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

TEST(LatticeSolver, GrowingModeMatchesNaive) {
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 600;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::MirroredPutGreen green(spec, prm);
  core::SolverConfig cfg;
  cfg.drift = core::BoundaryDrift::growing;
  core::LatticeSolver fast({{prm.s1, prm.s0}, 0}, green, cfg);
  core::LatticeSolver slow({{prm.s1, prm.s0}, 0}, green, cfg);

  core::LatticeRow top;
  top.i = T;
  top.q = -1;
  for (std::int64_t j = 0; j <= T; ++j) {
    if (green.value(T, j) <= 0.0) top.q = j;
  }
  top.red.assign(static_cast<std::size_t>(top.q + 1), 0.0);
  top = fast.step_naive(top, /*unbounded_scan=*/true);
  top = fast.step_naive(top, /*unbounded_scan=*/true);

  const auto a = fast.descend(top, 0);
  const auto b = naive_descend(slow, top, 0);
  EXPECT_EQ(a.q, b.q);
  ASSERT_EQ(a.red.size(), b.red.size());
  for (std::size_t j = 0; j < a.red.size(); ++j)
    EXPECT_NEAR(a.red[j], b.red[j], 1e-9);
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
