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
#include "amopt/stencil/kernel_cache.hpp"

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

constexpr int kDefaultBase = core::SolverConfig{}.base_case;

INSTANTIATE_TEST_SUITE_P(
    Configs, BopmSolverConfigs,
    ::testing::Values(SolverCase{2, false}, SolverCase{8, false},
                      SolverCase{8, true}, SolverCase{32, true},
                      SolverCase{kDefaultBase, false},
                      SolverCase{kDefaultBase, true}));

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
  for (const int base : {8, kDefaultBase}) {
    core::SolverConfig cfg;
    cfg.base_case = base;
    for (std::int64_t T = 64; T <= 4096; T *= 2) {
      const auto prm = pricing::derive_topm(spec, T);
      const pricing::topm::CallGreen green(spec, prm);
      core::LatticeSolver fast({{prm.s0, prm.s1, prm.s2}, 0}, green, cfg);
      core::LatticeSolver slow({{prm.s0, prm.s1, prm.s2}, 0}, green, {});

      core::LatticeRow top = pricing::topm::expiry_row(prm, green);
      top = fast.step_naive(top);
      top = fast.step_naive(top);
      const auto a = fast.descend(top, 0);
      const auto b = naive_descend(slow, top, 0);
      EXPECT_EQ(a.q, b.q) << "base=" << base << " T=" << T;
      ASSERT_EQ(a.red.size(), b.red.size()) << "base=" << base << " T=" << T;
      for (std::size_t j = 0; j < a.red.size(); ++j)
        EXPECT_NEAR(a.red[j], b.red[j], 1e-9)
            << "base=" << base << " T=" << T << " j=" << j;
    }
  }
}

/// R > Y: the call boundary starts ~165 cells above the middle of the top
/// row at T = 2^13 (q ~ T/2 + 165), so every power-of-two cut leaves a
/// remainder and each descent walks a chain of trapezoids 2^12, 2^11, ...
OptionSpec remainder_chain_spec() {
  OptionSpec spec;
  spec.S = 100.0;
  spec.K = 100.0;
  spec.R = 0.03;
  spec.V = 0.3;
  spec.Y = 0.01;
  spec.expiry_years = 1.0;
  return spec;
}

TEST(LatticeSolver, RemainderTrapezoidChainMatchesNaive) {
  const OptionSpec spec = remainder_chain_spec();
  const std::int64_t T = 8192;
  {
    const auto prm = pricing::derive_bopm(spec, T);
    const pricing::bopm::CallGreen green(spec, prm);
    core::LatticeSolver slow({{prm.s0, prm.s1}, 0}, green, {});
    core::LatticeRow top = pricing::bopm::expiry_row(prm, green);
    top = slow.step_naive(top, true);
    top = slow.step_naive(top, true);
    ASSERT_GT(top.q, T / 2 + 64);  // the chain this test is about
    const auto b = naive_descend(slow, top, 0);
    for (const int base : {8, kDefaultBase}) {
      core::SolverConfig cfg;
      cfg.base_case = base;
      core::LatticeSolver fast({{prm.s0, prm.s1}, 0}, green, cfg);
      const auto a = fast.descend(top, 0);
      EXPECT_EQ(a.q, b.q) << "bopm base=" << base;
      ASSERT_EQ(a.red.size(), b.red.size()) << "bopm base=" << base;
      for (std::size_t j = 0; j < a.red.size(); ++j)
        EXPECT_NEAR(a.red[j], b.red[j], 1e-9) << "bopm base=" << base;
    }
  }
  {
    const auto prm = pricing::derive_topm(spec, T);
    const pricing::topm::CallGreen green(spec, prm);
    core::LatticeSolver slow({{prm.s0, prm.s1, prm.s2}, 0}, green, {});
    core::LatticeRow top = pricing::topm::expiry_row(prm, green);
    top = slow.step_naive(top, true);
    top = slow.step_naive(top, true);
    const auto b = naive_descend(slow, top, 0);
    core::LatticeSolver fast({{prm.s0, prm.s1, prm.s2}, 0}, green, {});
    const auto a = fast.descend(top, 0);
    EXPECT_EQ(a.q, b.q) << "topm";
    ASSERT_EQ(a.red.size(), b.red.size()) << "topm";
    for (std::size_t j = 0; j < a.red.size(); ++j)
      EXPECT_NEAR(a.red[j], b.red[j], 1e-9) << "topm";
  }
}

TEST(LatticeSolver, PowerOfTwoTrapezoidsBuildFewSpectra) {
  // A cold solve at T = 2^13 on a fresh cache. Inside every strip the
  // heights are the powers of two 2^6..2^11, each at exactly its own
  // transform size: one spectrum per height. Only the top-level
  // trapezoids' whole-row correlations add padded sizes of their own, so
  // the solve admits at most a dozen spectra. (Trapezoids sized to the
  // whole red width built ~32 here: every strip sat just above a power of
  // two, and each height met several transform sizes.)
  const OptionSpec spec = remainder_chain_spec();
  const std::int64_t T = 8192;
  {
    const auto prm = pricing::derive_bopm(spec, T);
    stencil::KernelCache cache({{prm.s0, prm.s1}, 0});
    (void)pricing::bopm::american_call_fft(spec, T, {}, &cache);
    EXPECT_LE(cache.stats().spectra, 12u);
  }
  {
    const auto prm = pricing::derive_topm(spec, T);
    stencil::KernelCache cache({{prm.s0, prm.s1, prm.s2}, 0});
    (void)pricing::topm::american_call_fft(spec, T, {}, &cache);
    EXPECT_LE(cache.stats().spectra, 12u);
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
