// Tests for S5, the lattice trapezoid solver: descend() must agree with a
// pure naive descent across base-case sizes and task settings, on both the
// binomial and the trinomial call lattice.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/topm.hpp"
#include "amopt/simd/kernels.hpp"
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

/// The step step_naive(row, true) took before it walked the boundary from
/// the old one: every cell of the new row evaluated (the dispatched red
/// interior, then the scalar tail over the green extension), then the
/// boundary found by a downward scan of the whole row.
core::LatticeRow full_row_scan(const core::LatticeRow& row,
                               std::span<const double> taps,
                               const core::ExerciseTable& green) {
  const std::int64_t g = static_cast<std::int64_t>(taps.size()) - 1;
  core::LatticeRow next;
  next.i = row.i - 1;
  const std::int64_t jmax = g * next.i;
  next.red.resize(static_cast<std::size_t>(jmax + 1));
  const std::int64_t jv = std::min(jmax, row.q - g);
  if (jv >= 0)
    simd::kernels().correlate_taps(row.red.data(), taps.data(), taps.size(),
                                   next.red.data(),
                                   static_cast<std::size_t>(jv + 1));
  for (std::int64_t j = std::max<std::int64_t>(jv + 1, 0); j <= jmax; ++j) {
    double lin = 0.0;
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::int64_t c = j + static_cast<std::int64_t>(k);
      lin += taps[k] * (c <= row.q ? row.red[static_cast<std::size_t>(c)]
                                   : green.value(row.i, c));
    }
    next.red[static_cast<std::size_t>(j)] = lin;
  }
  next.q = -1;
  for (std::int64_t j = jmax; j >= 0; --j) {
    if (next.red[static_cast<std::size_t>(j)] >= green.value(next.i, j)) {
      next.q = j;
      break;
    }
  }
  next.red.resize(static_cast<std::size_t>(next.q + 1));
  return next;
}

/// The two top rows off expiry by step_naive(row, true) and by the full-row
/// scan: identical q and identical bits in every red cell.
void expect_top_rows_match(core::LatticeSolver& solver,
                           std::span<const double> taps,
                           const core::ExerciseTable& green,
                           core::LatticeRow row, const char* what) {
  for (int step = 0; step < 2 && row.i > 0; ++step) {
    const core::LatticeRow want = full_row_scan(row, taps, green);
    const core::LatticeRow got = solver.step_naive(row, true);
    ASSERT_EQ(got.q, want.q) << what << " row " << want.i;
    ASSERT_EQ(got.red.size(), want.red.size()) << what << " row " << want.i;
    for (std::size_t j = 0; j < want.red.size(); ++j)
      ASSERT_EQ(got.red[j], want.red[j]) << what << " row " << want.i
                                         << " j=" << j;
    row = got;
  }
}

TEST(LatticeSolver, TopRowsStopAtTheBoundaryWithFullScanBits) {
  struct Rates {
    double R, Y;
    const char* name;
  };
  const Rates rates[] = {
      {0.08, 0.02, "R>Y"}, {0.02, 0.08, "R<Y"}, {0.05, 0.05, "R=Y"}};
  for (const Rates& r : rates) {
    for (const double S : {60.0, 100.0, 160.0}) {
      for (const std::int64_t T : {3, 64, 2048, 8192}) {
        OptionSpec spec = pricing::paper_spec();
        spec.S = S;
        spec.K = 100.0;
        spec.R = r.R;
        spec.Y = r.Y;
        {
          const auto prm = pricing::derive_bopm(spec, T);
          const pricing::bopm::CallGreen green(spec, prm);
          const std::vector<double> taps{prm.s0, prm.s1};
          core::LatticeSolver solver({taps, 0}, green);
          expect_top_rows_match(solver, taps, green,
                                pricing::bopm::expiry_row(prm, green), r.name);
        }
        {
          const auto prm = pricing::derive_topm(spec, T);
          const pricing::topm::CallGreen green(spec, prm);
          const std::vector<double> taps{prm.s0, prm.s1, prm.s2};
          core::LatticeSolver solver({taps, 0}, green);
          expect_top_rows_match(solver, taps, green,
                                pricing::topm::expiry_row(prm, green), r.name);
        }
      }
    }
  }
}

TEST(CallGreen, EveryReadEqualsTheClosedForm) {
  // Both call oracles fill their exponent table on first read: four
  // executors read every cell of the lattice at once (the TSan job runs
  // this at pool widths 2 and 4), then one thread reads every cell back
  // against the closed form, including cells past the table's span.
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 2048;
  const auto bp = pricing::derive_bopm(spec, T);
  const auto tp = pricing::derive_topm(spec, T);
  const pricing::bopm::CallGreen bopm_green(spec, bp);
  const pricing::topm::CallGreen topm_green(spec, tp);
  const auto bopm_exact = [&](std::int64_t i, std::int64_t j) {
    return spec.S * std::exp(static_cast<double>(2 * j - i) * bp.log_u) -
           spec.K;
  };
  const auto topm_exact = [&](std::int64_t i, std::int64_t j) {
    return spec.S * std::exp(static_cast<double>(j - i) * tp.log_u) - spec.K;
  };
  std::vector<std::int64_t> wrong(4, 0);
  core::TaskPool::instance().for_each(
      4,
      [&](std::size_t w) {
        // Each executor starts at a different row, so first reads race.
        for (std::int64_t r = 0; r <= T; ++r) {
          const std::int64_t i = (r + static_cast<std::int64_t>(w) * T / 4) %
                                 (T + 1);
          for (std::int64_t j = 0; j <= i + 1; ++j)
            if (bopm_green.value(i, j) != bopm_exact(i, j)) ++wrong[w];
          for (std::int64_t j = 0; j <= 2 * i + 2; ++j)
            if (topm_green.value(i, j) != topm_exact(i, j)) ++wrong[w];
        }
      },
      4);
  EXPECT_EQ(wrong, std::vector<std::int64_t>(4, 0));
  for (std::int64_t i = 0; i <= T; ++i) {
    for (std::int64_t j = 0; j <= i + 1; ++j)
      ASSERT_EQ(bopm_green.value(i, j), bopm_exact(i, j))
          << "i=" << i << " j=" << j;
    for (std::int64_t j = 0; j <= 2 * i + 2; ++j)
      ASSERT_EQ(topm_green.value(i, j), topm_exact(i, j))
          << "i=" << i << " j=" << j;
  }
  for (const std::int64_t j : {-3 * T, 3 * T}) {
    EXPECT_EQ(bopm_green.value(0, j), bopm_exact(0, j)) << "j=" << j;
    EXPECT_EQ(topm_green.value(0, j), topm_exact(0, j)) << "j=" << j;
  }
}

}  // namespace
