// BOPM pricing tests: the FFT pricer must reproduce the Θ(T^2) oracle to
// rounding error across a parameter grid, the European special case must
// converge to Black-Scholes, and the put extensions must be consistent.

#include <gtest/gtest.h>

#include <cmath>

#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/bopm.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

struct GridCase {
  double S, K, R, V, Y;
  std::int64_t T;
};

void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "S=" << c.S << " K=" << c.K << " R=" << c.R << " V=" << c.V
      << " Y=" << c.Y << " T=" << c.T;
}

OptionSpec to_spec(const GridCase& c) {
  OptionSpec s;
  s.S = c.S;
  s.K = c.K;
  s.R = c.R;
  s.V = c.V;
  s.Y = c.Y;
  return s;
}

class BopmGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(BopmGrid, FftCallMatchesVanilla) {
  const GridCase c = GetParam();
  const OptionSpec spec = to_spec(c);
  const double v = bopm::american_call_vanilla(spec, c.T);
  const double f = bopm::american_call_fft(spec, c.T);
  EXPECT_NEAR(f, v, 1e-8 * std::max(1.0, std::abs(v)));
}

TEST_P(BopmGrid, FftPutMatchesVanilla) {
  const GridCase c = GetParam();
  const OptionSpec spec = to_spec(c);
  const double v = bopm::american_put_vanilla(spec, c.T);
  const double f = bopm::american_put_fft(spec, c.T);
  EXPECT_NEAR(f, v, 1e-8 * std::max(1.0, std::abs(v)));
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, BopmGrid,
    ::testing::Values(
        // the paper's benchmark option at several sizes
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 2},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 13},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 64},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 257},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1000},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 2048},
        // deep in the money
        GridCase{200, 100, 0.03, 0.25, 0.05, 512},
        // deep out of the money
        GridCase{50, 100, 0.03, 0.25, 0.05, 512},
        // at the money, high vol
        GridCase{100, 100, 0.02, 0.8, 0.03, 512},
        // low vol
        GridCase{100, 100, 0.02, 0.05, 0.03, 512},
        // rate above yield and yield above rate
        GridCase{100, 110, 0.08, 0.3, 0.01, 777},
        GridCase{100, 110, 0.01, 0.3, 0.08, 777},
        // zero rate
        GridCase{100, 95, 0.0, 0.3, 0.04, 300},
        // short expiry lattice, odd T
        GridCase{100, 100, 0.05, 0.4, 0.02, 511}));

TEST(BopmEuropean, FftMatchesVanillaRollback) {
  const OptionSpec spec = paper_spec();
  for (std::int64_t T : {1L, 2L, 50L, 333L, 1024L}) {
    EXPECT_NEAR(bopm::european_call_fft(spec, T),
                bopm::european_call_vanilla(spec, T), 1e-9)
        << "T=" << T;
    EXPECT_NEAR(bopm::european_put_fft(spec, T),
                bopm::european_put_vanilla(spec, T), 1e-9)
        << "T=" << T;
  }
}

TEST(BopmEuropean, ConvergesToBlackScholes) {
  const OptionSpec spec = paper_spec();
  const double exact = bs::european_call(spec);
  double prev_err = 1e9;
  for (std::int64_t T : {256L, 1024L, 4096L, 16384L}) {
    const double err = std::abs(bopm::european_call_fft(spec, T) - exact);
    EXPECT_LT(err, prev_err * 0.7) << "T=" << T;  // ~O(1/T) convergence
    prev_err = err;
  }
  EXPECT_LT(prev_err, 5e-4);
}

TEST(BopmAmerican, ZeroYieldCallEqualsEuropean) {
  // With Y = 0 early exercise of a call is never optimal (R >= 0).
  OptionSpec spec = paper_spec();
  spec.Y = 0.0;
  for (std::int64_t T : {64L, 500L}) {
    EXPECT_NEAR(bopm::american_call_vanilla(spec, T),
                bopm::european_call_vanilla(spec, T), 1e-10);
    EXPECT_NEAR(bopm::american_call_fft(spec, T),
                bopm::european_call_fft(spec, T), 1e-12);
  }
}

TEST(BopmAmerican, ZeroRatePutEqualsEuropean) {
  OptionSpec spec = paper_spec();
  spec.R = 0.0;
  EXPECT_NEAR(bopm::american_put_vanilla(spec, 400),
              bopm::european_put_vanilla(spec, 400), 1e-10);
  // With R = 0 the put's early-out is the swapped call's European path,
  // which agrees with the put's own European rollback to rounding.
  const double amer = bopm::american_put_fft(spec, 400);
  EXPECT_EQ(amer, bopm::european_call_fft(symmetric_call_spec(spec), 400));
  const double euro = bopm::european_put_fft(spec, 400);
  EXPECT_NEAR(amer, euro, 1e-12 * euro);
}

TEST(BopmAmerican, DominatesEuropeanAndIntrinsic) {
  const OptionSpec spec = paper_spec();
  const std::int64_t T = 1000;
  const double amer = bopm::american_call_fft(spec, T);
  EXPECT_GE(amer, bopm::european_call_fft(spec, T) - 1e-10);
  EXPECT_GE(amer, std::max(0.0, spec.S - spec.K));
  EXPECT_LE(amer, spec.S);
}

TEST(BopmAmerican, PutCallSymmetryIsExactOnTheLattice) {
  // P(S,K,R,Y) = C(K,S,Y,R) holds EXACTLY on the CRR lattice (numeraire
  // change maps path weights one-to-one), so the symmetry put must match
  // the direct rollback to rounding at every T.
  const OptionSpec spec = paper_spec();
  for (std::int64_t T : {250L, 1000L, 4000L}) {
    const double gap = std::abs(bopm::american_put_fft(spec, T) -
                                bopm::american_put_vanilla(spec, T));
    EXPECT_LT(gap, 1e-6) << "T=" << T;
  }
}

TEST(BopmAmerican, MonotoneInSpot) {
  OptionSpec spec = paper_spec();
  double prev = -1.0;
  for (double S : {80.0, 100.0, 120.0, 140.0, 180.0}) {
    spec.S = S;
    const double c = bopm::american_call_fft(spec, 512);
    EXPECT_GT(c, prev) << "S=" << S;
    prev = c;
  }
}

TEST(BopmAmerican, MonotoneInVolatility) {
  OptionSpec spec = paper_spec();
  double prev = -1.0;
  for (double V : {0.05, 0.15, 0.3, 0.6}) {
    spec.V = V;
    const double c = bopm::american_call_fft(spec, 512);
    EXPECT_GT(c, prev) << "V=" << V;
    prev = c;
  }
}

TEST(BopmEdge, TZeroIsIntrinsic) {
  OptionSpec spec = paper_spec();
  EXPECT_DOUBLE_EQ(bopm::american_call_fft(spec, 0),
                   std::max(0.0, spec.S - spec.K));
  spec.S = 150.0;
  EXPECT_DOUBLE_EQ(bopm::american_call_fft(spec, 0), 150.0 - spec.K);
}

TEST(BopmEdge, DeepItmWithHugeYieldIsImmediateExercise) {
  OptionSpec spec = paper_spec();
  spec.S = 500.0;
  spec.Y = 0.9;
  const std::int64_t T = 128;
  EXPECT_NEAR(bopm::american_call_fft(spec, T),
              bopm::american_call_vanilla(spec, T), 1e-8);
  // Exercising immediately dominates: price equals intrinsic value.
  EXPECT_NEAR(bopm::american_call_fft(spec, T), spec.S - spec.K, 1e-8);
}

TEST(BopmNodes, LowNodesMatchVanillaGrid) {
  // Y = 0 takes the European fast path (direct kernel-row dot products)
  // instead of the lattice descent.
  for (const double Y : {paper_spec().Y, 0.0}) {
    OptionSpec spec = paper_spec();
    spec.Y = Y;
    const std::int64_t T = 64;
    const auto nodes = bopm::american_call_nodes_fft(spec, T);
    // Reference: full-grid rollback keeping rows 0..2.
    const auto prm = derive_bopm(spec, T);
    const PowerTable up(prm.log_u, T);
    std::vector<double> row(static_cast<std::size_t>(T + 1));
    for (std::int64_t j = 0; j <= T; ++j)
      row[static_cast<std::size_t>(j)] =
          std::max(0.0, spec.S * up(2 * j - T) - spec.K);
    std::vector<double> r2, r1, r0;
    for (std::int64_t i = T - 1; i >= 0; --i) {
      for (std::int64_t j = 0; j <= i; ++j) {
        const double lin = prm.s0 * row[static_cast<std::size_t>(j)] +
                           prm.s1 * row[static_cast<std::size_t>(j + 1)];
        row[static_cast<std::size_t>(j)] =
            std::max(lin, spec.S * up(2 * j - i) - spec.K);
      }
      if (i == 2) r2 = {row[0], row[1], row[2]};
      if (i == 1) r1 = {row[0], row[1]};
      if (i == 0) r0 = {row[0]};
    }
    EXPECT_NEAR(nodes.g00, r0[0], 1e-9) << "Y=" << Y;
    EXPECT_NEAR(nodes.g10, r1[0], 1e-9);
    EXPECT_NEAR(nodes.g11, r1[1], 1e-9);
    EXPECT_NEAR(nodes.g20, r2[0], 1e-9);
    EXPECT_NEAR(nodes.g21, r2[1], 1e-9);
    EXPECT_NEAR(nodes.g22, r2[2], 1e-9);
  }
}

}  // namespace
