// Cross-cutting no-arbitrage and consistency properties, swept over a
// parameter lattice with TEST_P. These catch derivation mistakes that
// point comparisons miss (wrong discounting, wrong drift, flipped taps).

#include <gtest/gtest.h>

#include <cmath>

#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/topm.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

struct Pt {
  double S, K, R, V, Y;
};

OptionSpec to_spec(const Pt& p) {
  OptionSpec s;
  s.S = p.S;
  s.K = p.K;
  s.R = p.R;
  s.V = p.V;
  s.Y = p.Y;
  return s;
}

class PropertySweep : public ::testing::TestWithParam<Pt> {};

TEST_P(PropertySweep, AmericanDominatesEuropean) {
  const OptionSpec s = to_spec(GetParam());
  const std::int64_t T = 512;
  EXPECT_GE(bopm::american_call_fft(s, T),
            bopm::european_call_fft(s, T) - 1e-9);
  EXPECT_GE(bopm::american_put_fft(s, T),
            bopm::european_put_fft(s, T) - 1e-9);
}

TEST_P(PropertySweep, AmericanDominatesIntrinsic) {
  const OptionSpec s = to_spec(GetParam());
  const std::int64_t T = 512;
  EXPECT_GE(bopm::american_call_fft(s, T), std::max(0.0, s.S - s.K) - 1e-9);
  EXPECT_GE(bopm::american_put_fft(s, T),
            std::max(0.0, s.K - s.S) - 1e-9);
}

TEST_P(PropertySweep, PriceBounds) {
  const OptionSpec s = to_spec(GetParam());
  const std::int64_t T = 512;
  const double c = bopm::american_call_fft(s, T);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, s.S + 1e-9);
  const double p = bopm::american_put_fft(s, T);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, s.K + 1e-9);
}

TEST_P(PropertySweep, EuropeanPutCallParityOnLattice) {
  // C - P = S e^{-Y tau} - K e^{-R tau} holds exactly on the lattice for
  // European options (linearity of the rollback).
  const OptionSpec s = to_spec(GetParam());
  const std::int64_t T = 512;
  const double lhs =
      bopm::european_call_fft(s, T) - bopm::european_put_fft(s, T);
  const double rhs = s.S * std::exp(-s.Y * s.expiry_years) -
                     s.K * std::exp(-s.R * s.expiry_years);
  EXPECT_NEAR(lhs, rhs, 1e-8 * std::max(1.0, std::abs(rhs)));
}

TEST_P(PropertySweep, ModelsAgreeOnEuropeanLimit) {
  const OptionSpec s = to_spec(GetParam());
  const double bs_ref = bs::european_call(s);
  EXPECT_NEAR(bopm::european_call_fft(s, 4096), bs_ref,
              2e-3 * std::max(1.0, bs_ref) + 2e-3);
  EXPECT_NEAR(topm::european_call_fft(s, 2048), bs_ref,
              2e-3 * std::max(1.0, bs_ref) + 2e-3);
}

TEST_P(PropertySweep, TrinomialAndBinomialAmericanAgree) {
  const OptionSpec s = to_spec(GetParam());
  const double b = bopm::american_call_fft(s, 2048);
  const double t = topm::american_call_fft(s, 1024);
  EXPECT_NEAR(b, t, 5e-3 * std::max(1.0, b) + 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, PropertySweep,
    ::testing::Values(Pt{127.62, 130, 0.00163, 0.2, 0.0163},
                      Pt{100, 100, 0.05, 0.2, 0.02},
                      Pt{100, 80, 0.02, 0.35, 0.06},
                      Pt{100, 125, 0.07, 0.15, 0.01},
                      Pt{40, 50, 0.01, 0.5, 0.03},
                      Pt{250, 200, 0.04, 0.25, 0.08}));

class StrikeMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(StrikeMonotonicity, CallDecreasesPutIncreasesInStrike) {
  const double V = GetParam();
  OptionSpec s = paper_spec();
  s.V = V;
  double prev_call = 1e18, prev_put = -1.0;
  for (double K : {90.0, 110.0, 130.0, 150.0}) {
    s.K = K;
    const double c = bopm::american_call_fft(s, 256);
    const double p = bopm::american_put_fft(s, 256);
    EXPECT_LT(c, prev_call) << "K=" << K;
    EXPECT_GT(p, prev_put) << "K=" << K;
    prev_call = c;
    prev_put = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Vols, StrikeMonotonicity,
                         ::testing::Values(0.1, 0.2, 0.4));

TEST(Convexity, AmericanCallConvexInStrike) {
  OptionSpec s = paper_spec();
  const std::int64_t T = 512;
  const auto at = [&](double K) {
    OptionSpec x = s;
    x.K = K;
    return bopm::american_call_fft(x, T);
  };
  for (double K : {100.0, 120.0, 140.0}) {
    const double mid = at(K);
    const double avg = 0.5 * (at(K - 10.0) + at(K + 10.0));
    EXPECT_LE(mid, avg + 1e-9) << "K=" << K;
  }
}

TEST(Scaling, PriceIsHomogeneousInSpotAndStrike) {
  // V(aS, aK) = a V(S, K) for any a > 0 (lattice is scale-free in price).
  const OptionSpec s = paper_spec();
  OptionSpec scaled = s;
  scaled.S *= 3.0;
  scaled.K *= 3.0;
  const std::int64_t T = 400;
  EXPECT_NEAR(bopm::american_call_fft(scaled, T),
              3.0 * bopm::american_call_fft(s, T), 1e-8);
  EXPECT_NEAR(bsm::american_put_fft(scaled, T),
              3.0 * bsm::american_put_fft(s, T), 1e-8);
}

TEST(Refinement, AmericanPriceStabilizesWithT) {
  const OptionSpec s = paper_spec();
  const double a = bopm::american_call_fft(s, 4096);
  const double b = bopm::american_call_fft(s, 8192);
  const double c = bopm::american_call_fft(s, 16384);
  EXPECT_LT(std::abs(c - b), std::abs(b - a) + 1e-6);
  EXPECT_LT(std::abs(c - b), 1e-3);
}

}  // namespace
