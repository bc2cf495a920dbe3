// Implied-volatility inversion tests: round-trip through the pricer,
// bracket failures, and monotonicity of the recovered smile.

#include <gtest/gtest.h>

#include <cmath>

#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/implied_vol.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

class RoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(RoundTrip, CallRecoversTrueVolatility) {
  const double true_vol = GetParam();
  OptionSpec spec = paper_spec();
  spec.V = true_vol;
  ImpliedVolConfig cfg;
  cfg.T = 2048;
  const double target = bopm::american_call_fft(spec, cfg.T);
  const auto res = american_call_implied_vol(spec, target, cfg);
  ASSERT_TRUE(res.converged) << "vol=" << true_vol;
  EXPECT_NEAR(res.vol, true_vol, 1e-5);
  EXPECT_LT(res.iterations, 40);
}

TEST_P(RoundTrip, PutRecoversTrueVolatility) {
  const double true_vol = GetParam();
  OptionSpec spec = paper_spec();
  spec.V = true_vol;
  ImpliedVolConfig cfg;
  cfg.T = 2048;
  const double target = bopm::american_put_fft(spec, cfg.T);
  const auto res = american_put_implied_vol(spec, target, cfg);
  ASSERT_TRUE(res.converged) << "vol=" << true_vol;
  EXPECT_NEAR(res.vol, true_vol, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Vols, RoundTrip,
                         ::testing::Values(0.08, 0.2, 0.45, 1.2));

TEST(ImpliedVol, RejectsUnattainableTargets) {
  OptionSpec spec = paper_spec();
  spec.S = 150.0;
  spec.K = 100.0;  // deep ITM: price >= intrinsic = 50 at any volatility
  ImpliedVolConfig cfg;
  cfg.T = 512;
  const auto low = american_call_implied_vol(spec, 1.0, cfg);
  EXPECT_FALSE(low.converged);
  // Above the spot: impossible for a call.
  const auto high = american_call_implied_vol(spec, spec.S * 1.5, cfg);
  EXPECT_FALSE(high.converged);
}

TEST(ImpliedVol, MonotoneInTargetPrice) {
  const OptionSpec spec = paper_spec();
  ImpliedVolConfig cfg;
  cfg.T = 1024;
  double prev = 0.0;
  for (double target : {6.0, 8.0, 12.0, 20.0}) {
    const auto res = american_call_implied_vol(spec, target, cfg);
    ASSERT_TRUE(res.converged) << "target=" << target;
    EXPECT_GT(res.vol, prev);
    prev = res.vol;
  }
}

TEST(ImpliedVol, ConsistentAcrossLatticeResolutions) {
  OptionSpec spec = paper_spec();
  spec.V = 0.3;
  ImpliedVolConfig coarse, fine;
  coarse.T = 512;
  fine.T = 4096;
  const double target = bopm::american_call_fft(spec, 8192);
  const auto a = american_call_implied_vol(spec, target, coarse);
  const auto b = american_call_implied_vol(spec, target, fine);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_NEAR(a.vol, b.vol, 5e-3);  // discretization-level agreement
  EXPECT_NEAR(b.vol, 0.3, 1e-3);
}

}  // namespace
