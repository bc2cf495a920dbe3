// BSM explicit-FDM tests: the paper's fft-bsm vs the vanilla projection
// loop, convergence of the European limit to the closed form, domination
// properties, and cross-model agreement of the American put.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "amopt/core/task_pool.hpp"
#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

struct GridCase {
  double S, K, R, V, Y;
  std::int64_t T;
};

OptionSpec to_spec(const GridCase& c) {
  OptionSpec s;
  s.S = c.S;
  s.K = c.K;
  s.R = c.R;
  s.V = c.V;
  s.Y = c.Y;
  return s;
}

class BsmGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(BsmGrid, FftPutMatchesVanilla) {
  const GridCase c = GetParam();
  const OptionSpec spec = to_spec(c);
  const double v = bsm::american_put_vanilla(spec, c.T);
  const double f = bsm::american_put_fft(spec, c.T);
  EXPECT_NEAR(f, v, 1e-8 * std::max(1.0, std::abs(v)));
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, BsmGrid,
    ::testing::Values(
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 16},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 100},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1000},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 2048},
        // short and odd T: narrow base rows, advances of every parity
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 2},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 3},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 17},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1023},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1025},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 4096},
        // no dividend (the paper's literal Eq. 5 setting)
        GridCase{127.62, 130, 0.00163, 0.2, 0.0, 1000},
        GridCase{100, 100, 0.05, 0.3, 0.0, 777},
        // rate above yield
        GridCase{100, 110, 0.08, 0.3, 0.01, 512},
        // deep in/out of the money
        GridCase{60, 100, 0.04, 0.25, 0.0, 512},
        GridCase{160, 100, 0.04, 0.25, 0.0, 512},
        // deep ITM, k_read < 0 (the base row is T + 1 + pad wide): with
        // Y > R the boundary jumps far left and the read cells are red,
        // with R > Y they stay green
        GridCase{30, 100, 0.01, 0.3, 0.2, 512},
        GridCase{30, 100, 0.2, 0.3, 0.01, 512},
        // high/low vol
        GridCase{100, 100, 0.03, 0.7, 0.02, 512},
        GridCase{100, 100, 0.03, 0.08, 0.02, 512}));

TEST(BsmEuropean, ConvergesToClosedForm) {
  for (double Y : {0.0, 0.0163}) {
    OptionSpec spec = paper_spec();
    spec.Y = Y;
    const double exact = bs::european_put(spec);
    double prev_err = 1e9;
    for (std::int64_t T : {256L, 1024L, 4096L}) {
      const double err = std::abs(bsm::european_put_fdm(spec, T) - exact);
      EXPECT_LT(err, prev_err) << "T=" << T << " Y=" << Y;
      prev_err = err;
    }
    EXPECT_LT(prev_err, 2e-3) << "Y=" << Y;
  }
}

TEST(BsmAmerican, DominatesEuropeanAndIntrinsic) {
  OptionSpec spec = paper_spec();
  spec.Y = 0.0;  // meaningful early-exercise premium needs R to dominate
  spec.R = 0.05;
  const std::int64_t T = 2048;
  const double amer = bsm::american_put_fft(spec, T);
  const double eur = bsm::european_put_fdm(spec, T);
  EXPECT_GT(amer, eur);  // strictly: R > 0 makes early exercise valuable
  EXPECT_GE(amer, std::max(0.0, spec.K - spec.S));
  EXPECT_LE(amer, spec.K);
}

TEST(BsmAmerican, AgreesWithLatticeModels) {
  // Same continuum problem, independent discretizations: BOPM lattice vs
  // explicit FDM must agree to discretization accuracy.
  const OptionSpec spec = paper_spec();
  const double fdm = bsm::american_put_fft(spec, 8192);
  const double lattice = bopm::american_put_fft(spec, 8192);
  EXPECT_NEAR(fdm, lattice, 5e-3);
}

TEST(BsmAmerican, ZeroRateEqualsEuropean) {
  OptionSpec spec = paper_spec();
  spec.R = 0.0;
  spec.Y = 0.0;
  const std::int64_t T = 1024;
  // Exact ties (R = 0 makes continuation == payoff to first order) leave
  // only FP-level noise between the two paths.
  EXPECT_NEAR(bsm::american_put_fft(spec, T), bsm::european_put_fdm(spec, T),
              1e-7);
}

TEST(BsmBoundary, MonotoneDecreasing) {
  // Theorem 4.2/4.3: the exercise boundary k_n never increases, and after
  // the initial jump rows it drops at most one cell per step.
  const OptionSpec spec = paper_spec();
  const auto f = bsm::exercise_boundary_vanilla(spec, 600);
  for (std::size_t n = 1; n < f.size(); ++n)
    EXPECT_LE(f[n], f[n - 1]) << "n=" << n;
  for (std::size_t n = 3; n < f.size(); ++n)
    EXPECT_GE(f[n], f[n - 1] - 1) << "n=" << n;
}

TEST(BsmBoundary, StartsAtPayoffKink) {
  const OptionSpec spec = paper_spec();
  const auto f = bsm::exercise_boundary_vanilla(spec, 100);
  EXPECT_EQ(f[0], 0);
}

TEST(BsmLayout, ReadCellsCoverTarget) {
  // Near the money, deep ITM (k_read < 0) and deep OTM.
  for (const double S : {127.62, 30.0, 400.0}) {
    OptionSpec spec = paper_spec();
    spec.S = S;
    const auto prm = derive_bsm(spec, 512);
    const auto lay = bsm::make_layout(prm);
    EXPECT_GE(lay.theta, 0.0) << "S=" << S;
    EXPECT_LT(lay.theta, 1.0) << "S=" << S;
    const double s_back =
        (static_cast<double>(lay.k_read) + lay.theta) * prm.ds;
    EXPECT_NEAR(s_back, prm.s_target, 1e-12) << "S=" << S;
    // Both read cells survive T steps of cone erosion, and kr0 >= T + 1
    // keeps every top-level advance's 2L margin.
    const std::int64_t cone = std::max<std::int64_t>(lay.k_read + 1, 1);
    EXPECT_GE(lay.kr0 - prm.T, cone) << "S=" << S;
    // ... and the base row stores no more than that cone plus the pad (a
    // 2T-wide row fails this near the money and deep ITM).
    EXPECT_LE(lay.kr0 - prm.T - cone, bsm::FdmLayout::kPad) << "S=" << S;
  }
}

TEST(BsmPutGreen, EveryReadEqualsTheClosedForm) {
  const double ds = derive_bsm(paper_spec(), 8192).ds;
  const std::int64_t span = 8192;
  const bsm::PutGreen green(ds, span);
  const auto exact = [&](std::int64_t k) {
    return -std::expm1(static_cast<double>(k) * ds);
  };
  // Four executors read every slot at once (the TSan job runs this at pool
  // widths 2 and 4) ...
  std::vector<std::int64_t> wrong(4, 0);
  core::TaskPool::instance().for_each(
      4,
      [&](std::size_t i) {
        for (std::int64_t k = -span; k <= span; ++k)
          if (green.value(0, k) != exact(k)) ++wrong[i];
      },
      4);
  EXPECT_EQ(wrong, std::vector<std::int64_t>(4, 0));
  // ... then one thread reads every slot back, and k outside the span.
  for (std::int64_t k = -span; k <= span; ++k)
    EXPECT_EQ(green.value(0, k), exact(k)) << "k=" << k;
  for (const std::int64_t k : {-span - 1, span + 1, -7 * span, 7 * span})
    EXPECT_EQ(green.value(0, k), exact(k)) << "k=" << k;
}

TEST(BsmVanilla, SerialAndParallelAgree) {
  const OptionSpec spec = paper_spec();
  EXPECT_NEAR(bsm::american_put_vanilla(spec, 512),
              bsm::american_put_vanilla_parallel(spec, 512), 1e-12);
}

}  // namespace
