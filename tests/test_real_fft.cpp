// Tests for the real-input forward transform (RealPlan): equivalence with
// the complex FFT, Nyquist-bin handling, and the thread-safety of the
// lock-free plan caches.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "amopt/fft/fft.hpp"

namespace {

using amopt::fft::cplx;

std::vector<double> random_real(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

class RealFftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftSizes, MatchesComplexFft) {
  const std::size_t n = GetParam();
  const std::vector<double> x = random_real(n, 7 + static_cast<unsigned>(n));
  const amopt::fft::RealPlan& plan = amopt::fft::real_plan_for(n);
  ASSERT_EQ(plan.size(), n);
  ASSERT_EQ(plan.spectrum_size(), n / 2 + 1);
  std::vector<cplx> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());

  std::vector<cplx> z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = cplx{x[i], 0.0};
  amopt::fft::forward(z);

  const double tol = 1e-11 * static_cast<double>(std::max<std::size_t>(n, 8));
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(spec[k].real(), z[k].real(), tol) << "k=" << k;
    EXPECT_NEAR(spec[k].imag(), z[k].imag(), tol) << "k=" << k;
  }
  // DC and Nyquist bins of a real signal are purely real.
  EXPECT_DOUBLE_EQ(spec[0].imag(), 0.0);
  if (n >= 2) {
    EXPECT_DOUBLE_EQ(spec[n / 2].imag(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, RealFftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 256, 1024,
                                           4096, 1u << 14, 1u << 16));

TEST(RealFft, PureNyquistSignal) {
  // x[i] = (-1)^i concentrates all energy in the Nyquist bin X[n/2] = n.
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const amopt::fft::RealPlan& plan = amopt::fft::real_plan_for(n);
  std::vector<cplx> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());
  EXPECT_NEAR(spec[n / 2].real(), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n / 2; ++k)
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9) << "k=" << k;
}

TEST(RealFft, NyquistPlusDcMix) {
  // A signal with non-trivial DC, Nyquist, AND mid bins exercises all three
  // branches of the untangling pass at once.
  const std::size_t n = 64;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 2.0 * std::numbers::pi * static_cast<double>(i) /
                     static_cast<double>(n);
    x[i] = 3.0 + ((i % 2 == 0) ? 2.0 : -2.0) + std::cos(5.0 * t) -
           0.5 * std::sin(13.0 * t);
  }
  const amopt::fft::RealPlan& plan = amopt::fft::real_plan_for(n);
  std::vector<cplx> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(spec[0].real(), 3.0 * nd, 1e-9);
  EXPECT_NEAR(spec[n / 2].real(), 2.0 * nd, 1e-9);
  EXPECT_NEAR(spec[5].real(), 0.5 * nd, 1e-9);
  EXPECT_NEAR(spec[13].imag(), 0.25 * nd, 1e-9);  // -0.5 sin -> +i n/4
}

TEST(RealFft, PlanCacheReturnsSameInstance) {
  const auto& p1 = amopt::fft::real_plan_for(512);
  const auto& p2 = amopt::fft::real_plan_for(512);
  EXPECT_EQ(&p1, &p2);
}

TEST(PlanCache, ConcurrentLookupsAgreeAndSurvive) {
  // Hammer the three plan caches from many threads over a mix of cold and
  // warm sizes; every thread must observe the same plan instance per size
  // and every transform must stay correct.
  const std::vector<std::size_t> sizes{8, 16, 32, 64, 128,
                                       256, 512, 1024, 2048, 4096};
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::vector<const void*>> seen(
      kThreads, std::vector<const void*>(sizes.size(), nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
          // Interleave orders across threads so cold misses race.
          const std::size_t idx = (s + static_cast<std::size_t>(t)) % sizes.size();
          const auto& p = amopt::fft::plan_for(sizes[idx]);
          const auto& rp = amopt::fft::real_plan_for(sizes[idx]);
          const auto& np = amopt::fft::negacyclic_plan_for(sizes[idx]);
          EXPECT_EQ(p.size(), sizes[idx]);
          EXPECT_EQ(rp.size(), sizes[idx]);
          EXPECT_EQ(np.points(), sizes[idx] / 2);
          if (seen[static_cast<std::size_t>(t)][idx] == nullptr) {
            seen[static_cast<std::size_t>(t)][idx] = &p;
          } else {
            EXPECT_EQ(seen[static_cast<std::size_t>(t)][idx], &p);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Cross-thread agreement.
  for (int t = 1; t < kThreads; ++t)
    for (std::size_t s = 0; s < sizes.size(); ++s)
      EXPECT_EQ(seen[0][s], seen[static_cast<std::size_t>(t)][s]);
}

}  // namespace
