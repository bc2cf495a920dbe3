// Tests for S4: multi-step linear stencil application equals one
// correlation with the kernel power, and the kernel cache is consistent
// (including under concurrent access from OpenMP tasks).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "amopt/core/task_pool.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace {

using namespace amopt;

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

struct StepCase {
  std::size_t taps;
  std::uint64_t h;
};

class MultiStep : public ::testing::TestWithParam<StepCase> {};

TEST_P(MultiStep, KernelCorrelationEqualsStepByStep) {
  const auto [n_taps, h] = GetParam();
  stencil::LinearStencil st;
  st.taps = n_taps == 2 ? std::vector<double>{0.47, 0.51}
                        : std::vector<double>{0.2, 0.5, 0.28};
  const std::size_t g = n_taps - 1;
  const std::size_t n_in = g * h + 40;
  const auto in = random_vec(n_in, static_cast<unsigned>(h * 3 + n_taps));

  const auto stepwise = stencil::apply_steps_naive(st, in, h);
  const auto kernel = poly::power(st.taps, h);
  std::vector<double> conv_out(n_in - g * h);
  conv::correlate_valid(in, kernel, conv_out);

  ASSERT_EQ(stepwise.size(), conv_out.size());
  for (std::size_t i = 0; i < stepwise.size(); ++i)
    EXPECT_NEAR(conv_out[i], stepwise[i], 1e-8) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MultiStep,
    ::testing::Values(StepCase{2, 1}, StepCase{2, 2}, StepCase{2, 17},
                      StepCase{2, 100}, StepCase{3, 1}, StepCase{3, 13},
                      StepCase{3, 64}, StepCase{3, 200}));

TEST(LinearStencil, ConeGrowth) {
  EXPECT_EQ((stencil::LinearStencil{{0.5, 0.5}, 0}).cone_growth(), 1);
  EXPECT_EQ((stencil::LinearStencil{{0.3, 0.3, 0.3}, -1}).cone_growth(), 2);
}

TEST(KernelCache, ReturnsStableSpans) {
  stencil::KernelCache cache({{0.49, 0.5}, 0});
  const auto k8_first = cache.power(8);
  const auto k4 = cache.power(4);
  const auto k8_second = cache.power(8);
  EXPECT_EQ(k8_first.data(), k8_second.data());  // memoized, stable address
  ASSERT_EQ(k8_first.size(), 9u);
  ASSERT_EQ(k4.size(), 5u);
  const auto ref = poly::power(std::vector<double>{0.49, 0.5}, 8);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_DOUBLE_EQ(k8_first[i], ref[i]);
}

TEST(KernelCache, ConcurrentRequestsAgree) {
  stencil::KernelCache cache({{0.2, 0.5, 0.29}, 0});
  std::atomic<int> mismatches{0};
  core::TaskPool::instance().for_each(64, [&](std::size_t t) {
    const auto k = cache.power(static_cast<std::uint64_t>(16 + t % 4));
    const auto ref = poly::power(std::vector<double>{0.2, 0.5, 0.29},
                                 static_cast<std::uint64_t>(16 + t % 4));
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (std::abs(k[i] - ref[i]) > 1e-12) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(KernelCache, LadderPowersMatchNaiveUpTo4096) {
  // The shared squaring ladder must reproduce the plain repeated-squaring
  // kernels: request a mix of heights (power-of-two rungs, combined-bit
  // heights, and the trapezoid's typical halvings) against the O(h^2)
  // oracle up to h = 2^12. The ladder is also asserted bit-identical to
  // the ladder-free poly::power at every height — sharing rungs across
  // heights must not change a single bit.
  const std::vector<double> taps{0.24, 0.50, 0.25};
  stencil::KernelCache cache({taps, 0});
  for (const std::uint64_t h :
       {1u, 2u, 3u, 5u, 8u, 13u, 64u, 100u, 341u, 1024u, 2048u, 4096u}) {
    const auto k = cache.power(h);
    const auto plain = poly::power(taps, h);
    ASSERT_EQ(k.size(), plain.size()) << "h=" << h;
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(k[i], plain[i]) << "h=" << h << " i=" << i;
    if (h > 512) continue;  // the naive oracle is O(h^2)
    const auto naive = poly::power_naive(taps, h);
    ASSERT_EQ(k.size(), naive.size());
    double peak = 0.0;
    for (double x : naive) peak = std::max(peak, std::abs(x));
    for (std::size_t i = 0; i < naive.size(); ++i)
      EXPECT_NEAR(k[i], naive[i], 1e-11 * std::max(peak, 1.0))
          << "h=" << h << " i=" << i;
  }
  const auto naive = poly::power_naive(taps, 4096);
  const auto k = cache.power(4096);
  ASSERT_EQ(k.size(), naive.size());
  double peak = 0.0;
  for (double x : naive) peak = std::max(peak, std::abs(x));
  for (std::size_t i = 0; i < naive.size(); ++i)
    EXPECT_NEAR(k[i], naive[i], 1e-10 * std::max(peak, 1.0)) << "i=" << i;
  // 12 heights <= 2^12 share one 13-rung chain (taps^1 .. taps^4096).
  EXPECT_LE(cache.stats().ladder_rungs, 13u);
}

/// The production tap groups at T = 8192: BOPM {s0, s1}, TOPM {s0, s1, s2}
/// and the centered BSM FDM stencil {b, c, a}.
std::vector<std::vector<double>> production_taps() {
  const pricing::OptionSpec spec = pricing::paper_spec();
  const pricing::BopmParams b = pricing::derive_bopm(spec, 8192);
  const pricing::TopmParams t = pricing::derive_topm(spec, 8192);
  const pricing::BsmParams f = pricing::derive_bsm(spec, 8192);
  return {{b.s0, b.s1}, {t.s0, t.s1, t.s2}, {f.b, f.c, f.a}};
}

/// Bin k of a spectrum (split layout: re[0, m) then im[0, m)).
[[nodiscard]] fft::cplx bin(const fft::RealSpectrum& s, std::size_t k) {
  return {s.re()[k], s.im()[k]};
}

/// The largest bin magnitude of a spectrum.
[[nodiscard]] double peak_bin(const fft::RealSpectrum& s) {
  double peak = 0.0;
  for (std::size_t k = 0; k < s.points(); ++k)
    peak = std::max(peak, std::abs(bin(s, k)));
  return peak;
}

/// Cache spectra are built from the taps, so they are compared with the
/// transformed time-domain power to c * h * eps of the largest bin. The
/// measured worst case is 25 (TOPM; BSM 13, BOPM 3.4 at every dispatch
/// level), and a long-double evaluation of R(w)^h puts nearly all of it on
/// the transformed-power side: the cache's bins lie within 1 * h * eps.
constexpr double kBinC = 64.0;
constexpr double kEps = std::numeric_limits<double>::epsilon();

TEST(KernelCache, SpectraAreCachedPerHeightAndSize) {
  const std::vector<double> taps{0.2, 0.5, 0.29};
  stencil::KernelCache cache({taps, 0});
  const std::size_t n = 256;
  const auto sp1 = cache.power_spectrum(16, n);
  const auto sp2 = cache.power_spectrum(16, n);
  const fft::RealSpectrum& s1 = *sp1;
  EXPECT_EQ(sp1.get(), sp2.get());  // memoized, stable entry
  EXPECT_EQ(s1.n, n);
  EXPECT_TRUE(s1.reversed);
  EXPECT_EQ(s1.klen, cache.power(16).size());
  const auto sp3 = cache.power_spectrum(16, 2 * n);
  EXPECT_NE(sp1.get(), sp3.get());  // same height, different padded size
  EXPECT_EQ(cache.stats().spectra, 2u);

  // Every bin matches an independent reference — the reversed transform of
  // poly::power — to kBinC * h * eps of the largest bin, for the production
  // taps from h = 1 to 8192, at the minimal and the doubled padded size.
  conv::Workspace ws;
  for (const std::vector<double>& prod : production_taps()) {
    stencil::KernelCache c({prod, 0});
    for (const std::uint64_t h :
         {1u, 2u, 3u, 64u, 341u, 1024u, 4096u, 8192u}) {
      const std::size_t klen = (prod.size() - 1) * h + 1;
      const std::vector<double> power = poly::power(prod, h);
      for (const std::size_t size : {conv::correlate_fft_size(1, klen),
                                     conv::correlate_fft_size(klen, klen)}) {
        const auto got = c.power_spectrum(h, size);
        const fft::RealSpectrum want =
            conv::kernel_spectrum(power, size, /*reversed=*/true, ws);
        EXPECT_EQ(got->klen, klen);
        EXPECT_TRUE(got->reversed);
        ASSERT_EQ(got->n, want.n);
        const double tol =
            kBinC * static_cast<double>(h) * kEps * peak_bin(want);
        for (std::size_t i = 0; i < want.points(); ++i)
          ASSERT_LE(std::abs(bin(*got, i) - bin(want, i)), tol)
              << "taps " << prod.size() << " h=" << h << " n=" << size
              << " bin " << i;
      }
    }
  }
}

TEST(KernelCache, SpectralCorrelationMatchesTimeDomain) {
  // The cached-spectrum correlation matches the time-domain FFT correlation
  // within the bins' bound, scaled by the input's magnitude.
  std::vector<std::vector<double>> groups = production_taps();
  groups.push_back({0.3, 0.45, 0.22});
  for (const std::vector<double>& taps : groups) {
    stencil::KernelCache cache({taps, 0});
    for (const std::uint64_t h : {40u, 341u, 1024u}) {
      const auto kernel = cache.power(h);
      const auto in = random_vec(3 * kernel.size(), 77);
      const std::size_t n_out = in.size() - kernel.size() + 1;
      std::vector<double> want(n_out), got(n_out);
      conv::correlate_valid(in, kernel, want, {conv::Policy::Path::fft});
      conv::Workspace ws;
      const auto spec = cache.power_spectrum(
          h, conv::correlate_fft_size(n_out, kernel.size()));
      conv::correlate_valid(in, *spec, got, ws);
      // The bins carry the inverse's 1/m; the bound is on the unscaled ones.
      const double peak =
          static_cast<double>(spec->points()) * peak_bin(*spec);
      const double in_max = *std::max_element(in.begin(), in.end());
      const double tol =
          kBinC * static_cast<double>(h) * kEps * peak * in_max;
      for (std::size_t i = 0; i < n_out; ++i)
        ASSERT_NEAR(got[i], want[i], tol)
            << "taps " << taps.size() << " h=" << h << " i=" << i;
    }
  }
}

TEST(SpectrumBudget, CapsBytesWithLruEvictionAcrossCaches) {
  // Two caches share one registry-level budget sized for roughly two
  // spectra at n = 256 (a 128-point spectrum is 2048 bytes): inserting a
  // third evicts the least-recently-used entry, whichever cache owns it.
  const std::vector<double> taps{0.2, 0.5, 0.29};
  auto budget = std::make_shared<stencil::SpectrumBudget>(2 * 2048);
  stencil::KernelCache a({taps, 0}), b({taps, 0});
  a.set_spectrum_budget(budget);
  b.set_spectrum_budget(budget);

  const auto s1 = a.power_spectrum(8, 256);
  const auto s2 = b.power_spectrum(8, 256);
  EXPECT_EQ(budget->stats().entries, 2u);
  EXPECT_LE(budget->stats().bytes, budget->max_bytes());
  // Touch a's entry so b's becomes the LRU victim of the next insert.
  (void)a.power_spectrum(8, 256);
  const auto s3 = a.power_spectrum(16, 256);
  const auto st = budget->stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_LE(st.bytes, budget->max_bytes());
  EXPECT_EQ(a.stats().spectra, 2u);  // both survivors live in cache a
  EXPECT_EQ(b.stats().spectra, 0u);  // b's entry was the victim
  // The evicted shared_ptr is still safe to use (in-flight consumers).
  EXPECT_EQ(s2->n, 256u);
  EXPECT_FALSE(s2->bins.empty());

  // Re-requesting the evicted entry rebuilds the identical bits.
  const auto s2b = b.power_spectrum(8, 256);
  ASSERT_EQ(s2b->bins.size(), s2->bins.size());
  for (std::size_t i = 0; i < s2->bins.size(); ++i)
    ASSERT_EQ(s2b->bins[i], s2->bins[i]) << "bin " << i;
  (void)s1;
  (void)s3;
}

TEST(SpectrumBudget, DyingCacheUnregistersItsEntries) {
  const std::vector<double> taps{0.2, 0.5, 0.29};
  auto budget = std::make_shared<stencil::SpectrumBudget>(1u << 20);
  {
    stencil::KernelCache c({taps, 0});
    c.set_spectrum_budget(budget);
    (void)c.power_spectrum(8, 256);
    (void)c.power_spectrum(16, 512);
    EXPECT_EQ(budget->stats().entries, 2u);
  }
  EXPECT_EQ(budget->stats().entries, 0u);
  EXPECT_EQ(budget->stats().bytes, 0u);
}

// A retired cache's entries stay in the budget's heap, marked dead, until
// they surface or the heap compacts. The dying caches below live on the
// heap, so ASan (CI's sanitize job) reports any call back into one as a
// use-after-free; CI's TSan jobs run this suite at widths 2 and 4.
constexpr std::size_t kSpec256 = 128 * sizeof(fft::cplx);  // n = 256
constexpr std::size_t kSpec128 = 64 * sizeof(fft::cplx);   // n = 128

TEST(SpectrumBudget, RetiredCacheIsNeverCalledBack) {
  const std::vector<double> taps{0.2, 0.5, 0.29};
  auto budget = std::make_shared<stencil::SpectrumBudget>(2 * kSpec256 + 100);
  const auto make_cache = [&] {
    auto c = std::make_unique<stencil::KernelCache>(
        stencil::LinearStencil{taps, 0});
    c->set_spectrum_budget(budget);
    return c;
  };
  auto live = make_cache();

  // One spectrum larger than the cap is admitted (its caller is about to
  // use it), so the budget sits over its cap when its owner dies; the
  // bytes leave at once, not when the entry surfaces.
  auto dying = make_cache();
  (void)dying->power_spectrum(8, 1024);
  EXPECT_GT(budget->stats().bytes, budget->max_bytes());
  dying.reset();
  EXPECT_EQ(budget->stats().bytes, 0u);
  EXPECT_EQ(budget->stats().entries, 0u);

  // A dead entry older than every live one sits at the heap top when
  // admissions overflow the cap: the eviction pass drops it without
  // calling its owner back, then evicts the live LRU entry.
  dying = make_cache();
  (void)dying->power_spectrum(8, 256);
  (void)live->power_spectrum(8, 256);
  dying.reset();
  EXPECT_EQ(budget->stats().entries, 1u);
  EXPECT_EQ(budget->stats().bytes, kSpec256);
  (void)live->power_spectrum(16, 256);
  EXPECT_EQ(budget->stats().evictions, 0u);
  (void)live->power_spectrum(32, 256);
  const auto st = budget->stats();
  EXPECT_EQ(st.evictions, 1u);  // the dead entry is dropped, not evicted
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.bytes, 2 * kSpec256);
  EXPECT_EQ(live->stats().spectra, 2u);
}

TEST(SpectrumBudget, ThousandRetirementsCountLiveEntriesOnly) {
  // 1000 caches come and go against a budget that never fills: stats()
  // counts live spectra only, before and after each heap compaction.
  const std::vector<double> taps{0.2, 0.5, 0.29};
  auto budget = std::make_shared<stencil::SpectrumBudget>(std::size_t{1} << 30);
  stencil::KernelCache keeper({taps, 0});
  keeper.set_spectrum_budget(budget);
  (void)keeper.power_spectrum(8, 128);
  std::vector<std::unique_ptr<stencil::KernelCache>> alive;
  std::size_t live = 1;
  for (int i = 0; i < 1000; ++i) {
    auto c = std::make_unique<stencil::KernelCache>(
        stencil::LinearStencil{taps, 0});
    c->set_spectrum_budget(budget);
    const std::size_t k = 1 + static_cast<std::size_t>(i) % 3;
    for (std::size_t j = 0; j < k; ++j)
      (void)c->power_spectrum(std::uint64_t{8} << j, 128);
    live += k;
    alive.push_back(std::move(c));
    if (alive.size() > 4) {
      live -= alive.front()->stats().spectra;
      alive.erase(alive.begin());
    }
    const auto st = budget->stats();
    ASSERT_EQ(st.entries, live) << "after cache " << i;
    ASSERT_EQ(st.bytes, live * kSpec128) << "after cache " << i;
  }
  alive.clear();
  EXPECT_EQ(budget->stats().entries, 1u);
  EXPECT_EQ(budget->stats().bytes, kSpec128);
  EXPECT_EQ(budget->stats().evictions, 0u);
}

TEST(SpectrumBudget, ExactLruOrderWithDeadEntriesOnTop) {
  // Dead entries hold the oldest stamps, so they sit above every live entry
  // in the heap; evictions must still take the live entries in exact LRU
  // order, across caches, honouring a warm hit's refreshed stamp.
  const std::vector<double> taps{0.2, 0.5, 0.29};
  auto budget = std::make_shared<stencil::SpectrumBudget>(4 * kSpec256);
  stencil::KernelCache a({taps, 0}), b({taps, 0});
  a.set_spectrum_budget(budget);
  b.set_spectrum_budget(budget);
  auto dying =
      std::make_unique<stencil::KernelCache>(stencil::LinearStencil{taps, 0});
  dying->set_spectrum_budget(budget);
  (void)dying->power_spectrum(8, 256);
  (void)dying->power_spectrum(16, 256);
  const auto a1 = a.power_spectrum(8, 256);
  (void)a.power_spectrum(16, 256);  // a2
  dying.reset();
  EXPECT_EQ(budget->stats().entries, 2u);
  EXPECT_EQ(budget->stats().bytes, 2 * kSpec256);

  EXPECT_EQ(a.power_spectrum(8, 256).get(), a1.get());  // a1 is now newest
  const auto b1 = b.power_spectrum(8, 256);
  const auto a3 = a.power_spectrum(32, 256);
  EXPECT_EQ(budget->stats().evictions, 0u);  // exactly at the cap
  // Live LRU order: a2, a1, b1, a3, then each new admission.
  const auto b2 = b.power_spectrum(16, 256);  // evicts a2
  EXPECT_EQ(budget->stats().evictions, 1u);
  EXPECT_EQ(a.stats().spectra, 2u);
  EXPECT_EQ(b.stats().spectra, 2u);
  const auto a4 = a.power_spectrum(64, 256);  // evicts a1
  EXPECT_EQ(budget->stats().evictions, 2u);
  EXPECT_EQ(a.stats().spectra, 2u);
  const auto b3 = b.power_spectrum(32, 256);  // evicts b1
  EXPECT_EQ(budget->stats().evictions, 3u);
  EXPECT_EQ(b.stats().spectra, 2u);
  // The survivors are exactly a3, a4, b2, b3 (warm hits return the same
  // entries).
  EXPECT_EQ(a.power_spectrum(32, 256).get(), a3.get());
  EXPECT_EQ(a.power_spectrum(64, 256).get(), a4.get());
  EXPECT_EQ(b.power_spectrum(16, 256).get(), b2.get());
  EXPECT_EQ(b.power_spectrum(32, 256).get(), b3.get());
  EXPECT_EQ(budget->stats().entries, 4u);
  (void)b1;
}

TEST(SpectrumBudget, ConcurrentRetirementsAndEvictions) {
  // Pool tasks fill and drop their own caches against one small budget
  // while also admitting into a shared cache: evictions cross caches and
  // retirements race admissions. The counts settle on the shared cache's.
  const std::vector<double> taps{0.2, 0.5, 0.29};
  auto budget = std::make_shared<stencil::SpectrumBudget>(8 * kSpec128);
  stencil::KernelCache shared({taps, 0});
  shared.set_spectrum_budget(budget);
  core::TaskPool::instance().for_each(64, [&](std::size_t t) {
    stencil::KernelCache own({taps, 0});
    own.set_spectrum_budget(budget);
    for (std::uint64_t h = 1; h <= 32; h *= 2) {
      EXPECT_EQ(own.power_spectrum(h, 128)->klen, 2 * h + 1);
      (void)shared.power_spectrum(h + t % 7, 128);
    }
  });
  const auto st = budget->stats();
  const auto sh = shared.stats();
  EXPECT_EQ(st.entries, sh.spectra);
  EXPECT_EQ(st.bytes, sh.spectrum_bytes);
  EXPECT_LE(st.bytes, budget->max_bytes());
  EXPECT_GT(st.evictions, 0u);
}

TEST(LinearStencil, NaiveApplyShrinksCorrectly) {
  stencil::LinearStencil st{{1.0, 1.0}, 0};  // Pascal's triangle
  const std::vector<double> in{1.0, 0.0, 0.0, 0.0, 0.0};
  const auto out = stencil::apply_steps_naive(st, in, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // only in[0] contributes via C(4,0)
  const std::vector<double> impulse_mid{0.0, 0.0, 1.0, 0.0, 0.0};
  const auto out2 = stencil::apply_steps_naive(st, impulse_mid, 2);
  // (1+x)^2 correlated: out[j] = C(2, 2-j) at the right offsets
  ASSERT_EQ(out2.size(), 3u);
  EXPECT_DOUBLE_EQ(out2[0], 1.0);
  EXPECT_DOUBLE_EQ(out2[1], 2.0);
  EXPECT_DOUBLE_EQ(out2[2], 1.0);
}

}  // namespace
