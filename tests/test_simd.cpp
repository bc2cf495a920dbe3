// The SIMD dispatch layer: every kernel table available on the host must
// agree with the scalar table (within the documented cross-path FFT
// round-off, DESIGN.md §4), the scalar dispatch level must stay
// bit-identical to the pre-SIMD implementation (asserted against a verbatim
// copy of that implementation below), and every vector kernel must accept
// deliberately misaligned operands. CI additionally reruns the whole suite
// under AMOPT_SIMD=scalar / avx2 (the env-forced form of the overrides
// exercised here through set_level).

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <random>
#include <span>
#include <vector>

#include "amopt/common/aligned.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/fft/fft.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/simd/kernels.hpp"
#include "amopt/simd/simd.hpp"

namespace {

using namespace amopt;
using simd::cplx;
using simd::Level;

// Cross-path agreement bound: identical formulas evaluated with identical
// per-element association, differing only in multiply-add contraction
// (AVX-512's FMA vs separate rounding). Relative to the data magnitude.
constexpr double kPathTol = 1e-12;

/// Every level compiled in AND executable on this host, scalar first.
[[nodiscard]] std::vector<Level> available_levels() {
  std::vector<Level> lvls{Level::scalar};
  for (Level l : {Level::avx2, Level::avx512})
    if (static_cast<int>(l) <= static_cast<int>(simd::max_supported()))
      lvls.push_back(l);
  return lvls;
}

[[nodiscard]] std::vector<double> random_real(std::size_t n,
                                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

[[nodiscard]] std::vector<cplx> random_complex(std::size_t n,
                                               std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx{d(rng), d(rng)};
  return v;
}

/// Restore the default dispatch level even if a test fails mid-way.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_level(simd::max_supported()); }
};

TEST_F(SimdTest, LevelParsingAndClamping) {
  Level lvl = Level::scalar;
  EXPECT_TRUE(simd::parse_level("scalar", lvl));
  EXPECT_EQ(lvl, Level::scalar);
  EXPECT_TRUE(simd::parse_level("avx2", lvl));
  EXPECT_EQ(lvl, Level::avx2);
  EXPECT_TRUE(simd::parse_level("avx512", lvl));
  EXPECT_EQ(lvl, Level::avx512);
  EXPECT_TRUE(simd::parse_level("avx512f", lvl));
  EXPECT_EQ(lvl, Level::avx512);
  EXPECT_FALSE(simd::parse_level("sse9", lvl));
  EXPECT_FALSE(simd::parse_level("", lvl));

  // set_level never installs more than the host supports and reports what
  // it actually installed.
  const Level eff = simd::set_level(Level::avx512);
  EXPECT_LE(static_cast<int>(eff), static_cast<int>(simd::max_supported()));
  EXPECT_EQ(simd::active(), eff);
  EXPECT_EQ(simd::set_level(Level::scalar), Level::scalar);
  EXPECT_EQ(simd::active(), Level::scalar);
}

// ---------------------------------------------------------------------
// Per-kernel agreement of every available table with the scalar table,
// on both aligned and deliberately misaligned operands.
// ---------------------------------------------------------------------

TEST_F(SimdTest, PointwiseKernelsAgreeAcrossPathsAndAlignments) {
  const std::size_t n = 1027;  // odd: exercises every tail loop
  for (const Level lvl : available_levels()) {
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t off : {0u, 1u}) {  // 1 element = 8B: misaligned
      // cmul, and csquare against this level's cmul(a, a-copy): bit-
      // identical at every level (the contract the aliased convolution fast
      // path leans on: csquare runs cmul's expressions on one load).
      {
        const auto ar = random_real(n + off, 11), ai = random_real(n + off, 12);
        const auto br = random_real(n + off, 13), bi = random_real(n + off, 14);
        aligned_vector<double> re(ar.begin(), ar.end()),
            im(ai.begin(), ai.end());
        k.cmul(re.data() + off, im.data() + off, br.data() + off,
               bi.data() + off, n);
        for (std::size_t i = 0; i < n; ++i) {
          const cplx want =
              cplx{ar[i + off], ai[i + off]} * cplx{br[i + off], bi[i + off]};
          EXPECT_NEAR(std::abs(cplx{re[i + off], im[i + off]} - want), 0.0,
                      kPathTol)
              << simd::to_string(lvl) << " off=" << off << " i=" << i;
        }
        aligned_vector<double> pr(ar.begin(), ar.end()),
            pi(ai.begin(), ai.end()), sr = pr, si = pi;
        k.cmul(pr.data() + off, pi.data() + off, ar.data() + off,
               ai.data() + off, n);
        k.csquare(sr.data() + off, si.data() + off, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(sr[i + off], pr[i + off])
              << simd::to_string(lvl) << " off=" << off << " i=" << i;
          ASSERT_EQ(si[i + off], pi[i + off]);
        }
      }
      // correlate_taps / stencil3
      {
        const auto in = random_real(n + 2 + off, 21);
        const double taps[3] = {0.3, 0.5, 0.2};
        std::vector<double> want(n);
        for (std::size_t j = 0; j < n; ++j)
          want[j] = taps[0] * in[off + j] + taps[1] * in[off + j + 1] +
                    taps[2] * in[off + j + 2];
        std::vector<double> got(n, 0.0);
        k.correlate_taps(in.data() + off, taps, 3, got.data(), n);
        for (std::size_t j = 0; j < n; ++j)
          EXPECT_NEAR(got[j], want[j], kPathTol);
        std::fill(got.begin(), got.end(), 0.0);
        k.stencil3(in.data() + off, taps[0], taps[1], taps[2], got.data(), n);
        for (std::size_t j = 0; j < n; ++j)
          EXPECT_NEAR(got[j], want[j], kPathTol);
      }
    }
  }
}

TEST_F(SimdTest, FftStageKernelsMatchScalarTable) {
  const simd::Kernels& ref = simd::kernels(Level::scalar);
  for (const Level lvl : available_levels()) {
    if (lvl == Level::scalar) continue;
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t n : {8u, 16u, 24u, 64u, 256u, 1024u}) {
      // Stage twiddles for a few half-sizes, in the SoA layout. h = 2 (the
      // odd-log2 stage, vectorized by the 2x4 half-transpose kernel) is
      // exercised at sizes that leave 0 or 1 trailing blocks.
      for (std::size_t h :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, n / 4}) {
        // Kernel contract: n a multiple of the 4h block, h a power of two
        // (n = 24 exists in the sweep precisely to hand the h = 2 kernel an
        // odd trailing block).
        if (4 * h > n || !is_pow2(h) || n % (4 * h) != 0) continue;
        aligned_vector<double> w(6 * h);
        const double theta = -std::numbers::pi / static_cast<double>(2 * h);
        for (std::size_t j = 0; j < h; ++j) {
          const double a = theta * static_cast<double>(j);
          w[0 * h + j] = std::cos(a);
          w[1 * h + j] = std::sin(a);
          w[2 * h + j] = std::cos(2 * a);
          w[3 * h + j] = std::sin(2 * a);
          w[4 * h + j] = std::cos(3 * a);
          w[5 * h + j] = std::sin(3 * a);
        }
        for (const bool inverse : {false, true}) {
          // off = 1 element (8B) leaves every operand misaligned.
          for (const std::size_t off : {0u, 1u}) {
            aligned_vector<double> re_a(n), im_a(n), re_b(n + off),
                im_b(n + off);
            const auto seed_re = random_real(n, 41);
            const auto seed_im = random_real(n, 42);
            std::copy(seed_re.begin(), seed_re.end(), re_a.begin());
            std::copy(seed_im.begin(), seed_im.end(), im_a.begin());
            double* const rb = re_b.data() + off;
            double* const ib = im_b.data() + off;
            std::copy(re_a.begin(), re_a.end(), rb);
            std::copy(im_a.begin(), im_a.end(), ib);
            ref.radix4_pass(re_a.data(), im_a.data(), n, h, w.data(), inverse);
            k.radix4_pass(rb, ib, n, h, w.data(), inverse);
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_NEAR(rb[i], re_a[i], kPathTol)
                  << simd::to_string(lvl) << " n=" << n << " h=" << h
                  << " off=" << off;
              EXPECT_NEAR(ib[i], im_a[i], kPathTol);
            }
            // The DIF stage (forward only) on fresh (post-pass) data.
            if (!inverse) {
              std::copy(re_a.begin(), re_a.end(), rb);
              std::copy(im_a.begin(), im_a.end(), ib);
              ref.dif4_pass(re_a.data(), im_a.data(), n, h, w.data());
              k.dif4_pass(rb, ib, n, h, w.data());
              for (std::size_t i = 0; i < n; ++i) {
                EXPECT_NEAR(rb[i], re_a[i], kPathTol)
                    << simd::to_string(lvl) << " dif n=" << n << " h=" << h
                    << " off=" << off;
                EXPECT_NEAR(ib[i], im_a[i], kPathTol);
              }
            }
            // Also radix2 on fresh (post-pass) data.
            std::copy(re_a.begin(), re_a.end(), rb);
            std::copy(im_a.begin(), im_a.end(), ib);
            ref.radix2_pass(re_a.data(), im_a.data(), n);
            k.radix2_pass(rb, ib, n);
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_NEAR(rb[i], re_a[i], kPathTol) << " off=" << off;
              EXPECT_NEAR(ib[i], im_a[i], kPathTol);
            }
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, RfftUntangleMatchesScalarTable) {
  const simd::Kernels& ref = simd::kernels(Level::scalar);
  for (const Level lvl : available_levels()) {
    if (lvl == Level::scalar) continue;
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t m : {4u, 8u, 32u, 512u}) {
      std::vector<cplx> tw(m / 2 + 1);
      for (std::size_t i = 0; i <= m / 2; ++i) {
        const double a =
            -2.0 * std::numbers::pi * static_cast<double>(i) /
            static_cast<double>(2 * m);
        tw[i] = cplx{std::cos(a), std::sin(a)};
      }
      for (const std::size_t off : {0u, 1u}) {  // 1 complex = 16B
        auto spec_a = random_complex(m + 1, 51);
        aligned_vector<cplx> spec_b(m + 1 + off);
        std::copy(spec_a.begin(), spec_a.end(), spec_b.begin() + off);
        cplx* const sb = spec_b.data() + off;
        ref.rfft_untangle(spec_a.data(), tw.data(), m);
        k.rfft_untangle(sb, tw.data(), m);
        for (std::size_t i = 0; i <= m; ++i)
          EXPECT_NEAR(std::abs(sb[i] - spec_a[i]), 0.0, kPathTol)
              << simd::to_string(lvl) << " m=" << m << " off=" << off;
      }
    }
  }
}

TEST_F(SimdTest, TapPowerBinsMatchScalarTableAndDirectEvaluation) {
  // Kernel spectra straight from the taps, at the negacyclic points
  // y_j = e^{i pi (1 - 4j) / n} (n = 2m) and stored at bit-reversed
  // positions, scaled by 1/m. The scalar table matches a long-double
  // evaluation of R(y_j)^h / m, and every level matches the scalar table,
  // both within 4 h eps of the largest bin (the squaring chain doubles a
  // bin's relative error per step) plus an absolute 2e-120 for the floor:
  // a bin with |R(y)|^h < 1e-120 reads 0, which is all of {0.7}^8192.
  // Sizes below and above each level's transpose size (kLanes^2),
  // misaligned outputs and h = 0 (bins all 1/m) are covered.
  const simd::Kernels& ref = simd::kernels(Level::scalar);
  const std::vector<std::vector<double>> tap_sets{
      {0.7}, {0.49, 0.5}, {0.24, 0.5, 0.25}, {0.1, 0.3, 0.4, 0.19}};
  const double eps = std::numeric_limits<double>::epsilon();
  for (const std::size_t m : {1u, 2u, 4u, 16u, 32u, 64u, 128u, 1024u}) {
    const fft::NegacyclicPlan& plan = fft::negacyclic_plan_for(2 * m);
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < m) ++bits;
    const double s = 1.0 / static_cast<double>(m);
    for (const std::vector<double>& taps : tap_sets) {
      for (const std::uint64_t h : {0u, 1u, 2u, 3u, 64u, 341u, 8192u}) {
        std::vector<double> want(2 * m);
        ref.tap_power_bins(taps.data(), taps.size(), h, plan.root_re(),
                           plan.root_im(), m, s, want.data(),
                           want.data() + m);
        double peak = 0.0;
        for (std::size_t p = 0; p < m; ++p)
          peak = std::max(peak, std::abs(cplx{want[p], want[m + p]}));
        const double tol =
            4.0 * static_cast<double>(std::max<std::uint64_t>(h, 1)) * eps *
                peak +
            2e-120;
        for (std::size_t j = 0; j < m; ++j) {
          const long double a =
              std::numbers::pi_v<long double> *
              (1.0L - 4.0L * static_cast<long double>(j)) /
              static_cast<long double>(2 * m);
          const std::complex<long double> y{std::cos(a), std::sin(a)};
          std::complex<long double> r = taps[0];
          for (std::size_t i = 1; i < taps.size(); ++i)
            r = r * y + static_cast<long double>(taps[i]);
          std::complex<long double> pw = 1.0L;
          for (std::uint64_t e = h; e != 0; e >>= 1, r *= r)
            if (e & 1u) pw *= r;
          std::size_t p = 0;
          for (std::size_t b = 0; b < bits; ++b)
            p |= ((j >> b) & 1u) << (bits - 1 - b);
          const cplx got{want[p], want[m + p]};
          if (h == 0) {
            EXPECT_EQ(got, cplx(s, 0.0));
          }
          EXPECT_LE(std::abs(pw * static_cast<long double>(s) -
                             std::complex<long double>(got)),
                    tol)
              << "m=" << m << " taps=" << taps.size() << " h=" << h
              << " j=" << j;
        }
        for (const Level lvl : available_levels()) {
          if (lvl == Level::scalar) continue;
          for (const std::size_t off : {0u, 1u}) {  // 1 double = 8B
            aligned_vector<double> got(2 * m + off);
            simd::kernels(lvl).tap_power_bins(
                taps.data(), taps.size(), h, plan.root_re(), plan.root_im(),
                m, s, got.data() + off, got.data() + off + m);
            for (std::size_t p = 0; p < m; ++p)
              ASSERT_LE(std::abs(cplx{got[off + p], got[off + m + p]} -
                                 cplx{want[p], want[m + p]}),
                        tol)
                  << simd::to_string(lvl) << " m=" << m
                  << " taps=" << taps.size() << " h=" << h << " p=" << p
                  << " off=" << off;
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, DeinterleaveRevMatchesScalarBitReversal) {
  for (const Level lvl : available_levels()) {
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t n : {8u, 64u, 4096u}) {
      std::size_t log2n = 0;
      while ((std::size_t{1} << log2n) < n) ++log2n;
      std::vector<std::uint32_t> rev(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = 0;
        for (std::size_t b = 0; b < log2n; ++b)
          r |= ((i >> b) & 1u) << (log2n - 1 - b);
        rev[i] = static_cast<std::uint32_t>(r);
      }
      const auto z = random_complex(n, 61);
      aligned_vector<double> re(n), im(n);
      k.deinterleave_rev(z.data(), rev.data(), re.data(), im.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(re[i], z[rev[i]].real()) << simd::to_string(lvl);
        ASSERT_EQ(im[i], z[rev[i]].imag());
      }
    }
  }
}

// ---------------------------------------------------------------------
// Scalar-level bit-identity with the pre-SIMD implementation.
// ---------------------------------------------------------------------

/// Verbatim copy of the pre-SIMD radix-4 transform (twiddle construction,
/// bit reversal, stage structure, butterfly expressions) as it stood before
/// the dispatch layer. The library's scalar level must reproduce it BIT FOR
/// BIT — that is the contract that lets AMOPT_SIMD=scalar reproduce any
/// historical result exactly.
class ReferencePlan {
 public:
  explicit ReferencePlan(std::size_t n) : n_(n), log2n_(0) {
    while ((std::size_t{1} << log2n_) < n_) ++log2n_;
    std::size_t total = 0;
    for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) total += 3 * h;
    twiddle4_.resize(total);
    cplx* w = twiddle4_.data();
    for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) {
      const double theta = -std::numbers::pi / static_cast<double>(2 * h);
      for (std::size_t j = 0; j < h; ++j) {
        const double a = theta * static_cast<double>(j);
        w[3 * j + 0] = cplx{std::cos(a), std::sin(a)};
        w[3 * j + 1] = cplx{std::cos(2 * a), std::sin(2 * a)};
        w[3 * j + 2] = cplx{std::cos(3 * a), std::sin(3 * a)};
      }
      w += 3 * h;
    }
    bitrev_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < log2n_; ++b)
        r |= ((i >> b) & 1u) << (log2n_ - 1 - b);
      bitrev_[i] = static_cast<std::uint32_t>(r);
    }
  }

  void transform(cplx* data, bool inverse) const {
    if (n_ <= 1) return;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t r = bitrev_[i];
      if (i < r) std::swap(data[i], data[r]);
    }
    std::size_t h = 1;
    if (log2n_ & 1) {
      for (std::size_t base = 0; base < n_; base += 2) {
        const cplx t = data[base + 1];
        data[base + 1] = data[base] - t;
        data[base] += t;
      }
      h = 2;
    }
    const cplx* w = twiddle4_.data();
    for (; h < n_; h <<= 2) {
      for (std::size_t base = 0; base < n_; base += 4 * h) {
        for (std::size_t j = 0; j < h; ++j) {
          cplx w1 = w[3 * j + 0];
          cplx w2 = w[3 * j + 1];
          cplx w3 = w[3 * j + 2];
          if (inverse) {
            w1 = std::conj(w1);
            w2 = std::conj(w2);
            w3 = std::conj(w3);
          }
          cplx& ra = data[base + j];
          cplx& rb = data[base + j + h];
          cplx& rc = data[base + j + 2 * h];
          cplx& rd = data[base + j + 3 * h];
          const cplx bb = rb * w2;
          const cplx cc = rc * w1;
          const cplx dd = rd * w3;
          const cplx a1 = ra + bb;
          const cplx b1 = ra - bb;
          const cplx s = cc + dd;
          const cplx t = cc - dd;
          const cplx it = inverse ? cplx{-t.imag(), t.real()}
                                  : cplx{t.imag(), -t.real()};
          ra = a1 + s;
          rc = a1 - s;
          rb = b1 + it;
          rd = b1 - it;
        }
      }
      w += 3 * h;
    }
    if (inverse) {
      const double inv_n = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
    }
  }

 private:
  std::size_t n_;
  std::size_t log2n_;
  std::vector<cplx> twiddle4_;
  std::vector<std::uint32_t> bitrev_;
};

TEST_F(SimdTest, ScalarLevelBitIdenticalToPreSimdTransform) {
  simd::set_level(Level::scalar);
  for (const std::size_t n : {4u, 8u, 64u, 1024u, 4096u, 8192u}) {
    const ReferencePlan ref(n);
    auto want = random_complex(n, 71);
    auto got = want;
    ref.transform(want.data(), /*inverse=*/false);
    fft::plan_for(n).forward(got.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i].real(), want[i].real()) << "n=" << n << " i=" << i;
      ASSERT_EQ(got[i].imag(), want[i].imag()) << "n=" << n << " i=" << i;
    }
    ref.transform(want.data(), /*inverse=*/true);
    fft::plan_for(n).inverse(got.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i].real(), want[i].real()) << "n=" << n << " i=" << i;
      ASSERT_EQ(got[i].imag(), want[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end dispatch parity.
// ---------------------------------------------------------------------

TEST_F(SimdTest, TransformParityAcrossLevels) {
  for (const std::size_t n : {64u, 1024u, 8192u}) {
    simd::set_level(Level::scalar);
    auto want = random_complex(n, 81);
    fft::plan_for(n).forward(want.data());
    double scale = 0.0;
    for (const cplx& x : want) scale = std::max(scale, std::abs(x));
    for (const Level lvl : available_levels()) {
      if (lvl == Level::scalar) continue;
      simd::set_level(lvl);
      auto got = random_complex(n, 81);
      fft::plan_for(n).forward(got.data());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, kPathTol * scale)
            << simd::to_string(lvl) << " n=" << n;
    }
  }
}

TEST_F(SimdTest, ConvolutionAndPriceParityAcrossLevels) {
  const auto a = random_real(3000, 91);
  const auto b = random_real(2000, 92);
  simd::set_level(Level::scalar);
  const auto want_conv =
      conv::convolve_full(a, b, {conv::Policy::Path::fft});
  const double want_price =
      pricing::bopm::american_call_fft(pricing::paper_spec(), 512);
  for (const Level lvl : available_levels()) {
    if (lvl == Level::scalar) continue;
    simd::set_level(lvl);
    const auto got_conv =
        conv::convolve_full(a, b, {conv::Policy::Path::fft});
    ASSERT_EQ(got_conv.size(), want_conv.size());
    double scale = 1.0;
    for (double x : want_conv) scale = std::max(scale, std::abs(x));
    for (std::size_t i = 0; i < want_conv.size(); ++i)
      EXPECT_NEAR(got_conv[i], want_conv[i], 1e-11 * scale)
          << simd::to_string(lvl);
    const double got_price =
        pricing::bopm::american_call_fft(pricing::paper_spec(), 512);
    EXPECT_NEAR(got_price, want_price, 1e-10 * want_price)
        << simd::to_string(lvl);
  }
}

TEST_F(SimdTest, SpectralConvolutionParityAcrossLevels) {
  // The spectral kernel path (precomputed RealSpectrum consumed by the
  // correlate/convolve overloads, and the KernelCache spectrum tier) must
  // agree with the transform-per-call path at every dispatch level: bit-
  // identical WITHIN a level (the cached bins are the bins the in-call
  // transform produces), and within the documented 1e-12 cross-path
  // tolerance BETWEEN levels.
  const auto in = random_real(3000, 101);
  const auto kernel = random_real(400, 102);
  const std::size_t n_out = in.size() - kernel.size() + 1;
  const std::size_t n = conv::correlate_fft_size(n_out, kernel.size());

  simd::set_level(Level::scalar);
  std::vector<double> want(n_out);
  conv::correlate_valid(in, kernel, want, {conv::Policy::Path::fft});
  double scale = 1.0;
  for (double x : want) scale = std::max(scale, std::abs(x));

  for (const Level lvl : available_levels()) {
    simd::set_level(lvl);
    conv::Workspace ws;
    const fft::RealSpectrum kspec =
        conv::kernel_spectrum(kernel, n, /*reversed=*/true, ws);
    std::vector<double> spectral(n_out), timedomain(n_out);
    conv::correlate_valid(in, kspec, spectral, ws);
    conv::correlate_valid(in, kernel, timedomain, ws,
                          {conv::Policy::Path::fft});
    for (std::size_t i = 0; i < n_out; ++i) {
      ASSERT_EQ(spectral[i], timedomain[i])
          << simd::to_string(lvl) << " i=" << i;  // within-level: same bits
      EXPECT_NEAR(spectral[i], want[i], kPathTol * scale)
          << simd::to_string(lvl) << " i=" << i;  // cross-level: 1e-12
    }
  }
}

TEST_F(SimdTest, AliasedSquaringBitIdenticalAtEveryLevel) {
  // The acceptance contract of the convolve_full(a, a) fast path: csquare
  // runs cmul(a, a)'s expressions on one load, so at every level the
  // one-transform square reproduces the two-transform product exactly.
  for (const Level lvl : available_levels()) {
    simd::set_level(lvl);
    for (const std::size_t n : {33u, 1000u, 4096u}) {
      const auto a = random_real(n, 111);
      const std::vector<double> a_copy = a;  // distinct storage, same bits
      const auto squared =
          conv::convolve_full(a, a, {conv::Policy::Path::fft});
      const auto product =
          conv::convolve_full(a, a_copy, {conv::Policy::Path::fft});
      ASSERT_EQ(squared.size(), product.size());
      for (std::size_t i = 0; i < squared.size(); ++i)
        ASSERT_EQ(squared[i], product[i])
            << simd::to_string(lvl) << " n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdTest, CorrelateTaps2RowScalarIsBitIdenticalToTwoSweeps) {
  // The fused two-step sweep must replay exactly two single-row sweeps at
  // the scalar level (the solve_base q-evolution bit-identity rests on it).
  const simd::Kernels& k = simd::tables::scalar;
  for (const std::size_t ntaps : {2u, 3u, 5u}) {
    for (const std::size_t n_mid : {9u, 64u, 700u, 1321u}) {
      const std::size_t n_out = n_mid - (ntaps - 1);
      const auto in = random_real(n_mid + ntaps - 1, 21);
      const auto taps = random_real(ntaps, 22);
      std::vector<double> mid_ref(n_mid), out_ref(n_out);
      k.correlate_taps(in.data(), taps.data(), ntaps, mid_ref.data(), n_mid);
      k.correlate_taps(mid_ref.data(), taps.data(), ntaps, out_ref.data(),
                       n_out);
      std::vector<double> mid(n_mid), out(n_out);
      k.correlate_taps_2row(in.data(), taps.data(), ntaps, mid.data(),
                            out.data(), n_mid, n_out);
      for (std::size_t j = 0; j < n_mid; ++j)
        ASSERT_EQ(mid[j], mid_ref[j]) << "mid ntaps=" << ntaps << " j=" << j;
      for (std::size_t j = 0; j < n_out; ++j)
        ASSERT_EQ(out[j], out_ref[j]) << "out ntaps=" << ntaps << " j=" << j;
    }
  }
}

TEST_F(SimdTest, CorrelateTaps2RowIsBitIdenticalToTwoSweepsAtEveryLevel) {
  // Not just close: at EVERY dispatch level the fused kernel must reproduce
  // two same-level single-row sweeps bit for bit. On FMA levels the vector
  // and scalar lanes round differently, so this pins the partition-identity
  // property the solvers' arena/heap plane parity rests on. Cross-level
  // agreement (scalar vs vector) is covered at kPathTol.
  const simd::Kernels& scalar_ref = simd::tables::scalar;
  for (const Level lvl : available_levels()) {
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t ntaps : {2u, 3u}) {
      for (const std::size_t n_mid : {17u, 530u, 1333u}) {
        // n_out deliberately SHORTER than the maximum (the solver clips the
        // speculative second row at the boundary), plus the zero case and
        // non-multiple-of-8 counts to stress the chunk alignment.
        for (const std::size_t n_out :
             {std::size_t{0}, n_mid / 3, n_mid / 3 + 3,
              n_mid - (ntaps - 1)}) {
          const auto in = random_real(n_mid + ntaps - 1, 31);
          const auto taps = random_real(ntaps, 32);
          std::vector<double> mid_ref(n_mid), out_ref(n_out);
          k.correlate_taps(in.data(), taps.data(), ntaps, mid_ref.data(),
                           n_mid);
          k.correlate_taps(mid_ref.data(), taps.data(), ntaps, out_ref.data(),
                           n_out);
          std::vector<double> mid(n_mid), out(n_out);
          k.correlate_taps_2row(in.data(), taps.data(), ntaps, mid.data(),
                                out.data(), n_mid, n_out);
          for (std::size_t j = 0; j < n_mid; ++j)
            ASSERT_EQ(mid[j], mid_ref[j])
                << simd::to_string(lvl) << " mid j=" << j;
          for (std::size_t j = 0; j < n_out; ++j)
            ASSERT_EQ(out[j], out_ref[j])
                << simd::to_string(lvl) << " out j=" << j;
          // Cross-level sanity vs the scalar table.
          std::vector<double> mid_s(n_mid), out_s(n_out);
          scalar_ref.correlate_taps_2row(in.data(), taps.data(), ntaps,
                                         mid_s.data(), out_s.data(), n_mid,
                                         n_out);
          for (std::size_t j = 0; j < n_out; ++j)
            ASSERT_NEAR(out[j], out_s[j], kPathTol)
                << simd::to_string(lvl) << " xlevel j=" << j;
        }
      }
    }
  }
}

TEST_F(SimdTest, Stencil32RowIsBitIdenticalToTwoSweepsAtEveryLevel) {
  // Same contract as the correlate fusion, for the BSM FDM stencil: at
  // EVERY level the fused kernel must reproduce two same-level stencil3
  // sweeps bit for bit (solve_base pairs its base-case steps through it).
  const simd::Kernels& scalar_ref = simd::tables::scalar;
  for (const Level lvl : available_levels()) {
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t n_mid : {9u, 17u, 530u, 1333u}) {
      for (const std::size_t n_out :
           {std::size_t{0}, n_mid / 3, n_mid / 3 + 3, n_mid - 2}) {
        const auto in = random_real(n_mid + 2, 51);
        const auto taps = random_real(3, 52);
        const double b = taps[0], c = taps[1], a = taps[2];
        std::vector<double> mid_ref(n_mid), out_ref(n_out);
        k.stencil3(in.data(), b, c, a, mid_ref.data(), n_mid);
        k.stencil3(mid_ref.data(), b, c, a, out_ref.data(), n_out);
        std::vector<double> mid(n_mid), out(n_out);
        k.stencil3_2row(in.data(), b, c, a, mid.data(), out.data(), n_mid,
                        n_out);
        for (std::size_t j = 0; j < n_mid; ++j)
          ASSERT_EQ(mid[j], mid_ref[j])
              << simd::to_string(lvl) << " mid j=" << j;
        for (std::size_t j = 0; j < n_out; ++j)
          ASSERT_EQ(out[j], out_ref[j])
              << simd::to_string(lvl) << " out j=" << j;
        std::vector<double> mid_s(n_mid), out_s(n_out);
        scalar_ref.stencil3_2row(in.data(), b, c, a, mid_s.data(),
                                 out_s.data(), n_mid, n_out);
        for (std::size_t j = 0; j < n_out; ++j)
          ASSERT_NEAR(out[j], out_s[j], kPathTol)
              << simd::to_string(lvl) << " xlevel j=" << j;
      }
    }
  }
}

TEST_F(SimdTest, Stencil32RowPreservesNegativeZeroAtEveryLevel) {
  // The -0.0 corner that rules out routing this sweep through the
  // correlate kernels: with all -0.0 input and positive taps every product
  // is -0.0 and the unseeded stencil3 expression keeps
  // (-0.0 + -0.0) + -0.0 = -0.0 in both rows, while a 0.0-seeded
  // accumulation (correlate_taps) flushes it to +0.0. The fused kernel
  // must keep the sign bit in BOTH rows at every level.
  const std::size_t n_mid = 67, n_out = 65;
  const std::vector<double> in(n_mid + 2, -0.0);
  for (const Level lvl : available_levels()) {
    const simd::Kernels& k = simd::kernels(lvl);
    std::vector<double> mid(n_mid, 42.0), out(n_out, 42.0);
    k.stencil3_2row(in.data(), 1.0, 2.0, 3.0, mid.data(), out.data(), n_mid,
                    n_out);
    for (std::size_t j = 0; j < n_mid; ++j) {
      ASSERT_EQ(mid[j], 0.0) << simd::to_string(lvl) << " j=" << j;
      ASSERT_TRUE(std::signbit(mid[j]))
          << simd::to_string(lvl) << " mid j=" << j << " lost -0.0";
    }
    for (std::size_t j = 0; j < n_out; ++j) {
      ASSERT_EQ(out[j], 0.0) << simd::to_string(lvl) << " j=" << j;
      ASSERT_TRUE(std::signbit(out[j]))
          << simd::to_string(lvl) << " out j=" << j << " lost -0.0";
    }
    // The seeded correlate kernel on the same data flushes the sign — the
    // behavioral difference this kernel exists for.
    const double taps[3] = {1.0, 2.0, 3.0};
    std::vector<double> flushed(n_mid, 42.0);
    k.correlate_taps(in.data(), taps, 3, flushed.data(), n_mid);
    ASSERT_FALSE(std::signbit(flushed[0]));
  }
}

TEST_F(SimdTest, BsDpmAgreesAcrossLevels) {
  // The d± geometry kernel is pure mul/add; scalar and AVX2 (no FMA in
  // that TU) are bit-identical, AVX-512 may contract (logz+drift)*inv_vs
  // into the following add/sub and sits within kPathTol.
  for (const std::size_t n : {1u, 7u, 64u, 257u}) {
    const auto logz = random_real(n, 61);
    const auto drift_t = random_real(n, 62);
    auto inv_vs = random_real(n, 63);
    auto half_vs = random_real(n, 64);
    for (auto& v : inv_vs) v = 0.5 + std::abs(v) * 4.0;
    for (auto& v : half_vs) v = 0.01 + std::abs(v);
    std::vector<double> dp_ref(n), dm_ref(n);
    simd::tables::scalar.bs_dpm(logz.data(), drift_t.data(), inv_vs.data(),
                                half_vs.data(), dp_ref.data(), dm_ref.data(),
                                n);
    for (std::size_t i = 0; i < n; ++i) {
      const double base = (logz[i] + drift_t[i]) * inv_vs[i];
      ASSERT_EQ(dp_ref[i], base + half_vs[i]);
      ASSERT_EQ(dm_ref[i], base - half_vs[i]);
    }
    for (const Level lvl : available_levels()) {
      std::vector<double> dp(n), dm(n);
      simd::kernels(lvl).bs_dpm(logz.data(), drift_t.data(), inv_vs.data(),
                                half_vs.data(), dp.data(), dm.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (lvl == Level::avx512) {
          ASSERT_NEAR(dp[i], dp_ref[i], kPathTol)
              << simd::to_string(lvl) << " i=" << i;
          ASSERT_NEAR(dm[i], dm_ref[i], kPathTol)
              << simd::to_string(lvl) << " i=" << i;
        } else {
          ASSERT_EQ(dp[i], dp_ref[i]) << simd::to_string(lvl) << " i=" << i;
          ASSERT_EQ(dm[i], dm_ref[i]) << simd::to_string(lvl) << " i=" << i;
        }
      }
    }
  }
}

TEST_F(SimdTest, NormCdfMatchesErfcAndAgreesAcrossLevels) {
  // Accuracy: the libm-free Phi must sit within the A&S rational's 7.5e-8
  // bound of the erfc-based reference everywhere (including the far tails
  // and the exp clamp region). Cross-path: AVX2 carries the scalar bits
  // exactly (no FMA); AVX-512 contracts its Horner chains and may differ in
  // the last ulps, within kPathTol.
  std::vector<double> x;
  for (double v = -40.0; v <= 40.0; v += 0.37) x.push_back(v);
  for (const double v : {-1e-12, 0.0, 1e-12, -6.5, 6.5, -38.6, 38.6, 1e3})
    x.push_back(v);
  const std::size_t n = x.size();
  std::vector<double> ref(n);
  simd::tables::scalar.norm_cdf(x.data(), ref.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = 0.5 * std::erfc(-x[i] / std::numbers::sqrt2);
    ASSERT_NEAR(ref[i], want, 7.5e-8) << "x=" << x[i];
    ASSERT_GE(ref[i], 0.0);
    ASSERT_LE(ref[i], 1.0);
  }
  for (const Level lvl : available_levels()) {
    std::vector<double> got(n);
    simd::kernels(lvl).norm_cdf(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (lvl == Level::avx512) {
        ASSERT_NEAR(got[i], ref[i], kPathTol)
            << simd::to_string(lvl) << " x=" << x[i];
      } else {
        ASSERT_EQ(got[i], ref[i]) << simd::to_string(lvl) << " x=" << x[i];
      }
    }
  }
}

TEST_F(SimdTest, InterleaveScaledMatchesScaleThenInterleave) {
  // The fused inverse-normalization pass must equal scaling each half and
  // then interleaving, bit for bit at every level (the same multiply).
  const std::size_t n = 1029;
  for (const Level lvl : available_levels()) {
    const simd::Kernels& k = simd::kernels(lvl);
    for (const std::size_t off : {0u, 1u}) {
      aligned_vector<double> re(n + off), im(n + off);
      const auto rinit = random_real(n + off, 41);
      const auto iinit = random_real(n + off, 42);
      std::copy(rinit.begin(), rinit.end(), re.begin());
      std::copy(iinit.begin(), iinit.end(), im.begin());
      const double s = 1.0 / 1024.0;
      aligned_vector<cplx> plain(n + off), got(n + off);
      k.interleave(re.data() + off, im.data() + off, plain.data() + off, n);
      k.interleave_scaled(re.data() + off, im.data() + off, got.data() + off,
                          n, s);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(plain[i + off], cplx(re[i + off], im[i + off]))
            << simd::to_string(lvl) << " i=" << i;
        ASSERT_EQ(got[i + off], cplx(re[i + off] * s, im[i + off] * s))
            << simd::to_string(lvl) << " i=" << i;
      }
    }
  }
}

TEST_F(SimdTest, FoldTwistAndUntwistMatchScalarTable) {
  // The negacyclic pipeline's two streaming passes: the scalar table
  // against their definitions, every level against the scalar table, on
  // exact fits, split (main, tail) operands, partial and empty operands,
  // misaligned outputs and every window position relative to m.
  const simd::Kernels& ref = simd::kernels(Level::scalar);
  for (const std::size_t m : {1u, 5u, 64u, 1027u}) {
    std::vector<double> wre(m), wim(m);
    for (std::size_t k = 0; k < m; ++k) {
      const double a = std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(2 * m);
      wre[k] = std::cos(a);
      wim[k] = std::sin(a);
    }
    const auto x = random_real(2 * m, 131);
    const auto at = [&](std::size_t nmain, std::size_t ntail, std::size_t p) {
      return p < nmain + ntail ? x[p] : 0.0;
    };
    const std::size_t cuts[][2] = {{2 * m, 0}, {2 * m - 1, 1},
                                   {m + 1, m / 2}, {m / 2, 1},
                                   {m / 3, 0}, {0, 0}};
    for (const auto& cut : cuts) {
      const std::size_t nmain = cut[0], ntail = cut[1];
      if (nmain + ntail > 2 * m) continue;
      const std::span<const double> main(x.data(), nmain);
      const std::span<const double> tail(x.data() + nmain, ntail);
      std::vector<double> want(2 * m);
      ref.fold_twist(main.data(), nmain, tail.data(), ntail, wre.data(),
                     wim.data(), m, want.data(), want.data() + m);
      for (std::size_t k = 0; k < m; ++k) {
        const cplx z = cplx{at(nmain, ntail, k), at(nmain, ntail, k + m)} *
                       cplx{wre[k], wim[k]};
        EXPECT_NEAR(want[k], z.real(), 1e-15) << "m=" << m << " k=" << k;
        EXPECT_NEAR(want[m + k], z.imag(), 1e-15) << "m=" << m << " k=" << k;
      }
      for (const Level lvl : available_levels()) {
        for (const std::size_t off : {0u, 1u}) {
          aligned_vector<double> got(2 * m + off);
          simd::kernels(lvl).fold_twist(main.data(), nmain, tail.data(), ntail,
                                        wre.data(), wim.data(), m,
                                        got.data() + off,
                                        got.data() + off + m);
          for (std::size_t k = 0; k < 2 * m; ++k)
            ASSERT_NEAR(got[off + k], want[k], kPathTol)
                << simd::to_string(lvl) << " m=" << m << " nmain=" << nmain
                << " ntail=" << ntail << " k=" << k;
        }
      }
    }
    // untwist: windows below m, above m, across m and the whole 2m.
    const auto ur = random_real(m, 132), ui = random_real(m, 133);
    const std::size_t windows[][2] = {
        {0, m}, {m, m}, {m / 2, m}, {0, 2 * m}, {2 * m - 1, 1}, {1, 0}};
    for (const auto& win : windows) {
      const std::size_t skip = win[0], nout = win[1];
      std::vector<double> want(nout);
      ref.untwist(ur.data(), ui.data(), wre.data(), wim.data(), m, skip,
                  want.data(), nout, 0.25);
      for (std::size_t j = 0; j < nout; ++j) {
        const std::size_t p = skip + j, k = p % m;
        const cplx c = cplx{ur[k], ui[k]} * std::conj(cplx{wre[k], wim[k]});
        EXPECT_NEAR(want[j], 0.25 * (p < m ? c.real() : c.imag()), 1e-15)
            << "m=" << m << " p=" << p;
      }
      for (const Level lvl : available_levels()) {
        for (const std::size_t off : {0u, 1u}) {
          aligned_vector<double> got(nout + off);
          simd::kernels(lvl).untwist(ur.data(), ui.data(), wre.data(),
                                     wim.data(), m, skip, got.data() + off,
                                     nout, 0.25);
          for (std::size_t j = 0; j < nout; ++j)
            ASSERT_NEAR(got[off + j], want[j], kPathTol)
                << simd::to_string(lvl) << " m=" << m << " skip=" << skip
                << " j=" << j;
        }
      }
    }
  }
}

TEST_F(SimdTest, DifThenDitRoundTripsAtEveryLevel) {
  // The negacyclic pipeline's passes: Plan::dif from natural order leaves
  // the DFT in bit-reversed order (checked against the complex transform),
  // and the conjugated DIT passes take it straight back to m x, at every
  // size m = 1 .. 2^16 and every level.
  for (const Level lvl : available_levels()) {
    simd::set_level(lvl);
    for (std::size_t bits = 0; bits <= 16; ++bits) {
      const std::size_t m = std::size_t{1} << bits;
      const fft::Plan& plan = fft::plan_for(m);
      const auto xr = random_real(m, 141 + static_cast<std::uint32_t>(bits));
      const auto xi = random_real(m, 241 + static_cast<std::uint32_t>(bits));
      aligned_vector<double> re(xr.begin(), xr.end()), im(xi.begin(), xi.end());
      plan.dif(re.data(), im.data());
      const double tol = 1e-15 * static_cast<double>(m) *
                         static_cast<double>(std::max<std::size_t>(bits, 1));
      if (m <= 4096) {
        std::vector<cplx> z(m);
        for (std::size_t i = 0; i < m; ++i) z[i] = cplx{xr[i], xi[i]};
        fft::forward(z);
        for (std::size_t j = 0; j < m; ++j) {
          std::size_t p = 0;
          for (std::size_t b = 0; b < bits; ++b)
            p |= ((j >> b) & 1u) << (bits - 1 - b);
          ASSERT_NEAR(std::abs(cplx{re[p], im[p]} - z[j]), 0.0, tol)
              << simd::to_string(lvl) << " m=" << m << " j=" << j;
        }
      }
      plan.dit(re.data(), im.data(), /*inverse=*/true);
      const double md = static_cast<double>(m);
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_NEAR(re[i], md * xr[i], tol)
            << simd::to_string(lvl) << " m=" << m << " i=" << i;
        ASSERT_NEAR(im[i], md * xi[i], tol)
            << simd::to_string(lvl) << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST_F(SimdTest, KernelCacheSpectralPriceParityAcrossLevels) {
  // End-to-end: the solvers' spectral run_conv path (KernelCache-owned
  // spectra) prices identically across dispatch levels within tolerance.
  // paper_spec has Y > 0, so the call takes the nonlinear boundary descent
  // — the code path that exercises run_conv's spectrum consumption.
  simd::set_level(Level::scalar);
  const double want =
      pricing::bopm::american_call_fft(pricing::paper_spec(), 1024);
  for (const Level lvl : available_levels()) {
    if (lvl == Level::scalar) continue;
    simd::set_level(lvl);
    const double got =
        pricing::bopm::american_call_fft(pricing::paper_spec(), 1024);
    EXPECT_NEAR(got, want, 1e-10 * want) << simd::to_string(lvl);
  }
}

}  // namespace
