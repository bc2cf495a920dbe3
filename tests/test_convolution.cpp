// Tests for S2: FFT and direct convolution/correlation agree with each
// other and with hand-computed cases across a size sweep.

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "amopt/fft/convolution.hpp"

namespace {

using namespace amopt;

std::vector<double> random_vec(std::size_t n, unsigned seed,
                               double lo = -1.0, double hi = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(Convolution, HandComputedFull) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0};
  const std::vector<double> expect{4.0, 13.0, 22.0, 15.0};
  const auto direct = conv::convolve_full_direct(a, b);
  ASSERT_EQ(direct.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_NEAR(direct[i], expect[i], 1e-12);
  conv::Policy fft_only{conv::Policy::Path::fft};
  const auto viafft = conv::convolve_full(a, b, fft_only);
  ASSERT_EQ(viafft.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_NEAR(viafft[i], expect[i], 1e-12);
}

TEST(Convolution, EmptyInputsGiveEmptyResult) {
  EXPECT_TRUE(conv::convolve_full({}, std::vector<double>{1.0}).empty());
  EXPECT_TRUE(conv::convolve_full(std::vector<double>{1.0}, {}).empty());
}

struct ConvCase {
  std::size_t na, nb;
};

class ConvolutionSizes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvolutionSizes, FftMatchesDirect) {
  const auto [na, nb] = GetParam();
  const auto a = random_vec(na, static_cast<unsigned>(na * 31 + nb));
  const auto b = random_vec(nb, static_cast<unsigned>(nb * 17 + na));
  const auto ref = conv::convolve_full_direct(a, b);
  const auto got = conv::convolve_full(a, b, {conv::Policy::Path::fft});
  ASSERT_EQ(ref.size(), got.size());
  const double tol = 1e-12 * static_cast<double>(na + nb);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(got[i], ref[i], tol) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConvolutionSizes,
    ::testing::Values(ConvCase{1, 1}, ConvCase{1, 9}, ConvCase{2, 2},
                      ConvCase{3, 8}, ConvCase{17, 17}, ConvCase{64, 3},
                      ConvCase{100, 100}, ConvCase{255, 257},
                      ConvCase{1000, 501}, ConvCase{1024, 33},
                      ConvCase{4096, 2049}, ConvCase{5000, 5000}));

class CorrelationSizes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(CorrelationSizes, ValidCorrelationMatchesDirect) {
  const auto [n_in, n_k] = GetParam();
  if (n_in < n_k) GTEST_SKIP();
  const auto in = random_vec(n_in, static_cast<unsigned>(n_in + 3 * n_k));
  const auto kernel = random_vec(n_k, static_cast<unsigned>(n_k + 5));
  const std::size_t n_out = n_in - n_k + 1;
  std::vector<double> ref(n_out), got(n_out);
  conv::correlate_valid_direct(in, kernel, ref);
  conv::correlate_valid(in, kernel, got, {conv::Policy::Path::fft});
  const double tol = 1e-12 * static_cast<double>(n_in);
  for (std::size_t i = 0; i < n_out; ++i)
    EXPECT_NEAR(got[i], ref[i], tol) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CorrelationSizes,
    ::testing::Values(ConvCase{1, 1}, ConvCase{9, 1}, ConvCase{9, 9},
                      ConvCase{100, 7}, ConvCase{257, 129},
                      ConvCase{1024, 1024}, ConvCase{4096, 513},
                      ConvCase{10000, 2001}));

TEST(Correlation, ShortOutputUsesInputPrefixOnly) {
  // out.size() < in.size() - kernel.size() + 1 is allowed: the tail of the
  // input must not influence the result.
  const auto in = random_vec(64, 11);
  auto in_garbled = in;
  for (std::size_t i = 40; i < in_garbled.size(); ++i) in_garbled[i] = 1e9;
  const auto kernel = random_vec(8, 12);
  std::vector<double> a(20), b(20);
  conv::correlate_valid(in, kernel, a, {conv::Policy::Path::fft});
  conv::correlate_valid(in_garbled, kernel, b, {conv::Policy::Path::fft});
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

TEST(Correlation, AutomaticPolicyMatchesForcedPaths) {
  const auto in = random_vec(2048, 21);
  const auto kernel = random_vec(301, 22);
  const std::size_t n_out = in.size() - kernel.size() + 1;
  std::vector<double> d(n_out), f(n_out), a(n_out);
  conv::correlate_valid(in, kernel, d, {conv::Policy::Path::direct});
  conv::correlate_valid(in, kernel, f, {conv::Policy::Path::fft});
  conv::correlate_valid(in, kernel, a, {});
  for (std::size_t i = 0; i < n_out; ++i) {
    EXPECT_NEAR(d[i], f[i], 1e-9);
    EXPECT_NEAR(d[i], a[i], 1e-9);
  }
}

TEST(Correlation, EmptyOutputIsNoop) {
  const auto in = random_vec(16, 30);
  const auto kernel = random_vec(4, 31);
  std::vector<double> out;
  conv::correlate_valid(in, kernel, out);  // must not crash
  SUCCEED();
}

TEST(Convolution, AliasedOperandsMatchTwoOperandProduct) {
  // convolve_full(a, a) takes the one-transform csquare fast path; it must
  // reproduce the two-operand product on a bit-distinct copy of the same
  // values (exactly at the scalar dispatch level — asserted with level
  // control in test_simd — and within FFT round-off at the ambient level,
  // where AVX-512's FMA tails may differ in the last ulps).
  for (const std::size_t n : {33u, 256u, 1000u, 4096u}) {
    const auto a = random_vec(n, static_cast<unsigned>(n + 71));
    const std::vector<double> a_copy = a;  // distinct storage, same bits
    const auto squared = conv::convolve_full(a, a, {conv::Policy::Path::fft});
    const auto product =
        conv::convolve_full(a, a_copy, {conv::Policy::Path::fft});
    ASSERT_EQ(squared.size(), product.size());
    const double tol = 1e-12 * static_cast<double>(n);
    for (std::size_t i = 0; i < squared.size(); ++i)
      EXPECT_NEAR(squared[i], product[i], tol) << "n=" << n << " i=" << i;
    const auto ref = conv::convolve_full_direct(a, a);
    const double dtol = 1e-11 * static_cast<double>(n);
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(squared[i], ref[i], dtol) << "n=" << n << " i=" << i;
  }
}

TEST(Convolution, SpectralOverloadsMatchTimeDomainKernels) {
  conv::Workspace ws;
  // correlate_valid against a precomputed (reversed) kernel spectrum.
  {
    const auto in = random_vec(3000, 81);
    const auto kernel = random_vec(500, 82);
    const std::size_t n_out = in.size() - kernel.size() + 1;
    ASSERT_TRUE(conv::correlate_prefers_fft(n_out, kernel.size(), {}));
    const std::size_t n = conv::correlate_fft_size(n_out, kernel.size());
    const auto kspec = conv::kernel_spectrum(kernel, n, /*reversed=*/true, ws);
    std::vector<double> want(n_out), got(n_out);
    conv::correlate_valid(in, kernel, want, {conv::Policy::Path::fft});
    conv::correlate_valid(in, kspec, got, ws);
    for (std::size_t i = 0; i < n_out; ++i)
      ASSERT_EQ(got[i], want[i]) << "i=" << i;  // bit-identical by design
  }
  // convolve_full against a precomputed (forward) kernel spectrum.
  {
    const auto a = random_vec(700, 83);
    const auto b = random_vec(300, 84);
    const std::size_t full = a.size() + b.size() - 1;
    const auto bspec = conv::kernel_spectrum(b, amopt::next_pow2(full),
                                             /*reversed=*/false, ws);
    std::vector<double> got(full);
    conv::convolve_full(a, bspec, got, ws);
    const auto want = conv::convolve_full(a, b, {conv::Policy::Path::fft});
    for (std::size_t i = 0; i < full; ++i)
      ASSERT_EQ(got[i], want[i]) << "i=" << i;
  }
}

TEST(Convolution, CorrelatePrefersFftMirrorsPolicyCrossover) {
  // Tiny products stay direct; large ones go FFT; forced policies obeyed.
  EXPECT_FALSE(conv::correlate_prefers_fft(8, 4, {}));
  EXPECT_TRUE(conv::correlate_prefers_fft(4096, 513, {}));
  EXPECT_TRUE(
      conv::correlate_prefers_fft(8, 4, {conv::Policy::Path::fft}));
  EXPECT_FALSE(
      conv::correlate_prefers_fft(4096, 513, {conv::Policy::Path::direct}));
  EXPECT_FALSE(conv::correlate_prefers_fft(0, 4, {}));
  // The size-aware crossover: a wide row under a short kernel (the top of
  // an FDM descent) beats the FFT with the direct SIMD sweep even though
  // its k*n product is far past the flat threshold, while a balanced
  // out ~ klen window of the same row width stays spectral.
  EXPECT_FALSE(conv::correlate_prefers_fft(9000, 65, {}));
  EXPECT_TRUE(conv::correlate_prefers_fft(9000, 4097, {}));
  // Overlap-save minimal sizing: the transform covers only the trimmed
  // INPUT (out + klen - 1), not its full linear convolution — half the
  // transform wherever the old out + 2*(klen - 1) rule crossed a power of
  // two that the input itself does not.
  EXPECT_EQ(conv::correlate_fft_size(4096, 513), 8192u);   // input 4608
  EXPECT_EQ(conv::correlate_fft_size(3584, 513), 4096u);   // was 8192 pre-PR-10
  EXPECT_EQ(conv::correlate_fft_size(2048, 2049), 4096u);  // was 8192 pre-PR-10
  EXPECT_EQ(conv::correlate_fft_size(1, 1), 1u);
}

TEST(Convolution, MinimalPaddingWindowIsAliasFree) {
  // The re-baselined sizing lets cyclic wraparound corrupt full-convolution
  // bins below the correlation's read window. Check against the direct
  // oracle at sizes where the cyclic length is strictly smaller than the
  // full linear length, on the FFT pipeline and through a spectrum built
  // at exactly correlate_fft_size — and confirm an over-padded spectrum
  // (the pre-PR-10 size) agrees to round-off, not bits (different n,
  // different rounding).
  conv::Workspace ws;
  for (const auto& [n_out, n_k] :
       {std::pair<std::size_t, std::size_t>{3584, 513},
        {2048, 2049},
        {1000, 1000}}) {
    const auto in = random_vec(n_out + n_k - 1, 11);
    const auto kernel = random_vec(n_k, 12);
    const std::size_t n_min = conv::correlate_fft_size(n_out, n_k);
    ASSERT_LT(n_min, amopt::next_pow2(n_out + 2 * (n_k - 1)))
        << "premise: these sizes actually shrink";
    std::vector<double> oracle(n_out), got(n_out);
    conv::correlate_valid_direct(in, kernel, oracle);
    double scale = 0.0;
    for (const double v : oracle) scale = std::max(scale, std::abs(v));
    const double tol = 1e-11 * std::max(scale, 1.0);

    conv::correlate_valid(in, kernel, got, ws, {conv::Policy::Path::fft});
    for (std::size_t i = 0; i < n_out; ++i)
      ASSERT_NEAR(got[i], oracle[i], tol) << "fft i=" << i;

    const auto kspec = conv::kernel_spectrum(kernel, n_min, true, ws);
    conv::correlate_valid(in, kspec, got, ws);
    for (std::size_t i = 0; i < n_out; ++i)
      ASSERT_NEAR(got[i], oracle[i], tol) << "spectral i=" << i;

    // Any larger power of two remains a valid spectrum size.
    const auto kspec_wide = conv::kernel_spectrum(kernel, 2 * n_min, true, ws);
    std::vector<double> wide(n_out);
    conv::correlate_valid(in, kspec_wide, wide, ws);
    for (std::size_t i = 0; i < n_out; ++i)
      ASSERT_NEAR(wide[i], oracle[i], tol) << "over-padded i=" << i;
  }
}

TEST(Correlation, SplitOperandMatchesConcatenatedBitForBit) {
  // The solvers stage (red prefix, green tail) without materializing the
  // concatenation; on every FFT path the staged transform buffer is the
  // same bytes, so the result must be IDENTICAL at a fixed dispatch level.
  conv::Workspace ws;
  for (const auto path :
       {conv::Policy::Path::fft, conv::Policy::Path::automatic}) {
    for (const std::size_t n_tail : {0u, 1u, 2u, 7u}) {
      for (const std::size_t n_main : {40u, 700u, 4096u}) {
        const auto main = random_vec(n_main, 61);
        const auto tail = random_vec(n_tail, 62);
        std::vector<double> cat(main);
        cat.insert(cat.end(), tail.begin(), tail.end());
        const auto kernel = random_vec(n_main / 3 + n_tail + 1, 63);
        std::vector<double> out(cat.size() - kernel.size() + 1);
        std::vector<double> want(out.size());
        const conv::Policy policy{path};
        conv::correlate_valid(cat, kernel, want, ws, policy);
        conv::correlate_valid(main, tail, kernel, out, ws, policy);
        // Bit-identical on EVERY path: the FFT paths stage the same bytes
        // and the direct path materializes the concatenation precisely so
        // its sweep partition matches (FMA levels would otherwise diverge
        // in the last ulp on the tail-reading cells).
        for (std::size_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i], want[i])
              << "path=" << static_cast<int>(path) << " tail=" << n_tail
              << " i=" << i;
      }
    }
  }
}

TEST(Correlation, SplitOperandSpectralMatchesConcatenated) {
  conv::Workspace ws;
  const auto main = random_vec(3000, 71);
  const auto tail = random_vec(2, 72);
  const auto kernel = random_vec(1025, 73);
  std::vector<double> cat(main);
  cat.insert(cat.end(), tail.begin(), tail.end());
  std::vector<double> out(cat.size() - kernel.size() + 1);
  const std::size_t n = conv::correlate_fft_size(out.size(), kernel.size());
  const fft::RealSpectrum kspec =
      conv::kernel_spectrum(kernel, n, /*reversed=*/true, ws);
  std::vector<double> want(out.size());
  conv::correlate_valid(cat, kspec, want, ws);
  conv::correlate_valid(main, tail, kspec, out, ws);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], want[i]) << "i=" << i;  // same staged bytes, same bits
}

TEST(Correlation, SplitOperandMatchesDirectOracle) {
  // Against the reference oracle at 1e-12, covering windows that read
  // several tail cells.
  conv::Workspace ws;
  const auto main = random_vec(300, 81);
  const auto tail = random_vec(4, 82);
  const auto kernel = random_vec(32, 83);
  std::vector<double> cat(main);
  cat.insert(cat.end(), tail.begin(), tail.end());
  std::vector<double> want(cat.size() - kernel.size() + 1);
  conv::correlate_valid_direct(cat, kernel, want);
  for (const auto path : {conv::Policy::Path::direct, conv::Policy::Path::fft}) {
    std::vector<double> out(want.size());
    conv::correlate_valid(main, tail, kernel, out, ws, {path});
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_NEAR(out[i], want[i], 1e-12)
          << "path=" << static_cast<int>(path) << " i=" << i;
  }
}

TEST(Convolution, CommutesUnderFft) {
  const auto a = random_vec(100, 41);
  const auto b = random_vec(37, 43);
  const auto ab = conv::convolve_full(a, b, {conv::Policy::Path::fft});
  const auto ba = conv::convolve_full(b, a, {conv::Policy::Path::fft});
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t i = 0; i < ab.size(); ++i) EXPECT_NEAR(ab[i], ba[i], 1e-10);
}

}  // namespace
