#pragma once
// The dispatched kernel table behind amopt::simd::Level.
//
// Every member is one hot loop from the FFT engine, the convolution layer,
// or the nonlinear-stencil solvers, lifted out so each instruction-set
// level can provide its own implementation. The scalar table entries are
// plain loops over each entry's expressions (for the solver sweeps, the
// verbatim loops their call sites used to inline); the AVX2/AVX-512
// entries process 4/8 doubles per register with unaligned loads and
// stores and finish any remainder in a scalar tail — so every entry
// accepts arbitrary pointers and sizes.
//
// FFT kernels use a split real/imaginary (SoA) layout: `re[i]`/`im[i]` hold
// the parts of element i. Stage twiddles arrive as one contiguous SoA block
// per fused radix-4 stage (see fft.cpp for the layout). The negacyclic
// correlation (fft::NegacyclicPlan, conv::) runs entirely on this layout.

#include <complex>
#include <cstddef>
#include <cstdint>

#include "amopt/simd/simd.hpp"

namespace amopt::simd {

using cplx = std::complex<double>;

/// One dispatch level's kernel set. All pointers are non-null for every
/// level returned by `kernels()`.
struct Kernels {
  /// Pointwise product of two split (SoA) spectra, a[k] *= b[k] for
  /// k < m: (are, aim) in place, (bre, bim) read-only. The negacyclic
  /// correlation's product against a kernel spectrum (fft.hpp).
  void (*cmul)(double* are, double* aim, const double* bre, const double* bim,
               std::size_t m);

  /// Pointwise square a[k] *= a[k] — the aliased-operand fast path of
  /// `convolve_full(a, a, ...)` (one forward transform instead of two).
  /// Every level evaluates cmul(a, a)'s expressions on one load, so the
  /// square equals cmul(a, a-copy) bit for bit at each level.
  void (*csquare)(double* re, double* im, std::size_t m);

  /// Small-tap correlation out[j] = sum_m taps[m] * in[j + m], j < n.
  /// The accumulation order is m ascending from a 0.0 seed (the lattice
  /// solver's historical order).
  void (*correlate_taps)(const double* in, const double* taps,
                         std::size_t ntaps, double* out, std::size_t n);

  /// Fused two-step tap sweep: mid[j] = sum_m taps[m] * in[j + m] for
  /// j < n_mid, then out[j] = sum_m taps[m] * mid[j + m] for j < n_out
  /// (requires n_out + ntaps - 1 <= n_mid; in must alias neither output).
  /// Both rows are materialized — the fusion is temporal: the second row is
  /// computed block-by-block right behind the first, while the first row's
  /// cells are still in L1, instead of in a second full pass. Per element
  /// the arithmetic is exactly `correlate_taps`'s, so the scalar entry is
  /// bit-identical to two single-row sweeps (asserted in test_simd).
  void (*correlate_taps_2row)(const double* in, const double* taps,
                              std::size_t ntaps, double* mid, double* out,
                              std::size_t n_mid, std::size_t n_out);

  /// Centered 3-tap sweep out[j] = b*in[j] + c*in[j+1] + a*in[j+2], j < n —
  /// the BSM FDM solver's historical expression (association order
  /// (b*x + c*y) + a*z).
  void (*stencil3)(const double* in, double b, double c, double a, double* out,
                   std::size_t n);

  /// Fused two-step 3-tap stencil sweep: mid[j] = b*in[j] + c*in[j+1] +
  /// a*in[j+2] for j < n_mid, then out[j] = b*mid[j] + c*mid[j+1] +
  /// a*mid[j+2] for j < n_out (requires n_out + 2 <= n_mid; in must alias
  /// neither output). The `correlate_taps_2row` temporal fusion applied to
  /// the stencil3 expression: the second row chases the first block-by-block
  /// while its cells are still in L1. Per element the arithmetic is exactly
  /// stencil3's — unseeded (b*x + c*y) + a*z, which preserves the -0.0 bits
  /// a 0.0-seeded accumulation would flush — so the scalar entry is
  /// bit-identical to two single-row stencil3 sweeps (asserted in
  /// test_simd), and the vector entries keep the single-sweep vector/scalar
  /// partition via the shared aligned-chunk driver.
  void (*stencil3_2row)(const double* in, double b, double c, double a,
                        double* mid, double* out, std::size_t n_mid,
                        std::size_t n_out);

  /// Join SoA halves into interleaved complex.
  void (*interleave)(const double* re, const double* im, cplx* z,
                     std::size_t n);

  /// `interleave` with the inverse transform's 1/n normalization fused in:
  /// z[i] = {re[i] * s, im[i] * s}: one pass over the data instead of a
  /// scaling pass followed by interleave.
  void (*interleave_scaled)(const double* re, const double* im, cplx* z,
                            std::size_t n, double s);

  /// Fused bit-reversal + split: re[i] = z[rev[i]].real(), im[i] =
  /// z[rev[i]].imag(). One gathered pass instead of an in-place swap pass
  /// followed by a split pass — the permutation is the FFT's only
  /// cache-hostile access pattern, so halving its traffic matters.
  void (*deinterleave_rev)(const cplx* z, const std::uint32_t* rev,
                           double* re, double* im, std::size_t n);

  /// Radix-2 stage with unit twiddles over [0, n): butterflies on element
  /// pairs (2i, 2i+1).
  void (*radix2_pass)(double* re, double* im, std::size_t n);

  /// One fused radix-4 stage of half-size h over [0, n) (n a multiple of
  /// 4h): for each block base (step 4h) and j in [0, h), the butterfly of
  /// fft.cpp's radix4_pass. `wsoa` is the stage's twiddle block laid out as
  /// six consecutive h-element arrays: w1re, w1im, w2re, w2im, w3re, w3im.
  /// `inverse` conjugates the twiddles and flips the +/- i rotation.
  void (*radix4_pass)(double* re, double* im, std::size_t n, std::size_t h,
                      const double* wsoa, bool inverse);

  /// The R2C untangle pair loop of RealPlan::forward for k in [1, m/2)
  /// (mirror bin j = m - k), reading/writing the interleaved `spec` in
  /// place. `tw` is the n/4+1-entry quarter-circle twiddle table t_k.
  void (*rfft_untangle)(cplx* spec, const cplx* tw, std::size_t m);

  /// One decimation-in-frequency radix-4 stage of half-size h over [0, n)
  /// (n a multiple of 4h), forward sign only: the transpose of
  /// radix4_pass's forward butterfly. For each block base (step 4h) and
  /// j in [0, h), with s0 = a + c, s1 = a - c, s2 = b + d, s3 = b - d:
  ///   a = s0 + s2,             b = (s0 - s2) W^2j,
  ///   c = (s1 - i s3) W^j,     d = (s1 + i s3) W^3j,
  /// reading the same SoA twiddle block as radix4_pass (the twiddle comes
  /// after the butterfly instead of before it). Run from the largest stage
  /// down, then radix2_pass for odd log2 n, these passes take natural order
  /// to the bit-reversed order the radix4_pass stages consume.
  void (*dif4_pass)(double* re, double* im, std::size_t n, std::size_t h,
                    const double* wsoa);

  /// The negacyclic fold and twist of a real operand: with x the logical
  /// concatenation of main[0, nmain) and tail[0, ntail), zero past its end
  /// (nmain + ntail <= 2m),
  ///   re[k] + i im[k] = (x[k] + i x[k + m]) (wre[k] + i wim[k]),  k < m.
  /// Reading the two pieces in place is what spares a correlation any
  /// staging copy of its input.
  void (*fold_twist)(const double* main, std::size_t nmain, const double* tail,
                     std::size_t ntail, const double* wre, const double* wim,
                     std::size_t m, double* re, double* im);

  /// The negacyclic untwist and unfold, on the read window only: with
  /// u[k] = re[k] + i im[k] and conj(w[k]) the inverse twist,
  ///   c[k] = Re(u[k] conj(w[k])),  c[k + m] = Im(u[k] conj(w[k])),
  /// writes out[j] = s * c[skip + j] for j < nout (skip + nout <= 2m).
  void (*untwist)(const double* re, const double* im, const double* wre,
                  const double* wim, std::size_t m, std::size_t skip,
                  double* out, std::size_t nout, double s);

  /// A reversed kernel spectrum straight from its taps — the KernelCache
  /// spectrum build: for the m roots y_j (SoA, natural order j),
  ///   bins[rev(j)] = s * R(y_j)^h,  rev = the log2(m)-bit reversal,
  /// where R(x) = taps[0] x^g + taps[1] x^(g-1) + ... + taps[g]
  /// (g = ntaps - 1) is the reversed tap polynomial: the negacyclic bins of
  /// taps^h packed back-to-front, in the bit-reversed order dif4_pass
  /// leaves a transform in, with no time-domain power and no transform.
  /// m is a power of two. Binary exponentiation per bin; a bin with
  /// |R(y)|^h < 1e-120 reads 0 without a chain. Every value in a kept
  /// bin's chain is a power |R|^k with k <= h, so it never falls under that
  /// floor and the chain never meets a denormal. Per-bin relative error
  /// grows like h * eps.
  void (*tap_power_bins)(const double* taps, std::size_t ntaps,
                         std::uint64_t h, const double* yre, const double* yim,
                         std::size_t m, double s, double* bre, double* bim);

  /// Black-Scholes d± over node arrays — the boundary engine's quadrature
  /// inner loop. base = (logz[i] + drift_t[i]) * inv_vs[i];
  /// dp[i] = base + half_vs[i]; dm[i] = base - half_vs[i]. The caller
  /// precomputes the per-node geometry (drift*dt, 1/(vol*sqrt(dt)),
  /// vol*sqrt(dt)/2) once per quote, so the kernel is pure mul/add over
  /// contiguous arrays.
  void (*bs_dpm)(const double* logz, const double* drift_t,
                 const double* inv_vs, const double* half_vs, double* dp,
                 double* dm, std::size_t n);

  /// Standard normal CDF over an array, libm-free: Phi(x) = 0.5*erfc(z),
  /// z = |x|/sqrt(2), with erfc via the Abramowitz–Stegun 7.1.26 rational
  /// polynomial and an in-house range-reduced exp(-z^2) (|error| <= 7.5e-8
  /// absolute — the boundary engine's documented accuracy floor, DESIGN.md
  /// §6). Every level evaluates the same operation sequence; the AVX2 lanes
  /// reproduce the scalar bits exactly (no FMA), the AVX-512 entry contracts
  /// its Horner chains to FMA and may differ in the last ulps.
  void (*norm_cdf)(const double* x, double* out, std::size_t n);
};

/// Kernel table for one explicit level (clamped to max_supported()).
[[nodiscard]] const Kernels& kernels(Level lvl) noexcept;

/// Kernel table for the active level.
[[nodiscard]] inline const Kernels& kernels() noexcept {
  return kernels(active());
}

// Per-level tables, exposed for direct unit testing of each path. `scalar`
// always exists; the vector tables exist only when compiled in (guard with
// max_supported()).
namespace tables {
extern const Kernels scalar;
#if defined(AMOPT_HAVE_AVX2)
extern const Kernels avx2;
#endif
#if defined(AMOPT_HAVE_AVX512)
extern const Kernels avx512;
#endif
}  // namespace tables

}  // namespace amopt::simd
