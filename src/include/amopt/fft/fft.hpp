#pragma once
// S1: iterative complex FFT with radix-4 butterflies, the negacyclic
// real-convolution transform the convolution layer runs on, and a real-input
// (R2C) forward transform, all backed by cached, immutable plans.
//
// This is the computational substrate of the FFT-based linear-stencil
// algorithm (Ahmad et al., SPAA 2021) that the paper's pricers call on every
// trapezoid. Sizes are always powers of two here; the convolution layer
// zero-pads. Two stages of the complex transform are fused into one radix-4
// pass (same multiply count, half the sweeps over the data).
//
// Every signal the pricers transform is real, so the convolution layer
// never runs a full-size complex transform: `NegacyclicPlan` multiplies two
// real length-n polynomials modulo x^n + 1 through ONE size-n/2 complex
// transform each way (Crandall and Fagin's "right-angle" convolution). The
// n reals fold into n/2 complex points, x[k] + i x[k + n/2], twisted by
// psi^k; a decimation-in-frequency pass sequence takes them from natural
// order to the spectrum in bit-reversed order; the pointwise product runs
// in that order; and the plain DIT passes, conjugated, take it straight
// back to natural order. No pass permutes, interleaves or untangles. The
// complex `Plan` keeps its own bit-reversal for callers of forward/inverse
// (stages of its large transforms are split across the task pool,
// `TaskPool::for_each`, unless the caller is already a pool worker).
//
// Plan lookups (`plan_for` / `negacyclic_plan_for` / `real_plan_for`) are
// wait-free for readers: the cache publishes immutable snapshots through an
// atomic pointer, so concurrent option pricings never contend once their
// sizes are warm.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "amopt/common/aligned.hpp"
#include "amopt/simd/simd.hpp"

namespace amopt::simd {
struct Kernels;
}  // namespace amopt::simd

namespace amopt::fft {

using cplx = std::complex<double>;

/// Precomputed tables for one complex transform size. Plans are immutable
/// after construction and safe to share across threads.
class Plan {
 public:
  explicit Plan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward transform (engineering sign convention, e^{-2pi i}).
  void forward(cplx* data) const { transform(data, /*inverse=*/false); }
  /// In-place inverse transform, including the 1/n normalization.
  void inverse(cplx* data) const { transform(data, /*inverse=*/true); }

  /// Split (SoA) forward transform by decimation in frequency: natural
  /// order in, the DFT in bit-reversed order out. The stages run on the
  /// calling thread at the active dispatch level.
  void dif(double* re, double* im) const;
  /// Split (SoA) DIT stages without the permutation: bit-reversed order in,
  /// natural order out, unnormalized; `inverse` conjugates. dit(dif(x),
  /// true) is n x. The stages run on the calling thread.
  void dit(double* re, double* im, bool inverse) const;

 private:
  void transform(cplx* data, bool inverse) const;
  /// Split real/imag (SoA) pipeline driving the dispatched vector kernels;
  /// taken whenever the active SIMD level is above scalar (the scalar level
  /// keeps the historical interleaved loops below, bit-for-bit).
  void transform_simd(cplx* data, bool inverse, simd::Level lvl) const;
  /// The DIT stage sequence over SoA data already in bit-reversed order.
  void dit_stages(double* re, double* im, bool inverse, bool parallel,
                  const simd::Kernels& kn) const;
  void bit_reverse_permute(cplx* data) const;
  void radix2_stage(cplx* data, bool parallel) const;
  template <bool kInverse>
  void radix4_pass(cplx* data, std::size_t h, const cplx* w,
                   bool parallel) const;

  std::size_t n_;
  std::size_t log2n_;
  // Radix-4 twiddles, one contiguous block per fused stage pair: the pair
  // combining half-sizes (h, 2h) stores, for j in [0, h), the triple
  // (W^j, W^2j, W^3j) with W = e^{-i pi / (2h)} — interleaved so one
  // butterfly reads 48 adjacent bytes. Blocks are laid out in pass order.
  aligned_vector<cplx> twiddle4_;
  // The same twiddles in the SoA layout the dispatched kernels consume: per
  // stage, six consecutive h-element arrays (w1re, w1im, w2re, w2im, w3re,
  // w3im), blocks in pass order — every vector load of twiddles is then a
  // contiguous unit-stride load. The DIF passes read the blocks in reverse.
  aligned_vector<double> twiddle4_soa_;
  std::vector<std::uint32_t> bitrev_;
};

/// Negacyclic transform of n reals (n >= 2, a power of two) through
/// m = n/2 complex points. With psi = e^{i pi / n}, fold and twist take x
/// to z[k] = (x[k] + i x[k + m]) psi^k (simd fold_twist), and `forward`
/// evaluates the polynomial x(t) at the m roots y_j = psi e^{-2 pi i j / m}
/// of t^m = i, leaving bin j at position rev(j). Two real polynomials
/// multiplied bin by bin and brought back by `inverse`, untwist and unfold
/// (simd untwist) give their product modulo t^n + 1, times m: the linear
/// product with every coefficient past n - 1 wrapped onto the one n below
/// it, negated. Immutable and thread-safe, like `Plan`.
class NegacyclicPlan {
 public:
  explicit NegacyclicPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t points() const noexcept { return m_; }

  /// The twist psi^k, k in [0, m), split.
  [[nodiscard]] const double* twist_re() const noexcept {
    return twist_.data();
  }
  [[nodiscard]] const double* twist_im() const noexcept {
    return twist_.data() + m_;
  }
  /// The evaluation roots y_j, j in [0, m), split, in natural order (the
  /// points simd tap_power_bins raises kernel spectra at).
  [[nodiscard]] const double* root_re() const noexcept {
    return roots_.data();
  }
  [[nodiscard]] const double* root_im() const noexcept {
    return roots_.data() + m_;
  }

  /// Twisted points in natural order -> bins in bit-reversed order.
  void forward(double* re, double* im) const { half_->dif(re, im); }
  /// Bins in bit-reversed order -> m times the twisted product, natural
  /// order (fold the 1/m into the spectrum or the untwist).
  void inverse(double* re, double* im) const { half_->dit(re, im, true); }

 private:
  std::size_t n_;
  std::size_t m_;
  const Plan* half_;  ///< cached complex plan of size m: the stage twiddles
  aligned_vector<double> twist_;  ///< re[0, m) then im[0, m)
  aligned_vector<double> roots_;  ///< re[0, m) then im[0, m)
};

/// A first-class, reusable kernel spectrum: the m = n/2 negacyclic bins of
/// one real signal zero-padded to a transform size n, in the bit-reversed
/// order NegacyclicPlan::forward leaves a transform in, scaled by 1/m so
/// the product with an operand's bins needs no normalization on the way
/// back. This is the currency of the spectral convolution overloads
/// (conv::correlate_valid / convolve_full with a precomputed kernel
/// spectrum) and of the stencil::KernelCache spectrum tier — transform a
/// kernel once, reuse its bins for every convolution at that padded size.
/// The bins are written once by whatever builds them (no zero fill first).
struct RealSpectrum {
  std::size_t n = 0;     ///< padded transform size (power of two; 0 = empty)
  std::size_t klen = 0;  ///< time-domain signal length the bins encode
  bool reversed = false; ///< signal was packed back-to-front (the
                         ///< correlation layout of conv::correlate_valid)
  uninit_vector<double> bins;  ///< re[0, m) then im[0, m)

  [[nodiscard]] bool empty() const noexcept { return n == 0; }
  [[nodiscard]] std::size_t points() const noexcept { return n / 2; }
  [[nodiscard]] const double* re() const noexcept { return bins.data(); }
  [[nodiscard]] const double* im() const noexcept {
    return bins.data() + n / 2;
  }
};

/// Real-input transform of size n (power of two): forward packs the even/odd
/// samples into a size-n/2 complex signal, runs the half-size complex plan,
/// and untangles the spectrum with one O(n) twiddle pass. The spectrum is
/// stored as the n/2+1 non-redundant bins X[0..n/2] (X[0] and X[n/2] have
/// zero imaginary part); the remaining bins are implied by conjugate
/// symmetry. No convolution runs it (they run NegacyclicPlan); it is kept
/// as the classical R2C reference the layer benchmarks time. Immutable and
/// thread-safe, like `Plan`.
class RealPlan {
 public:
  explicit RealPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t spectrum_size() const noexcept {
    return n_ / 2 + 1;
  }

  /// Forward R2C: `in` holds n reals, `spec` receives the n/2+1 bins of the
  /// DFT. `spec` must not alias `in` and needs spectrum_size() slots.
  void forward(const double* in, cplx* spec) const;

 private:
  std::size_t n_;
  std::size_t m_;       ///< n/2 (0 when n == 1)
  const Plan* half_;    ///< cached plan for size m (nullptr when n <= 2)
  // t_k = e^{-2 pi i k / n} for k in [0, m/2]; the pair loops touch only
  // the first half of the twiddle circle.
  aligned_vector<cplx> twiddle_;
};

/// Process-wide plan caches keyed by size (n must be a power of two).
/// Lock-free for readers; plans are created once and never evicted.
[[nodiscard]] const Plan& plan_for(std::size_t n);
[[nodiscard]] const NegacyclicPlan& negacyclic_plan_for(std::size_t n);
[[nodiscard]] const RealPlan& real_plan_for(std::size_t n);

/// Convenience wrappers over the cached plans. `data.size()` must be a
/// power of two.
void forward(std::span<cplx> data);
void inverse(std::span<cplx> data);

}  // namespace amopt::fft
