#pragma once
// S1: iterative complex FFT with radix-4 butterflies plus real-input (R2C /
// C2R) transforms, both backed by cached, immutable plans.
//
// This is the computational substrate of the FFT-based linear-stencil
// algorithm (Ahmad et al., SPAA 2021) that the paper's pricers call on every
// trapezoid. Sizes are always powers of two here; the convolution layer
// zero-pads. Two stages of the complex transform are fused into one radix-4
// pass (same multiply count, half the sweeps over the data), and every
// signal the pricers transform is real, so `RealPlan` computes a size-n real
// DFT through a size-n/2 complex transform with an O(n) post-twiddle —
// 1.5 half-size transforms per convolution instead of 2 full-size ones.
// Stages of large transforms are split across the task pool
// (`TaskPool::for_each`; span O(log n) stages) unless the caller is already
// a pool worker, matching the O(log l * log log l)-span FFT the paper
// assumes.
//
// Plan lookups (`plan_for` / `real_plan_for`) are wait-free for readers:
// the cache publishes immutable snapshots through an atomic pointer, so
// concurrent option pricings never contend once their sizes are warm.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "amopt/common/aligned.hpp"
#include "amopt/simd/simd.hpp"

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

 private:
  void transform(cplx* data, bool inverse) const;
  /// Split real/imag (SoA) pipeline driving the dispatched vector kernels;
  /// taken whenever the active SIMD level is above scalar (the scalar level
  /// keeps the historical interleaved loops below, bit-for-bit).
  void transform_simd(cplx* data, bool inverse, simd::Level lvl) const;
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
  // The same twiddles in the SoA layout the vector kernels consume: per
  // stage, six consecutive h-element arrays (w1re, w1im, w2re, w2im, w3re,
  // w3im), blocks in pass order — every vector load of twiddles is then a
  // contiguous unit-stride load.
  aligned_vector<double> twiddle4_soa_;
  std::vector<std::uint32_t> bitrev_;
};

/// A first-class, reusable R2C spectrum: the n/2+1 non-redundant bins of one
/// real signal zero-padded to a transform size n. This is the currency of
/// the spectral convolution overloads (conv::correlate_valid /
/// convolve_full with a precomputed kernel spectrum) and of
/// the stencil::KernelCache spectrum tier — transform a kernel once, reuse
/// its bins for every convolution at that padded size. Bins live in 64-byte
/// aligned storage so the dispatched spectrum products take their fast path.
struct RealSpectrum {
  std::size_t n = 0;     ///< padded transform size (power of two; 0 = empty)
  std::size_t klen = 0;  ///< time-domain signal length the bins encode
  bool reversed = false; ///< signal was packed back-to-front (the
                         ///< correlation layout of conv::correlate_valid)
  aligned_vector<cplx> bins;  ///< the n/2+1 non-redundant bins

  [[nodiscard]] bool empty() const noexcept { return n == 0; }
  [[nodiscard]] std::size_t spectrum_size() const noexcept {
    return n / 2 + 1;
  }
};

/// Real-input transform of size n (power of two): forward packs the even/odd
/// samples into a size-n/2 complex signal, runs the half-size complex plan,
/// and untangles the spectrum with one O(n) twiddle pass. The spectrum is
/// stored as the n/2+1 non-redundant bins X[0..n/2] (X[0] and X[n/2] have
/// zero imaginary part); the remaining bins are implied by conjugate
/// symmetry. Immutable and thread-safe, like `Plan`.
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

  /// Inverse C2R: `spec` holds n/2+1 bins (imaginary parts of bins 0 and
  /// n/2 are ignored), `out` receives n reals, including the 1/n
  /// normalization. Destroys `spec` (it doubles as the transform scratch).
  void inverse(cplx* spec, double* out) const;

  /// Produce a reusable `RealSpectrum`: `signal` (its length must not
  /// exceed size()) is zero-padded to size() — packed back-to-front when
  /// `reversed`, the correlation layout — and forward-transformed into
  /// `spec.bins`. `pad` is caller scratch of at least size() doubles (the
  /// padded time-domain staging buffer; conv::Workspace::real_b works).
  /// The result is bit-identical to what the convolution paths compute
  /// in-call for the same operand, so consuming a cached spectrum never
  /// changes a result, only skips its transform.
  void spectrum(std::span<const double> signal, bool reversed,
                std::span<double> pad, RealSpectrum& spec) const;

  /// The quarter circle of roots t_k = e^{-2 pi i k / n}, k in [0, n/4]
  /// (empty when n < 4): the untangle twiddles, and the roots
  /// simd::Kernels::tap_power_bins evaluates kernel spectra at.
  [[nodiscard]] std::span<const cplx> quarter_roots() const noexcept {
    return twiddle_;
  }

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
[[nodiscard]] const RealPlan& real_plan_for(std::size_t n);

/// Convenience wrappers over the cached plans. `data.size()` must be a
/// power of two.
void forward(std::span<cplx> data);
void inverse(std::span<cplx> data);

}  // namespace amopt::fft
