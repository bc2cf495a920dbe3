#pragma once
// S2: linear convolution / correlation of real sequences.
//
// The nonlinear-stencil solvers need exactly one primitive from this file:
// `correlate_valid`, which evaluates
//
//     out[j] = sum_m kernel[m] * in[j + m],   j in [0, out.size())
//
// i.e. the application of `h` pre-combined stencil steps (kernel = taps^h)
// to a row segment whose dependency cones are fully inside the linear (red)
// region. Small products are evaluated directly; large ones go through the
// real-input FFT (two R2C transforms of the zero-padded operands, a
// pointwise product over the n/2+1 non-redundant bins, one C2R back —
// 3 half-size complex transforms).
//
// All FFT paths draw their zero-padded buffers and spectra from a
// `Workspace` arena: buffers grow monotonically and are reused, so repeated
// convolutions of bounded size perform no heap allocation after warm-up.
// Every entry point has a span-based overload taking an explicit Workspace
// (fully allocation-free) and a convenience overload that uses a
// thread-local arena.
//
// Two transform-count reductions on top of that (both bit-identical to the
// baseline path at a fixed dispatch level):
//   * aliased operands — `convolve_full(a, a, ...)` runs one forward
//     transform and squares the spectrum in place (`simd csquare`), the
//     path poly::power_fft's squaring loop rides;
//   * precomputed kernel spectra — the `fft::RealSpectrum` overloads below
//     skip the kernel transform entirely (2 transforms per call instead
//     of 3); stencil::KernelCache hands the solvers ready spectra.

#include <cstddef>
#include <span>
#include <vector>

#include "amopt/common/aligned.hpp"
#include "amopt/fft/fft.hpp"

namespace amopt::conv {

/// Crossover between the O(n*k) direct loop and the O(n log n) FFT path.
/// Exposed so tests/benches can pin one path; `automatic` restores the
/// default behaviour.
struct Policy {
  enum class Path {
    automatic,  ///< cost-based crossover (direct below, fft above)
    direct,     ///< always the O(n*k) loop
    fft,        ///< real-input R2C/C2R pipeline
  };
  Path path = Path::automatic;
};

/// Grow-only scratch arena for the FFT convolution paths. One Workspace
/// serves one thread at a time (no internal locking); the library keeps one
/// per thread via `thread_workspace()`. Buffers never shrink, so a warmed-up
/// workspace makes every conv call below its high-water mark allocation-free.
class Workspace {
 public:
  /// Zero-padded real operand buffers and their spectra. Callers outside
  /// the conv layer should not need these directly.
  [[nodiscard]] std::span<double> real_a(std::size_t n) { return grow(ra_, n); }
  [[nodiscard]] std::span<double> real_b(std::size_t n) { return grow(rb_, n); }
  /// Staging for the split-operand correlation's DIRECT path (the small-
  /// size crossover), where the concatenation is materialized so the sweep
  /// partition — and therefore every bit on FMA dispatch levels — matches
  /// a contiguous-input call exactly.
  [[nodiscard]] std::span<double> cat(std::size_t n) { return grow(cat_, n); }
  [[nodiscard]] std::span<fft::cplx> spec_a(std::size_t n) {
    return grow(sa_, n);
  }
  [[nodiscard]] std::span<fft::cplx> spec_b(std::size_t n) {
    return grow(sb_, n);
  }
  /// Caller-level staging buffers (used by poly::power for the square-and-
  /// multiply accumulators); never touched by the conv entry points.
  [[nodiscard]] std::span<double> acc(std::size_t n) { return grow(acc_, n); }
  [[nodiscard]] std::span<double> tmp(std::size_t n) { return grow(tmp_, n); }
  [[nodiscard]] std::span<double> aux(std::size_t n) { return grow(aux_, n); }

 private:
  template <class V>
  [[nodiscard]] std::span<typename V::value_type> grow(V& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return {v.data(), n};
  }

  aligned_vector<double> ra_, rb_, cat_, acc_, tmp_, aux_;
  aligned_vector<fft::cplx> sa_, sb_;
};

/// The calling thread's workspace (created on first use, never freed while
/// the thread lives). The vector/legacy overloads below draw from it.
[[nodiscard]] Workspace& thread_workspace();

/// Full linear convolution, c[k] = sum_i a[i]*b[k-i]; result size
/// a.size()+b.size()-1 (empty if either input is empty).
[[nodiscard]] std::vector<double> convolve_full(std::span<const double> a,
                                                std::span<const double> b,
                                                Policy policy = {});

/// Allocation-free variant: writes the full convolution into `out`, which
/// must hold exactly a.size()+b.size()-1 elements and alias neither input.
void convolve_full(std::span<const double> a, std::span<const double> b,
                   std::span<double> out, Workspace& ws, Policy policy = {});

/// Valid correlation (see file comment). Requires
/// in.size() >= out.size() + kernel.size() - 1 and a non-empty kernel.
void correlate_valid(std::span<const double> in,
                     std::span<const double> kernel, std::span<double> out,
                     Policy policy = {});

/// Allocation-free variant of `correlate_valid` with an explicit arena.
void correlate_valid(std::span<const double> in,
                     std::span<const double> kernel, std::span<double> out,
                     Workspace& ws, Policy policy = {});

// ---------------------------------------------------- split-operand input
//
// The trapezoid solvers correlate a row's red prefix EXTENDED by up to g-1
// green cells. Materializing that concatenation costs an O(row) copy per
// convolution just to append a couple of cells. The overloads below take
// the input as (main, tail): the FFT paths stage both pieces directly into
// the zero-padded transform buffer — the staged bytes are identical to the
// concatenated call's, so results match it bit for bit at a fixed dispatch
// level. The DIRECT path (small sizes, where the copy is cheap anyway)
// materializes the concatenation into workspace staging so its sweep
// partition matches a contiguous-input call exactly — split and
// concatenated calls are bit-identical on EVERY path at every level.

/// `correlate_valid` over the logical input concat(main, tail). Requires
/// main.size() + tail.size() >= out.size() + kernel.size() - 1.
void correlate_valid(std::span<const double> main, std::span<const double> tail,
                     std::span<const double> kernel, std::span<double> out,
                     Workspace& ws, Policy policy = {});

/// Split-operand form of the spectral `correlate_valid` below.
void correlate_valid(std::span<const double> main, std::span<const double> tail,
                     const fft::RealSpectrum& kspec, std::span<double> out,
                     Workspace& ws);

// ------------------------------------------------------- spectral overloads
//
// The FFT paths above transform their kernel from the time domain on every
// call (3 half-size transforms per convolution). When the same kernel is
// applied repeatedly at one padded size — every trapezoid of a descent at
// the same recursion depth, every squaring rung of a kernel ladder — the
// kernel's spectrum can be computed once and passed to the overloads below,
// which then cost 2 transforms per call. A `kernel_spectrum` spectrum holds
// the bins the in-call transform would produce, so with it results are
// bit-identical to the transform-per-call path at the same dispatch level.
// The stencil::KernelCache spectrum tier does not transform: it raises each
// bin straight from the stencil taps, so its bins are not the in-call
// transform's bits but agree with them to about h * eps of the largest bin
// (h the kernel's step count).

/// Whether `correlate_valid` with these lengths would take the real-input
/// FFT path (false for the direct crossover).
[[nodiscard]] bool correlate_prefers_fft(std::size_t out_len,
                                         std::size_t kernel_len,
                                         Policy policy);

/// The padded transform size the FFT correlation path uses for these
/// lengths — the `n` to build a reusable kernel spectrum at:
/// next_pow2(out_len + kernel_len - 1), the overlap-save minimum. A cyclic
/// transform of that size wraps the top linear bins onto cyclic bins
/// strictly below the correlation's read window [kernel_len - 1,
/// kernel_len - 1 + out_len), so the window is alias-free even though the
/// transform is smaller than the full linear length
/// out_len + 2*(kernel_len - 1). (The library padded to that full length
/// before the PR-10 re-baselining, which kept EVERY linear bin alias-free
/// — including bins no correlation reads — at up to 2x the transform
/// size; the smaller size perturbs FFT rounding, covered by the DESIGN.md
/// accuracy contract.)
[[nodiscard]] std::size_t correlate_fft_size(std::size_t out_len,
                                             std::size_t kernel_len);

/// Build a reusable kernel spectrum at padded size n (a power of two >= the
/// full linear length of the intended products). `reversed` selects the
/// correlation layout consumed by the spectral `correlate_valid`.
[[nodiscard]] fft::RealSpectrum kernel_spectrum(std::span<const double> kernel,
                                                std::size_t n, bool reversed,
                                                Workspace& ws);

/// Valid correlation against a precomputed kernel spectrum (`kspec` built
/// with reversed = true). Requires in.size() >= out.size() + kspec.klen - 1
/// and kspec.n >= out.size() + kspec.klen - 1 (i.e. at least
/// correlate_fft_size of the lengths; larger sizes just carry more padding
/// — and different sizes produce differently-rounded, not different,
/// results). Always the FFT path — callers gate on `correlate_prefers_fft`.
void correlate_valid(std::span<const double> in,
                     const fft::RealSpectrum& kspec, std::span<double> out,
                     Workspace& ws);

/// Full convolution against a precomputed kernel spectrum (`bspec` built
/// with reversed = false). `out` must hold a.size() + bspec.klen - 1
/// elements and bspec.n must cover that full length.
void convolve_full(std::span<const double> a, const fft::RealSpectrum& bspec,
                   std::span<double> out, Workspace& ws);

/// Batched full convolutions against one shared kernel: outs[i] receives
/// inputs[i] (*) kernel, resized to inputs[i].size()+kernel.size()-1. On the
/// FFT path the kernel is transformed ONCE at the padded size of the largest
/// input and its spectrum reused for every item; the longer cyclic length
/// still covers every item's full linear length, so results are exact up to
/// the usual FFT roundoff. Requires outs.size() == inputs.size().
void convolve_many(std::span<const std::span<const double>> inputs,
                   std::span<const double> kernel,
                   std::span<std::vector<double>> outs, Workspace& ws,
                   Policy policy = {});

/// Reference implementations (always direct); used as test oracles.
[[nodiscard]] std::vector<double> convolve_full_direct(
    std::span<const double> a, std::span<const double> b);
void correlate_valid_direct(std::span<const double> in,
                            std::span<const double> kernel,
                            std::span<double> out);

}  // namespace amopt::conv
