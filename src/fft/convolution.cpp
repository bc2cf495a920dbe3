#include "amopt/fft/convolution.hpp"

#include <algorithm>
#include <bit>

#include "amopt/common/assert.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::conv {

namespace {

using fft::cplx;

// Below this cost product the direct loop beats FFT setup (measured with
// bench/micro_fft on the build machine; the exact value is uncritical).
constexpr std::size_t kDirectCostThreshold = 1u << 14;

// Break-even multiplier for the size-aware crossover below: the direct
// sweep costs ~k*n fused multiply-adds, the (kernel-spectrum-warm) FFT
// path ~2 half-size transforms of m = next_pow2(n) plus the spectrum
// product, i.e. O(m log m) with this constant folding in the transform's
// real cost per point. Calibrated on the build box against warm-spectrum
// correlate_valid at out in [240, 9700] and klen in [9, 1025]: measured
// break-even klen tracks 3*m*log2(m)/out within ~25% across that whole
// range (PR 10; before that the flat kDirectCostThreshold product sent
// wide-row/short-kernel correlations — out ~ 10^4, klen <= 129, the top
// of every FDM descent — down an FFT path costing 5-12x the direct sweep).
constexpr std::size_t kFftCostPerPointLog = 3;

[[nodiscard]] bool use_direct(std::size_t na, std::size_t nb, Policy policy) {
  switch (policy.path) {
    case Policy::Path::direct:
      return true;
    case Policy::Path::fft:
      return false;
    case Policy::Path::automatic:
      break;
  }
  const std::size_t k = std::min(na, nb);
  const std::size_t n = std::max(na, nb);
  if (k * n <= kDirectCostThreshold || k <= 8) return true;
  const std::size_t m = next_pow2(n);
  const auto logm = static_cast<std::size_t>(std::bit_width(m) - 1);
  return k * n <= kFftCostPerPointLog * m * logm;
}

void count_fft_ops(std::size_t n, std::uint64_t transforms_of_half,
                   bool pointwise = true) {
  // `transforms_of_half` complex FFTs of size n/2, plus (unless the caller
  // accounts it elsewhere) the O(n) pointwise spectrum product; same
  // accounting granularity as the direct path.
  const std::size_t m = std::max<std::size_t>(n / 2, 1);
  const auto logm = static_cast<std::uint64_t>(
      std::max<std::size_t>(1, static_cast<std::size_t>(std::bit_width(m)) - 1));
  metrics::add_flops(transforms_of_half * 5 * static_cast<std::uint64_t>(m) *
                         logm +
                     (pointwise ? 6 * static_cast<std::uint64_t>(n) : 0));
  metrics::add_bytes(transforms_of_half * static_cast<std::uint64_t>(m) *
                     sizeof(cplx) * logm);
}

/// Minimal cyclic transform size for reading window [skip, skip + out_len)
/// of the full linear convolution (length `full`) of operands of length
/// `na` and `nb`. Cyclic convolution at size n < full aliases linear bin
/// j + n onto bin j, corrupting exactly the cyclic bins [0, full - 1 - n];
/// the window survives iff skip >= full - n (overlap-save: the wrapped tail
/// lands strictly below the first bin we read). The window and both
/// operands must also fit in the buffer, so
///   n = next_pow2(max(full - skip, skip + out_len, na, nb)).
/// For a trimmed correlation (na = out_len + klen - 1, skip = klen - 1) the
/// first three terms coincide at out_len + klen - 1 — the rule
/// correlate_fft_size() exposes; for a full convolution (skip = 0,
/// out_len = full) it degenerates to next_pow2(full), the classical sizing.
[[nodiscard]] std::size_t cyclic_size(std::size_t na, std::size_t nb,
                                      std::size_t skip, std::size_t out_len) {
  const std::size_t full = na + nb - 1;
  AMOPT_EXPECTS(skip + out_len <= full);
  return next_pow2(std::max({full - skip, skip + out_len, na, nb}));
}

/// Real-input cyclic convolution via R2C/C2R: both operands are zero-padded
/// into size-n real buffers (n the minimal power of two that keeps the
/// requested window alias-free, see cyclic_size()), transformed with two
/// half-size complex FFTs, multiplied over the n/2+1 non-redundant bins,
/// and brought back with one C2R. Writes out[j] = c[skip + j] for j in
/// [0, out.size()), where c is the full convolution — `skip` folds the
/// correlation shift into the copy-out. `reverse_b` packs b back-to-front
/// (correlation = convolution with the reversed kernel) without
/// materializing a reversed copy. The first operand is the logical
/// concatenation of `a` and `a_tail` (the solvers' green-extension cells) —
/// staging both pieces here yields the same padded buffer, hence the same
/// bits, as a concatenated call.
void real_convolve_into(std::span<const double> a,
                        std::span<const double> a_tail,
                        std::span<const double> b, bool reverse_b,
                        std::size_t skip, std::span<double> out,
                        Workspace& ws) {
  const std::size_t na = a.size() + a_tail.size();
  const std::size_t full = na + b.size() - 1;
  const std::size_t n = cyclic_size(na, b.size(), skip, out.size());
  const fft::RealPlan& plan = fft::real_plan_for(n);
  const std::size_t nspec = plan.spectrum_size();

  std::span<double> ra = ws.real_a(n);
  std::copy(a.begin(), a.end(), ra.begin());
  std::copy(a_tail.begin(), a_tail.end(),
            ra.begin() + static_cast<std::ptrdiff_t>(a.size()));
  std::fill(ra.begin() + static_cast<std::ptrdiff_t>(na), ra.end(), 0.0);

  std::span<cplx> sa = ws.spec_a(nspec);
  // Aliased-operand fast path: convolving a signal with itself (the
  // squaring rungs of poly::power_fft) needs only ONE forward transform —
  // the spectrum is squared in place. A second transform of the identical
  // input would reproduce these bins bit for bit, and csquare evaluates
  // cmul(sa, sa) on them (exactly at the scalar level, to the documented
  // last-ulp FMA tolerance on AVX-512), so the fast path is work elision,
  // not a numerical shortcut.
  if (!reverse_b && a_tail.empty() && a.data() == b.data() &&
      a.size() == b.size()) {
    plan.forward(ra.data(), sa.data());
    simd::kernels().csquare(sa.data(), nspec);
    plan.inverse(sa.data(), ra.data());
    AMOPT_EXPECTS(skip + out.size() <= full);
    std::copy_n(ra.begin() + static_cast<std::ptrdiff_t>(skip), out.size(),
                out.begin());
    count_fft_ops(n, 2);
    return;
  }

  std::span<double> rb = ws.real_b(n);
  if (reverse_b) {
    std::copy(b.rbegin(), b.rend(), rb.begin());
  } else {
    std::copy(b.begin(), b.end(), rb.begin());
  }
  std::fill(rb.begin() + static_cast<std::ptrdiff_t>(b.size()), rb.end(), 0.0);

  std::span<cplx> sb = ws.spec_b(nspec);
  plan.forward(ra.data(), sa.data());
  plan.forward(rb.data(), sb.data());
  simd::kernels().cmul(sa.data(), sb.data(), nspec);
  plan.inverse(sa.data(), ra.data());

  AMOPT_EXPECTS(skip + out.size() <= full);
  std::copy_n(ra.begin() + static_cast<std::ptrdiff_t>(skip), out.size(),
              out.begin());
  count_fft_ops(n, 3);
}

/// The consumer half of the spectral overloads: transform concat(a, a_tail)
/// zero-padded to `kspec.n`, multiply by the precomputed kernel bins,
/// invert, copy out from `skip`. Identical arithmetic to real_convolve_into
/// with the kernel transform hoisted out.
void real_convolve_spec_into(std::span<const double> a,
                             std::span<const double> a_tail,
                             const fft::RealSpectrum& kspec, std::size_t skip,
                             std::span<double> out, Workspace& ws) {
  const std::size_t na = a.size() + a_tail.size();
  const std::size_t full = na + kspec.klen - 1;
  const std::size_t n = kspec.n;
  // The spectrum's size is the caller's choice; any n that keeps the read
  // window alias-free is accepted (n >= full remains valid over-padding).
  AMOPT_EXPECTS(n >= na && n >= kspec.klen);
  AMOPT_EXPECTS(skip + out.size() <= n);
  AMOPT_EXPECTS(full <= n + skip);
  const fft::RealPlan& plan = fft::real_plan_for(n);
  const std::size_t nspec = plan.spectrum_size();
  AMOPT_EXPECTS(kspec.bins.size() >= nspec);

  std::span<double> ra = ws.real_a(n);
  std::copy(a.begin(), a.end(), ra.begin());
  std::copy(a_tail.begin(), a_tail.end(),
            ra.begin() + static_cast<std::ptrdiff_t>(a.size()));
  std::fill(ra.begin() + static_cast<std::ptrdiff_t>(na), ra.end(), 0.0);
  std::span<cplx> sa = ws.spec_a(nspec);
  plan.forward(ra.data(), sa.data());
  simd::kernels().cmul(sa.data(), kspec.bins.data(), nspec);
  plan.inverse(sa.data(), ra.data());

  AMOPT_EXPECTS(skip + out.size() <= full);
  std::copy_n(ra.begin() + static_cast<std::ptrdiff_t>(skip), out.size(),
              out.begin());
  count_fft_ops(n, 2);
}

/// Trim the logical input concat(main, tail) to its first `needed` elements
/// (the prefix a correlation actually references).
void trim_split(std::span<const double>& main, std::span<const double>& tail,
                std::size_t needed) {
  if (main.size() >= needed) {
    main = main.subspan(0, needed);
    tail = {};
    return;
  }
  tail = tail.subspan(0, needed - main.size());
}

void convolve_full_direct_into(std::span<const double> a,
                               std::span<const double> b,
                               std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += ai * b[j];
  }
  metrics::add_flops(2 * static_cast<std::uint64_t>(a.size()) * b.size());
  metrics::add_bytes(static_cast<std::uint64_t>(out.size()) * sizeof(double));
}

}  // namespace

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

std::vector<double> convolve_full_direct(std::span<const double> a,
                                         std::span<const double> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> c(a.size() + b.size() - 1);
  convolve_full_direct_into(a, b, c);
  return c;
}

void correlate_valid_direct(std::span<const double> in,
                            std::span<const double> kernel,
                            std::span<double> out) {
  AMOPT_EXPECTS(!kernel.empty());
  AMOPT_EXPECTS(in.size() >= out.size() + kernel.size() - 1);
  // Dispatched tap sweep (the scalar table entry is this function's
  // historical accumulation loop, so the scalar level is unchanged).
  simd::kernels().correlate_taps(in.data(), kernel.data(), kernel.size(),
                                 out.data(), out.size());
  metrics::add_flops(2 * static_cast<std::uint64_t>(out.size()) *
                     kernel.size());
  metrics::add_bytes(static_cast<std::uint64_t>(out.size()) * sizeof(double));
}

void convolve_full(std::span<const double> a, std::span<const double> b,
                   std::span<double> out, Workspace& ws, Policy policy) {
  if (a.empty() || b.empty()) {
    AMOPT_EXPECTS(out.empty());
    return;
  }
  AMOPT_EXPECTS(out.size() == a.size() + b.size() - 1);
  if (use_direct(a.size(), b.size(), policy)) {
    convolve_full_direct_into(a, b, out);
    return;
  }
  real_convolve_into(a, {}, b, /*reverse_b=*/false, /*skip=*/0, out, ws);
}

std::vector<double> convolve_full(std::span<const double> a,
                                  std::span<const double> b, Policy policy) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> c(a.size() + b.size() - 1);
  convolve_full(a, b, c, thread_workspace(), policy);
  return c;
}

void correlate_valid(std::span<const double> in,
                     std::span<const double> kernel, std::span<double> out,
                     Workspace& ws, Policy policy) {
  AMOPT_EXPECTS(!kernel.empty());
  if (out.empty()) return;
  AMOPT_EXPECTS(in.size() >= out.size() + kernel.size() - 1);
  if (use_direct(in.size(), kernel.size(), policy)) {
    correlate_valid_direct(in, kernel, out);
    return;
  }
  // Correlation = convolution with the reversed kernel, shifted so that
  // output index 0 lands on full-convolution index kernel.size()-1; the
  // reversal happens while packing the transform input (no reversed copy)
  // and the shift while copying out. Trim the input to the prefix actually
  // referenced to keep the transform small.
  const std::size_t needed_in = out.size() + kernel.size() - 1;
  real_convolve_into(in.subspan(0, needed_in), {}, kernel, /*reverse_b=*/true,
                     /*skip=*/kernel.size() - 1, out, ws);
}

void correlate_valid(std::span<const double> in,
                     std::span<const double> kernel, std::span<double> out,
                     Policy policy) {
  correlate_valid(in, kernel, out, thread_workspace(), policy);
}

void correlate_valid(std::span<const double> main, std::span<const double> tail,
                     std::span<const double> kernel, std::span<double> out,
                     Workspace& ws, Policy policy) {
  if (tail.empty()) {  // degenerate split: exactly the concatenated call
    correlate_valid(main, kernel, out, ws, policy);
    return;
  }
  AMOPT_EXPECTS(!kernel.empty());
  if (out.empty()) return;
  const std::size_t in_len = main.size() + tail.size();
  AMOPT_EXPECTS(in_len >= out.size() + kernel.size() - 1);
  std::span<const double> m = main, t = tail;
  trim_split(m, t, out.size() + kernel.size() - 1);
  if (use_direct(in_len, kernel.size(), policy)) {
    // Small-size crossover: materialize the concatenation in workspace
    // staging and run the ordinary contiguous sweep. The copy is bounded by
    // the direct-path cost cap, and it keeps the sweep's vector/scalar
    // partition — hence every bit on FMA dispatch levels — identical to a
    // contiguous-input call (the zero-copy win belongs to the FFT path,
    // where the operands are large).
    const std::size_t needed = m.size() + t.size();
    std::span<double> cat = ws.cat(needed);
    std::copy(m.begin(), m.end(), cat.begin());
    std::copy(t.begin(), t.end(),
              cat.begin() + static_cast<std::ptrdiff_t>(m.size()));
    correlate_valid_direct(cat, kernel, out);
    return;
  }
  real_convolve_into(m, t, kernel, /*reverse_b=*/true,
                     /*skip=*/kernel.size() - 1, out, ws);
}

bool correlate_prefers_fft(std::size_t out_len, std::size_t kernel_len,
                           Policy policy) {
  if (out_len == 0 || kernel_len == 0) return false;
  const std::size_t in_len = out_len + kernel_len - 1;
  return !use_direct(in_len, kernel_len, policy);
}

std::size_t correlate_fft_size(std::size_t out_len, std::size_t kernel_len) {
  // Overlap-save minimal size: the trimmed input prefix is
  // out_len + kernel_len - 1 and the correlation reads full-convolution
  // bins [kernel_len - 1, kernel_len - 1 + out_len). A cyclic transform of
  // size n wraps only the top full - 1 - n linear bins onto [0, full-1-n],
  // i.e. strictly below that window whenever n >= out_len + kernel_len - 1
  // — so the transform only needs to cover the INPUT, not the full linear
  // convolution length out_len + 2*(kernel_len - 1) used before the
  // re-baselining (that double padding kept every linear bin alias-free,
  // including bins no correlation ever reads).
  return next_pow2(out_len + kernel_len - 1);
}

fft::RealSpectrum kernel_spectrum(std::span<const double> kernel,
                                  std::size_t n, bool reversed,
                                  Workspace& ws) {
  AMOPT_EXPECTS(!kernel.empty());
  AMOPT_EXPECTS(n >= kernel.size());
  fft::RealSpectrum spec;
  fft::real_plan_for(n).spectrum(kernel, reversed, ws.real_b(n), spec);
  count_fft_ops(n, 1, /*pointwise=*/false);
  return spec;
}

void correlate_valid(std::span<const double> in,
                     const fft::RealSpectrum& kspec, std::span<double> out,
                     Workspace& ws) {
  AMOPT_EXPECTS(!kspec.empty() && kspec.reversed);
  if (out.empty()) return;
  AMOPT_EXPECTS(in.size() >= out.size() + kspec.klen - 1);
  const std::size_t needed_in = out.size() + kspec.klen - 1;
  real_convolve_spec_into(in.subspan(0, needed_in), {}, kspec,
                          /*skip=*/kspec.klen - 1, out, ws);
}

void correlate_valid(std::span<const double> main, std::span<const double> tail,
                     const fft::RealSpectrum& kspec, std::span<double> out,
                     Workspace& ws) {
  AMOPT_EXPECTS(!kspec.empty() && kspec.reversed);
  if (out.empty()) return;
  AMOPT_EXPECTS(main.size() + tail.size() >= out.size() + kspec.klen - 1);
  std::span<const double> m = main, t = tail;
  trim_split(m, t, out.size() + kspec.klen - 1);
  real_convolve_spec_into(m, t, kspec, /*skip=*/kspec.klen - 1, out, ws);
}

void convolve_full(std::span<const double> a, const fft::RealSpectrum& bspec,
                   std::span<double> out, Workspace& ws) {
  AMOPT_EXPECTS(!bspec.empty() && !bspec.reversed);
  if (a.empty()) {
    AMOPT_EXPECTS(out.empty());
    return;
  }
  AMOPT_EXPECTS(out.size() == a.size() + bspec.klen - 1);
  real_convolve_spec_into(a, {}, bspec, /*skip=*/0, out, ws);
}

void convolve_many(std::span<const std::span<const double>> inputs,
                   std::span<const double> kernel,
                   std::span<std::vector<double>> outs, Workspace& ws,
                   Policy policy) {
  AMOPT_EXPECTS(outs.size() == inputs.size());
  AMOPT_EXPECTS(!kernel.empty());
  if (inputs.empty()) return;

  std::size_t max_na = 0;
  for (const auto& a : inputs) max_na = std::max(max_na, a.size());
  if (max_na == 0) {
    for (auto& o : outs) o.clear();
    return;
  }

  if (use_direct(max_na, kernel.size(), policy)) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].empty()) {
        outs[i].clear();
        continue;
      }
      outs[i].resize(inputs[i].size() + kernel.size() - 1);
      convolve_full(inputs[i], kernel, outs[i], ws, policy);
    }
    return;
  }

  // One FFT size covers every item: the cyclic length n exceeds the largest
  // full linear length, so shorter items simply see extra zero padding.
  const std::size_t n = next_pow2(max_na + kernel.size() - 1);
  const fft::RealPlan& plan = fft::real_plan_for(n);
  const std::size_t nspec = plan.spectrum_size();

  std::span<double> rb = ws.real_b(n);
  std::copy(kernel.begin(), kernel.end(), rb.begin());
  std::fill(rb.begin() + static_cast<std::ptrdiff_t>(kernel.size()), rb.end(),
            0.0);
  std::span<cplx> sb = ws.spec_b(nspec);
  plan.forward(rb.data(), sb.data());  // shared kernel spectrum

  std::span<double> ra = ws.real_a(n);
  std::span<cplx> sa = ws.spec_a(nspec);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::span<const double> a = inputs[i];
    if (a.empty()) {
      outs[i].clear();
      continue;
    }
    std::copy(a.begin(), a.end(), ra.begin());
    std::fill(ra.begin() + static_cast<std::ptrdiff_t>(a.size()), ra.end(),
              0.0);
    plan.forward(ra.data(), sa.data());
    simd::kernels().cmul(sa.data(), sb.data(), nspec);
    plan.inverse(sa.data(), ra.data());
    outs[i].resize(a.size() + kernel.size() - 1);
    std::copy_n(ra.begin(), outs[i].size(), outs[i].begin());
    count_fft_ops(n, 2);  // per-item transforms + pointwise product
  }
  count_fft_ops(n, 1, /*pointwise=*/false);  // the one shared kernel transform
}

}  // namespace amopt::conv
