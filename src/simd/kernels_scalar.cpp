// Scalar (portable) kernel table. These are the verbatim hot loops their
// call sites inlined before the SIMD layer existed — the expressions, the
// association order, and the iteration order are kept identical so the
// scalar dispatch level stays bit-compatible with the pre-SIMD library
// (asserted by tests/test_simd.cpp). Pointer parameters are
// restrict-qualified: no caller aliases them, and the qualifier lets the
// autovectorizer do what it can without changing the arithmetic.

#include <algorithm>
#include <cstddef>

#include "kernels_internal.hpp"

namespace amopt::simd {

namespace scalar_impl {

namespace {

void cmul(cplx* __restrict a, const cplx* __restrict b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) a[k] *= b[k];
}

void csquare(cplx* __restrict a, std::size_t n) {
  // Exactly cmul(a, a): operator*= reads both factors before writing, so
  // squaring in place evaluates the same expression on the same bits.
  for (std::size_t k = 0; k < n; ++k) a[k] *= a[k];
}

void correlate_taps(const double* __restrict in, const double* __restrict taps,
                    std::size_t ntaps, double* __restrict out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t m = 0; m < ntaps; ++m) acc += taps[m] * in[j + m];
    out[j] = acc;
  }
}

void correlate_taps_2row(const double* __restrict in,
                         const double* __restrict taps, std::size_t ntaps,
                         double* __restrict mid, double* __restrict out,
                         std::size_t n_mid, std::size_t n_out) {
  // Shared block-interleave driver (kernels_internal.hpp); per element the
  // expression and accumulation order are exactly correlate_taps's, so any
  // interleaving is bit-identical to two separate sweeps.
  two_row_sweep_driver(
      in, ntaps, mid, out, n_mid, n_out,
      [&](const double* src, double* dst, std::size_t j0, std::size_t j1) {
        for (std::size_t j = j0; j < j1; ++j) {
          double acc = 0.0;
          for (std::size_t m = 0; m < ntaps; ++m) acc += taps[m] * src[j + m];
          dst[j] = acc;
        }
      });
}

void stencil3(const double* __restrict in, double b, double c, double a,
              double* __restrict out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j)
    out[j] = b * in[j] + c * in[j + 1] + a * in[j + 2];
}

void stencil3_2row(const double* __restrict in, double b, double c, double a,
                   double* __restrict mid, double* __restrict out,
                   std::size_t n_mid, std::size_t n_out) {
  // Same block-interleave driver as correlate_taps_2row, with stencil3's
  // unseeded expression as the sweep body — any interleaving is
  // bit-identical to two separate stencil3 sweeps (including the -0.0 cells
  // a seeded accumulation would flush to +0.0).
  two_row_sweep_driver(
      in, 3, mid, out, n_mid, n_out,
      [&](const double* src, double* dst, std::size_t j0, std::size_t j1) {
        for (std::size_t j = j0; j < j1; ++j)
          dst[j] = b * src[j] + c * src[j + 1] + a * src[j + 2];
      });
}

void bs_dpm(const double* __restrict logz, const double* __restrict drift_t,
            const double* __restrict inv_vs, const double* __restrict half_vs,
            double* __restrict dp, double* __restrict dm, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double base = (logz[i] + drift_t[i]) * inv_vs[i];
    dp[i] = base + half_vs[i];
    dm[i] = base - half_vs[i];
  }
}

void norm_cdf(const double* __restrict x, double* __restrict out,
              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = phi_detail::phi_reference(x[i]);
}

void deinterleave(const cplx* __restrict z, double* __restrict re,
                  double* __restrict im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = z[i].real();
    im[i] = z[i].imag();
  }
}

void interleave(const double* __restrict re, const double* __restrict im,
                cplx* __restrict z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = cplx{re[i], im[i]};
}

void interleave_scaled(const double* __restrict re,
                       const double* __restrict im, cplx* __restrict z,
                       std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) z[i] = cplx{re[i] * s, im[i] * s};
}

void deinterleave_rev(const cplx* __restrict z,
                      const std::uint32_t* __restrict rev,
                      double* __restrict re, double* __restrict im,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const cplx v = z[rev[i]];
    re[i] = v.real();
    im[i] = v.imag();
  }
}

void scale2(double* __restrict re, double* __restrict im, std::size_t n,
            double s) {
  for (std::size_t i = 0; i < n; ++i) re[i] *= s;
  for (std::size_t i = 0; i < n; ++i) im[i] *= s;
}

void radix2_pass(double* __restrict re, double* __restrict im, std::size_t n) {
  for (std::size_t base = 0; base < n; base += 2) {
    const double tr = re[base + 1];
    const double ti = im[base + 1];
    re[base + 1] = re[base] - tr;
    im[base + 1] = im[base] - ti;
    re[base] += tr;
    im[base] += ti;
  }
}

void radix4_pass(double* __restrict re, double* __restrict im, std::size_t n,
                 std::size_t h, const double* __restrict wsoa, bool inverse) {
  const double* w1re = wsoa;
  const double* w1im = wsoa + h;
  const double* w2re = wsoa + 2 * h;
  const double* w2im = wsoa + 3 * h;
  const double* w3re = wsoa + 4 * h;
  const double* w3im = wsoa + 5 * h;
  const double conj_sign = inverse ? -1.0 : 1.0;
  const std::size_t step = 4 * h;
  for (std::size_t base = 0; base < n; base += step) {
    for (std::size_t j = 0; j < h; ++j) {
      const double w1r = w1re[j], w1i = conj_sign * w1im[j];
      const double w2r = w2re[j], w2i = conj_sign * w2im[j];
      const double w3r = w3re[j], w3i = conj_sign * w3im[j];
      const std::size_t ia = base + j;
      const std::size_t ib = ia + h;
      const std::size_t ic = ia + 2 * h;
      const std::size_t id = ia + 3 * h;
      const double ar = re[ia], ai = im[ia];
      const double br = re[ib], bi = im[ib];
      const double cr = re[ic], ci = im[ic];
      const double dr = re[id], di = im[id];
      // bb = b * W^2j, cc = c * W^j, dd = d * W^3j
      const double bbr = br * w2r - bi * w2i, bbi = br * w2i + bi * w2r;
      const double ccr = cr * w1r - ci * w1i, cci = cr * w1i + ci * w1r;
      const double ddr = dr * w3r - di * w3i, ddi = dr * w3i + di * w3r;
      const double a1r = ar + bbr, a1i = ai + bbi;
      const double b1r = ar - bbr, b1i = ai - bbi;
      const double sr = ccr + ddr, si = cci + ddi;
      const double tr = ccr - ddr, ti = cci - ddi;
      // -i t forward, +i t inverse
      const double itr = inverse ? -ti : ti;
      const double iti = inverse ? tr : -tr;
      re[ia] = a1r + sr;
      im[ia] = a1i + si;
      re[ic] = a1r - sr;
      im[ic] = a1i - si;
      re[ib] = b1r + itr;
      im[ib] = b1i + iti;
      re[id] = b1r - itr;
      im[id] = b1i - iti;
    }
  }
}

void rfft_untangle(cplx* __restrict spec, const cplx* __restrict tw,
                   std::size_t m) {
  for (std::size_t k = 1, j = m - 1; k < j; ++k, --j) {
    const cplx zk = spec[k], zj = spec[j];
    const cplx xe = 0.5 * (zk + std::conj(zj));
    const cplx xo = cplx{0.0, -0.5} * (zk - std::conj(zj));
    const cplx txo = tw[k] * xo;
    spec[k] = xe + txo;
    spec[j] = std::conj(xe - txo);
  }
}

void rfft_retangle(cplx* __restrict spec, const cplx* __restrict tw,
                   std::size_t m) {
  for (std::size_t k = 1, j = m - 1; k < j; ++k, --j) {
    const cplx xk = spec[k], xj = spec[j];
    const cplx xe = 0.5 * (xk + std::conj(xj));
    const cplx xo = 0.5 * (xk - std::conj(xj)) * std::conj(tw[k]);
    spec[k] = xe + cplx{0.0, 1.0} * xo;
    spec[j] = std::conj(xe) + cplx{0.0, 1.0} * std::conj(xo);
  }
}

void tap_power_bins(const double* __restrict taps, std::size_t ntaps,
                    std::uint64_t h, const cplx* __restrict tw, std::size_t m,
                    cplx* __restrict bins) {
  tap_bins_detail::tap_bins_from(taps, ntaps, h, tw, m, bins, 0);
}

}  // namespace

}  // namespace scalar_impl

namespace tables {

const Kernels scalar = {
    scalar_impl::cmul,           scalar_impl::csquare,
    scalar_impl::correlate_taps, scalar_impl::correlate_taps_2row,
    scalar_impl::stencil3,       scalar_impl::stencil3_2row,
    scalar_impl::deinterleave,   scalar_impl::interleave,
    scalar_impl::interleave_scaled,
    scalar_impl::deinterleave_rev,
    scalar_impl::scale2,         scalar_impl::radix2_pass,
    scalar_impl::radix4_pass,    scalar_impl::rfft_untangle,
    scalar_impl::rfft_retangle,  scalar_impl::tap_power_bins,
    scalar_impl::bs_dpm,         scalar_impl::norm_cdf,
};

}  // namespace tables

}  // namespace amopt::simd
