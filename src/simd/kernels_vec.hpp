#pragma once
// The vector Kernels entries, each written once as a template over a small
// per-ISA traits type V. kernels_avx2.cpp and kernels_avx512.cpp define
// their traits and instantiate these bodies under their own -m flags;
// everything here has internal linkage, so each kernel file compiles its
// own copy and no definition can leak across the flag boundary at link
// time. Not installed; include only from src/simd/kernels_<isa>.cpp.
//
// Traits interface (all members static):
//   reg, kLanes                the register type and its double count
//   load/store                 unaligned, so every entry takes any pointer
//   set1, zero, add, sub, mul, div, max, xor_
//   madd(a, b, c) = a*b + c, msub(a, b, c) = a*b - c
//                              a separate multiply and add on AVX2 (scalar
//                              bits), an FMA on AVX-512
//   cmul(a, b)                 interleaved complex product of kLanes/2 pairs
//   load_split / store_join    2*kLanes interleaved doubles <-> re, im
//   reverse                    lane order reversed
//   gather(z, idx, re, im)     re/im of the complex elements z[idx[0..)]
//   pair_butterfly(v)          (x0 + x1, x0 - x1) on each lane pair
//   abs, round, exp2i, select_ge0
//                              the norm_cdf primitives (exp2i: 2^k for
//                              integral k; select_ge0: x >= 0 ? a : b)
//   or_, all_zero              tap_power_bins' skip test (all_zero: every
//                              lane's bits are zero)
//   radix4_small(...)          the radix-4 stages with h < kLanes (their
//                              shuffles are width-specific; most run
//                              through radix4_packed below)
//   kComputeTwiddleH           the general stage's computed-twiddle crossover
//
// madd/msub appear exactly where the AVX-512 kernels use an FMA; everything
// else spells out mul and add, which the AVX-512 file may still contract
// at the compiler's discretion (C++ defaults to -ffp-contract=fast). Either
// way every entry keeps the scalar table's per-element expression, so the
// cross-path differences stay within DESIGN.md §4's tolerance.

#include <cstddef>
#include <cstdint>

#include "kernels_internal.hpp"

namespace amopt::simd::vec {
namespace {

// ------------------------------------------------------------- spectrum

template <class V>
void cmul(cplx* a, const cplx* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  std::size_t k = 0;
  for (; k + V::kLanes / 2 <= n; k += V::kLanes / 2)
    V::store(ad + 2 * k, V::cmul(V::load(ad + 2 * k), V::load(bd + 2 * k)));
  for (; k < n; ++k) a[k] *= b[k];
}

template <class V>
void csquare(cplx* a, std::size_t n) {
  // cmul with both factors taken from one load: the same shuffle and
  // multiply sequence, so it matches cmul(a, a) lane for lane.
  auto* ad = reinterpret_cast<double*>(a);
  std::size_t k = 0;
  for (; k + V::kLanes / 2 <= n; k += V::kLanes / 2) {
    const typename V::reg v = V::load(ad + 2 * k);
    V::store(ad + 2 * k, V::cmul(v, v));
  }
  for (; k < n; ++k) a[k] *= a[k];
}

// ------------------------------------------- small-tap correlation sweeps
//
// One range body per sweep: greedy vectors from j0 plus a scalar tail, so a
// chunk that starts on two_row_sweep_driver's alignment grid reproduces the
// whole-row sweep's vector/scalar partition exactly. The vectors run four
// to a block first: four independent accumulator chains keep the FMA
// pipeline full where one chain waits out each multiply-add's latency.
// Every lane still evaluates its own expression in the one-vector order,
// and the four-vector blocks cover whole vectors on the same lane grid, so
// the bits and the vector/scalar partition are those of one vector a step.

/// K vectors of taps_range from out[0]: one accumulator chain per vector,
/// each lane summing m = 0..ntaps-1 from a zero seed.
template <class V, std::size_t K>
void taps_block(const double* in, const double* taps, std::size_t ntaps,
                double* out) {
  typename V::reg acc[K];
  for (std::size_t k = 0; k < K; ++k) acc[k] = V::zero();
  for (std::size_t m = 0; m < ntaps; ++m) {
    const typename V::reg t = V::set1(taps[m]);
    for (std::size_t k = 0; k < K; ++k)
      acc[k] = V::madd(t, V::load(in + m + k * V::kLanes), acc[k]);
  }
  for (std::size_t k = 0; k < K; ++k) V::store(out + k * V::kLanes, acc[k]);
}

template <class V>
void taps_range(const double* in, const double* taps, std::size_t ntaps,
                double* out, std::size_t j0, std::size_t j1) {
  constexpr std::size_t W = V::kLanes;
  std::size_t j = j0;
  for (; j + 4 * W <= j1; j += 4 * W)
    taps_block<V, 4>(in + j, taps, ntaps, out + j);
  for (; j + W <= j1; j += W) taps_block<V, 1>(in + j, taps, ntaps, out + j);
  for (; j < j1; ++j) {
    double acc = 0.0;
    for (std::size_t m = 0; m < ntaps; ++m) acc += taps[m] * in[j + m];
    out[j] = acc;
  }
}

template <class V>
void correlate_taps(const double* in, const double* taps, std::size_t ntaps,
                    double* out, std::size_t n) {
  taps_range<V>(in, taps, ntaps, out, 0, n);
}

template <class V>
void correlate_taps_2row(const double* in, const double* taps,
                         std::size_t ntaps, double* mid, double* out,
                         std::size_t n_mid, std::size_t n_out) {
  two_row_sweep_driver(
      in, ntaps, mid, out, n_mid, n_out,
      [&](const double* src, double* dst, std::size_t j0, std::size_t j1) {
        taps_range<V>(src, taps, ntaps, dst, j0, j1);
      });
}

/// K vectors of stencil3_range from out[0], each its own mul, madd, madd
/// chain.
template <class V, std::size_t K>
void stencil3_block(const double* in, typename V::reg vb, typename V::reg vc,
                    typename V::reg va, double* out) {
  typename V::reg acc[K];
  for (std::size_t k = 0; k < K; ++k)
    acc[k] = V::mul(vb, V::load(in + k * V::kLanes));
  for (std::size_t k = 0; k < K; ++k)
    acc[k] = V::madd(vc, V::load(in + k * V::kLanes + 1), acc[k]);
  for (std::size_t k = 0; k < K; ++k)
    acc[k] = V::madd(va, V::load(in + k * V::kLanes + 2), acc[k]);
  for (std::size_t k = 0; k < K; ++k) V::store(out + k * V::kLanes, acc[k]);
}

template <class V>
void stencil3_range(const double* in, double b, double c, double a,
                    double* out, std::size_t j0, std::size_t j1) {
  const typename V::reg vb = V::set1(b);
  const typename V::reg vc = V::set1(c);
  const typename V::reg va = V::set1(a);
  constexpr std::size_t W = V::kLanes;
  std::size_t j = j0;
  for (; j + 4 * W <= j1; j += 4 * W)
    stencil3_block<V, 4>(in + j, vb, vc, va, out + j);
  for (; j + W <= j1; j += W) stencil3_block<V, 1>(in + j, vb, vc, va, out + j);
  for (; j < j1; ++j) out[j] = b * in[j] + c * in[j + 1] + a * in[j + 2];
}

template <class V>
void stencil3(const double* in, double b, double c, double a, double* out,
              std::size_t n) {
  stencil3_range<V>(in, b, c, a, out, 0, n);
}

template <class V>
void stencil3_2row(const double* in, double b, double c, double a, double* mid,
                   double* out, std::size_t n_mid, std::size_t n_out) {
  two_row_sweep_driver(
      in, 3, mid, out, n_mid, n_out,
      [&](const double* src, double* dst, std::size_t j0, std::size_t j1) {
        stencil3_range<V>(src, b, c, a, dst, j0, j1);
      });
}

// --------------------------------------- boundary-engine quadrature loops

template <class V>
void bs_dpm(const double* logz, const double* drift_t, const double* inv_vs,
            const double* half_vs, double* dp, double* dm, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const typename V::reg base = V::mul(
        V::add(V::load(logz + i), V::load(drift_t + i)), V::load(inv_vs + i));
    const typename V::reg h = V::load(half_vs + i);
    V::store(dp + i, V::add(base, h));
    V::store(dm + i, V::sub(base, h));
  }
  for (; i < n; ++i) {
    const double base = (logz[i] + drift_t[i]) * inv_vs[i];
    dp[i] = base + half_vs[i];
    dm[i] = base - half_vs[i];
  }
}

template <class V>
void norm_cdf(const double* x, double* out, std::size_t n) {
  namespace pd = phi_detail;
  using reg = typename V::reg;
  const reg sign_mask = V::set1(-0.0);
  const reg one = V::set1(1.0);
  const reg half = V::set1(0.5);
  std::size_t i = 0;
  // Each step is the operation sequence of phi_detail::phi_reference, which
  // also evaluates the scalar tail.
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const reg vx = V::load(x + i);
    const reg z = V::mul(V::abs(vx), V::set1(pd::kInvSqrt2));
    const reg t = V::div(one, V::madd(V::set1(pd::kP), z, one));
    reg poly = V::set1(pd::kA5);
    poly = V::madd(poly, t, V::set1(pd::kA4));
    poly = V::madd(poly, t, V::set1(pd::kA3));
    poly = V::madd(poly, t, V::set1(pd::kA2));
    poly = V::madd(poly, t, V::set1(pd::kA1));
    poly = V::mul(poly, t);
    // exp(-z^2), range-reduced: y = k ln2 + r, e^y = 2^k P(r).
    const reg y =
        V::max(V::xor_(V::mul(z, z), sign_mask), V::set1(pd::kExpFloor));
    const reg k = V::round(V::mul(y, V::set1(pd::kLog2E)));
    const reg r = V::sub(V::sub(y, V::mul(k, V::set1(pd::kLn2Hi))),
                         V::mul(k, V::set1(pd::kLn2Lo)));
    reg p = V::set1(pd::kC[11]);
    for (int c = 10; c >= 0; --c) p = V::madd(p, r, V::set1(pd::kC[c]));
    const reg e = V::mul(p, V::exp2i(k));
    const reg tail = V::mul(V::mul(half, poly), e);
    V::store(out + i, V::select_ge0(vx, V::sub(one, tail), tail));
  }
  for (; i < n; ++i) out[i] = pd::phi_reference(x[i]);
}

// ------------------------------------------------- SoA layout conversions

template <class V>
void deinterleave(const cplx* z, double* re, double* im, std::size_t n) {
  const auto* zd = reinterpret_cast<const double*>(z);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    typename V::reg vr, vi;
    V::load_split(zd + 2 * i, vr, vi);
    V::store(re + i, vr);
    V::store(im + i, vi);
  }
  for (; i < n; ++i) {
    re[i] = z[i].real();
    im[i] = z[i].imag();
  }
}

template <class V>
void interleave(const double* re, const double* im, cplx* z, std::size_t n) {
  auto* zd = reinterpret_cast<double*>(z);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes)
    V::store_join(zd + 2 * i, V::load(re + i), V::load(im + i));
  for (; i < n; ++i) z[i] = cplx{re[i], im[i]};
}

template <class V>
void interleave_scaled(const double* re, const double* im, cplx* z,
                       std::size_t n, double s) {
  auto* zd = reinterpret_cast<double*>(z);
  const typename V::reg vs = V::set1(s);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes)
    V::store_join(zd + 2 * i, V::mul(V::load(re + i), vs),
                  V::mul(V::load(im + i), vs));
  for (; i < n; ++i) z[i] = cplx{re[i] * s, im[i] * s};
}

template <class V>
void deinterleave_rev(const cplx* z, const std::uint32_t* rev, double* re,
                      double* im, std::size_t n) {
  std::size_t i = 0;
  // Hardware gathers win while the permuted source stays cache-resident;
  // once it spills past L2 every gathered lane is an independent miss and
  // the plain scalar loop (which the prefetcher can at least overlap) is
  // faster — measured crossover around 2^14 complex.
  if (n <= (std::size_t{1} << 14)) {
    const auto* zd = reinterpret_cast<const double*>(z);
    for (; i + V::kLanes <= n; i += V::kLanes) {
      typename V::reg vr, vi;
      V::gather(zd, rev + i, vr, vi);
      V::store(re + i, vr);
      V::store(im + i, vi);
    }
  }
  for (; i < n; ++i) {
    const cplx v = z[rev[i]];
    re[i] = v.real();
    im[i] = v.imag();
  }
}

template <class V>
void scale2(double* re, double* im, std::size_t n, double s) {
  const typename V::reg vs = V::set1(s);
  for (double* p : {re, im}) {
    std::size_t i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
      V::store(p + i, V::mul(V::load(p + i), vs));
    for (; i < n; ++i) p[i] *= s;
  }
}

// ------------------------------------------------------------ FFT stages

template <class V>
void radix2_pass(double* re, double* im, std::size_t n) {
  // Butterflies live on (even, odd) element pairs inside one array.
  for (double* p : {re, im}) {
    std::size_t base = 0;
    for (; base + V::kLanes <= n; base += V::kLanes)
      V::store(p + base, V::pair_butterfly(V::load(p + base)));
    for (; base < n; base += 2) {
      const double t = p[base + 1];
      p[base + 1] = p[base] - t;
      p[base] += t;
    }
  }
}

/// One complex operand of a radix-4 butterfly, split into re/im registers.
template <class V>
struct Cv {
  typename V::reg re, im;
};

/// Sign masks of a radix-4 stage: `conj` flips the twiddles' imaginary
/// halves on the inverse; `rot` picks the -i (forward) / +i (inverse)
/// rotation of the (cc - dd) leg.
template <class V>
struct Rotation {
  explicit Rotation(bool inverse)
      : conj(inverse ? V::set1(-0.0) : V::zero()),
        rot(inverse ? V::zero() : V::set1(-0.0)) {}
  typename V::reg conj, rot;
};

/// x * w with madd/msub: the general stage's twiddle product.
template <class V>
[[gnu::always_inline]] inline Cv<V> twiddle(Cv<V> x, typename V::reg wr,
                                            typename V::reg wi) {
  return {V::msub(x.re, wr, V::mul(x.im, wi)),
          V::madd(x.re, wi, V::mul(x.im, wr))};
}

/// x * w spelled out as multiplies and adds: the small-h stages' product.
/// The AVX-512 file contracts these its own way, which is not the madd/msub
/// rounding of `twiddle`; keeping both forms keeps every level's bits.
template <class V>
[[gnu::always_inline]] inline Cv<V> twiddle_plain(Cv<V> x, typename V::reg wr,
                                                  typename V::reg wi) {
  return {V::sub(V::mul(x.re, wr), V::mul(x.im, wi)),
          V::add(V::mul(x.re, wi), V::mul(x.im, wr))};
}

/// The radix-4 butterfly after the twiddle products (bb = b W^2j,
/// cc = c W^j, dd = d W^3j): writes the outputs for positions a, b, c, d
/// to o[0..3]. Shared by the general stage and every ISA's small-h stages.
template <class V>
[[gnu::always_inline]] inline void butterfly(Cv<V> a, Cv<V> bb, Cv<V> cc,
                                             Cv<V> dd, const Rotation<V>& rs,
                                             Cv<V> (&o)[4]) {
  const typename V::reg a1r = V::add(a.re, bb.re);
  const typename V::reg a1i = V::add(a.im, bb.im);
  const typename V::reg b1r = V::sub(a.re, bb.re);
  const typename V::reg b1i = V::sub(a.im, bb.im);
  const typename V::reg sr = V::add(cc.re, dd.re);
  const typename V::reg si = V::add(cc.im, dd.im);
  // it = -i(cc - dd) forward, +i(cc - dd) inverse
  const typename V::reg itr = V::xor_(V::sub(cc.im, dd.im), rs.conj);
  const typename V::reg iti = V::xor_(V::sub(cc.re, dd.re), rs.rot);
  o[0] = {V::add(a1r, sr), V::add(a1i, si)};
  o[1] = {V::add(b1r, itr), V::add(b1i, iti)};
  o[2] = {V::sub(a1r, sr), V::sub(a1i, si)};
  o[3] = {V::sub(b1r, itr), V::sub(b1i, iti)};
}

/// The general radix-4 stage, h >= kLanes. ComputeW: past
/// V::kComputeTwiddleH one stage's SoA twiddle block (48h bytes) no longer
/// sits in L1/L2, so W^2j and W^3j are computed from W^j in registers
/// instead of streamed from cold memory.
template <class V, bool ComputeW>
void radix4_stage(double* re, double* im, std::size_t n, std::size_t h,
                  const double* wsoa, bool inverse) {
  const Rotation<V> rs(inverse);
  for (std::size_t base = 0; base < n; base += 4 * h) {
    for (std::size_t j = 0; j < h; j += V::kLanes) {
      const std::size_t ia = base + j;
      const Cv<V> w1 = {V::load(wsoa + j),
                        V::xor_(V::load(wsoa + h + j), rs.conj)};
      Cv<V> w2, w3;
      if constexpr (ComputeW) {
        // W^2 = W*W, W^3 = W^2*W (conjugation is multiplicative, so the
        // already-conjugated w1 yields conjugated powers on the inverse).
        w2 = twiddle<V>(w1, w1.re, w1.im);
        w3 = twiddle<V>(w2, w1.re, w1.im);
      } else {
        w2 = {V::load(wsoa + 2 * h + j),
              V::xor_(V::load(wsoa + 3 * h + j), rs.conj)};
        w3 = {V::load(wsoa + 4 * h + j),
              V::xor_(V::load(wsoa + 5 * h + j), rs.conj)};
      }
      const Cv<V> a = {V::load(re + ia), V::load(im + ia)};
      const Cv<V> b = {V::load(re + ia + h), V::load(im + ia + h)};
      const Cv<V> c = {V::load(re + ia + 2 * h), V::load(im + ia + 2 * h)};
      const Cv<V> d = {V::load(re + ia + 3 * h), V::load(im + ia + 3 * h)};
      Cv<V> o[4];
      butterfly<V>(a, twiddle<V>(b, w2.re, w2.im),
                   twiddle<V>(c, w1.re, w1.im), twiddle<V>(d, w3.re, w3.im),
                   rs, o);
      for (std::size_t q = 0; q < 4; ++q) {
        V::store(re + ia + q * h, o[q].re);
        V::store(im + ia + q * h, o[q].im);
      }
    }
  }
}

/// The loop of the radix-4 stages with 1 < h < kLanes. Each iteration packs
/// 4 kLanes elements per array into per-operand registers with `split` (h
/// lanes from each of several butterfly blocks), runs the butterfly with
/// the stage twiddles broadcast to every block by `bcast`, and unpacks with
/// `join`. Elements past the last whole iteration go to `fallback`.
template <class V, class Bcast, class Split, class Join>
void radix4_packed(double* re, double* im, std::size_t n, std::size_t h,
                   const double* wsoa, bool inverse, const Kernels& fallback,
                   Bcast bcast, Split split, Join join) {
  using reg = typename V::reg;
  const Rotation<V> rs(inverse);
  reg w[6];  // w1re, w1im, w2re, w2im, w3re, w3im
  for (std::size_t q = 0; q < 6; ++q) {
    w[q] = bcast(wsoa + q * h);
    if (q % 2) w[q] = V::xor_(w[q], rs.conj);
  }
  std::size_t base = 0;
  for (; base + 4 * V::kLanes <= n; base += 4 * V::kLanes) {
    reg xr[4], xi[4];
    split(re + base, xr);
    split(im + base, xi);
    Cv<V> o[4];
    butterfly<V>({xr[0], xi[0]}, twiddle_plain<V>({xr[1], xi[1]}, w[2], w[3]),
                 twiddle_plain<V>({xr[2], xi[2]}, w[0], w[1]),
                 twiddle_plain<V>({xr[3], xi[3]}, w[4], w[5]), rs, o);
    join(re + base, o[0].re, o[1].re, o[2].re, o[3].re);
    join(im + base, o[0].im, o[1].im, o[2].im, o[3].im);
  }
  if (base < n)
    fallback.radix4_pass(re + base, im + base, n - base, h, wsoa, inverse);
}

template <class V>
void radix4_pass(double* re, double* im, std::size_t n, std::size_t h,
                 const double* wsoa, bool inverse) {
  if (h < V::kLanes) {
    V::radix4_small(re, im, n, h, wsoa, inverse);
  } else if (h >= V::kComputeTwiddleH) {
    radix4_stage<V, true>(re, im, n, h, wsoa, inverse);
  } else {
    radix4_stage<V, false>(re, im, n, h, wsoa, inverse);
  }
}

// ----------------------------------------------- R2C / C2R pair twiddles
//
// kLanes pairs (k, j) per iteration: the j-side block is loaded from
// j - kLanes + 1 upwards and lane-reversed so lane l holds index j - l.

template <class V>
void rfft_untangle(cplx* spec, const cplx* tw, std::size_t m) {
  using reg = typename V::reg;
  constexpr std::size_t L = V::kLanes;
  auto* sd = reinterpret_cast<double*>(spec);
  const auto* td = reinterpret_cast<const double*>(tw);
  const reg half = V::set1(0.5);
  std::size_t k = 1, j = m - 1;
  for (; k + 2 * L - 1 <= j; k += L, j -= L) {
    reg kr, ki, jr, ji, twr, twi;
    V::load_split(sd + 2 * k, kr, ki);
    V::load_split(sd + 2 * (j - L + 1), jr, ji);
    jr = V::reverse(jr);
    ji = V::reverse(ji);
    V::load_split(td + 2 * k, twr, twi);
    // xe = (Z[k] + conj(Z[j]))/2, xo = (Z[k] - conj(Z[j]))/(2i)
    const reg xer = V::mul(half, V::add(kr, jr));
    const reg xei = V::mul(half, V::sub(ki, ji));
    const reg xor_ = V::mul(half, V::add(ki, ji));
    const reg xoi = V::mul(half, V::sub(jr, kr));
    // txo = t_k * xo
    const reg txr = V::sub(V::mul(twr, xor_), V::mul(twi, xoi));
    const reg txi = V::add(V::mul(twr, xoi), V::mul(twi, xor_));
    // spec[k] = xe + txo, spec[j] = conj(xe - txo)
    V::store_join(sd + 2 * k, V::add(xer, txr), V::add(xei, txi));
    const reg ojr = V::reverse(V::sub(xer, txr));
    const reg oji = V::reverse(V::sub(txi, xei));  // -(xei - txi)
    V::store_join(sd + 2 * (j - L + 1), ojr, oji);
  }
  for (; k < j; ++k, --j) {
    const cplx zk = spec[k], zj = spec[j];
    const cplx xe = 0.5 * (zk + std::conj(zj));
    const cplx xo = cplx{0.0, -0.5} * (zk - std::conj(zj));
    const cplx txo = tw[k] * xo;
    spec[k] = xe + txo;
    spec[j] = std::conj(xe - txo);
  }
}

template <class V>
void rfft_retangle(cplx* spec, const cplx* tw, std::size_t m) {
  using reg = typename V::reg;
  constexpr std::size_t L = V::kLanes;
  auto* sd = reinterpret_cast<double*>(spec);
  const auto* td = reinterpret_cast<const double*>(tw);
  const reg half = V::set1(0.5);
  std::size_t k = 1, j = m - 1;
  for (; k + 2 * L - 1 <= j; k += L, j -= L) {
    reg kr, ki, jr, ji, twr, twi;
    V::load_split(sd + 2 * k, kr, ki);
    V::load_split(sd + 2 * (j - L + 1), jr, ji);
    jr = V::reverse(jr);
    ji = V::reverse(ji);
    V::load_split(td + 2 * k, twr, twi);
    // xe = (X[k] + conj(X[j]))/2, u = (X[k] - conj(X[j]))/2,
    // xo = u * conj(t_k)
    const reg xer = V::mul(half, V::add(kr, jr));
    const reg xei = V::mul(half, V::sub(ki, ji));
    const reg ur = V::mul(half, V::sub(kr, jr));
    const reg ui = V::mul(half, V::add(ki, ji));
    const reg xor_ = V::add(V::mul(ur, twr), V::mul(ui, twi));
    const reg xoi = V::sub(V::mul(ui, twr), V::mul(ur, twi));
    // Z[k] = xe + i xo, Z[j] = conj(xe) + i conj(xo)
    V::store_join(sd + 2 * k, V::sub(xer, xoi), V::add(xei, xor_));
    const reg ojr = V::reverse(V::add(xer, xoi));
    const reg oji = V::reverse(V::sub(xor_, xei));
    V::store_join(sd + 2 * (j - L + 1), ojr, oji);
  }
  for (; k < j; ++k, --j) {
    const cplx xk = spec[k], xj = spec[j];
    const cplx xe = 0.5 * (xk + std::conj(xj));
    const cplx xo = 0.5 * (xk - std::conj(xj)) * std::conj(tw[k]);
    spec[k] = xe + cplx{0.0, 1.0} * xo;
    spec[j] = std::conj(xe) + cplx{0.0, 1.0} * std::conj(xo);
  }
}

// -------------------------------------------- kernel spectra from the taps
//
// Two vectors of adjacent roots per chain pair: their bins decay alike, so
// at large h whole pairs fall under tap_bins_detail::kFloor and skip their
// chains. Lanes under the floor start at exactly 0 and stay 0. Each block
// of lower roots w_j is followed by its mirror block -conj(w_j), whose bins
// m - j are stored lane-reversed like the R2C pair loops'. Every step is
// tap_bins_detail's scalar sequence, which also finishes the tail.

template <class V>
void tap_power_bins(const double* taps, std::size_t ntaps, std::uint64_t h,
                    const cplx* tw, std::size_t m, cplx* bins) {
  using reg = typename V::reg;
  constexpr std::size_t L = V::kLanes;
  const auto* td = reinterpret_cast<const double*>(tw);
  auto* bd = reinterpret_cast<double*>(bins);
  const reg zero = V::set1(tap_bins_detail::zero_below(h));
  // R(w)^h for the two root vectors w[0], w[1], in place.
  const auto raise = [&](Cv<V>(&w)[2]) {
    Cv<V> z[2];
    for (int q = 0; q < 2; ++q) {
      z[q] = {V::set1(taps[0]), V::zero()};
      for (std::size_t i = 1; i < ntaps; ++i) {
        z[q] = twiddle<V>(z[q], w[q].re, w[q].im);
        z[q].re = V::add(z[q].re, V::set1(taps[i]));
      }
      const reg keep = V::sub(
          V::madd(z[q].re, z[q].re, V::mul(z[q].im, z[q].im)), zero);
      z[q] = {V::select_ge0(keep, z[q].re, V::zero()),
              V::select_ge0(keep, z[q].im, V::zero())};
    }
    if (h != 0 && V::all_zero(V::or_(V::or_(z[0].re, z[0].im),
                                     V::or_(z[1].re, z[1].im)))) {
      w[0] = w[1] = {V::zero(), V::zero()};
      return;
    }
    Cv<V> acc[2] = {{V::set1(1.0), V::zero()}, {V::set1(1.0), V::zero()}};
    for (std::uint64_t e = h;;) {
      if (e & 1u) {
        acc[0] = twiddle<V>(acc[0], z[0].re, z[0].im);
        acc[1] = twiddle<V>(acc[1], z[1].re, z[1].im);
      }
      e >>= 1;
      if (e == 0) break;
      z[0] = twiddle<V>(z[0], z[0].re, z[0].im);
      z[1] = twiddle<V>(z[1], z[1].re, z[1].im);
    }
    w[0] = acc[0];
    w[1] = acc[1];
  };
  const reg sign = V::set1(-0.0);
  std::size_t j = 0;
  for (; j + 2 * L <= m / 2; j += 2 * L) {
    Cv<V> lo[2], hi[2];
    for (std::size_t q = 0; q < 2; ++q) {
      V::load_split(td + 2 * (j + q * L), lo[q].re, lo[q].im);
      hi[q] = {V::xor_(lo[q].re, sign), lo[q].im};  // -conj(w)
    }
    raise(lo);
    raise(hi);
    for (std::size_t q = 0; q < 2; ++q) {
      V::store_join(bd + 2 * (j + q * L), lo[q].re, lo[q].im);
      V::store_join(bd + 2 * (m - j - q * L - L + 1), V::reverse(hi[q].re),
                    V::reverse(hi[q].im));
    }
  }
  tap_bins_detail::tap_bins_from(taps, ntaps, h, tw, m, bins, j);
}

// ------------------------------------------------------------------ table

template <class V>
constexpr Kernels table() {
  return {
      cmul<V>,           csquare<V>,        correlate_taps<V>,
      correlate_taps_2row<V>, stencil3<V>,  stencil3_2row<V>,
      deinterleave<V>,   interleave<V>,     interleave_scaled<V>,
      deinterleave_rev<V>, scale2<V>,       radix2_pass<V>,
      radix4_pass<V>,    rfft_untangle<V>,  rfft_retangle<V>,
      tap_power_bins<V>, bs_dpm<V>,         norm_cdf<V>,
  };
}

}  // namespace
}  // namespace amopt::simd::vec
