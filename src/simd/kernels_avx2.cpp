// AVX2 kernel table: 4 doubles (2 complex) per 256-bit register. The kernel
// bodies are kernels_vec.hpp's, instantiated with the traits below; this
// file adds only the DIT and DIF radix-4 stages with h < 4, whose shuffles
// are width-specific. Compiled with -mavx2 only (no -mfma), so the compiler
// cannot contract the multiply-add chains: madd/msub are a separate
// multiply and add, and every lane evaluates exactly the scalar table's
// expression (see DESIGN.md §4 for the documented cross-path tolerance).

#include <immintrin.h>

#include <cstdint>

#include "kernels_vec.hpp"

namespace amopt::simd {

namespace {

struct Avx2 {
  using reg = __m256d;
  static constexpr std::size_t kLanes = 4;
  // The general radix-4 stage computes W^2j, W^3j in registers from this
  // half-size up (see vec::radix4_stage). Without FMA the in-register
  // powers cost 16 multiplies per lane group, so the crossover stays high;
  // the AVX-512 table switches earlier.
  static constexpr std::size_t kComputeTwiddleH = 2048;

  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg set1(double x) { return _mm256_set1_pd(x); }
  static reg zero() { return _mm256_setzero_pd(); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_pd(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_pd(a, b); }
  static reg xor_(reg a, reg b) { return _mm256_xor_pd(a, b); }
  static reg madd(reg a, reg b, reg c) { return add(mul(a, b), c); }
  static reg msub(reg a, reg b, reg c) { return sub(mul(a, b), c); }

  static void load_split(const double* p, reg& re, reg& im) {
    const reg z0 = load(p);      // [r0, i0, r1, i1]
    const reg z1 = load(p + 4);  // [r2, i2, r3, i3]
    const reg t0 = _mm256_permute2f128_pd(z0, z1, 0x20);  // [r0,i0,r2,i2]
    const reg t1 = _mm256_permute2f128_pd(z0, z1, 0x31);  // [r1,i1,r3,i3]
    re = _mm256_unpacklo_pd(t0, t1);
    im = _mm256_unpackhi_pd(t0, t1);
  }

  static void store_join(double* p, reg re, reg im) {
    const reg t0 = _mm256_unpacklo_pd(re, im);  // [r0, i0, r2, i2]
    const reg t1 = _mm256_unpackhi_pd(re, im);  // [r1, i1, r3, i3]
    store(p, _mm256_permute2f128_pd(t0, t1, 0x20));
    store(p + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
  }

  static reg reverse(reg v) {
    return _mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 1, 2, 3));
  }

  static void gather(const double* z, const std::uint32_t* idx, reg& re,
                     reg& im) {
    __m128i i = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    i = _mm_slli_epi32(i, 1);  // element r lives at double offset 2r
    re = _mm256_i32gather_pd(z, i, 8);
    im = _mm256_i32gather_pd(z + 1, i, 8);
  }

  static reg pair_butterfly(reg v) {
    const reg sw = _mm256_permute_pd(v, 0x5);  // [x1, x0, x3, x2]
    return _mm256_blend_pd(add(v, sw), sub(sw, v), 0xA);
  }

  static reg abs(reg v) { return _mm256_andnot_pd(set1(-0.0), v); }
  static reg round(reg v) {
    return _mm256_round_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static reg exp2i(reg k) {
    const __m256i kq = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
    return _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_add_epi64(kq, _mm256_set1_epi64x(1023)), 52));
  }
  static reg select_ge0(reg x, reg if_ge, reg otherwise) {
    return _mm256_blendv_pd(otherwise, if_ge,
                            _mm256_cmp_pd(x, zero(), _CMP_GE_OQ));
  }

  static reg or_(reg a, reg b) { return _mm256_or_pd(a, b); }
  static bool all_zero(reg v) {
    const __m256i b = _mm256_castpd_si256(v);
    return _mm256_testz_si256(b, b) != 0;
  }

  /// 4x4 in-register transpose of the rows r[0..3].
  static void transpose(reg (&r)[4]);

  static void radix4_small(double* re, double* im, std::size_t n,
                           std::size_t h, const double* wsoa, bool inverse);
  static void dif4_small(double* re, double* im, std::size_t n, std::size_t h,
                         const double* wsoa);
};

void Avx2::transpose(__m256d (&r)[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// The scalar table's stage, DIT or DIF: the small stages' tail.
template <bool Dif>
void scalar_stage(double* re, double* im, std::size_t n, std::size_t h,
                  const double* wsoa, bool inverse) {
  if constexpr (Dif) {
    tables::scalar.dif4_pass(re, im, n, h, wsoa);
  } else {
    tables::scalar.radix4_pass(re, im, n, h, wsoa, inverse);
  }
}

/// The h = 1 stage (unit twiddles, butterflies on 4 consecutive elements),
/// DIT or DIF: transpose four blocks into SoA-of-blocks registers,
/// butterfly vertically, transpose back. This stage touches every element,
/// so leaving it scalar would cap the whole transform's speedup.
template <bool Dif>
void radix4_h1(double* re, double* im, std::size_t n, bool inverse) {
  const vec::Rotation<Avx2> rs(inverse);
  std::size_t base = 0;
  for (; base + 16 <= n; base += 16) {
    __m256d xr[4], xi[4];
    for (int q = 0; q < 4; ++q) {
      xr[q] = Avx2::load(re + base + 4 * q);
      xi[q] = Avx2::load(im + base + 4 * q);
    }
    Avx2::transpose(xr);
    Avx2::transpose(xi);
    vec::Cv<Avx2> o[4];
    if constexpr (Dif) {
      vec::dif_butterfly<Avx2>({xr[0], xi[0]}, {xr[1], xi[1]}, {xr[2], xi[2]},
                               {xr[3], xi[3]}, o);
    } else {
      vec::butterfly<Avx2>({xr[0], xi[0]}, {xr[1], xi[1]}, {xr[2], xi[2]},
                           {xr[3], xi[3]}, rs, o);
    }
    for (int q = 0; q < 4; ++q) {
      xr[q] = o[q].re;
      xi[q] = o[q].im;
    }
    Avx2::transpose(xr);
    Avx2::transpose(xi);
    for (int q = 0; q < 4; ++q) {
      Avx2::store(re + base + 4 * q, xr[q]);
      Avx2::store(im + base + 4 * q, xi[q]);
    }
  }
  if (base < n) {
    const double w_unit[6] = {1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
    scalar_stage<Dif>(re + base, im + base, n - base, 1, w_unit, inverse);
  }
}

/// The h = 2 stage (after the leading radix-2 stage of an odd-log2 DIT
/// transform, before the trailing one of a DIF): butterflies live on
/// 8-element blocks with j in {0, 1}. Two blocks are processed per
/// iteration through a 2x4 half-transpose — 128-bit lane permutes gather
/// the j-pairs of both blocks into one register, so the whole stage runs
/// the ordinary 4-wide butterfly with a [w(0), w(1), w(0), w(1)] twiddle
/// broadcast and no unpack traffic.
template <bool Dif>
void radix4_h2(double* re, double* im, std::size_t n, const double* wsoa,
               bool inverse) {
  vec::radix4_packed<Avx2, Dif>(
      re, im, n, 2, wsoa, inverse,
      [inverse](double* r, double* i, std::size_t nn, std::size_t hh,
                const double* w) {
        scalar_stage<Dif>(r, i, nn, hh, w, inverse);
      },
      [](const double* p) {
        return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(p));
      },
      // [a0 a1 b0 b1 | c0 c1 d0 d1] x 2 blocks <-> [x0 x1 x0' x1'].
      [](const double* p, __m256d(&x)[4]) {
        const __m256d r0 = Avx2::load(p), r1 = Avx2::load(p + 4);
        const __m256d r2 = Avx2::load(p + 8), r3 = Avx2::load(p + 12);
        x[0] = _mm256_permute2f128_pd(r0, r2, 0x20);
        x[1] = _mm256_permute2f128_pd(r0, r2, 0x31);
        x[2] = _mm256_permute2f128_pd(r1, r3, 0x20);
        x[3] = _mm256_permute2f128_pd(r1, r3, 0x31);
      },
      [](double* p, __m256d a, __m256d b, __m256d c, __m256d d) {
        Avx2::store(p, _mm256_permute2f128_pd(a, b, 0x20));
        Avx2::store(p + 4, _mm256_permute2f128_pd(c, d, 0x20));
        Avx2::store(p + 8, _mm256_permute2f128_pd(a, b, 0x31));
        Avx2::store(p + 12, _mm256_permute2f128_pd(c, d, 0x31));
      });
}

void Avx2::radix4_small(double* re, double* im, std::size_t n, std::size_t h,
                        const double* wsoa, bool inverse) {
  if (h == 1) {
    radix4_h1<false>(re, im, n, inverse);
  } else if (h == 2) {
    radix4_h2<false>(re, im, n, wsoa, inverse);
  } else {
    // h = 3 never occurs (half-sizes are powers of two); keep the scalar
    // fallback so the kernel stays total over its argument space.
    tables::scalar.radix4_pass(re, im, n, h, wsoa, inverse);
  }
}

void Avx2::dif4_small(double* re, double* im, std::size_t n, std::size_t h,
                      const double* wsoa) {
  if (h == 1) {
    radix4_h1<true>(re, im, n, false);
  } else if (h == 2) {
    radix4_h2<true>(re, im, n, wsoa, false);
  } else {
    tables::scalar.dif4_pass(re, im, n, h, wsoa);
  }
}

}  // namespace

namespace tables {
constinit const Kernels avx2 = vec::table<Avx2>();
}  // namespace tables

}  // namespace amopt::simd
