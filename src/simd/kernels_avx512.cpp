// AVX-512F kernel table: 8 doubles (4 complex) per 512-bit register. The
// kernel bodies are kernels_vec.hpp's, instantiated with the traits below;
// vpermt2pd crosses all 128-bit lanes in one instruction, which halves the
// shuffle and load/store counts of the layout helpers (de/interleave, R2C /
// C2R pair twiddles) against AVX2 — profiling the end-to-end pricers showed
// those helpers carrying ~15% of a descent. This file adds the radix-4
// stages with h = 2 and h = 4, whose packers are width-specific, and hands
// h = 1 to the AVX2 table. It is compiled with -mavx512f -mavx512dq (AVX2
// implied): madd/msub are FMAs, and the compiler may contract the spelled-
// out multiply-add chains too, so this level can differ from scalar/AVX2 in
// the last ulps (the more accurate rounding), bounded by the documented
// cross-path tolerance (DESIGN.md §4).

#include <immintrin.h>

#include <cstdint>

#include "kernels_vec.hpp"

namespace amopt::simd {

namespace {

__m512i idx8(long long a, long long b, long long c, long long d, long long e,
             long long f, long long g, long long h) {
  return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
}

struct Avx512 {
  using reg = __m512d;
  static constexpr std::size_t kLanes = 8;
  // The general radix-4 stage computes W^2j, W^3j in registers from this
  // half-size up (see vec::radix4_stage) — lower than AVX2's 2048: FMA makes
  // the in-register powers cheap here, and in a real descent (many distinct
  // transform sizes, unlike a single-size micro loop) the 48h-byte twiddle
  // blocks arrive cold, which is where computing wins end-to-end (~5% on
  // the fig5 pricers when this crossover was measured).
  static constexpr std::size_t kComputeTwiddleH = 512;

  static reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg set1(double x) { return _mm512_set1_pd(x); }
  static reg zero() { return _mm512_setzero_pd(); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  static reg div(reg a, reg b) { return _mm512_div_pd(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_pd(a, b); }
  static reg xor_(reg a, reg b) { return _mm512_xor_pd(a, b); }
  static reg madd(reg a, reg b, reg c) { return _mm512_fmadd_pd(a, b, c); }
  static reg msub(reg a, reg b, reg c) { return _mm512_fmsub_pd(a, b, c); }

  static reg cmul(reg a, reg b) {
    const reg bre = _mm512_movedup_pd(b);
    const reg bim = _mm512_permute_pd(b, 0xFF);
    const reg asw = _mm512_permute_pd(a, 0x55);
    // fmaddsub: even lanes a*b - c, odd lanes a*b + c (one rounding).
    return _mm512_fmaddsub_pd(a, bre, mul(asw, bim));
  }

  static void load_split(const double* p, reg& re, reg& im) {
    const reg z0 = load(p);
    const reg z1 = load(p + 8);
    re = _mm512_permutex2var_pd(z0, idx8(0, 2, 4, 6, 8, 10, 12, 14), z1);
    im = _mm512_permutex2var_pd(z0, idx8(1, 3, 5, 7, 9, 11, 13, 15), z1);
  }

  static void store_join(double* p, reg re, reg im) {
    store(p, _mm512_permutex2var_pd(re, idx8(0, 8, 1, 9, 2, 10, 3, 11), im));
    store(p + 8,
          _mm512_permutex2var_pd(re, idx8(4, 12, 5, 13, 6, 14, 7, 15), im));
  }

  static reg reverse(reg v) {
    return _mm512_permutexvar_pd(idx8(7, 6, 5, 4, 3, 2, 1, 0), v);
  }

  static void gather(const double* z, const std::uint32_t* idx, reg& re,
                     reg& im) {
    __m256i i = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    i = _mm256_slli_epi32(i, 1);  // element r lives at double offset 2r
    re = _mm512_i32gather_pd(i, z, 8);
    im = _mm512_i32gather_pd(i, z + 1, 8);
  }

  static reg pair_butterfly(reg v) {
    const reg sw = _mm512_permute_pd(v, 0x55);  // swap within pairs
    return _mm512_mask_blend_pd(0xAA, add(v, sw), sub(sw, v));
  }

  static reg abs(reg v) { return _mm512_abs_pd(v); }
  static reg round(reg v) {
    return _mm512_roundscale_pd(v,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static reg exp2i(reg k) {
    return _mm512_castsi512_pd(_mm512_slli_epi64(
        _mm512_add_epi64(_mm512_cvtpd_epi64(k), _mm512_set1_epi64(1023)), 52));
  }
  static reg select_ge0(reg x, reg if_ge, reg otherwise) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, zero(), _CMP_GE_OQ),
                                otherwise, if_ge);
  }

  static reg or_(reg a, reg b) { return _mm512_or_pd(a, b); }
  static bool all_zero(reg v) {
    const __m512i b = _mm512_castpd_si512(v);
    return _mm512_test_epi64_mask(b, b) == 0;
  }

  static void radix4_small(double* re, double* im, std::size_t n,
                           std::size_t h, const double* wsoa, bool inverse);
};

/// The h = 4 stage: two butterfly groups (32 elements per array) per
/// iteration, gathered and scattered with cross-lane vpermt2pd. The
/// small-transform stages dominate the many narrow convolutions of a
/// descent, which is why this one gets its own kernel.
void radix4_h4(double* re, double* im, std::size_t n, const double* wsoa,
               bool inverse) {
  const __m512i lo = idx8(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i hi = idx8(4, 5, 6, 7, 12, 13, 14, 15);
  vec::radix4_packed<Avx512>(
      re, im, n, 4, wsoa, inverse, tables::avx2,
      [](const double* p) {
        return _mm512_broadcast_f64x4(_mm256_loadu_pd(p));
      },
      // [a0..3 b0..3 c0..3 d0..3] x 2 groups <-> [x(g1) | x(g2)].
      [&](const double* p, __m512d(&x)[4]) {
        const __m512d v0 = Avx512::load(p), v1 = Avx512::load(p + 8);
        const __m512d v2 = Avx512::load(p + 16), v3 = Avx512::load(p + 24);
        x[0] = _mm512_permutex2var_pd(v0, lo, v2);
        x[1] = _mm512_permutex2var_pd(v0, hi, v2);
        x[2] = _mm512_permutex2var_pd(v1, lo, v3);
        x[3] = _mm512_permutex2var_pd(v1, hi, v3);
      },
      [&](double* p, __m512d a, __m512d b, __m512d c, __m512d d) {
        Avx512::store(p, _mm512_permutex2var_pd(a, lo, b));
        Avx512::store(p + 8, _mm512_permutex2var_pd(c, lo, d));
        Avx512::store(p + 16, _mm512_permutex2var_pd(a, hi, b));
        Avx512::store(p + 24, _mm512_permutex2var_pd(c, hi, d));
      });
}

/// The h = 2 stage (odd-log2 transforms): four 8-element butterfly groups
/// per iteration. Two vpermt2pd's pack the (a, b) halves of two groups into
/// one register and vshuff64x2 merges four groups into full 8-wide
/// operands; twiddles broadcast as [w(0), w(1)] x 4.
void radix4_h2(double* re, double* im, std::size_t n, const double* wsoa,
               bool inverse) {
  // [a0 a1 b0 b1 | a0' a1' b0' b1'] packers for two 8-element groups, and
  // the per-group regrouping of [a(g1) a(g2) b(g1) b(g2)] pairs.
  const __m512i ab_idx = idx8(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i cd_idx = idx8(4, 5, 12, 13, 6, 7, 14, 15);
  const __m512i g0_idx = idx8(0, 1, 4, 5, 8, 9, 12, 13);
  const __m512i g1_idx = idx8(2, 3, 6, 7, 10, 11, 14, 15);
  vec::radix4_packed<Avx512>(
      re, im, n, 2, wsoa, inverse, tables::avx2,
      [](const double* p) { return _mm512_broadcast_f64x2(_mm_loadu_pd(p)); },
      [&](const double* p, __m512d(&x)[4]) {
        const __m512d v0 = Avx512::load(p), v1 = Avx512::load(p + 8);
        const __m512d v2 = Avx512::load(p + 16), v3 = Avx512::load(p + 24);
        const __m512d ab01 = _mm512_permutex2var_pd(v0, ab_idx, v1);
        const __m512d ab23 = _mm512_permutex2var_pd(v2, ab_idx, v3);
        const __m512d cd01 = _mm512_permutex2var_pd(v0, cd_idx, v1);
        const __m512d cd23 = _mm512_permutex2var_pd(v2, cd_idx, v3);
        x[0] = _mm512_shuffle_f64x2(ab01, ab23, 0x44);  // low 256s: a-halves
        x[1] = _mm512_shuffle_f64x2(ab01, ab23, 0xEE);  // high 256s: b-halves
        x[2] = _mm512_shuffle_f64x2(cd01, cd23, 0x44);
        x[3] = _mm512_shuffle_f64x2(cd01, cd23, 0xEE);
      },
      [&](double* p, __m512d a, __m512d b, __m512d c, __m512d d) {
        const __m512d ab01 = _mm512_shuffle_f64x2(a, b, 0x44);
        const __m512d ab23 = _mm512_shuffle_f64x2(a, b, 0xEE);
        const __m512d cd01 = _mm512_shuffle_f64x2(c, d, 0x44);
        const __m512d cd23 = _mm512_shuffle_f64x2(c, d, 0xEE);
        Avx512::store(p, _mm512_permutex2var_pd(ab01, g0_idx, cd01));
        Avx512::store(p + 8, _mm512_permutex2var_pd(ab01, g1_idx, cd01));
        Avx512::store(p + 16, _mm512_permutex2var_pd(ab23, g0_idx, cd23));
        Avx512::store(p + 24, _mm512_permutex2var_pd(ab23, g1_idx, cd23));
      });
}

void Avx512::radix4_small(double* re, double* im, std::size_t n,
                          std::size_t h, const double* wsoa, bool inverse) {
  if (h == 4) {
    radix4_h4(re, im, n, wsoa, inverse);
  } else if (h == 2) {
    radix4_h2(re, im, n, wsoa, inverse);
  } else {
    // h = 1 is the AVX2 transpose stage (unit twiddles: all shuffles, no
    // arithmetic worth widening).
    tables::avx2.radix4_pass(re, im, n, h, wsoa, inverse);
  }
}

}  // namespace

namespace tables {
constinit const Kernels avx512 = vec::table<Avx512>();
}  // namespace tables

}  // namespace amopt::simd
