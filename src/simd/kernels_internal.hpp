#pragma once
// Shared by every kernel translation unit: the two-row sweep driver and the
// scalar references of norm_cdf and tap_power_bins. Everything here has
// internal linkage, so each kernel file compiles its own copy under its own
// -m flags (an inline definition with external linkage would let the linker
// keep one file's copy for all of them). Not installed; include only from
// src/simd/*.cpp.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "amopt/simd/kernels.hpp"

namespace amopt::simd {
namespace {

/// Shared block-interleave driver behind every level's correlate_taps_2row:
/// each kBlock stripe of the first row is produced and immediately consumed
/// by the second row while still in L1. `sweep(in, out, j0, j1)` evaluates
/// the level's correlate_taps body over [j0, j1). EVERY chunk boundary is
/// aligned down to kSweepAlign so the vector/scalar partition inside each
/// sweep is exactly the partition one monolithic sweep would use — which
/// makes the fused result bit-identical to two single-row sweeps at every
/// dispatch level (FMA levels round vector and scalar lanes differently,
/// so partition identity is what the solvers' plane-parity rests on).
template <class Sweep>
void two_row_sweep_driver(const double* in, std::size_t ntaps, double* mid,
                          double* out, std::size_t n_mid, std::size_t n_out,
                          Sweep&& sweep) {
  constexpr std::size_t kBlock = 512;     // multiple of every vector width
  constexpr std::size_t kSweepAlign = 8;  // widest vector lane count
  const std::size_t lag = ntaps - 1;
  std::size_t done_out = 0;
  for (std::size_t j0 = 0; j0 < n_mid; j0 += kBlock) {
    const std::size_t j1 = std::min(j0 + kBlock, n_mid);
    sweep(in, mid, j0, j1);
    // Second-row cells whose whole window [j, j + lag] is now available,
    // clipped DOWN to the alignment grid (the final flush below completes
    // the row, so clipping costs at most one stripe of locality).
    std::size_t ready = j1 > lag ? std::min(j1 - lag, n_out) : 0;
    if (ready < n_out) ready &= ~(kSweepAlign - 1);
    if (ready > done_out) {
      sweep(mid, out, done_out, ready);
      done_out = ready;
    }
  }
  sweep(mid, out, done_out, n_out);
}

// Shared constants and the scalar reference evaluation of the libm-free
// normal CDF (Kernels::norm_cdf). Every level follows this exact operation
// sequence; the scalar table loops over phi_reference, the vector TUs map
// each step 1:1 onto lanes (the AVX2 TU builds without FMA, so its lanes
// reproduce these bits exactly) and use phi_reference for their scalar
// tails. Accuracy: the A&S 7.1.26 erf rational bounds the absolute error by
// 7.5e-8 on Phi; the in-house exp is accurate to ~1 ulp over its reduced
// range.
namespace phi_detail {
inline constexpr double kInvSqrt2 = 0.70710678118654752440;
// A&S 7.1.26 erfc(z) = t*(a1 + t*(a2 + ...)) * exp(-z^2), t = 1/(1 + p z).
inline constexpr double kP = 0.3275911;
inline constexpr double kA1 = 0.254829592;
inline constexpr double kA2 = -0.284496736;
inline constexpr double kA3 = 1.421413741;
inline constexpr double kA4 = -1.453152027;
inline constexpr double kA5 = 1.061405429;
// exp(y) for y in [-708, 0]: y = k ln2 + r, e^y = 2^k P(r).
inline constexpr double kLog2E = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kExpFloor = -708.0;  // below this, 2^k denormalizes
// Reciprocal factorials for the degree-11 Taylor P(r) (|r| <= ln2/2, so the
// truncation error sits below 1e-14 — far under the rational's 7.5e-8).
inline constexpr double kC[12] = {
    1.0,
    1.0,
    1.0 / 2,
    1.0 / 6,
    1.0 / 24,
    1.0 / 120,
    1.0 / 720,
    1.0 / 5040,
    1.0 / 40320,
    1.0 / 362880,
    1.0 / 3628800,
    1.0 / 39916800,
};

/// exp(y) for y <= 0 (clamped at kExpFloor; callers only feed -z^2).
[[nodiscard]] inline double exp_neg(double y) noexcept {
  y = y > kExpFloor ? y : kExpFloor;
  const double k = std::nearbyint(y * kLog2E);
  const double r = (y - k * kLn2Hi) - k * kLn2Lo;
  double p = kC[11];
  for (int i = 10; i >= 0; --i) p = p * r + kC[i];
  std::uint64_t bits =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(k) + 1023) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

[[nodiscard]] inline double phi_reference(double x) noexcept {
  const double z = std::fabs(x) * kInvSqrt2;
  const double t = 1.0 / (1.0 + kP * z);
  const double poly =
      ((((kA5 * t + kA4) * t + kA3) * t + kA2) * t + kA1) * t;
  const double tail = 0.5 * poly * exp_neg(-(z * z));
  return x >= 0.0 ? 1.0 - tail : tail;
}
}  // namespace phi_detail

// The scalar reference of Kernels::tap_power_bins, shared like phi_detail:
// the scalar table runs tap_bins_from over every bin, the vector TUs map
// each step onto lanes and finish their tails with it.
namespace tap_bins_detail {
/// A bin whose |R(w)|^h lies below this reads 0: a probability kernel
/// peaks near 1, so such bins sit ~108 decades under it, far below the
/// 1e-12 x peak floor the time-domain power clamps away. Every value in a
/// kept bin's chain is a power |R|^k with k <= h, so none falls below the
/// floor either (|R| > 1 only grows): every product's magnitude stays
/// >= 1e-240, and no chain meets a denormal.
inline constexpr double kFloor = 1e-120;

struct Bin {
  double re, im;
};

[[nodiscard]] inline Bin mul(Bin a, Bin b) noexcept {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/// |R(w)|^2 below this means |R(w)|^h < kFloor (0 for h = 0: R^0 = 1).
[[nodiscard]] inline double zero_below(std::uint64_t h) noexcept {
  return h == 0 ? 0.0
                : std::pow(kFloor * kFloor, 1.0 / static_cast<double>(h));
}

/// R(w)^h for two roots at once, in place, R(x) = taps[0] x^g + ... +
/// taps[g]: Horner, then binary exponentiation (square-and-multiply over
/// the bits of h, low first) on two independent chains, which keeps two
/// products in flight. A root with |R(w)|^2 < `zero` (zero_below(h))
/// starts its chain at exactly 0; a pair of such roots skips the chain.
/// (Named scalars, not arrays: the chains must stay in registers.)
inline void raise_pair(const double* taps, std::size_t ntaps, std::uint64_t h,
                       double zero, Bin& w0, Bin& w1) noexcept {
  Bin z0{taps[0], 0.0}, z1{taps[0], 0.0};
  for (std::size_t i = 1; i < ntaps; ++i) {
    z0 = mul(z0, w0);
    z1 = mul(z1, w1);
    z0.re += taps[i];
    z1.re += taps[i];
  }
  const bool zero0 = z0.re * z0.re + z0.im * z0.im < zero;
  const bool zero1 = z1.re * z1.re + z1.im * z1.im < zero;
  if (zero0 && zero1) {
    w0 = w1 = {0.0, 0.0};
    return;
  }
  if (zero0) z0 = {0.0, 0.0};
  if (zero1) z1 = {0.0, 0.0};
  Bin a0{1.0, 0.0}, a1{1.0, 0.0};
  for (;;) {
    if (h & 1u) {
      a0 = mul(a0, z0);
      a1 = mul(a1, z1);
    }
    h >>= 1;
    if (h == 0) break;
    z0 = mul(z0, z0);
    z1 = mul(z1, z1);
  }
  w0 = a0;
  w1 = a1;
}

/// Bins j, j + 1 and their mirrors m - j, m - j - 1 for j in [j0, m/2) in
/// steps of 2, then what is left: at most one more pair and the centre bin
/// m/2.
inline void tap_bins_from(const double* taps, std::size_t ntaps,
                          std::uint64_t h, const cplx* tw, std::size_t m,
                          cplx* bins, std::size_t j0) noexcept {
  const auto root = [&](std::size_t k) -> Bin {
    return {tw[k].real(), tw[k].imag()};
  };
  const auto mirror = [](Bin w) -> Bin { return {-w.re, w.im}; };  // -conj
  const auto store = [&](std::size_t k, Bin b) { bins[k] = cplx{b.re, b.im}; };
  const double zero = zero_below(h);
  std::size_t j = j0;
  for (; j + 2 <= m / 2; j += 2) {
    Bin lo0 = root(j), lo1 = root(j + 1);
    Bin hi0 = mirror(lo0), hi1 = mirror(lo1);
    raise_pair(taps, ntaps, h, zero, lo0, lo1);
    raise_pair(taps, ntaps, h, zero, hi0, hi1);
    store(j, lo0);
    store(j + 1, lo1);
    store(m - j, hi0);
    store(m - j - 1, hi1);
  }
  if (j < m / 2) {
    Bin lo = root(j), hi = mirror(lo);
    raise_pair(taps, ntaps, h, zero, lo, hi);
    store(j, lo);
    store(m - j, hi);
  }
  Bin centre = root(m / 2), spare = centre;
  raise_pair(taps, ntaps, h, zero, centre, spare);
  store(m / 2, centre);
}
}  // namespace tap_bins_detail

}  // namespace
}  // namespace amopt::simd
