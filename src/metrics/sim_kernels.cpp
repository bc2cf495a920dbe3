#include "amopt/metrics/sim_kernels.hpp"

#include <algorithm>
#include <bit>
#include <complex>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "amopt/common/aligned.hpp"
#include "amopt/common/assert.hpp"
#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/boundary.hpp"
#include "amopt/pricing/bsm_fdm.hpp"

namespace amopt::metrics {

namespace {

using pricing::OptionSpec;

// ---------------------------------------------------------------------
// Exact re-executions of the loop algorithms over SimVec.
// ---------------------------------------------------------------------

/// Nested-loop lattice rollback, in place (Figure 1 pattern). `g` = 1 for
/// BOPM, 2 for TOPM (row width g*i, g+1 taps).
void sim_lattice_vanilla(CacheSim& sim, std::int64_t T, std::int64_t g) {
  SimVec<double> row(sim, static_cast<std::size_t>(g * T + g + 1), 1.0);
  for (std::int64_t i = T - 1; i >= 0; --i) {
    for (std::int64_t j = 0; j <= g * i; ++j) {
      double lin = 0.0;
      for (std::int64_t k = 0; k <= g; ++k)
        lin += row[static_cast<std::size_t>(j + k)];
      row[static_cast<std::size_t>(j)] = lin;  // payoff compare: no memory
    }
  }
}

/// QuantLib-style rollback: a fresh values vector per step (modeled as
/// alternating buffers, which is what the allocator effectively yields).
void sim_bopm_quantlib(CacheSim& sim, std::int64_t T) {
  SimVec<double> a(sim, static_cast<std::size_t>(T + 1), 1.0);
  SimVec<double> b(sim, static_cast<std::size_t>(T + 1), 1.0);
  bool flip = false;
  for (std::int64_t i = T - 1; i >= 0; --i) {
    auto& cur = flip ? b : a;
    auto& nxt = flip ? a : b;
    for (std::int64_t j = 0; j <= i; ++j)
      nxt[static_cast<std::size_t>(j)] = cur[static_cast<std::size_t>(j)] +
                                         cur[static_cast<std::size_t>(j + 1)];
    flip = !flip;
  }
}

/// Zubair split tiling (pass 1 trapezoids + pass 2 gap triangles) with the
/// power table tracked as memory traffic.
void sim_bopm_zubair(CacheSim& sim, std::int64_t T, std::int64_t W) {
  SimVec<double> G(sim, static_cast<std::size_t>(T + 2), 1.0);
  SimVec<double> up(sim, static_cast<std::size_t>(2 * T + 9), 1.0);
  const auto pay = [&](std::int64_t i, std::int64_t j) {
    return up[static_cast<std::size_t>(2 * j - i + T + 4)];
  };
  const std::int64_t n_tiles = (T + W) / W;
  std::vector<std::vector<double>> halo(static_cast<std::size_t>(n_tiles));
  std::int64_t i0 = T;
  while (i0 > 0) {
    const std::int64_t H = std::min<std::int64_t>(W - 1, i0);
    for (std::int64_t k = 0; k < n_tiles; ++k) {
      const std::int64_t lo = k * W;
      const std::int64_t hi = std::min((k + 1) * W - 1, T);
      auto& h = halo[static_cast<std::size_t>(k)];
      h.assign(static_cast<std::size_t>(H + 1), G[static_cast<std::size_t>(lo)]);
      if (lo > i0 - 1) continue;
      for (std::int64_t t = 1; t <= H; ++t) {
        const std::int64_t i = i0 - t;
        const std::int64_t jhi = std::min(hi - t, i);
        for (std::int64_t j = lo; j <= jhi; ++j) {
          const double lin = G[static_cast<std::size_t>(j)] +
                             G[static_cast<std::size_t>(j + 1)];
          G[static_cast<std::size_t>(j)] = std::max(lin, pay(i, j));
        }
        h[static_cast<std::size_t>(t)] = G[static_cast<std::size_t>(lo)];
      }
    }
    for (std::int64_t k = 0; k < n_tiles; ++k) {
      const std::int64_t hi = std::min((k + 1) * W - 1, T);
      if (hi >= T) continue;
      const auto& h = halo[static_cast<std::size_t>(k + 1)];
      for (std::int64_t t = 1; t <= H; ++t) {
        const std::int64_t i = i0 - t;
        const std::int64_t jlo = std::max(hi - t + 1, std::int64_t{0});
        const std::int64_t jhi = std::min(hi, i);
        for (std::int64_t j = jlo; j <= jhi; ++j) {
          const double right = (j + 1 <= hi)
                                   ? G[static_cast<std::size_t>(j + 1)]
                                   : h[static_cast<std::size_t>(t - 1)];
          const double lin = G[static_cast<std::size_t>(j)] + right;
          G[static_cast<std::size_t>(j)] = std::max(lin, pay(i, j));
        }
      }
    }
    i0 -= H;
  }
}

/// In-place projection sweep of the BSM grid with the payoff table tracked.
void sim_bsm_vanilla(CacheSim& sim, std::int64_t T) {
  const std::int64_t width = 2 * T + 11;
  SimVec<double> cur(sim, static_cast<std::size_t>(width), 1.0);
  SimVec<double> pay(sim, static_cast<std::size_t>(width), 1.0);
  for (std::int64_t n = 1; n <= T; ++n) {
    for (std::int64_t t = n; t <= width - 1 - n; ++t) {
      const double lin = cur[static_cast<std::size_t>(t - 1)] +
                         cur[static_cast<std::size_t>(t)] +
                         cur[static_cast<std::size_t>(t + 1)];
      cur[static_cast<std::size_t>(t)] =
          std::max(lin, pay[static_cast<std::size_t>(t)]);
    }
  }
}

// ---------------------------------------------------------------------
// FFT trace replay.
// ---------------------------------------------------------------------

/// Replays the memory behaviour of the FFT convolution pipelines over real
/// heap addresses. The model is the production R2C/C2R real-input pipeline
/// (conv::real_convolve_into): zero-padded real operand buffers, two
/// half-size complex forward transforms with their O(n) untangle pair
/// sweeps, the pointwise product over the n/2+1 non-redundant bins, and one
/// half-size inverse with its retangle sweep. Sizes below 4 have no
/// half-size transform and replay `convolution_packed`. Twiddle tables are
/// cached per size exactly like fft::plan_for / real_plan_for, and work
/// buffers are reused per size (the Workspace arena in the real code).
class FftReplayer {
 public:
  explicit FftReplayer(CacheSim& sim) : sim_(sim) {}

  /// One full convolution through the R2C/C2R pipeline.
  void convolution(std::size_t n_in, std::size_t n_kernel,
                   std::size_t n_out) {
    const std::size_t full = n_in + n_kernel - 1;
    const std::size_t n = next_pow2(full);
    if (n < 4) {
      convolution_packed(n_in, n_kernel, n_out);  // degenerate tiny sizes
      return;
    }
    const std::size_t m = n / 2;
    SimVec<double>& ra = cached(real_a_, n);
    SimVec<double>& rb = cached(real_b_, n);
    SimVec<cplx>& sa = cached(spec_a_, m + 1);
    SimVec<cplx>& sb = cached(spec_b_, m + 1);
    SimVec<cplx>& tw = cached(half_tw_, m);      // half-plan stage twiddles
    SimVec<cplx>& rtw = cached(real_tw_, m / 2 + 1);  // RealPlan twiddles

    // Zero-padded operand packing (the writes into the arena buffers; the
    // reads of the caller-owned inputs are accounted by the caller's row
    // buffers, as before).
    for (std::size_t i = 0; i < n; ++i) ra[i] = i < n_in ? 1.0 : 0.0;
    for (std::size_t i = 0; i < n; ++i) rb[i] = i < n_kernel ? 1.0 : 0.0;

    forward_r2c(ra, sa, tw, rtw, m);
    forward_r2c(rb, sb, tw, rtw, m);
    for (std::size_t k = 0; k < m + 1; ++k) {  // pointwise product
      (void)sb[k];
      sa[k] *= cplx{0.5, 0.5};
    }
    inverse_c2r(sa, ra, tw, rtw, m);
    for (std::size_t i = 0; i < n_out; ++i) (void)ra[i];  // copy out
  }

  /// A solver-path correlation against the KernelCache's CACHED kernel
  /// spectrum (PR 4/5 production pipeline): the kernel transform is paid
  /// once per (kernel length, padded size) — modeled by building the cached
  /// bins on first touch — and every later convolution at that key runs
  /// just the input transform, the pointwise product against the cached
  /// bins, and the inverse (2 half-size transforms instead of 3). The input
  /// row is staged split-operand (PR 5), so no concatenated copy of the red
  /// prefix is modeled either.
  void correlation_spectral(std::size_t n_in, std::size_t n_kernel,
                            std::size_t n_out) {
    const std::size_t full = n_in + n_kernel - 1;
    const std::size_t n = next_pow2(full);
    if (n < 4) {
      convolution_packed(n_in, n_kernel, n_out);  // degenerate tiny sizes
      return;
    }
    const std::size_t m = n / 2;
    SimVec<double>& ra = cached(real_a_, n);
    SimVec<cplx>& sa = cached(spec_a_, m + 1);
    SimVec<cplx>& tw = cached(half_tw_, m);
    SimVec<cplx>& rtw = cached(real_tw_, m / 2 + 1);
    // The cached kernel spectrum, keyed like KernelCache's (h, log2 n):
    // first touch builds it (pack + one forward), later touches only read.
    const std::size_t key = (n_kernel << 24) | n;
    auto it = kspec_.find(key);
    if (it == kspec_.end()) {
      SimVec<double>& rb = cached(real_b_, n);
      for (std::size_t i = 0; i < n; ++i) rb[i] = i < n_kernel ? 1.0 : 0.0;
      SimVec<cplx>& sb = cached(spec_b_, m + 1);
      forward_r2c(rb, sb, tw, rtw, m);
      it = kspec_.emplace(key, std::make_unique<SimVec<cplx>>(sim_, m + 1))
               .first;
      for (std::size_t k = 0; k < m + 1; ++k) (*it->second)[k] = sb[k];
    }
    SimVec<cplx>& ks = *it->second;

    for (std::size_t i = 0; i < n; ++i) ra[i] = i < n_in ? 1.0 : 0.0;
    forward_r2c(ra, sa, tw, rtw, m);
    for (std::size_t k = 0; k < m + 1; ++k) {  // pointwise vs cached bins
      (void)ks[k];
      sa[k] *= cplx{0.5, 0.5};
    }
    inverse_c2r(sa, ra, tw, rtw, m);
    for (std::size_t i = 0; i < n_out; ++i) (void)ra[i];  // copy out
  }

  /// A packed-complex two-for-one pipeline: the model for the degenerate
  /// n < 4 sizes above, which have no half-size transform.
  void convolution_packed(std::size_t n_in, std::size_t n_kernel,
                          std::size_t n_out) {
    const std::size_t full = n_in + n_kernel - 1;
    const std::size_t n = next_pow2(full);
    SimVec<cplx>& z = cached(z_cache_, n);
    SimVec<cplx>& tw = cached(tw_cache_, n);
    for (std::size_t i = 0; i < n_in; ++i) z[i] = {1.0, 0.0};
    for (std::size_t i = 0; i < n_kernel; ++i) z[i] += cplx{0.0, 1.0};
    fft_pass(z, tw, n);  // forward
    for (std::size_t k = 0; k < n / 2 + 1; ++k) {  // pointwise (paired bins)
      (void)z[k];
      (void)z[n - 1 - k];
    }
    fft_pass(z, tw, n);  // inverse
    for (std::size_t i = 0; i < n_out; ++i) (void)z[i];  // unpack
  }

 private:
  using cplx = std::complex<double>;
  template <class T>
  using Cache = std::map<std::size_t, std::unique_ptr<SimVec<T>>>;

  template <class T>
  SimVec<T>& cached(Cache<T>& cache, std::size_t n) {
    auto it = cache.find(n);
    if (it == cache.end())
      it = cache.emplace(n, std::make_unique<SimVec<T>>(sim_, n)).first;
    return *it->second;
  }

  /// R2C forward: pack the n reals pairwise into the m-bin complex scratch,
  /// run the half-size complex transform, untangle with the RealPlan
  /// twiddles (pair sweep from both ends).
  void forward_r2c(SimVec<double>& r, SimVec<cplx>& s, SimVec<cplx>& tw,
                   SimVec<cplx>& rtw, std::size_t m) {
    for (std::size_t k = 0; k < m; ++k)
      s[k] = cplx{r[2 * k], r[2 * k + 1]};
    fft_pass(s, tw, m);
    for (std::size_t k = 1, j = m - 1; k < j; ++k, --j) {
      const cplx t = rtw[k];
      s[k] += t;
      s[j] -= t;
    }
    (void)s[m / 2];
    s[m] = s[0];
  }

  /// C2R inverse: retangle pair sweep, half-size transform, unpack the m
  /// complex bins into 2m reals.
  void inverse_c2r(SimVec<cplx>& s, SimVec<double>& r, SimVec<cplx>& tw,
                   SimVec<cplx>& rtw, std::size_t m) {
    (void)s[m];
    for (std::size_t k = 1, j = m - 1; k < j; ++k, --j) {
      const cplx t = rtw[k];
      s[k] -= t;
      s[j] += t;
    }
    fft_pass(s, tw, m);
    for (std::size_t k = 0; k < m; ++k) {
      r[2 * k] = s[k].real();
      r[2 * k + 1] = s[k].imag();
    }
  }

  void fft_pass(SimVec<cplx>& z, SimVec<cplx>& tw, std::size_t n) {
    // bit-reversal permutation
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t r = 0, x = i;
      for (std::size_t m = n >> 1; m > 0; m >>= 1, x >>= 1) r = (r << 1) | (x & 1);
      if (i < r) std::swap(z[i], z[r]);
    }
    for (std::size_t h = 1; h < n; h <<= 1) {
      for (std::size_t base = 0; base < n; base += 2 * h) {
        for (std::size_t j = 0; j < h; ++j) {
          const cplx w = tw[h - 1 + j];
          const cplx t = z[base + j + h] * w;
          z[base + j + h] = z[base + j] - t;
          z[base + j] += t;
        }
      }
    }
  }

  CacheSim& sim_;
  Cache<double> real_a_;
  Cache<double> real_b_;
  Cache<cplx> spec_a_;
  Cache<cplx> spec_b_;
  Cache<cplx> half_tw_;
  Cache<cplx> real_tw_;
  Cache<cplx> z_cache_;
  Cache<cplx> tw_cache_;
  /// Cached kernel spectra keyed by (kernel length, padded size) — the
  /// replay mirror of the KernelCache spectrum tier.
  std::map<std::size_t, std::unique_ptr<SimVec<cplx>>> kspec_;
};

/// Kernel-power construction traffic: closed form (table write) for 2-tap,
/// FFT squaring chain for wider stencils. Heights are memoized per run,
/// mirroring the solver's KernelCache.
void replay_kernel_power(FftReplayer& fr, CacheSim& sim, std::int64_t taps,
                         std::int64_t h, std::set<std::int64_t>& seen) {
  if (!seen.insert(h).second) return;
  const std::size_t len = static_cast<std::size_t>((taps - 1) * h + 1);
  if (taps == 2) {
    SimVec<double> kernel(sim, len);
    for (std::size_t m = 0; m < len; ++m) kernel[m] = 1.0;
    return;
  }
  // binary exponentiation: squarings of geometrically growing kernels
  std::size_t cur = static_cast<std::size_t>(taps);
  std::int64_t e = h;
  while (e > 1) {
    fr.convolution(cur, cur, 2 * cur - 1);
    cur = 2 * cur - 1;
    e >>= 1;
  }
}

/// Trace replay of LatticeSolver::solve using the precomputed boundary.
struct LatticeReplay {
  CacheSim& sim;
  FftReplayer& fr;
  const std::vector<std::int64_t>& q;  // boundary per row
  std::int64_t g;                      // cone growth
  std::int64_t base_case;
  std::set<std::int64_t> kernel_heights;
  // Row buffers in the real solver come from an allocator that immediately
  // reuses freed blocks; model that with one persistent scratch vector.
  std::shared_ptr<SimVec<double>> scratch;

  SimVec<double>& scratch_of(std::int64_t n) {
    if (!scratch || scratch->size() < static_cast<std::size_t>(n))
      scratch = std::make_shared<SimVec<double>>(
          sim, static_cast<std::size_t>(n));
    return *scratch;
  }

  void row_sweep(std::int64_t width) {
    if (width <= 0) return;
    SimVec<double>& cur = scratch_of(width + g);
    for (std::int64_t j = 0; j < width; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k <= g; ++k)
        acc += cur[static_cast<std::size_t>(j + k)];
      cur[static_cast<std::size_t>(j)] = acc;
    }
  }

  void solve(std::int64_t i0, std::int64_t jL, std::int64_t q0,
             std::int64_t L) {
    if (q0 < jL) return;
    if (L <= base_case || q0 - jL + 1 <= 4) {
      for (std::int64_t s = 0; s < L; ++s) row_sweep(q0 - jL + 1);
      return;
    }
    const std::int64_t h = (L + 1) / 2;
    const std::int64_t h2 = L - h;
    const std::int64_t jC = q0 - h - (g - 1) * (h - 1);
    if (jC >= jL) {
      replay_kernel_power(fr, sim, g + 1, h, kernel_heights);
      fr.correlation_spectral(static_cast<std::size_t>(q0 - jL + g),
                              static_cast<std::size_t>(g * h + 1),
                              static_cast<std::size_t>(jC - jL + 1));
      solve(i0, jC + 1, q0, h);
    } else {
      solve(i0, jL, q0, h);
    }
    const std::int64_t q_mid = std::min(q[static_cast<std::size_t>(i0 - h)], q0);
    if (q_mid < jL) return;
    const std::int64_t jC2 = q_mid - h2 - (g - 1) * (h2 - 1);
    if (jC2 >= jL) {
      replay_kernel_power(fr, sim, g + 1, h2, kernel_heights);
      fr.correlation_spectral(static_cast<std::size_t>(q_mid - jL + g),
                              static_cast<std::size_t>(g * h2 + 1),
                              static_cast<std::size_t>(jC2 - jL + 1));
      solve(i0 - h, jC2 + 1, q_mid, h2);
    } else {
      solve(i0 - h, jL, q_mid, h2);
    }
  }

  void descend() {
    std::int64_t T = static_cast<std::int64_t>(q.size()) - 1;
    row_sweep(g * T + 1);  // expiry payoff row
    std::int64_t i = T;
    while (i > std::max<std::int64_t>(T - 2, 0)) {  // pre-trapezoid rows
      row_sweep(g * i + 1);
      --i;
    }
    while (i > 0) {
      const std::int64_t qi = q[static_cast<std::size_t>(i)];
      if (qi < 0) return;
      const std::int64_t L_max =
          std::min(std::max<std::int64_t>((qi + 1) / g, 1), i);
      if (L_max <= base_case) {
        row_sweep(qi + 1);
        i -= 1;
        continue;
      }
      // The solver's power-of-two cut (LatticeSolver::descend).
      const auto L = static_cast<std::int64_t>(
          std::bit_floor(static_cast<std::uint64_t>(L_max)));
      solve(i, 0, qi, L);
      i -= L;
    }
  }
};

/// Trace replay of FdmSolver::advance using the precomputed boundary f[n].
struct FdmReplay {
  CacheSim& sim;
  FftReplayer& fr;
  const std::vector<std::int64_t>& f;
  std::int64_t base_case;
  std::set<std::int64_t> kernel_heights;
  std::shared_ptr<SimVec<double>> scratch;

  SimVec<double>& scratch_of(std::int64_t n) {
    if (!scratch || scratch->size() < static_cast<std::size_t>(n))
      scratch = std::make_shared<SimVec<double>>(
          sim, static_cast<std::size_t>(n));
    return *scratch;
  }

  void row_sweep(std::int64_t width) {
    if (width <= 0) return;
    SimVec<double>& cur = scratch_of(width + 2);
    for (std::int64_t j = 0; j < width; ++j) {
      cur[static_cast<std::size_t>(j)] = cur[static_cast<std::size_t>(j)] +
                                         cur[static_cast<std::size_t>(j + 1)] +
                                         cur[static_cast<std::size_t>(j + 2)];
    }
  }

  void solve(std::int64_t n0, std::int64_t f0, std::int64_t kr,
             std::int64_t L) {
    if (L <= base_case) {
      for (std::int64_t s = 0; s < L; ++s) row_sweep(kr - f0);
      return;
    }
    const std::int64_t h = (L + 1) / 2;
    const std::int64_t h2 = L - h;
    solve(n0, f0, f0 + 2 * h, h);
    replay_kernel_power(fr, sim, 3, h, kernel_heights);
    if (kr - f0 - 2 * h > 0)
      fr.correlation_spectral(static_cast<std::size_t>(kr - f0),
                              static_cast<std::size_t>(2 * h + 1),
                              static_cast<std::size_t>(kr - f0 - 2 * h));
    const std::int64_t f_mid =
        std::max(f[static_cast<std::size_t>(n0 + h)], f0 - h);
    solve(n0 + h, f_mid, kr - h, h2);
  }

  void run(std::int64_t T, std::int64_t kr0) {
    row_sweep(kr0);  // initial condition
    std::int64_t n = 0, kr = kr0, remaining = T;
    const std::int64_t tail = std::max<std::int64_t>(base_case, 8);
    while (remaining > tail) {
      const std::int64_t L = (remaining + 1) / 2;
      solve(n, f[static_cast<std::size_t>(n)], kr, L);
      n += L;
      kr -= L;
      remaining -= L;
    }
    while (remaining > 0) {
      row_sweep(kr - f[static_cast<std::size_t>(n)]);
      ++n;
      --kr;
      --remaining;
    }
  }
};

}  // namespace

const char* to_string(SimAlg alg) {
  switch (alg) {
    case SimAlg::bopm_vanilla: return "bopm-vanilla";
    case SimAlg::bopm_quantlib: return "ql-bopm";
    case SimAlg::bopm_zubair: return "zb-bopm";
    case SimAlg::bopm_fft: return "fft-bopm";
    case SimAlg::topm_vanilla: return "vanilla-topm";
    case SimAlg::topm_fft: return "fft-topm";
    case SimAlg::bsm_vanilla: return "vanilla-bsm";
    case SimAlg::bsm_fft: return "fft-bsm";
  }
  return "?";
}

CacheStats simulate_fft_convolution(std::size_t n_in, std::size_t n_kernel,
                                    std::size_t n_out) {
  CacheSim sim;
  FftReplayer fr(sim);
  fr.convolution(n_in, n_kernel, n_out);
  return sim.stats();
}

CacheStats simulate_kernel(SimAlg alg, const OptionSpec& spec,
                           std::int64_t T) {
  AMOPT_EXPECTS(T >= 2);
  // The replays follow the shipped solvers' default leaf height.
  constexpr std::int64_t kBaseCase = core::SolverConfig{}.base_case;
  CacheSim sim;
  FftReplayer fr(sim);
  switch (alg) {
    case SimAlg::bopm_vanilla:
      sim_lattice_vanilla(sim, T, 1);
      break;
    case SimAlg::bopm_quantlib:
      sim_bopm_quantlib(sim, T);
      break;
    case SimAlg::bopm_zubair:
      sim_bopm_zubair(sim, T, 1024);
      break;
    case SimAlg::bopm_fft: {
      const auto q = pricing::bopm_call_boundary_vanilla(spec, T);
      LatticeReplay{sim, fr, q, 1, kBaseCase, {}, {}}.descend();
      break;
    }
    case SimAlg::topm_vanilla:
      sim_lattice_vanilla(sim, T, 2);
      break;
    case SimAlg::topm_fft: {
      const auto q = pricing::topm_call_boundary_vanilla(spec, T);
      LatticeReplay{sim, fr, q, 2, kBaseCase, {}, {}}.descend();
      break;
    }
    case SimAlg::bsm_vanilla:
      sim_bsm_vanilla(sim, T);
      break;
    case SimAlg::bsm_fft: {
      const auto f = pricing::bsm::exercise_boundary_vanilla(spec, T);
      const std::int64_t kr0 =
          pricing::bsm::make_layout(pricing::derive_bsm(spec, T)).kr0;
      FdmReplay{sim, fr, f, kBaseCase, {}, {}}.run(T, kr0);
      break;
    }
  }
  return sim.stats();
}

}  // namespace amopt::metrics
