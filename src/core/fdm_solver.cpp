#include "amopt/core/fdm_solver.hpp"

#include <algorithm>

#include "amopt/common/assert.hpp"
#include "amopt/core/scratch.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::core {

FdmSolver::FdmSolver(stencil::LinearStencil st, const ExerciseTable& green,
                     SolverConfig cfg)
    : FdmSolver(nullptr, std::move(st), green, cfg) {}

FdmSolver::FdmSolver(stencil::KernelCache* shared,
                     stencil::LinearStencil fallback,
                     const ExerciseTable& green, SolverConfig cfg)
    : owned_kernels_(shared != nullptr ? nullptr
                                       : std::make_unique<stencil::KernelCache>(
                                             std::move(fallback))),
      kernels_(shared != nullptr ? shared : owned_kernels_.get()),
      green_(green), cfg_(cfg) {
  // See the LatticeSolver counterpart: a mismatched shared cache would
  // silently produce wrong prices.
  AMOPT_EXPECTS(shared == nullptr ||
                (shared->stencil().taps == fallback.taps &&
                 shared->stencil().left == fallback.left));
  AMOPT_EXPECTS(kernels_->stencil().taps.size() == 3);
  AMOPT_EXPECTS(kernels_->stencil().left == -1);
  AMOPT_EXPECTS(cfg_.base_case >= 1);
}

FdmRow FdmSolver::step_naive(const FdmRow& row, bool unbounded_scan) const {
  AMOPT_EXPECTS(row.kr - row.f >= 2);
  AMOPT_EXPECTS(static_cast<std::int64_t>(row.red.size()) == row.kr - row.f);
  const std::span<const double> taps = kernels_->stencil().taps;
  const double b = taps[0], c = taps[1], a = taps[2];
  const auto value_at = [&](std::int64_t k) {
    return k <= row.f ? green_.value(row.n, k)
                      : row.red[static_cast<std::size_t>(k - row.f - 1)];
  };
  const auto linear_at = [&](std::int64_t k) {
    return b * value_at(k - 1) + c * value_at(k) + a * value_at(k + 1);
  };

  FdmRow next;
  next.n = row.n + 1;
  next.kr = row.kr - 1;
  // Discover the new boundary: scan left from f until the first cell where
  // exercise still beats continuation (one probe suffices under Theorem
  // 4.3's one-cell bound; unbounded_scan keeps going for the jump rows).
  std::int64_t f_next = row.f;
  std::vector<double> newly_red;  // values at k = f_next+1 .. row.f, reversed
  // Safety floor: the scan provably terminates (deep ITM, continuation
  // loses to exercise), but guard against pathological parameters anyway.
  const std::int64_t floor_k =
      unbounded_scan ? row.f - 8 * (row.kr - row.f) - 64 : row.f - 1;
  while (f_next >= floor_k) {
    const double lin = linear_at(f_next);
    if (lin < green_.value(next.n, f_next)) break;  // still green: stop
    newly_red.push_back(lin);
    --f_next;
  }
  next.f = f_next;
  next.red.resize(static_cast<std::size_t>(next.kr - next.f));
  std::size_t t = 0;
  for (auto it = newly_red.rbegin(); it != newly_red.rend(); ++it)
    next.red[t++] = *it;
  // k = row.f + 1 reads one green cell; the rest of the row is contiguous
  // red and runs as one dispatched sweep.
  if (row.f + 1 <= next.kr) {
    const double lin = linear_at(row.f + 1);
    AMOPT_DEBUG_ASSERT(lin >= green_.value(next.n, row.f + 1) - 1e-9);
    next.red[t++] = lin;
  }
  if (row.f + 2 <= next.kr) {
    const std::size_t count = static_cast<std::size_t>(next.kr - row.f - 1);
    simd::kernels().stencil3(row.red.data(), b, c, a, next.red.data() + t,
                             count);
#if defined(AMOPT_DEBUG_CHECKS)
    for (std::int64_t k = row.f + 2; k <= next.kr; ++k)
      AMOPT_DEBUG_ASSERT(next.red[t + static_cast<std::size_t>(k - row.f - 2)] >=
                         green_.value(next.n, k) - 1e-9);
#endif
    t += count;
  }
  metrics::add_flops(5 * static_cast<std::uint64_t>(next.kr - next.f));
  metrics::add_bytes(static_cast<std::uint64_t>(next.kr - next.f) *
                     sizeof(double));
  return next;
}

std::int64_t FdmSolver::solve_base(std::int64_t n0, std::int64_t f0,
                                   std::int64_t kr, std::int64_t L,
                                   std::span<const double> in,
                                   std::span<double> out) const {
  const std::span<const double> taps = kernels_->stencil().taps;
  const double b = taps[0], c = taps[1], a = taps[2];
  const simd::Kernels& kern = simd::kernels();  // one dispatch per call
  // Rows live at slots relative to the max-descent line: after s steps,
  // cell k sits at index k - (f0 - s) - 1. The boundary can drop at most
  // one cell per step (Theorem 4.3), so slots only grow rightward and two
  // consecutive rows land at fixed, known offsets — which is what lets a
  // step PAIR run as one fused stencil3_2row call (the second row chases
  // the first through L1) with only the boundary-adjacent cells of the
  // second row done by scalar probes. The fused sweeps use the shared
  // aligned-chunk driver, so each row's bulk carries exactly the bits of a
  // single monolithic stencil3 sweep; the step-0 layout equals `in`'s and
  // the step-L layout equals `out`'s, so the repack below is a straight
  // copy. Rows are arena frames, so the base case is allocation-free once
  // warm.
  ScratchStack::Frame frame(thread_scratch());
  std::span<double> cur = frame.alloc(in.size());
  std::span<double> mid = frame.alloc(in.size());
  std::span<double> nxt = frame.alloc(in.size());
  std::copy(in.begin(), in.end(), cur.begin());
  std::int64_t f = f0;
  std::int64_t kright = kr;
  std::int64_t step = 0;
  while (step < L) {
    const std::int64_t n = n0 + step;
    const std::int64_t lag = f - (f0 - step);  // slot of cell f+1 in `cur`
    const auto value_at = [&](std::int64_t k) {
      return k <= f ? green_.value(n, k)
                    : cur[static_cast<std::size_t>(lag + k - f - 1)];
    };
    const std::int64_t kr1 = kright - 1;
    const double lin_f =
        b * value_at(f - 1) + c * value_at(f) + a * value_at(f + 1);
    const bool f_goes_red = lin_f >= green_.value(n + 1, f);
    const std::int64_t f1 = f_goes_red ? f - 1 : f;
    const std::int64_t bulk = kr1 - f - 1;  // cells f+2..kr1 of row s+1
    if (step + 1 < L && bulk >= 2) {
      // ---- fused step pair: rows s+1 (mid) and s+2 (nxt) ---------------
      // Row s+1 boundary cells first (the kernel never reads them).
      if (f_goes_red) mid[static_cast<std::size_t>(lag)] = lin_f;
      {
        const double lin =
            b * value_at(f) + c * value_at(f + 1) + a * value_at(f + 2);
        AMOPT_DEBUG_ASSERT(lin >= green_.value(n + 1, f + 1) - 1e-9);
        mid[static_cast<std::size_t>(lag + 1)] = lin;
      }
      // Both bulks in one temporally fused call: row s+1 cells f+2..kr1,
      // row s+2 cells f+3..kr1-1 (every stencil input of those is a row
      // s+1 bulk cell, so they are independent of the boundary probes).
      kern.stencil3_2row(cur.data() + lag, b, c, a, mid.data() + lag + 2,
                         nxt.data() + lag + 4,
                         static_cast<std::size_t>(bulk),
                         static_cast<std::size_t>(bulk - 2));
      // Row s+2 boundary: the probe at f1 reads greens and the two scalar
      // cells above; cells f1+1..f+2 read at most one fused bulk cell.
      const auto value_at1 = [&](std::int64_t k) {
        return k <= f1 ? green_.value(n + 1, k)
                       : mid[static_cast<std::size_t>(k - f0 + step)];
      };
      const double lin_f1 = b * value_at1(f1 - 1) + c * value_at1(f1) +
                            a * value_at1(f1 + 1);
      const bool f1_goes_red = lin_f1 >= green_.value(n + 2, f1);
      const std::int64_t f2 = f1_goes_red ? f1 - 1 : f1;
      if (f1_goes_red)
        nxt[static_cast<std::size_t>(f1 - f0 + step + 1)] = lin_f1;
      for (std::int64_t k = f1 + 1; k <= std::min(f + 2, kr1 - 1); ++k) {
        const double lin = b * value_at1(k - 1) + c * value_at1(k) +
                           a * value_at1(k + 1);
        AMOPT_DEBUG_ASSERT(lin >= green_.value(n + 2, k) - 1e-9);
        nxt[static_cast<std::size_t>(k - f0 + step + 1)] = lin;
      }
#if defined(AMOPT_DEBUG_CHECKS)
      for (std::int64_t k = f + 2; k <= kr1; ++k)
        AMOPT_DEBUG_ASSERT(mid[static_cast<std::size_t>(k - f0 + step)] >=
                           green_.value(n + 1, k) - 1e-9);
      for (std::int64_t k = f + 3; k <= kr1 - 1; ++k)
        AMOPT_DEBUG_ASSERT(nxt[static_cast<std::size_t>(k - f0 + step + 1)] >=
                           green_.value(n + 2, k) - 1e-9);
#endif
      std::swap(cur, nxt);  // row s+2 becomes current; mid is spare again
      f = f2;
      kright = kright - 2;
      step += 2;
      continue;
    }
    // ---- single step (odd tail, or a row too narrow to pair) -----------
    if (f_goes_red) mid[static_cast<std::size_t>(lag)] = lin_f;
    // Cell k = f+1 reads one green value (at k-1 = f); every cell beyond it
    // has its whole 3-cell stencil inside `cur`, so the bulk of the row is
    // one contiguous dispatched sweep (the scalar level's kernel is the
    // historical inline expression, bit-for-bit).
    if (f + 1 <= kr1) {
      const double lin =
          b * value_at(f) + c * value_at(f + 1) + a * value_at(f + 2);
      AMOPT_DEBUG_ASSERT(lin >= green_.value(n + 1, f + 1) - 1e-9);
      mid[static_cast<std::size_t>(lag + 1)] = lin;
    }
    if (f + 2 <= kr1) {
      kern.stencil3(cur.data() + lag, b, c, a, mid.data() + lag + 2,
                    static_cast<std::size_t>(bulk));
#if defined(AMOPT_DEBUG_CHECKS)
      for (std::int64_t k = f + 2; k <= kr1; ++k)
        AMOPT_DEBUG_ASSERT(mid[static_cast<std::size_t>(k - f0 + step)] >=
                           green_.value(n + 1, k) - 1e-9);
#endif
    }
    std::swap(cur, mid);
    f = f1;
    kright = kr1;
    step += 1;
  }
  // Repack into the caller's base (f0 - L): the step-L slot layout already
  // matches `out`'s, so the occupied range copies straight across.
  const std::int64_t base = f0 - L;
  const std::int64_t count = kright - f;
  std::copy_n(cur.begin() + static_cast<std::ptrdiff_t>(f - base),
              static_cast<std::size_t>(count),
              out.begin() + static_cast<std::ptrdiff_t>(f - base));
  metrics::add_flops(5 * static_cast<std::uint64_t>(L) *
                     static_cast<std::uint64_t>(kr - f0));
  return f;
}

std::int64_t FdmSolver::solve(std::int64_t n0, std::int64_t f0,
                              std::int64_t kr, std::int64_t L,
                              std::span<const double> in,
                              std::span<double> out) {
  AMOPT_EXPECTS(L >= 1);
  AMOPT_EXPECTS(kr - f0 >= 2 * L);
  AMOPT_EXPECTS(static_cast<std::int64_t>(in.size()) == kr - f0);
  AMOPT_EXPECTS(in.size() <= out.size());

  if (L <= cfg_.base_case) return solve_base(n0, f0, kr, L, in, out);

  const std::int64_t h = (L + 1) / 2;
  const std::int64_t h2 = L - h;
  AMOPT_ENSURES(h >= 1 && h2 >= 1);
  const bool spawn = cfg_.parallel && h >= kTaskCutoff;

  // The h-step correlation over the provably-red cells. Same spectral
  // routing as LatticeSolver::run_conv: the 3-tap kernel's length 2h + 1 is
  // known without materializing it, so FFT-path sweeps consume the cache's
  // reversed kernel spectrum and never touch the time-domain tier.
  const auto correlate_into = [&](std::span<double> conv_out) {
    if (conv_out.empty()) return;
    const std::size_t klen = static_cast<std::size_t>(2 * h + 1);
    if (conv::correlate_prefers_fft(conv_out.size(), klen, conv::Policy{})) {
      const auto spec = kernels_->power_spectrum(
          static_cast<std::uint64_t>(h),
          conv::correlate_fft_size(conv_out.size(), klen));
      conv::correlate_valid(in, *spec, conv_out, conv::thread_workspace());
      return;
    }
    conv::correlate_valid(in, kernels_->power(static_cast<std::uint64_t>(h)),
                          conv_out);
  };

  // One arena row with base f0 - h (the lowest reachable f_mid) covering
  // k in (f0-h, kr-h]: the strip writes its (f_mid, f0+h] cells into the
  // first 2h slots and the convolution lands on [f0+h+1, kr-h] DIRECTLY
  // behind them — the mid row is assembled in place, no copies. The two
  // regions are disjoint, so the task legs never touch the same cell.
  ScratchStack::Frame frame(thread_scratch());
  std::span<double> midbuf = frame.alloc(static_cast<std::size_t>(kr - f0));
  std::int64_t f_mid = f0;
  const auto run_strip = [&] {
    f_mid = solve(n0, f0, f0 + 2 * h, h,
                  in.subspan(0, static_cast<std::size_t>(2 * h)),
                  midbuf.subspan(0, static_cast<std::size_t>(2 * h)));
  };
  const auto run_conv = [&] {
    correlate_into(midbuf.subspan(
        static_cast<std::size_t>(2 * h),
        static_cast<std::size_t>(std::max<std::int64_t>(kr - f0 - 2 * h, 0))));
  };
  // The legs write disjoint regions of the mid row; at pool width 1
  // invoke2 degrades to exactly the serial order below.
  if (spawn) {
    TaskPool::instance().invoke2(run_strip, run_conv);
  } else {
    run_strip();
    run_conv();
  }

  // ---- second half: row n0 + h -> n0 + L ------------------------------
  // Callee out base is f_mid - h2 >= f0 - L; shift into our out buffer.
  const std::int64_t mid_size = (kr - h) - f_mid;
  const std::span<const double> mid =
      midbuf.subspan(static_cast<std::size_t>(f_mid - (f0 - h)),
                     static_cast<std::size_t>(mid_size));
  const std::int64_t shift = (f_mid - h2) - (f0 - L);
  AMOPT_ENSURES(shift >= 0);
  return solve(n0 + h, f_mid, kr - h, h2, mid,
               out.subspan(static_cast<std::size_t>(shift)));
}

FdmRow FdmSolver::advance(FdmRow row, std::int64_t L) {
  AMOPT_EXPECTS(L >= 1);
  AMOPT_EXPECTS(row.kr - row.f >= 2 * L);
  AMOPT_EXPECTS(static_cast<std::int64_t>(row.red.size()) == row.kr - row.f);

  FdmRow next;
  next.n = row.n + L;
  next.kr = row.kr - L;
  ScratchStack::Frame frame(thread_scratch());
  std::span<double> out = frame.alloc(row.red.size());
  // No parallel-region wrapper anymore: solve() forks its own pool tasks
  // at every level whose height clears the cutoff.
  const std::int64_t f_new = solve(row.n, row.f, row.kr, L, row.red, out);
  next.f = f_new;
  const std::int64_t base = row.f - L;
  next.red.assign(out.begin() + static_cast<std::ptrdiff_t>(f_new - base),
                  out.begin() +
                      static_cast<std::ptrdiff_t>(next.kr - base));
  return next;
}

}  // namespace amopt::core
