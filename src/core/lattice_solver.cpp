#include "amopt/core/lattice_solver.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "amopt/common/assert.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::core {

namespace {

constexpr std::int64_t kMinWindowForRecursion = 4;

/// Below this red-interior width the fused two-row base-case sweep is not
/// worth its bookkeeping; the plain single-row step runs instead. Purely a
/// performance switch — both paths produce identical bits. The recursion's
/// leaf strips are only O(g * base_case) wide, so this must stay small for
/// the fusion to engage at all.
constexpr std::int64_t kFuseMinInterior = 8;

/// Green-extension cells per convolution (g - 1) fit here for every
/// production stencil (g <= 2); wider stencils spill to a heap vector.
constexpr std::size_t kInlineTailCap = 8;

}  // namespace

LatticeSolver::LatticeSolver(stencil::LinearStencil st,
                             const ExerciseTable& green, SolverConfig cfg)
    : LatticeSolver(nullptr, std::move(st), green, cfg) {}

LatticeSolver::LatticeSolver(stencil::KernelCache* shared,
                             stencil::LinearStencil fallback,
                             const ExerciseTable& green, SolverConfig cfg)
    : owned_kernels_(shared != nullptr ? nullptr
                                       : std::make_unique<stencil::KernelCache>(
                                             std::move(fallback))),
      kernels_(shared != nullptr ? shared : owned_kernels_.get()),
      green_(green), cfg_(cfg), g_(kernels_->stencil().cone_growth()) {
  // A shared cache with the WRONG taps would silently convolve with wrong
  // kernel powers (a plausible but wrong price); fallback is still intact
  // here when shared was passed, so the match is nearly free to check.
  AMOPT_EXPECTS(shared == nullptr ||
                (shared->stencil().taps == fallback.taps &&
                 shared->stencil().left == fallback.left));
  AMOPT_EXPECTS(g_ >= 1);
  AMOPT_EXPECTS(kernels_->stencil().left == 0);
  AMOPT_EXPECTS(cfg_.base_case >= 1);
}

void LatticeSolver::step_naive_into(const LatticeRow& row, bool unbounded_scan,
                                    LatticeRow& next) const {
  AMOPT_EXPECTS(row.i >= 1);
  AMOPT_EXPECTS(row.q < 0 ||
                row.q == static_cast<std::int64_t>(row.red.size()) - 1);
  next.i = row.i - 1;
  next.q = -1;
  if (row.q < 0 && !unbounded_scan) {  // stays green
    next.red.clear();
    return;
  }

  const std::span<const double> taps = kernels_->stencil().taps;
  const std::int64_t jmax =
      unbounded_scan ? row_width(next.i) : std::min(row.q, row_width(next.i));
  next.red.resize(static_cast<std::size_t>(jmax + 1));
  // Same split as solve_base: dispatched sweep over the cells whose tap
  // windows stay red; the cells past it read green extension values and
  // are evaluated one at a time, only as the boundary walk below visits
  // them.
  const std::int64_t g = static_cast<std::int64_t>(taps.size()) - 1;
  const std::int64_t jv = std::min(jmax, row.q - g);
  if (jv >= 0) {
    simd::kernels().correlate_taps(row.red.data(), taps.data(), taps.size(),
                                   next.red.data(),
                                   static_cast<std::size_t>(jv + 1));
  }
  std::int64_t tail_cells = 0;
  const auto lin_at = [&](std::int64_t j) {
    if (j <= jv) return next.red[static_cast<std::size_t>(j)];
    ++tail_cells;
    double lin = 0.0;
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::int64_t c = j + static_cast<std::int64_t>(k);
      lin += taps[k] * (c <= row.q ? row.red[static_cast<std::size_t>(c)]
                                   : green_.value(row.i, c));
    }
    return next.red[static_cast<std::size_t>(j)] = lin;
  };
  const auto red_at = [&](std::int64_t j) {
    return lin_at(j) >= green_.value(next.i, j);
  };
  // Every row is a red prefix, so the new boundary is found by walking from
  // the old one: upward while cells stay red (off the expiry row the
  // boundary can jump right when R > Y), else downward to the first red
  // cell. A bounded step starts at jmax and walks down only. Each visited
  // cell gets exactly the bits a full-row evaluation would give it.
  const std::int64_t start = std::clamp<std::int64_t>(row.q, 0, jmax);
  std::int64_t q = start;
  if (red_at(q)) {
    while (q < jmax && red_at(q + 1)) ++q;
  } else {
    --q;
    while (q >= 0 && !red_at(q)) --q;
  }
  // The red cells below the lowest one the walk visited.
  for (std::int64_t j = std::max<std::int64_t>(jv + 1, 0);
       j < std::min(start, q); ++j)
    (void)lin_at(j);
  next.q = q;
  const auto cells = static_cast<std::uint64_t>(
      std::max<std::int64_t>(jv + 1, 0) + tail_cells);
  metrics::add_flops(2 * cells * taps.size());
  metrics::add_bytes(cells * sizeof(double));
  next.red.resize(
      static_cast<std::size_t>(std::max<std::int64_t>(next.q + 1, 0)));
}

LatticeRow LatticeSolver::step_naive(const LatticeRow& row,
                                     bool unbounded_scan) const {
  LatticeRow next;
  step_naive_into(row, unbounded_scan, next);
  return next;
}

void LatticeSolver::run_conv(std::span<const double> main,
                             std::span<const double> tail, std::int64_t h,
                             std::span<double> out) {
  // The kernel length is known without materializing the kernel
  // (taps^h has g*h + 1 coefficients), so the FFT path never touches the
  // time-domain tier at all. FFT-path convolutions consume the cache's
  // ready-made kernel spectrum (2 transforms per call instead of 3), built
  // straight from the taps; repeated trapezoids at the same (height,
  // padded size) — within this pricing and across every pricing sharing
  // the cache — build it once.
  const std::size_t klen = static_cast<std::size_t>(g_ * h + 1);
  if (conv::correlate_prefers_fft(out.size(), klen, conv::Policy{})) {
    const auto spec = kernels_->power_spectrum(
        static_cast<std::uint64_t>(h),
        conv::correlate_fft_size(out.size(), klen));
    conv::correlate_valid(main, tail, *spec, out, conv::thread_workspace());
    return;
  }
  const std::span<const double> kernel =
      kernels_->power(static_cast<std::uint64_t>(h));
  conv::correlate_valid(main, tail, kernel, out, conv::thread_workspace());
}

std::int64_t LatticeSolver::solve_base(std::int64_t i0, std::int64_t jL,
                                       std::int64_t q0, std::int64_t L,
                                       std::span<const double> in,
                                       std::span<double> out) const {
  const std::span<const double> taps = kernels_->stencil().taps;
  const simd::Kernels& kern = simd::kernels();  // one dispatch per call
  const std::int64_t g = static_cast<std::int64_t>(taps.size()) - 1;

  // Three rows rotate through the fused two-step sweep (cur, buf1, buf2);
  // the single-step path uses the first two.
  ScratchStack::Frame frame(thread_scratch());
  std::span<double> cur = frame.alloc(in.size());
  std::span<double> buf1 = frame.alloc(in.size());
  std::span<double> buf2 = frame.alloc(in.size());
  std::copy(in.begin(), in.end(), cur.begin());

  // Scalar green-extension tail + boundary-discovery scan for the row that
  // `src` (boundary q_src, consumed row index i_src) steps into `dst`,
  // whose red interior [jL, jv] is already in place. Returns the new
  // boundary. This is the historical per-row epilogue, shared verbatim by
  // the single-step and fused paths so both produce identical bits.
  const auto finish_row = [&](std::int64_t i_src, std::int64_t q_src,
                              std::span<const double> src,
                              std::span<double> dst, std::int64_t jv,
                              std::int64_t jmax) -> std::int64_t {
    const auto value_at = [&](std::int64_t j) {
      return (j <= q_src && j >= jL) ? src[static_cast<std::size_t>(j - jL)]
                                     : green_.value(i_src, j);
    };
    for (std::int64_t j = std::max(jL, jv + 1); j <= jmax; ++j) {
      double lin = 0.0;
      for (std::size_t k = 0; k < taps.size(); ++k)
        lin += taps[k] * value_at(j + static_cast<std::int64_t>(k));
      dst[static_cast<std::size_t>(j - jL)] = lin;
    }
    // Boundary discovery sweep (the nonlinear exercise-max). The historical
    // loop swept upward and kept the LAST j where continuation still beats
    // exercise; sweeping DOWNWARD and stopping at the first such j yields
    // the identical q (the predicate has no side effects) while touching
    // O(1) cells per row instead of the whole window — under the one-cell
    // motion bound the boundary sits within a couple of cells of the top.
    std::int64_t qnext = jL - 1;
    for (std::int64_t j = jmax; j >= jL; --j) {
      if (dst[static_cast<std::size_t>(j - jL)] >= green_.value(i_src - 1, j)) {
        qnext = j;
        break;
      }
    }
    metrics::add_flops(
        2 *
        static_cast<std::uint64_t>(std::max<std::int64_t>(jmax - jL + 1, 0)) *
        taps.size());
    return qnext;
  };

  // One-cell boundary motion, window-local: the boundary moves at most one
  // cell left per step, clipped to the observable window top jmax (near the
  // lattice tip the row width g*i clips it below q), with ONE extra cell of
  // slack for numerical ties — the boundary cell sits exactly where
  // lin == green, and a last-ulp difference (e.g. the AVX-512 FMA path) can
  // flip that comparison.
  const auto check_motion = [&](std::int64_t q_src, std::int64_t jmax,
                                std::int64_t qnext) {
    AMOPT_DEBUG_ASSERT(qnext <= q_src &&
                       qnext >= std::min(q_src - 1, jmax) - 1);
    (void)q_src, (void)jmax, (void)qnext;
  };

  std::int64_t qcur = q0;
  std::int64_t step = 0;
  while (step < L) {
    const std::int64_t i = i0 - step;  // row being consumed
    if (qcur < jL) return jL - 1;  // all green from here down
    const std::int64_t jmax1 = std::min(qcur, row_width(i - 1));
    const std::int64_t jv1 = std::min(jmax1, qcur - g);
    const std::int64_t interior1 = jv1 - jL + 1;

    if (step + 1 < L && interior1 >= kFuseMinInterior) {
      // Fused two-step sweep: advance rows i -> i-1 -> i-2 in one pass over
      // `cur` while it is still in L1. Second-row cells are computed
      // speculatively only where their whole tap window is provably red for
      // both steps under the one-cell boundary-motion bound WITH its tie
      // slack (q1 >= qcur - 2); everything nearer the boundary is finished
      // after q1 is actually discovered, so q evolution — and every cell —
      // is bit-identical to two single-row steps.
      // Speculation clipped DOWN to the widest vector width: the top-up
      // sweep below then starts on the same lane grid a single monolithic
      // sweep would use, so the fused second row is bit-identical to an
      // unfused one even on FMA dispatch levels (vector and scalar lanes
      // round differently there — partition identity is what keeps a row's
      // bits independent of whether the fused sweep engaged).
      const std::int64_t n2 = std::max<std::int64_t>(
          0, std::min(qcur - 2, jv1) - g - jL + 1) &
          ~std::int64_t{7};
      kern.correlate_taps_2row(
          cur.data(), taps.data(), taps.size(), buf1.data(), buf2.data(),
          static_cast<std::size_t>(interior1), static_cast<std::size_t>(n2));
      const std::int64_t q1 = finish_row(i, qcur, cur, buf1, jv1, jmax1);
      check_motion(qcur, jmax1, q1);
      if (q1 < jL) return jL - 1;
      const std::int64_t jmax2 = std::min(q1, row_width(i - 2));
      const std::int64_t jv2 = std::min(jmax2, q1 - g);
      if (jv2 >= jL + n2) {
        // Interior cells the speculation could not prove red in advance.
        // n2 is 8-aligned, so this sweep's vector blocks and scalar tail
        // land exactly where a single full-interior sweep's would.
        kern.correlate_taps(buf1.data() + n2, taps.data(), taps.size(),
                            buf2.data() + n2,
                            static_cast<std::size_t>(jv2 - (jL + n2) + 1));
      }
      const std::int64_t q2 = finish_row(i - 1, q1, buf1, buf2, jv2, jmax2);
      check_motion(q1, jmax2, q2);
      std::swap(cur, buf2);  // rows rotate; old cur becomes scratch
      qcur = q2;
      step += 2;
      continue;
    }

    // Cells whose whole tap window stays inside the red prefix are one
    // contiguous dispatched sweep over `cur`; the trailing cells that read
    // green extension values stay scalar. The scalar table's kernel is this
    // loop's historical accumulation, so the scalar level is bit-identical.
    if (jv1 >= jL) {
      kern.correlate_taps(cur.data(), taps.data(), taps.size(), buf1.data(),
                          static_cast<std::size_t>(interior1));
    }
    const std::int64_t q1 = finish_row(i, qcur, cur, buf1, jv1, jmax1);
    check_motion(qcur, jmax1, q1);
    std::swap(cur, buf1);
    qcur = q1;
    step += 1;
  }
  if (qcur >= jL) {
    std::copy_n(cur.begin(), static_cast<std::size_t>(qcur - jL + 1),
                out.begin());
  }
  return qcur;
}

std::int64_t LatticeSolver::solve(std::int64_t i0, std::int64_t jL,
                                  std::int64_t q0, std::int64_t L,
                                  std::span<const double> in,
                                  std::span<double> out) {
  AMOPT_EXPECTS(L >= 1 && i0 - L >= 0);
  AMOPT_EXPECTS(q0 >= jL);
  AMOPT_EXPECTS(static_cast<std::int64_t>(in.size()) == q0 - jL + 1);
  AMOPT_EXPECTS(out.size() >= in.size());

  if (L <= cfg_.base_case || q0 - jL + 1 <= kMinWindowForRecursion)
    return solve_base(i0, jL, q0, L, in, out);

  const std::int64_t h = (L + 1) / 2;
  const std::int64_t h2 = L - h;
  AMOPT_ENSURES(h >= 1 && h2 >= 1);

  // Last provably-convolvable column at depth d below a row with boundary
  // q: every cell of the cone must stay red while the boundary moves left
  // one cell per row.
  const auto conv_safe = [&](std::int64_t q, std::int64_t d) {
    return q - d - (g_ - 1) * (d - 1);
  };

  // Builds the g-1 green-extension cells of row `i_row` past boundary `q`
  // into `buf` (heap spill for exotic stencils) and returns them as the
  // correlation's split tail — the red prefix itself is never copied.
  std::array<double, kInlineTailCap> tail1_buf, tail2_buf;
  std::vector<double> tail_spill;
  const auto green_tail = [&](std::int64_t i_row, std::int64_t q,
                              std::array<double, kInlineTailCap>& buf)
      -> std::span<const double> {
    const std::int64_t n_ext = g_ - 1;
    std::span<double> t;
    if (n_ext <= static_cast<std::int64_t>(kInlineTailCap)) {
      t = std::span<double>(buf.data(), static_cast<std::size_t>(n_ext));
    } else {
      tail_spill.resize(static_cast<std::size_t>(n_ext));
      t = tail_spill;
    }
    for (std::int64_t e = 1; e <= n_ext; ++e)
      t[static_cast<std::size_t>(e - 1)] = green_.value(i_row, q + e);
    return t;
  };

  ScratchStack::Frame frame(thread_scratch());
  std::span<double> mid = frame.alloc(in.size());

  // ---- first half: row i0 -> row i0 - h --------------------------------
  std::int64_t q_mid = jL - 1;
  // Clipped to the bottom row's width: for g >= 2 the cone bound alone can
  // reach past a fully red row's last cell, and the boundary must stay
  // inside the lattice (q <= g*i).
  const std::int64_t jC = std::min(conv_safe(q0, h), row_width(i0 - h));
  if (jC >= jL) {
    // The cones read g-1 green cells past the red prefix, staged as the
    // correlation's split tail.
    const std::span<const double> tail = green_tail(i0, q0, tail1_buf);
    std::int64_t q_strip = jL - 1;
    const bool spawn = cfg_.parallel && h >= kTaskCutoff;
    const auto conv_part = [&] {
      run_conv(in, tail, h,
               mid.subspan(0, static_cast<std::size_t>(jC - jL + 1)));
    };
    const auto strip_part = [&] {
      q_strip = solve(i0, jC + 1, q0, h,
                      in.subspan(static_cast<std::size_t>(jC + 1 - jL)),
                      mid.subspan(static_cast<std::size_t>(jC + 1 - jL)));
    };
    // The legs write disjoint regions of `mid`; at pool width 1 invoke2
    // degrades to exactly the serial order below.
    if (spawn) {
      TaskPool::instance().invoke2(conv_part, strip_part);
    } else {
      conv_part();
      strip_part();
    }
    q_mid = std::max(q_strip, jC);  // conv cells are red by construction
  } else {
    // Window too narrow to convolve: recurse straight into `mid`.
    q_mid = solve(i0, jL, q0, h, in, mid);
  }
  if (q_mid < jL) return jL - 1;  // all green below (Lemma 2.4)

  // ---- second half: row i0 - h -> row i0 - L ---------------------------
  const std::int64_t im = i0 - h;
  const std::int64_t jC2 = std::min(conv_safe(q_mid, h2), row_width(im - h2));
  const std::span<const double> mid_in(
      mid.data(),
      static_cast<std::size_t>(std::max<std::int64_t>(q_mid - jL + 1, 0)));
  if (jC2 >= jL) {
    const std::span<const double> tail = green_tail(im, q_mid, tail2_buf);
    std::int64_t q_strip = jL - 1;
    const bool spawn = cfg_.parallel && h2 >= kTaskCutoff;
    const auto conv_part = [&] {
      run_conv(mid_in, tail, h2,
               out.subspan(0, static_cast<std::size_t>(jC2 - jL + 1)));
    };
    const auto strip_part = [&] {
      q_strip = solve(im, jC2 + 1, q_mid, h2,
                      mid_in.subspan(static_cast<std::size_t>(jC2 + 1 - jL)),
                      out.subspan(static_cast<std::size_t>(jC2 + 1 - jL)));
    };
    if (spawn) {
      TaskPool::instance().invoke2(conv_part, strip_part);
    } else {
      conv_part();
      strip_part();
    }
    return std::max(q_strip, jC2);
  }
  return solve(im, jL, q_mid, h2, mid_in, out);
}

LatticeRow LatticeSolver::descend(LatticeRow top, std::int64_t i_stop) {
  AMOPT_EXPECTS(i_stop >= 0 && top.i >= i_stop);
  LatticeRow row = std::move(top);
  // Ping-pong row: `next`'s storage shuttles between descend() calls via
  // spare_red_, so a warm solver repeats a descent with zero allocations.
  LatticeRow next;
  next.red = std::move(spare_red_);
  while (row.i > i_stop) {
    if (row.q < 0) {
      // Entirely green: stays green all the way down (Lemma 2.4 / A.2).
      row.i = i_stop;
      row.red.clear();
      break;
    }
    const std::int64_t L_red = std::max<std::int64_t>((row.q + 1) / g_, 1);
    const std::int64_t L_max = std::min(L_red, row.i - i_stop);
    if (L_max <= cfg_.base_case) {
      step_naive_into(row, false, next);
      std::swap(row, next);
      continue;
    }
    // Cut the trapezoid at a power of two (DESIGN.md §1.2): every depth
    // then halves a power of two, so each strip's correlations fill their
    // transforms exactly and a height needs a spectrum at one size only.
    const auto L = static_cast<std::int64_t>(
        std::bit_floor(static_cast<std::uint64_t>(L_max)));
    next.i = row.i - L;
    // resize, not assign: solve() fills every cell up to the returned
    // boundary, so the old contents need no zeroing pass.
    next.red.resize(row.red.size());
    // No parallel-region wrapper anymore: solve() forks its own pool tasks
    // at every level whose height clears the cutoff.
    next.q = solve(row.i, 0, row.q, L, row.red, next.red);
    next.red.resize(
        static_cast<std::size_t>(std::max<std::int64_t>(next.q + 1, 0)));
    std::swap(row, next);
  }
  spare_red_ = std::move(next.red);
  return row;
}

}  // namespace core
