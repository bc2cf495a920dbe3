#pragma once
// S6: the paper's nonlinear-stencil solver for the Black-Scholes-Merton
// explicit finite-difference grid (§4.3).
//
// Dimensionless put problem: time index n in [0, T] (n = 0 at expiry,
// tau = n*dtau), space index k (s = k*ds, s = ln(x/K)). Row n is a green
// prefix (exercise region, v = 1 - e^{k ds}) for k <= f_n and a red suffix
// (continuation, centered 3-tap linear stencil) for k > f_n. The early
// exercise boundary f_n starts at 0 and moves LEFT by at most one cell per
// step (Theorem 4.3, requiring the monotone scheme a, b, c >= 0).
//
// A trapezoid of height L (paper Fig. 4a) from a row whose red values are
// known on (f, kr]:
//   * strip around the boundary -> recursive sub-trapezoid on the window
//     [f-2h, f+2h] (green side extended by the closed-form payoff);
//   * cells k in [f+h+1, kr-h] are provably red with provably-red cones ->
//     one correlation with the h-step kernel (FFT);
//   * repeat for the second half. Base case: naive projection loop.
// Margin requirement kr - f >= 2L; the right edge erodes by one cell per
// step (the solution cone). The BSM driver stores exactly the cone of its
// read cells, which also meets the margin at every top-level advance
// (bsm::make_layout).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "amopt/core/lattice_solver.hpp"  // SolverConfig
#include "amopt/stencil/kernel_cache.hpp"

namespace amopt::core {

/// One FDM row in boundary-compressed form: green for k <= f (oracle), red
/// values stored for k in (f, kr].
struct FdmRow {
  std::int64_t n = 0;
  std::int64_t f = 0;
  std::int64_t kr = 0;
  std::vector<double> red;  ///< red[t] = value at k = f + 1 + t
};

class FdmSolver {
 public:
  /// `st` must be the centered 3-tap stencil (taps {b, c, a}, left = -1).
  FdmSolver(stencil::LinearStencil st, const ExerciseTable& green,
            SolverConfig cfg = {});

  /// Share a kernel cache owned by the caller (same contract as the
  /// LatticeSolver overload): concurrent pricings with the same taps — a
  /// BSM strike ladder — request the same kernel heights, so each power is
  /// computed once per chain. `shared` may be null (then a private cache is
  /// built from `fallback`) and must otherwise outlive the solver and be
  /// built from a stencil equal to `fallback` (the centered one above).
  FdmSolver(stencil::KernelCache* shared, stencil::LinearStencil fallback,
            const ExerciseTable& green, SolverConfig cfg = {});

  FdmSolver(const FdmSolver&) = delete;
  FdmSolver& operator=(const FdmSolver&) = delete;

  /// Advance `L` time steps with the trapezoid decomposition.
  /// Requires row.kr - row.f >= 2L. The result spans (f', row.kr - L].
  [[nodiscard]] FdmRow advance(FdmRow row, std::int64_t L);

  /// One naive projection step (row n -> n+1); kr shrinks by one. With
  /// `unbounded_scan` the boundary is re-discovered by scanning left from
  /// f until the first green cell instead of trusting the one-cell bound of
  /// Theorem 4.3 — required for the first steps off the initial condition
  /// when Y > R, where the discrete boundary jumps to ~ln(R/Y)/ds at once
  /// (the payoff row is not yet governed by the free-boundary dynamics).
  [[nodiscard]] FdmRow step_naive(const FdmRow& row,
                                  bool unbounded_scan = false) const;

  [[nodiscard]] const SolverConfig& config() const noexcept { return cfg_; }

 private:
  /// Trapezoid over the window (f0, kr] of row n0. `in[t]` = value at
  /// k = f0+1+t (size kr-f0). `out` is indexed from base f0-L:
  /// out[t] = value at k = (f0-L)+1+t; on return cells (f_new, kr-L] are
  /// filled. Returns f_new. out.size() >= kr-f0; no aliasing with `in`.
  std::int64_t solve(std::int64_t n0, std::int64_t f0, std::int64_t kr,
                     std::int64_t L, std::span<const double> in,
                     std::span<double> out);

  std::int64_t solve_base(std::int64_t n0, std::int64_t f0, std::int64_t kr,
                          std::int64_t L, std::span<const double> in,
                          std::span<double> out) const;

  std::unique_ptr<stencil::KernelCache> owned_kernels_;  ///< null when shared
  stencil::KernelCache* kernels_;
  const ExerciseTable& green_;
  SolverConfig cfg_;
};

}  // namespace amopt::core
