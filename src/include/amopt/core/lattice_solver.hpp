#pragma once
// S5: the paper's nonlinear-stencil solver for lattice models (BOPM §2.3,
// TOPM §3/A.3).
//
// Grid convention (paper Fig. 2b): row i in [0, T] holds cells j in
// [0, g*i], where g = taps-1 is the cone growth rate (1 for binomial, 2 for
// trinomial). Row T is expiry; backward induction computes row i from row
// i+1. Every row is a contiguous *red* prefix [0, q_i] (continuation value,
// the linear stencil applies) followed by a *green* suffix (exercise value,
// a closed form of (i, j)). Corollary 2.7 / A.6: going down one row the
// boundary q_i stays or moves one cell left.
//
// A trapezoid of height L is solved by (paper Fig. 3b):
//   1. cells that are provably red at depth h = ceil(L/2) with their whole
//      dependency cone red -> one correlation with the stencil's h-step
//      kernel (FFT);
//   2. the O(g*h)-wide strip around the boundary -> recursion;
//   3. repeat both for the second half. Base case: naive loop with `max`,
//      which *discovers* the boundary location.
// Work O(L log^2 L), span O(L); the conv and the strip run as pool tasks.
//
// descend() cuts each top-level trapezoid at the largest power of two that
// fits the red width and the rows left (DESIGN.md §1.2). Every depth then
// halves a power of two, so a strip's first-half correlation needs exactly
// its power-of-two transform and each height uses one spectrum size; only
// the top-level correlations over the whole red row stay padded.
//
// Boundary-motion caveat (see DESIGN.md): the <=1-cell-per-step guarantee is
// proved from row T-2 downward, so pricers naive-step the first two rows
// before calling descend(). descend() itself only assumes the property holds
// from `top.i` downward.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "amopt/core/scratch.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::core {

/// Exercise-value oracle ("green" value) for lattice cells. Implementations
/// must be callable for any 0 <= i <= T, 0 <= j <= g*i + g (the solver reads
/// at most g-1 cells of green extension past a row's red prefix).
class LatticeGreen {
 public:
  virtual ~LatticeGreen() = default;
  [[nodiscard]] virtual double value(std::int64_t i, std::int64_t j) const = 0;
};

/// One grid row in boundary-compressed form: red values for j in [0, q],
/// green cells implied by the oracle. q == -1 means the row is entirely
/// green (then every row below it is too, by Lemma 2.4/A.2).
struct LatticeRow {
  std::int64_t i = 0;
  std::int64_t q = -1;
  std::vector<double> red;
};

/// Minimum trapezoid half-height at which the lattice and FDM solvers fork
/// the correlation and the boundary strip as two pool tasks.
inline constexpr std::int64_t kTaskCutoff = 512;

struct SolverConfig {
  /// Trapezoid height at or below which both solvers sweep rows directly
  /// (the recursion's leaf). The paper's §5.1 found 8 best for its code;
  /// here 64 is the default (DESIGN.md §9): leaves of 32-128 rows measure
  /// flat on the lattices and 8-64 on BSM, and a 64-row leaf amortizes its
  /// per-row boundary scan and runs none of the tiny direct correlations
  /// an 8-row leaf needs.
  int base_case = 64;
  bool parallel = true;  ///< fork trapezoid halves >= kTaskCutoff as tasks
  /// Accuracy knobs of the pricing::Engine::boundary (ALO) engine — the
  /// lattice/FDM solvers ignore them. Defaults are the "accurate" preset
  /// (~1e-8 relative price error, DESIGN.md §6); sessions key their cached
  /// node tables on (alo_nodes, alo_quad), so batches sharing one setting
  /// share one table.
  int alo_nodes = 13;      ///< Chebyshev collocation nodes over sqrt(tau)
  int alo_quad = 25;       ///< tanh-sinh quadrature points per integral
  int alo_iterations = 8;  ///< fixed-point sweeps over the boundary
};

class LatticeSolver {
 public:
  LatticeSolver(stencil::LinearStencil st, const LatticeGreen& green,
                SolverConfig cfg = {});

  /// Share a kernel cache owned by the caller: concurrent pricings with the
  /// same taps (an option chain over strikes) request the same kernel
  /// heights, so computing each power once amortizes the dominant setup
  /// cost across the whole batch. `shared` may be null (then a private
  /// cache is built from `fallback`) and must otherwise outlive the solver
  /// and be built from a stencil equal to `fallback`.
  LatticeSolver(stencil::KernelCache* shared, stencil::LinearStencil fallback,
                const LatticeGreen& green, SolverConfig cfg = {});

  LatticeSolver(const LatticeSolver&) = delete;
  LatticeSolver& operator=(const LatticeSolver&) = delete;

  /// Full trapezoid descent from `top` to row `i_stop` (inclusive result).
  /// Requires the boundary-motion property from row top.i downward.
  [[nodiscard]] LatticeRow descend(LatticeRow top, std::int64_t i_stop);

  /// One naive backward-induction step (row i -> row i-1), discovering the
  /// new boundary. Used for the rows adjacent to expiry and as the
  /// trapezoid base case. `unbounded_scan` evaluates every cell of the new
  /// row instead of trusting the one-cell boundary-motion bound — required
  /// for the first two steps off the expiry row, where the discrete
  /// boundary can jump right when R > Y (see DESIGN.md).
  [[nodiscard]] LatticeRow step_naive(const LatticeRow& row,
                                      bool unbounded_scan = false) const;

  /// `step_naive` writing into caller-provided row storage (`next.red`'s
  /// capacity is reused), so the descend loop can ping-pong two rows with
  /// no steady-state allocation. `next` must not alias `row`.
  void step_naive_into(const LatticeRow& row, bool unbounded_scan,
                       LatticeRow& next) const;

  [[nodiscard]] std::int64_t cone_growth() const noexcept { return g_; }
  [[nodiscard]] const SolverConfig& config() const noexcept { return cfg_; }

 private:
  /// Solve one trapezoid of height L over the column window [jL, q0]:
  /// given red values of row i0 (in[k] = value at j = jL + k, k in
  /// [0, q0-jL]), fill `out` with red values of row i0-L for j in
  /// [jL, q_new] (same indexing) and return q_new (jL-1 if the window is
  /// all green at that row). `in` and `out` must not alias;
  /// out.size() >= in.size().
  std::int64_t solve(std::int64_t i0, std::int64_t jL, std::int64_t q0,
                     std::int64_t L, std::span<const double> in,
                     std::span<double> out);

  std::int64_t solve_base(std::int64_t i0, std::int64_t jL, std::int64_t q0,
                          std::int64_t L, std::span<const double> in,
                          std::span<double> out) const;

  /// Correlate the h-step kernel over the logical input concat(main, tail)
  /// (a row's red prefix plus its g-1 green-extension cells, staged
  /// split-operand) writing `n_out` provably-red cells.
  void run_conv(std::span<const double> main, std::span<const double> tail,
                std::int64_t h, std::span<double> out);

  [[nodiscard]] std::int64_t row_width(std::int64_t i) const noexcept {
    return g_ * i;
  }

  std::unique_ptr<stencil::KernelCache> owned_kernels_;  ///< null when shared
  stencil::KernelCache* kernels_;
  const LatticeGreen& green_;
  SolverConfig cfg_;
  std::int64_t g_;
  /// Warm row storage handed back and forth with descend()'s ping-pong
  /// buffer, so repeated descents over one solver stay allocation-free.
  std::vector<double> spare_red_;
};

}  // namespace amopt::core
