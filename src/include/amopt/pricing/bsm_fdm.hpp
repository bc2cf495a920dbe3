#pragma once
// American put pricing under the Black-Scholes-Merton model via the
// explicit finite-difference scheme of paper §4. `american_put_fft` is the
// paper's O(T log^2 T) trapezoid algorithm; `american_put_vanilla*` are the
// Θ(T^2) projection loops (`vanilla-bsm` in the paper's plots).

#include <cmath>
#include <cstdint>
#include <vector>

#include "amopt/core/fdm_solver.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing::bsm {

/// Dimensionless put exercise value 1 - e^{k ds}, cached in a table over the
/// index range the solver can touch and computed exactly outside it.
class PutGreen final : public core::FdmGreen {
 public:
  PutGreen(double ds, std::int64_t span);
  [[nodiscard]] double value(std::int64_t /*n*/, std::int64_t k) const override {
    if (k >= -span_ && k <= span_)
      return table_[static_cast<std::size_t>(k + span_)];
    return -std::expm1(static_cast<double>(k) * ds_);
  }

 private:
  std::vector<double> table_;
  double ds_;
  std::int64_t span_;
};

/// Geometry of the solution cone: the apex sits at k* ~ ln(S/K)/ds, and the
/// base row (n = 0, tau = 0) stores exactly the cone of the two read cells
/// plus `kPad` spare cells: kr0 = T + max(k_read + 1, 1) + kPad. That width
/// also covers the trapezoid recursion's margin kr - f >= 2L at every
/// top-level advance (DESIGN §1.1).
struct FdmLayout {
  static constexpr std::int64_t kPad = 4;  ///< spare cells right of the cone
  std::int64_t k_read = 0;   ///< floor(s*/ds): price read between k_read, k_read+1
  double theta = 0.0;        ///< interpolation weight toward k_read+1
  std::int64_t kr0 = 0;      ///< right edge of the stored red region at n=0
};
[[nodiscard]] FdmLayout make_layout(const BsmParams& prm);

[[nodiscard]] double american_put_fft(const OptionSpec& spec, std::int64_t T,
                                      core::SolverConfig cfg = {});
/// Shared-cache variant (see pricing::price_batch): all strikes of a BSM
/// chain derive the same (b, c, a), so one cache serves the whole ladder.
/// `kernels` may be null and must otherwise be built from the centered
/// stencil {{b, c, a}, -1} of derive_bsm(spec, T).
[[nodiscard]] double american_put_fft(const OptionSpec& spec, std::int64_t T,
                                      core::SolverConfig cfg,
                                      stencil::KernelCache* kernels);
[[nodiscard]] double american_put_vanilla(const OptionSpec& spec,
                                          std::int64_t T);
[[nodiscard]] double american_put_vanilla_parallel(const OptionSpec& spec,
                                                   std::int64_t T);

/// European put on the same grid (projection disabled): pure linear
/// evolution, one kernel power + correlation. Convergence anchor against
/// bs::european_put.
[[nodiscard]] double european_put_fdm(const OptionSpec& spec, std::int64_t T);

/// Early-exercise boundary k_n for n in [0, T] from the naive grid
/// (test/inspection helper, Θ(T^2)).
[[nodiscard]] std::vector<std::int64_t> exercise_boundary_vanilla(
    const OptionSpec& spec, std::int64_t T);

}  // namespace amopt::pricing::bsm
