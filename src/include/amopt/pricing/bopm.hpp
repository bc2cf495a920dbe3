#pragma once
// American (and European) option pricing under the Binomial Option Pricing
// Model. `american_call_fft` is the paper's O(T log^2 T) algorithm (§2.3);
// the vanilla variants are the Θ(T^2) Figure-1 loops used as correctness
// oracles and as the reference series of the benchmarks.

#include <cstdint>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing::bopm {

/// Green (exercise-value) oracle for the call lattice:
/// value(i, j) = S * u^(2j-i) - K, backed by a precomputed power table.
class CallGreen final : public core::LatticeGreen {
 public:
  CallGreen(const OptionSpec& spec, const BopmParams& prm)
      : up_(prm.log_u, prm.T), S_(spec.S), K_(spec.K) {}
  [[nodiscard]] double value(std::int64_t i, std::int64_t j) const override {
    return S_ * up_(2 * j - i) - K_;
  }

 private:
  PowerTable up_;
  double S_, K_;
};

/// Expiry row in boundary-compressed form: red cells are the at/out-of-the-
/// money nodes (value 0 = G^red by Definition 2.1), green cells the in-the-
/// money payoffs.
[[nodiscard]] core::LatticeRow expiry_row(const BopmParams& prm,
                                          const core::LatticeGreen& green);

// --- American call ------------------------------------------------------

[[nodiscard]] double american_call_fft(const OptionSpec& spec, std::int64_t T,
                                       core::SolverConfig cfg = {});
/// Same algorithm with a caller-owned kernel cache shared across pricings
/// (see pricing::price_batch): all strikes of a chain have identical taps
/// {s0, s1}, so each kernel power is computed once for the whole chain.
/// `kernels` may be null (falls back to a private cache) and must otherwise
/// be built from stencil {{s0, s1}, 0} of derive_bopm(spec, T).
[[nodiscard]] double american_call_fft(const OptionSpec& spec, std::int64_t T,
                                       core::SolverConfig cfg,
                                       stencil::KernelCache* kernels);
[[nodiscard]] double american_call_vanilla(const OptionSpec& spec,
                                           std::int64_t T);
[[nodiscard]] double american_call_vanilla_parallel(const OptionSpec& spec,
                                                    std::int64_t T);

// --- American put -------------------------------------------------------

/// Direct Θ(T^2) rollback on the put payoff (oracle).
[[nodiscard]] double american_put_vanilla(const OptionSpec& spec,
                                          std::int64_t T);
/// Fast put via McDonald–Schroder put-call symmetry: the American call of
/// `symmetric_call_spec(spec)`. The symmetry is exact on the CRR lattice
/// (the numeraire change maps path weights one-to-one), so this agrees with
/// `american_put_vanilla` to rounding error, and the put descends the
/// call's lattice — the one boundary direction the paper's trapezoid
/// descent is proved for. `kernels` may be null and must otherwise be built
/// from stencil {{s0, s1}, 0} of derive_bopm of the SWAPPED spec (which the
/// strike does not enter, so one cache serves a whole put ladder).
[[nodiscard]] double american_put_fft(const OptionSpec& spec, std::int64_t T,
                                      core::SolverConfig cfg = {},
                                      stencil::KernelCache* kernels = nullptr);

// --- European (the linear special case; the paper's "simpler" problem) ---

[[nodiscard]] double european_call_vanilla(const OptionSpec& spec,
                                           std::int64_t T);
/// One T-step kernel power + one dot product: O(T log T).
[[nodiscard]] double european_call_fft(const OptionSpec& spec, std::int64_t T);
[[nodiscard]] double european_call_fft(const OptionSpec& spec, std::int64_t T,
                                       stencil::KernelCache* kernels);
[[nodiscard]] double european_put_vanilla(const OptionSpec& spec,
                                          std::int64_t T);
[[nodiscard]] double european_put_fft(const OptionSpec& spec, std::int64_t T);
[[nodiscard]] double european_put_fft(const OptionSpec& spec, std::int64_t T,
                                      stencil::KernelCache* kernels);

// --- Low-lattice nodes for Greeks (rows 0..2) -----------------------------

struct LowNodes {
  double g00 = 0, g10 = 0, g11 = 0, g20 = 0, g21 = 0, g22 = 0;
  BopmParams prm;
};
/// Nodes of rows 0..2 of the American call lattice, computed with the FFT
/// descent to row 2 and naive steps below. Requires T >= 2.
[[nodiscard]] LowNodes american_call_nodes_fft(const OptionSpec& spec,
                                               std::int64_t T,
                                               core::SolverConfig cfg = {});
/// Shared-cache variant (see american_call_fft); `kernels` may be null and
/// must otherwise be built from stencil {{s0, s1}, 0} of derive_bopm.
[[nodiscard]] LowNodes american_call_nodes_fft(const OptionSpec& spec,
                                               std::int64_t T,
                                               core::SolverConfig cfg,
                                               stencil::KernelCache* kernels);

}  // namespace amopt::pricing::bopm
