#pragma once
// American call pricing under the Trinomial Option Pricing Model (paper §3
// and Appendix A). Same red/green structure as BOPM, but each cell depends
// on three children, so the dependency cone widens 2 cells/step; the
// lattice solver handles this through its cone-growth parameter.

#include <cstdint>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing::topm {

/// Exercise-value oracle: value(i, j) = S * u^(j-i) - K, j in [0, 2i],
/// each power computed on its block's first read (core::ExerciseTable).
class CallGreen final : public core::ExerciseTable {
 public:
  CallGreen(const OptionSpec& spec, const TopmParams& prm)
      : core::ExerciseTable(Form::exp, prm.log_u, 1, -1, spec.S, spec.K,
                            prm.T + 4) {}
};

[[nodiscard]] core::LatticeRow expiry_row(const TopmParams& prm,
                                          const core::ExerciseTable& green);

[[nodiscard]] double american_call_fft(const OptionSpec& spec, std::int64_t T,
                                       core::SolverConfig cfg = {});
/// Shared-cache variant (see pricing::price_batch); `kernels` may be null
/// and must otherwise be built from stencil {{s0, s1, s2}, 0}.
[[nodiscard]] double american_call_fft(const OptionSpec& spec, std::int64_t T,
                                       core::SolverConfig cfg,
                                       stencil::KernelCache* kernels);
/// The paper's `vanilla-topm` reference: Θ(T^2) looping code.
[[nodiscard]] double american_call_vanilla(const OptionSpec& spec,
                                           std::int64_t T);
[[nodiscard]] double american_call_vanilla_parallel(const OptionSpec& spec,
                                                    std::int64_t T);

[[nodiscard]] double american_put_vanilla(const OptionSpec& spec,
                                          std::int64_t T);
/// Fast put via put-call symmetry (see bopm::american_put_fft).
[[nodiscard]] double american_put_fft(const OptionSpec& spec, std::int64_t T,
                                      core::SolverConfig cfg = {});

[[nodiscard]] double european_call_vanilla(const OptionSpec& spec,
                                           std::int64_t T);
[[nodiscard]] double european_call_fft(const OptionSpec& spec, std::int64_t T);
[[nodiscard]] double european_call_fft(const OptionSpec& spec, std::int64_t T,
                                       stencil::KernelCache* kernels);

}  // namespace amopt::pricing::topm
