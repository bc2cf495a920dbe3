#pragma once
// S9c: cache-simulated versions of every algorithm that appears in the
// paper's Fig. 7 (L1/L2 miss counts vs T).
//
// The loop algorithms (vanilla, ql-bopm, zb-bopm) are re-executed verbatim
// with their arrays wrapped in SimVec, so their miss counts are exact for
// the modeled hierarchy. The FFT algorithms are *trace replays*: the
// exercise boundary is precomputed (it determines every segment size the
// trapezoid recursion touches) and the solver's memory behaviour — row
// buffers, kernel tables, bit-reversal and butterfly passes of each
// convolution — is re-driven access by access through the simulator. See
// DESIGN.md "Faithfulness notes" for why this substitution preserves the
// figure's claim.

#include <cstdint>

#include "amopt/metrics/cachesim.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::metrics {

enum class SimAlg {
  bopm_vanilla,
  bopm_quantlib,
  bopm_zubair,
  bopm_fft,
  topm_vanilla,
  topm_fft,
  bsm_vanilla,
  bsm_fft,
};

[[nodiscard]] const char* to_string(SimAlg alg);

[[nodiscard]] CacheStats simulate_kernel(SimAlg alg,
                                         const pricing::OptionSpec& spec,
                                         std::int64_t T);

/// Replay ONE FFT convolution (operand sizes as conv::correlate_valid sees
/// them) through the cache simulator's model of the production R2C/C2R
/// pipeline. Exposed so tests can hold the model against the real
/// pipeline's traffic counters.
[[nodiscard]] CacheStats simulate_fft_convolution(std::size_t n_in,
                                                  std::size_t n_kernel,
                                                  std::size_t n_out);

}  // namespace amopt::metrics
