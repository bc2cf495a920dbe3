#pragma once
// Sensitivities of the American option price. Delta/gamma/theta come from
// the low lattice nodes the FFT descent produces for free (rows 0..2);
// vega/rho are central finite differences of the O(T log^2 T) pricer, so a
// full Greek report still costs only O(T log^2 T).

#include <cstdint>
#include <functional>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing {

struct Greeks {
  double price = 0.0;
  double delta = 0.0;  ///< dV/dS
  double gamma = 0.0;  ///< d2V/dS2
  double theta = 0.0;  ///< dV/dt (per year, calendar decay)
  double vega = 0.0;   ///< dV/dV(vol), per 1.0 of volatility
  double rho = 0.0;    ///< dV/dR, per 1.0 of rate
};

/// Re-pricer injected by the session API for the bumped (vega/rho, and for
/// the put every) evaluations: called with the bumped spec, must return
/// what the corresponding fast pricer returns for it. A default-constructed
/// (empty) function falls back to the plain one-shot pricer; a `Pricer`
/// supplies a kernel-cache-sharing evaluation so repeated greeks over a
/// chain hit warm caches.
using RepriceFn = std::function<double(const OptionSpec&)>;

[[nodiscard]] Greeks american_call_greeks_bopm(const OptionSpec& spec,
                                               std::int64_t T,
                                               core::SolverConfig cfg = {});

/// Session variant: `kernels` (nullable, taps {s0, s1} of derive_bopm)
/// backs the base-spec lattice descent; `reprice` the bumped evaluations.
[[nodiscard]] Greeks american_call_greeks_bopm(const OptionSpec& spec,
                                               std::int64_t T,
                                               core::SolverConfig cfg,
                                               const RepriceFn& reprice,
                                               stencil::KernelCache* kernels);

/// Put Greeks via central finite differences of the fast put pricer
/// (lattice nodes are not reusable across the put-call symmetry swap).
[[nodiscard]] Greeks american_put_greeks_bopm(const OptionSpec& spec,
                                              std::int64_t T,
                                              core::SolverConfig cfg = {});

/// Session variant: every evaluation goes through `reprice` (nullable). A
/// session reprices with the same put-call-symmetry pricer `price()` uses
/// for bopm/put/fft, so its greeks are bit-identical to the default path's.
[[nodiscard]] Greeks american_put_greeks_bopm(const OptionSpec& spec,
                                              std::int64_t T,
                                              core::SolverConfig cfg,
                                              const RepriceFn& reprice);

}  // namespace amopt::pricing
