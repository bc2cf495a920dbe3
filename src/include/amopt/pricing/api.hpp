#pragma once
// Convenience facade over the whole library: one `price()` call selecting
// model x right x style x engine. Both free functions are thin wrappers
// over a temporary `pricing::Pricer` session (see pricer.hpp) and return
// bit-identical values; long-lived callers should hold a `Pricer` instead
// so kernel caches survive across calls.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::stencil {
class KernelCache;
}

namespace amopt::pricing {

enum class Model { bopm, topm, bsm };
enum class Right { call, put };
enum class Style { american, european };
enum class Engine {
  fft,               ///< the paper's O(T log^2 T) algorithm
  vanilla,           ///< Θ(T^2) serial loop (Figure 1)
  vanilla_parallel,  ///< Θ(T^2) loop, rows split by parallel_for_chunks
  tiled,             ///< zb-bopm: cache-aware split tiling (BOPM call only)
  cache_oblivious,   ///< Frigo-Strumpen recursion (BOPM call only)
  quantlib,          ///< ql-bopm: QuantLib-style rollback (BOPM call only)
  boundary           ///< Chebyshev/tanh-sinh exercise-boundary engine
                     ///< (BSM American vanilla put AND call; alo_engine.hpp)
};

[[nodiscard]] std::string_view to_string(Model m);
[[nodiscard]] std::string_view to_string(Right r);
[[nodiscard]] std::string_view to_string(Style s);
[[nodiscard]] std::string_view to_string(Engine e);

/// Price an option with `T` time steps. Throws std::invalid_argument for
/// combinations without a meaningful implementation (see Engine comments).
[[nodiscard]] double price(const OptionSpec& spec, std::int64_t T, Model model,
                           Right right, Style style = Style::american,
                           Engine engine = Engine::fft,
                           core::SolverConfig cfg = {});

/// Price a whole option chain in one call: result[i] is exactly what
/// price(chain[i], ...) returns (bit-identical — the shared machinery runs
/// the same arithmetic), but the work is shared where the contracts allow:
///
///  * items whose derived stencil taps coincide (same R, V, Y, expiry — an
///    ordinary strike ladder) share ONE kernel cache, so each kernel power
///    of the fft engine is computed once per chain instead of once per
///    option, and the FFT plan/workspace warm-up is amortized;
///  * options are priced in parallel across the task pool
///    (`TaskPool::for_each`). A descent that runs on a pool worker still
///    forks its legs onto that worker's deque; one that runs on the calling
///    thread forks inline. Only the FFT stage split checks
///    `in_parallel_region()` and stays serial on a worker.
///
/// Throws std::invalid_argument on the first unsupported combination, like
/// the scalar call. For heterogeneous chains or per-item error reporting
/// use `Pricer::price_many` (pricer.hpp), which this wraps.
[[nodiscard]] std::vector<double> price_batch(
    std::span<const OptionSpec> chain, std::int64_t T, Model model,
    Right right, Style style = Style::american, Engine engine = Engine::fft,
    core::SolverConfig cfg = {});

namespace detail {

/// The dispatch primitive behind `price()` and the session API: route one
/// contract to its implementation, drawing kernel powers from `kernels`
/// where the combination has a cache-aware path (`kernels` may be null, and
/// must otherwise be built from `shared_cache_stencil` of the same
/// arguments). Throws std::invalid_argument on unsupported combinations.
[[nodiscard]] double price_with_cache(const OptionSpec& spec, std::int64_t T,
                                      Model model, Right right, Style style,
                                      Engine engine, core::SolverConfig cfg,
                                      stencil::KernelCache* kernels);

/// Stencil of the kernel cache an item of a (model, right, style, fft)
/// chain can share; empty taps when the combination has no cache-aware
/// path. Must match the stencils the pricers build internally (the BOPM
/// American put's is the swapped call's, see bopm::american_put_fft; the
/// BSM FDM stencil is centered, left=-1).
[[nodiscard]] stencil::LinearStencil shared_cache_stencil(
    const OptionSpec& spec, std::int64_t T, Model model, Right right,
    Style style, Engine engine);

/// The "amopt: unsupported combination m/r/s/e" text shared by the legacy
/// throws and the session's Status::unsupported messages.
[[nodiscard]] std::string unsupported_message(Model m, Right r, Style s,
                                              Engine e);

}  // namespace detail

}  // namespace amopt::pricing
