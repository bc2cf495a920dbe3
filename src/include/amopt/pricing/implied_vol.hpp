#pragma once
// Implied volatility for American options: invert price -> V with a
// safeguarded Newton iteration (bisection fallback) on the O(T log^2 T)
// pricer. This is the workload the paper's introduction motivates — rapid
// recalibration as market quotes move — and it multiplies the pricer
// speedup by the ~10 iterations the inversion needs.

#include <cstdint>
#include <functional>

#include "amopt/pricing/params.hpp"

namespace amopt::pricing {

struct ImpliedVolResult {
  double vol = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct ImpliedVolConfig {
  double tol = 1e-8;      ///< absolute price tolerance
  double vol_lo = 1e-4;   ///< search bracket
  double vol_hi = 5.0;
  int max_iterations = 64;
  std::int64_t T = 4096;  ///< lattice steps per evaluation
};

/// Volatility such that the American call under BOPM matches `target_price`.
/// spec.V is ignored. Returns converged=false if the target lies outside
/// the no-arbitrage range attainable on [vol_lo, vol_hi].
[[nodiscard]] ImpliedVolResult american_call_implied_vol(
    const OptionSpec& spec, double target_price, ImpliedVolConfig cfg = {});

/// Same for the American put (priced by put-call symmetry).
[[nodiscard]] ImpliedVolResult american_put_implied_vol(
    const OptionSpec& spec, double target_price, ImpliedVolConfig cfg = {});

namespace detail {

/// The safeguarded Newton behind the free functions: secant steps clipped
/// to a maintained bracket, bisection whenever a step leaves it. Exposed so
/// the session API (`Pricer::implied_vol_many`) can supply a
/// `price_of_vol` that draws on the session's shared kernel caches — same
/// evaluations, same iterates, bit-identical result.
[[nodiscard]] ImpliedVolResult invert_implied_vol(
    const std::function<double(double)>& price_of_vol, double target,
    const ImpliedVolConfig& cfg);

/// Lift `cfg.vol_lo` above the CRR lattice validity floor
/// (V*sqrt(dt) > |R-Y|*dt needs p in (0,1)); uses `cfg.T` for dt.
void clamp_vol_bracket(const OptionSpec& spec, ImpliedVolConfig& cfg);

/// Warm-started variant for sessions: seed the safeguarded secant with two
/// genuine (vol, price) samples from a previous inversion of the same
/// contract — (v0, p0) the newest, (v1, p1) the previous distinct iterate;
/// prices are independent of the quote, so the samples stay exact. A quote
/// that moved a tick typically closes in 1-3 evaluations (0 when it moved
/// less than cfg.tol). Whatever the short warm budget (at most 8
/// evaluations) cannot close falls back to the cold bracketed
/// `invert_implied_vol` with the remaining iteration budget and the
/// bracket the evaluations established — so a target that gapped out of
/// the attainable range costs the warm budget plus the cold path's two
/// endpoint evaluations, and the total evaluation count respects
/// cfg.max_iterations. Both samples must lie strictly inside
/// (cfg.vol_lo, cfg.vol_hi).
[[nodiscard]] ImpliedVolResult invert_implied_vol_warm(
    const std::function<double(double)>& price_of_vol, double target,
    const ImpliedVolConfig& cfg, double v0, double p0, double v1, double p1);

}  // namespace detail

}  // namespace amopt::pricing
