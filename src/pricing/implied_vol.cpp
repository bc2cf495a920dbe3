#include "amopt/pricing/implied_vol.hpp"

#include <cmath>
#include <functional>

#include "amopt/common/assert.hpp"
#include "amopt/pricing/bopm.hpp"

namespace amopt::pricing {

namespace detail {

ImpliedVolResult invert_implied_vol(
    const std::function<double(double)>& price_of_vol, double target,
    const ImpliedVolConfig& cfg) {
  ImpliedVolResult res;
  double lo = cfg.vol_lo, hi = cfg.vol_hi;
  double f_lo = price_of_vol(lo) - target;
  double f_hi = price_of_vol(hi) - target;
  res.iterations = 2;
  if (f_lo > 0.0 || f_hi < 0.0) return res;  // target out of attainable range

  double v = 0.5 * (lo + hi);
  double f_prev = f_lo, v_prev = lo;
  for (; res.iterations < cfg.max_iterations; ++res.iterations) {
    const double f = price_of_vol(v) - target;
    if (std::abs(f) <= cfg.tol) {
      res.vol = v;
      res.converged = true;
      return res;
    }
    (f < 0.0 ? lo : hi) = v;
    (f < 0.0 ? f_lo : f_hi) = f;
    // Secant proposal; fall back to bisection when degenerate or outside.
    double next = v - f * (v - v_prev) / (f - f_prev);
    if (!(next > lo && next < hi) || !std::isfinite(next))
      next = 0.5 * (lo + hi);
    v_prev = v;
    f_prev = f;
    v = next;
    if (hi - lo < 1e-12) break;
  }
  res.vol = v;
  res.converged = std::abs(price_of_vol(v) - target) <= 10 * cfg.tol;
  return res;
}

void clamp_vol_bracket(const OptionSpec& spec, ImpliedVolConfig& cfg) {
  const double dt = spec.expiry_years / static_cast<double>(cfg.T);
  const double floor_vol = 2.0 * std::abs(spec.R - spec.Y) * std::sqrt(dt);
  cfg.vol_lo = std::max(cfg.vol_lo, floor_vol);
}

ImpliedVolResult invert_implied_vol_warm(
    const std::function<double(double)>& price_of_vol, double target,
    const ImpliedVolConfig& cfg, double v0, double p0, double v1, double p1) {
  ImpliedVolResult res;
  double lo = cfg.vol_lo, hi = cfg.vol_hi;
  double va = v1, fa = p1 - target;
  double vb = v0, fb = p0 - target;
  // Price is monotone increasing in vol, so every genuine sample tightens
  // the bracket the root must lie in (if it is attainable at all).
  const auto tighten = [&](double v, double f) {
    if (f < 0.0) {
      if (v > lo) lo = v;
    } else if (v < hi) {
      hi = v;
    }
  };
  tighten(va, fa);
  tighten(vb, fb);
  if (std::abs(fb) <= cfg.tol) {
    // The quote has not moved beyond tolerance: zero evaluations.
    res.vol = vb;
    res.converged = true;
    return res;
  }

  const int warm_budget = std::min(8, cfg.max_iterations);
  while (res.iterations < warm_budget) {
    double next = fb != fa ? vb - fb * (vb - va) / (fb - fa) : 0.5 * (lo + hi);
    if (!(next > lo && next < hi) || !std::isfinite(next))
      next = 0.5 * (lo + hi);
    const double f = price_of_vol(next) - target;
    ++res.iterations;  // counted on every path, so `remaining` stays exact
    va = vb;
    fa = fb;
    vb = next;
    fb = f;
    tighten(next, f);
    if (std::abs(f) <= cfg.tol) {
      res.vol = next;
      res.converged = true;
      return res;
    }
    if (hi - lo < 1e-12) break;
  }

  // Hand the REMAINING iteration budget to the cold bracketed path (total
  // evaluations stay within max_iterations, like the free functions); with
  // no budget left, settle for the usual relaxed final acceptance.
  const int remaining = cfg.max_iterations - res.iterations;
  if (remaining >= 3) {
    ImpliedVolConfig rest = cfg;
    // Keep what the genuine evaluations taught us about the bracket
    // (unless rounding noise inverted it, then start over in full).
    if (lo < hi) {
      rest.vol_lo = lo;
      rest.vol_hi = hi;
    }
    rest.max_iterations = remaining;
    ImpliedVolResult cold = invert_implied_vol(price_of_vol, target, rest);
    cold.iterations += res.iterations;
    return cold;
  }
  res.vol = vb;
  res.converged = std::abs(fb) <= 10 * cfg.tol;
  return res;
}

}  // namespace detail

ImpliedVolResult american_call_implied_vol(const OptionSpec& spec,
                                           double target_price,
                                           ImpliedVolConfig cfg) {
  AMOPT_EXPECTS(cfg.vol_lo > 0.0 && cfg.vol_hi > cfg.vol_lo);
  detail::clamp_vol_bracket(spec, cfg);
  return detail::invert_implied_vol(
      [&](double v) {
        OptionSpec s = spec;
        s.V = v;
        return bopm::american_call_fft(s, cfg.T);
      },
      target_price, cfg);
}

ImpliedVolResult american_put_implied_vol(const OptionSpec& spec,
                                          double target_price,
                                          ImpliedVolConfig cfg) {
  AMOPT_EXPECTS(cfg.vol_lo > 0.0 && cfg.vol_hi > cfg.vol_lo);
  detail::clamp_vol_bracket(spec, cfg);
  return detail::invert_implied_vol(
      [&](double v) {
        OptionSpec s = spec;
        s.V = v;
        return bopm::american_put_fft(s, cfg.T);
      },
      target_price, cfg);
}

}  // namespace amopt::pricing
