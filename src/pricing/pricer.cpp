#include "amopt/pricing/pricer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "amopt/core/scratch.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/pricing/alo/alo_engine.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/greeks.hpp"
#include "amopt/pricing/implied_vol.hpp"

namespace amopt::pricing {

std::string_view to_string(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::unsupported: return "unsupported";
    case Status::failed_to_converge: return "failed-to-converge";
    case Status::error: return "error";
    case Status::overloaded: return "overloaded";
    case Status::deadline_exceeded: return "deadline-exceeded";
  }
  return "?";
}

Pricer::Pricer(PricerConfig cfg)
    : cfg_(cfg),
      spectrum_budget_(
          std::make_shared<stencil::SpectrumBudget>(kSpectrumBytes)) {}

bool Pricer::supports(Model m, Right r, Style s, Engine e) noexcept {
  if (s == Style::european) {
    // The facade maps every non-fft engine to the vanilla reference, so any
    // engine value is accepted where the (model, right) pair has a pricer.
    switch (m) {
      case Model::bopm: return true;
      case Model::topm: return r == Right::call;
      case Model::bsm: return r == Right::put;
    }
    return false;
  }
  switch (m) {
    case Model::bopm:
      if (r == Right::call) return e != Engine::boundary;  // all six lattices
      return e == Engine::fft || e == Engine::vanilla;
    case Model::topm:
      if (r == Right::call)
        return e == Engine::fft || e == Engine::vanilla ||
               e == Engine::vanilla_parallel;
      return e == Engine::fft || e == Engine::vanilla;
    case Model::bsm:
      // The boundary (ALO) engine is the one American BSM path that serves
      // BOTH rights (calls via put-call symmetry).
      if (e == Engine::boundary) return true;
      return r == Right::put &&
             (e == Engine::fft || e == Engine::vanilla ||
              e == Engine::vanilla_parallel);
  }
  return false;
}

bool Pricer::supports(Model m, Right r, Style s, Engine e,
                      unsigned compute) noexcept {
  if (!supports(m, r, s, e)) return false;
  if ((compute & Compute::greeks) != 0u) {
    // Greeks ride on the BOPM American fft pricers (both rights); the
    // other models have no sensitivity path yet.
    if (m != Model::bopm || s != Style::american || e != Engine::fft)
      return false;
  }
  if ((compute & Compute::implied_vol) != 0u) {
    // Implied vol inverts through BOPM American fft (the lattice path) or
    // through the boundary engine for BSM American vanillas, whose
    // microsecond re-quotes are what make per-tick inversion cheap.
    const bool lattice_iv =
        m == Model::bopm && s == Style::american && e == Engine::fft;
    const bool boundary_iv =
        m == Model::bsm && s == Style::american && e == Engine::boundary;
    if (!lattice_iv && !boundary_iv) return false;
  }
  return true;
}

Pricer::CachePtr Pricer::evict_lru(std::vector<Entry>& tier,
                                   std::size_t cap) {
  // Evict the least-recently-used group when the tier overflows. Batches in
  // flight hold their own shared_ptr copies, so eviction only drops warm
  // state for FUTURE lookups — it never tears a cache out from under a
  // running pricing.
  if (tier.size() <= cap) return nullptr;
  const auto victim = std::min_element(
      tier.begin(), tier.end(),
      [](const Entry& a, const Entry& b) { return a.last_used < b.last_used; });
  CachePtr out = std::move(victim->cache);
  tier.erase(victim);
  return out;
}

Pricer::CachePtr Pricer::cache_for(const stencil::LinearStencil& st,
                                   Tier tier) {
  if (st.taps.empty()) return nullptr;
  // Declared before the lock so an evicted cache dies after mu_ is
  // released: every trial evaluation and warm-root lookup of the session
  // would otherwise wait on its destructor.
  CachePtr evicted;
  std::lock_guard<std::mutex> lock(mu_);
  const auto matches = [&](const Entry& e) {
    const stencil::LinearStencil& key = e.cache->stencil();
    return key.left == st.left && key.taps == st.taps;
  };
  // Base tier first: a trial vol that happens to coincide with a chain's
  // own tap group must refresh (and use) the pinned entry, not duplicate it.
  for (Entry& e : base_caches_) {
    if (matches(e)) {
      e.last_used = ++tick_;
      ++hits_;
      return e.cache;
    }
  }
  for (auto it = transient_caches_.begin(); it != transient_caches_.end();
       ++it) {
    if (matches(*it)) {
      it->last_used = ++tick_;
      ++hits_;
      CachePtr out = it->cache;
      if (tier == Tier::base) {
        // The group graduated from trial-vol churn to a request's own tap
        // group: move it to the protected tier.
        base_caches_.push_back(std::move(*it));
        transient_caches_.erase(it);
        evicted = evict_lru(base_caches_, kBaseKernelCaches);
      }
      return out;
    }
  }
  ++misses_;
  Entry entry;
  entry.cache = std::make_shared<stencil::KernelCache>(st);
  entry.cache->set_spectrum_budget(spectrum_budget_);
  entry.last_used = ++tick_;
  CachePtr out = entry.cache;
  if (tier == Tier::base) {
    base_caches_.push_back(std::move(entry));
    evicted = evict_lru(base_caches_, kBaseKernelCaches);
  } else {
    transient_caches_.push_back(std::move(entry));
    evicted = evict_lru(transient_caches_, kTransientKernelCaches);
  }
  return out;
}

namespace {

/// Everything a single price evaluation depends on, serialized: the spec,
/// the discretization, the dispatch selection, and the resolved solver
/// configuration. Two evaluations with equal keys return bit-identical
/// prices (at a fixed SIMD dispatch level), which is what lets the greeks
/// warm-start reuse stored values exactly.
[[nodiscard]] std::string eval_key(const OptionSpec& spec,
                                   const PricingRequest& req,
                                   const core::SolverConfig& cfg) {
  const double fields[] = {spec.S, spec.K, spec.R,
                           spec.V, spec.Y, spec.expiry_years};
  std::string key(reinterpret_cast<const char*>(fields), sizeof(fields));
  const std::int64_t tags[] = {req.T,
                               static_cast<std::int64_t>(req.model),
                               static_cast<std::int64_t>(req.right),
                               static_cast<std::int64_t>(req.style),
                               static_cast<std::int64_t>(req.engine),
                               static_cast<std::int64_t>(cfg.base_case),
                               static_cast<std::int64_t>(cfg.parallel),
                               static_cast<std::int64_t>(cfg.alo_nodes),
                               static_cast<std::int64_t>(cfg.alo_quad),
                               static_cast<std::int64_t>(cfg.alo_iterations)};
  key.append(reinterpret_cast<const char*>(tags), sizeof(tags));
  return key;
}

}  // namespace

double Pricer::price_cached_memo(const OptionSpec& spec,
                                 const PricingRequest& req,
                                 const core::SolverConfig& cfg) {
  const std::string key = eval_key(spec, req, cfg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = bump_prices_.find(key);
    if (it != bump_prices_.end()) {
      ++bump_hits_;
      return it->second;
    }
  }
  const double p = price_cached(spec, req, cfg);
  std::lock_guard<std::mutex> lock(mu_);
  // Same bounded one-victim eviction as the IV warm-root store.
  if (bump_prices_.size() >= 65536 && !bump_prices_.contains(key))
    bump_prices_.erase(bump_prices_.begin());
  bump_prices_[key] = p;
  return p;
}

std::shared_ptr<const alo::NodeTable> Pricer::node_table_for(
    const core::SolverConfig& cfg) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(
           static_cast<std::uint32_t>(std::clamp(cfg.alo_nodes, 3, 64)))
       << 32) |
      static_cast<std::uint32_t>(std::clamp(cfg.alo_quad, 3, 401));
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = node_tables_.find(key);
    if (it != node_tables_.end()) return it->second;
  }
  // Build outside the lock (pure function of the knobs: a racing duplicate
  // build is wasted work, never a wrong table).
  auto tbl = alo::build_node_table(cfg.alo_nodes, cfg.alo_quad);
  std::lock_guard<std::mutex> lock(mu_);
  return node_tables_.try_emplace(key, std::move(tbl)).first->second;
}

double Pricer::price_cached(const OptionSpec& spec, const PricingRequest& req,
                            const core::SolverConfig& cfg) {
  if (req.engine == Engine::boundary && req.model == Model::bsm &&
      req.style == Style::american) {
    // Boundary quotes (and every IV trial riding on them) draw the node
    // table from the session cache: steady state is pure evaluation.
    const auto tbl = node_table_for(cfg);
    return alo::american_price(spec, req.right, cfg, tbl.get());
  }
  stencil::KernelCache* kernels = nullptr;
  CachePtr hold;  // keeps the group alive across a concurrent LRU eviction
  if (req.engine == Engine::fft) {
    // Bumped/trial specs land in the transient tier so recalibration churn
    // cannot evict the chains' own (base-tier) groups.
    hold = cache_for(detail::shared_cache_stencil(spec, req.T, req.model,
                                                  req.right, req.style,
                                                  req.engine),
                     Tier::transient);
    kernels = hold.get();
  }
  return detail::price_with_cache(spec, req.T, req.model, req.right, req.style,
                                  req.engine, cfg, kernels);
}

namespace {

/// The request's compute mask with the empty-mask default applied — the
/// single definition of "what does this request want".
[[nodiscard]] unsigned effective_compute(const PricingRequest& req) {
  return req.compute != 0u ? req.compute : Compute::price;
}

/// Request validation, mirroring the derive_* preconditions: those are
/// enforced with aborting contract checks (a violation inside a solver
/// means corrupted invariants), but a bad QUOTE arriving at the session
/// boundary is an expected input and must become a per-item Status, never
/// a process abort. Returns an error message, empty when valid. NaNs fail
/// the comparisons and are caught too.
[[nodiscard]] std::string validate_request(const PricingRequest& req) {
  const unsigned compute = effective_compute(req);
  if ((compute &
       ~(Compute::price | Compute::greeks | Compute::implied_vol)) != 0u)
    return "amopt: unknown bits in the compute mask";
  // Finiteness first: a NaN or Inf in ANY numeric field must become a
  // per-item error here, at the session boundary, instead of propagating
  // through exp/log into the solvers and coming back out as a NaN price
  // with Status::ok. The positivity comparisons below reject NaN too, but
  // only for the fields they cover — R and Y are sign-free, so without an
  // explicit finiteness check a NaN rate flows straight into the lattice
  // drift.
  if (!std::isfinite(req.spec.S)) return "amopt: non-finite spot S";
  if (!std::isfinite(req.spec.K)) return "amopt: non-finite strike K";
  if (!std::isfinite(req.spec.R)) return "amopt: non-finite rate R";
  if (!std::isfinite(req.spec.V)) return "amopt: non-finite volatility V";
  if (!std::isfinite(req.spec.Y)) return "amopt: non-finite yield Y";
  if (!std::isfinite(req.spec.expiry_years))
    return "amopt: non-finite expiry_years";
  if (!(req.spec.S > 0.0) || !(req.spec.K > 0.0) || !(req.spec.V > 0.0) ||
      !(req.spec.expiry_years > 0.0))
    return "amopt: invalid option spec (need S, K, V, expiry_years > 0)";
  // The lattice models price T == 0 as intrinsic value; the BSM FDM grid
  // needs at least one step (derive_bsm contract).
  if (req.T < 0 || (req.model == Model::bsm && req.T < 1))
    return req.model == Model::bsm ? "amopt: bsm needs T >= 1"
                                   : "amopt: invalid step count T (need T >= 0)";
  if ((compute & Compute::greeks) != 0u && req.T < 2)
    return "amopt: greeks need T >= 2";
  // A solver override travels with the request (and over the wire); the
  // solvers enforce base_case >= 1 with an aborting contract check too.
  if (req.solver.has_value() && req.solver->base_case < 1)
    return "amopt: invalid solver base_case (need >= 1)";
  if ((compute & Compute::implied_vol) != 0u) {
    if (req.T < 1) return "amopt: implied vol needs T >= 1";
    if (!std::isfinite(req.target_price))
      return "amopt: non-finite implied-vol target price";
    // Mirrors the free functions' AMOPT_EXPECTS on the bracket; NaNs fail.
    // Infinite vol_hi would feed Inf trial vols into the pricers.
    if (!(req.iv.vol_lo > 0.0) || !(req.iv.vol_hi > req.iv.vol_lo) ||
        !std::isfinite(req.iv.vol_hi))
      return "amopt: invalid implied-vol bracket (need 0 < vol_lo < vol_hi)";
  }
  return {};
}

}  // namespace

void Pricer::run_item(const PricingRequest& req, stencil::KernelCache* kernels,
                      PricingResult& out) {
  const unsigned compute = effective_compute(req);
  if (!supports(req.model, req.right, req.style, req.engine)) {
    out.status = Status::unsupported;
    out.message =
        detail::unsupported_message(req.model, req.right, req.style, req.engine);
    return;
  }
  if (!supports(req.model, req.right, req.style, req.engine, compute)) {
    out.status = Status::unsupported;
    out.message = "amopt: greeks need bopm/american/fft; implied vol needs "
                  "bopm/american/fft or bsm/american/boundary (requested " +
                  std::string(to_string(req.model)) + "/" +
                  std::string(to_string(req.style)) + "/" +
                  std::string(to_string(req.engine)) + ")";
    return;
  }

  const core::SolverConfig cfg = req.solver.value_or(cfg_.solver);
  out.status = Status::ok;

  if ((compute & Compute::greeks) != 0u) {
    // Every finite-difference leg flows through the session's bumped-price
    // store (the greeks warm-start): a repeated greeks request over an
    // unchanged contract replays its legs instead of re-pricing them.
    const RepriceFn reprice = [&](const OptionSpec& s) {
      return price_cached_memo(s, req, cfg);
    };
    out.greeks =
        req.right == Right::call
            ? american_call_greeks_bopm(req.spec, req.T, cfg, reprice, kernels)
            : american_put_greeks_bopm(req.spec, req.T, cfg, reprice);
    out.price = out.greeks.price;
  }

  if ((compute & Compute::price) != 0u) {
    // The put greeks' base evaluation IS price_with_cache of the same spec
    // through the same session caches (bit-identical), so don't pay for it
    // twice. The call's greeks price is the low-node g00 of a different
    // descent split, so the price target keeps its own authoritative run.
    const bool priced_by_greeks =
        (compute & Compute::greeks) != 0u && req.right == Right::put;
    if (!priced_by_greeks) {
      if (req.engine == Engine::boundary && req.model == Model::bsm &&
          req.style == Style::american)
        // Through the session's node-table cache (price_cached routes
        // boundary items there; no kernel cache applies to this engine).
        out.price = price_cached(req.spec, req, cfg);
      else
        out.price = detail::price_with_cache(req.spec, req.T, req.model,
                                             req.right, req.style, req.engine,
                                             cfg, kernels);
    }
  }

  if ((compute & Compute::implied_vol) != 0u) {
    ImpliedVolConfig ivc = req.iv;
    ivc.T = req.T;  // the request's discretization governs every evaluation
    detail::clamp_vol_bracket(req.spec, ivc);
    run_implied_vol(req, ivc, cfg, out);
    if (!out.implied_vol.converged) {
      out.status = Status::failed_to_converge;
      out.message = "amopt: implied vol did not converge (target " +
                    std::to_string(req.target_price) + " after " +
                    std::to_string(out.implied_vol.iterations) +
                    " iterations)";
    }
  }
}

namespace {

/// Contract identity for the warm-root store: everything an implied-vol
/// evaluation depends on except the vol being solved for and the quote.
/// The (clamped) bracket is part of the key — a caller narrowing vol_lo /
/// vol_hi must not inherit a root that was admissible under wider bounds —
/// and so is the resolved solver configuration, because the stored prices
/// were produced under it (different configs agree only to rounding, and
/// the zero-evaluation accept must never lean on a price the current
/// configuration did not produce).
[[nodiscard]] std::string iv_key(const PricingRequest& req,
                                 const ImpliedVolConfig& ivc,
                                 const core::SolverConfig& cfg) {
  const double fields[] = {req.spec.S,          req.spec.K, req.spec.R,
                           req.spec.Y,          req.spec.expiry_years,
                           ivc.vol_lo,          ivc.vol_hi};
  std::string key(reinterpret_cast<const char*>(fields), sizeof(fields));
  const std::int64_t tags[] = {req.T,
                               static_cast<std::int64_t>(req.model),
                               static_cast<std::int64_t>(req.right),
                               static_cast<std::int64_t>(req.style),
                               static_cast<std::int64_t>(req.engine),
                               static_cast<std::int64_t>(cfg.base_case),
                               static_cast<std::int64_t>(cfg.parallel),
                               static_cast<std::int64_t>(cfg.alo_nodes),
                               static_cast<std::int64_t>(cfg.alo_quad),
                               static_cast<std::int64_t>(cfg.alo_iterations)};
  key.append(reinterpret_cast<const char*>(tags), sizeof(tags));
  return key;
}

}  // namespace

void Pricer::run_implied_vol(const PricingRequest& req,
                             const ImpliedVolConfig& ivc,
                             const core::SolverConfig& cfg,
                             PricingResult& out) {
  // Record the last two distinct (vol, price) samples of this inversion so
  // a future tick on the same contract can warm-start its secant. Prices
  // are genuine pricer outputs independent of the quote, so reusing them
  // is exact, not an approximation.
  WarmRoot trace;
  int traced = 0;
  const auto price_of_vol = [&](double v) {
    OptionSpec s = req.spec;
    s.V = v;
    const double p = price_cached(s, req, cfg);
    if (traced == 0 || v != trace.v0) {
      trace.v1 = trace.v0;
      trace.p1 = trace.p0;
      trace.v0 = v;
      trace.p0 = p;
      ++traced;
    }
    return p;
  };

  const std::string key = iv_key(req, ivc, cfg);
  WarmRoot warm;
  bool have_warm = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = warm_roots_.find(key);
    if (it != warm_roots_.end()) {
      warm = it->second;
      // Belt and braces on top of the keyed bracket: seeds outside the
      // current bounds would corrupt the tightening logic.
      have_warm = warm.v0 > ivc.vol_lo && warm.v0 < ivc.vol_hi &&
                  warm.v1 > ivc.vol_lo && warm.v1 < ivc.vol_hi;
    }
  }

  if (!have_warm) {
    // Cold path: the exact bracketed Newton of the free functions
    // (bit-identical iterates; asserted in tests/test_pricer.cpp).
    out.implied_vol =
        detail::invert_implied_vol(price_of_vol, req.target_price, ivc);
  } else {
    // Warm path: the seeded secant of implied_vol.cpp — a quote tick
    // typically closes in 1-3 evaluations instead of the cold ~12, and
    // anything the warm budget cannot close falls back to the cold
    // bracketed Newton with its cheap out-of-range early exit.
    out.implied_vol = detail::invert_implied_vol_warm(
        price_of_vol, req.target_price, ivc, warm.v0, warm.p0, warm.v1,
        warm.p1);
  }

  if (out.implied_vol.converged && traced >= 2) {
    std::lock_guard<std::mutex> lock(mu_);
    // Bounded one-victim-at-a-time eviction (arbitrary hash-order victim):
    // keeps memory flat on a rotating contract universe without ever
    // dropping the whole warm state at once.
    if (warm_roots_.size() >= 65536 && !warm_roots_.contains(key))
      warm_roots_.erase(warm_roots_.begin());
    warm_roots_[key] = trace;
  }
}

namespace {

/// Truncate x to its leading `bits` significand bits (toward zero). The
/// normalized dt is truncated to 32 bits so that dt * T is EXACTLY
/// representable for every T < 2^21 — then expiry' = dt * T divides back to
/// dt bit for bit in derive_bopm/derive_topm/derive_bsm's expiry/T, which
/// is the channel that makes the group's tap vectors coincide. (Nudging
/// the expiry a few ulps instead does NOT work: one ulp of expiry moves
/// fl(expiry/T) by ~2 ulps of dt, so a full-precision dt target is often
/// unreachable.) The truncation perturbs dt by < 2^-32 relative — orders
/// below the lattice's own discretization error.
[[nodiscard]] double truncate_significand(double x, int bits) {
  int exp = 0;
  const double m = std::frexp(x, &exp);  // m in [0.5, 1)
  const double scale = std::ldexp(1.0, bits);
  return std::ldexp(std::floor(m * scale) / scale, exp);
}

constexpr std::int64_t kMaxNormalizedT = std::int64_t{1} << 21;

/// Logarithmic bucket id for one sharing-key field at relative tolerance
/// `quantum`: values share a bucket only when their ratio is below
/// (1 + quantum), sign-separated, with 0 matching only exact 0. floor()
/// semantics make the bucketing conservative — two values straddling a
/// bucket boundary never share even if pairwise closer than the quantum —
/// and order-independent (no pairwise clustering, so the grouping cannot
/// depend on batch order).
[[nodiscard]] std::int64_t quantize_field(double x, double quantum) {
  if (x == 0.0) return std::numeric_limits<std::int64_t>::min();
  const std::int64_t bucket = static_cast<std::int64_t>(
      std::floor(std::log(std::abs(x)) / std::log1p(quantum)));
  // Fold the sign in without colliding adjacent buckets: the bucket index
  // of any finite double is far below 2^61 in magnitude.
  return x > 0.0 ? bucket : (std::int64_t{1} << 62) + bucket;
}

}  // namespace

void Pricer::normalize_expiries(std::vector<PricingRequest>& reqs,
                                double quantum) {
  // Group by everything that shapes the derived taps except the time step:
  // model/right/style (the lattice family) and the spec's rate, vol, and
  // yield. Strike and spot never enter the taps, so an ordinary
  // strikes-by-expiries chain collapses into one group per (model, vol).
  // quantum == 0 keys on the exact field bytes (the historical grouping,
  // byte for byte); quantum > 0 keys on logarithmic buckets so
  // near-identical legs (recalibration-tick vol drift) group together.
  std::unordered_map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const PricingRequest& q = reqs[i];
    if (q.engine != Engine::fft || q.T < 1) continue;
    if (!(q.spec.expiry_years > 0.0) || !(q.spec.V > 0.0)) continue;
    std::string key;
    if (quantum > 0.0) {
      const std::int64_t buckets[] = {quantize_field(q.spec.R, quantum),
                                      quantize_field(q.spec.V, quantum),
                                      quantize_field(q.spec.Y, quantum)};
      key.assign(reinterpret_cast<const char*>(buckets), sizeof(buckets));
    } else {
      const double fields[] = {q.spec.R, q.spec.V, q.spec.Y};
      key.assign(reinterpret_cast<const char*>(fields), sizeof(fields));
    }
    const std::int64_t tags[] = {static_cast<std::int64_t>(q.model),
                                 static_cast<std::int64_t>(q.right),
                                 static_cast<std::int64_t>(q.style)};
    key.append(reinterpret_cast<const char*>(tags), sizeof(tags));
    groups[key].push_back(i);
  }
  for (auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    if (quantum > 0.0) {
      // Snap the group's (R, V, Y) onto one representative so the derived
      // taps coincide bit for bit — sharing a kernel cache entry requires
      // equal taps, not merely close ones. The representative is the
      // lexicographically smallest member tuple: order-independent, and an
      // actually-requested spec (no synthesized midpoint). Each field moves
      // by at most `quantum` relative (the bucket width); a group of
      // identical tuples snaps onto itself, changing nothing.
      const auto tuple_of = [&reqs](std::size_t i) {
        return std::array<double, 3>{reqs[i].spec.R, reqs[i].spec.V,
                                     reqs[i].spec.Y};
      };
      std::size_t rep = members.front();
      for (const std::size_t i : members)
        if (tuple_of(i) < tuple_of(rep)) rep = i;
      const std::array<double, 3> snap = tuple_of(rep);
      for (const std::size_t i : members) {
        reqs[i].spec.R = snap[0];
        reqs[i].spec.V = snap[1];
        reqs[i].spec.Y = snap[2];
      }
    }
    // The group's finest step: normalization only ever refines (T never
    // decreases), so no item gets a coarser price than it asked for. The
    // 32-bit truncation makes dt* * T exact below kMaxNormalizedT.
    double dt_star = std::numeric_limits<double>::infinity();
    for (const std::size_t i : members)
      dt_star = std::min(dt_star, reqs[i].spec.expiry_years /
                                      static_cast<double>(reqs[i].T));
    dt_star = truncate_significand(dt_star, 32);
    if (!(dt_star > 0.0)) continue;
    for (const std::size_t i : members) {
      PricingRequest& q = reqs[i];
      const std::int64_t Tn =
          std::llround(q.spec.expiry_years / dt_star);
      // Guard against pathological mixes (a 5-year leg normalized to a
      // 1-week leg's dt would inflate its lattice unboundedly): such items
      // keep their own discretization and simply do not share.
      if (Tn < q.T || Tn > 8 * q.T || Tn >= kMaxNormalizedT) continue;
      const double e = dt_star * static_cast<double>(Tn);  // exact product
      if (!(e > 0.0) || e / static_cast<double>(Tn) != dt_star) continue;
      q.T = Tn;
      q.spec.expiry_years = e;  // |e - requested| <= dt*/2 + ulps: sub-step
    }
  }
}

std::vector<PricingResult> Pricer::price_many(
    std::span<const PricingRequest> requests) {
  std::vector<PricingResult> out;
  BatchScratch scratch;
  price_many_into(requests, out, scratch);
  return out;
}

void Pricer::price_many_into(std::span<const PricingRequest> requests,
                             std::vector<PricingResult>& out,
                             BatchScratch& scratch) {
  out.assign(requests.size(), PricingResult{});
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++batches_;
  }
  if (requests.empty()) return;

  // Opt-in cross-expiry kernel sharing: renormalize a copy of the batch so
  // commensurate expiries derive bit-equal taps and the grouping below
  // lands them in ONE registry entry (see PricerConfig).
  if (cfg_.share_expiries.has_value()) {
    scratch.normalized.assign(requests.begin(), requests.end());
    normalize_expiries(scratch.normalized, *cfg_.share_expiries);
    requests = scratch.normalized;
  }

  // Group phase (serial): resolve each item's tap-group cache up front so
  // the fan-out threads share warm groups instead of racing to build them.
  // The CachePtr copies keep every group alive for the whole batch even if
  // the LRU rotates meanwhile. Deriving model parameters can itself reject
  // a bad quote (e.g. a vol too small for a valid CRR lattice) — that must
  // surface as that item's Status, not as a batch-wide throw.
  std::vector<CachePtr>& cache_of = scratch.cache_of;
  cache_of.assign(requests.size(), nullptr);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PricingRequest& q = requests[i];
    std::string invalid = validate_request(q);
    if (!invalid.empty()) {
      out[i].status = Status::error;
      // Materialize the exception too: PricingResult documents `error` as
      // set whenever status == error, and callers may rethrow it.
      out[i].error = std::make_exception_ptr(std::invalid_argument(invalid));
      out[i].message = std::move(invalid);
      continue;
    }
    if (q.engine != Engine::fft || q.T < 1) continue;
    const unsigned compute = effective_compute(q);
    // Items run_item will reject must not pollute the LRU with a group.
    if (!supports(q.model, q.right, q.style, q.engine, compute)) continue;
    // Implied-vol-only items never evaluate the request's own spec.V, so a
    // prefetched group would just pollute the LRU; their trial vols fetch
    // their groups through price_cached instead.
    if ((compute & (Compute::price | Compute::greeks)) == 0u) continue;
    try {
      cache_of[i] = cache_for(
          detail::shared_cache_stencil(q.spec, q.T, q.model, q.right, q.style,
                                       q.engine),
          Tier::base);
    } catch (const std::exception& e) {
      out[i].status = Status::error;
      out[i].message = e.what();
      out[i].error = std::current_exception();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    requests_ += requests.size();
  }

  const auto serve = [&](std::size_t i) {
    if (out[i].status == Status::error) return;  // failed in the group phase
    try {
      run_item(requests[i], cache_of[i].get(), out[i]);
    } catch (const std::exception& e) {
      out[i].status = Status::error;
      out[i].message = e.what();
      out[i].error = std::current_exception();
    } catch (...) {
      out[i].status = Status::error;
      out[i].message = "amopt: unknown error";
      out[i].error = std::current_exception();
    }
  };

  auto& pool = core::TaskPool::instance();
  if (requests.size() > 1 && cfg_.threads != 1 &&
      pool.concurrency() > 1) {
    // Parallelize across items, one index at a time off a shared counter.
    // An item served on a pool worker still forks its descent onto that
    // worker's deque; one served on the calling thread forks inline.
    pool.for_each(static_cast<std::ptrdiff_t>(requests.size()), serve,
                  cfg_.threads);
  } else {
    // Single item (or serial session): keep the solver's own internal
    // parallelism available, like a legacy scalar price() call.
    for (std::size_t i = 0; i < requests.size(); ++i) serve(i);
  }
}

PricingResult Pricer::price_one(const PricingRequest& request) {
  return price_many({&request, 1}).front();
}

namespace {

[[nodiscard]] std::vector<PricingRequest> with_compute(
    std::span<const PricingRequest> requests, unsigned compute) {
  std::vector<PricingRequest> reqs(requests.begin(), requests.end());
  for (PricingRequest& q : reqs) q.compute = compute;
  return reqs;
}

}  // namespace

std::vector<PricingResult> Pricer::greeks_many(
    std::span<const PricingRequest> requests) {
  return price_many(with_compute(requests, Compute::greeks));
}

std::vector<PricingResult> Pricer::implied_vol_many(
    std::span<const PricingRequest> requests) {
  return price_many(with_compute(requests, Compute::implied_vol));
}

Pricer::Stats Pricer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.base_kernel_caches = base_caches_.size();
  s.transient_kernel_caches = transient_caches_.size();
  s.kernel_caches = s.base_kernel_caches + s.transient_kernel_caches;
  s.node_tables = node_tables_.size();
  s.cache_hits = hits_;
  s.cache_misses = misses_;
  s.requests = requests_;
  s.warm_roots = warm_roots_.size();
  s.warm_bump_prices = bump_prices_.size();
  s.bump_price_hits = bump_hits_;
  s.batches = batches_;
  s.scratch_total_bytes = core::aggregate_scratch().total_bytes;
  const stencil::SpectrumBudget::Stats b = spectrum_budget_->stats();
  s.spectrum_bytes = b.bytes;
  s.spectrum_entries = b.entries;
  s.spectrum_evictions = b.evictions;
  return s;
}

void Pricer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  base_caches_.clear();
  transient_caches_.clear();
  node_tables_.clear();
  warm_roots_.clear();
  bump_prices_.clear();
  spectrum_budget_ = std::make_shared<stencil::SpectrumBudget>(kSpectrumBytes);
  tick_ = hits_ = misses_ = requests_ = bump_hits_ = batches_ = 0;
}

}  // namespace amopt::pricing
