#include "amopt/pricing/api.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "amopt/baselines/baselines.hpp"
#include "amopt/pricing/alo/alo_engine.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/pricing/topm.hpp"
#include "amopt/stencil/kernel_cache.hpp"

namespace amopt::pricing {

std::string_view to_string(Model m) {
  switch (m) {
    case Model::bopm: return "bopm";
    case Model::topm: return "topm";
    case Model::bsm: return "bsm";
  }
  return "?";
}
std::string_view to_string(Right r) {
  return r == Right::call ? "call" : "put";
}
std::string_view to_string(Style s) {
  return s == Style::american ? "american" : "european";
}
std::string_view to_string(Engine e) {
  switch (e) {
    case Engine::fft: return "fft";
    case Engine::vanilla: return "vanilla";
    case Engine::vanilla_parallel: return "vanilla-parallel";
    case Engine::tiled: return "tiled";
    case Engine::cache_oblivious: return "cache-oblivious";
    case Engine::quantlib: return "quantlib";
    case Engine::boundary: return "boundary";
  }
  return "?";
}

namespace detail {

std::string unsupported_message(Model m, Right r, Style s, Engine e) {
  return std::string("amopt: unsupported combination ") +
         std::string(to_string(m)) + "/" + std::string(to_string(r)) + "/" +
         std::string(to_string(s)) + "/" + std::string(to_string(e));
}

namespace {

[[noreturn]] void unsupported(Model m, Right r, Style s, Engine e) {
  throw std::invalid_argument(unsupported_message(m, r, s, e));
}

}  // namespace

double price_with_cache(const OptionSpec& spec, std::int64_t T, Model model,
                        Right right, Style style, Engine engine,
                        core::SolverConfig cfg,
                        stencil::KernelCache* kernels) {
  if (style == Style::european) {
    if (model == Model::bopm && right == Right::call)
      return engine == Engine::fft ? bopm::european_call_fft(spec, T, kernels)
                                   : bopm::european_call_vanilla(spec, T);
    if (model == Model::bopm && right == Right::put)
      return engine == Engine::fft ? bopm::european_put_fft(spec, T, kernels)
                                   : bopm::european_put_vanilla(spec, T);
    if (model == Model::topm && right == Right::call)
      return engine == Engine::fft ? topm::european_call_fft(spec, T, kernels)
                                   : topm::european_call_vanilla(spec, T);
    if (model == Model::bsm && right == Right::put)
      return bsm::european_put_fdm(spec, T);
    unsupported(model, right, style, engine);
  }

  switch (model) {
    case Model::bopm:
      if (right == Right::call) {
        switch (engine) {
          case Engine::fft:
            return bopm::american_call_fft(spec, T, cfg, kernels);
          case Engine::vanilla: return bopm::american_call_vanilla(spec, T);
          case Engine::vanilla_parallel:
            return bopm::american_call_vanilla_parallel(spec, T);
          case Engine::tiled:
            return baselines::zubair_american_call(spec, T);
          case Engine::cache_oblivious:
            return baselines::cache_oblivious_american_call(spec, T);
          case Engine::quantlib:
            return baselines::quantlib_style_american_call(spec, T);
          case Engine::boundary: unsupported(model, right, style, engine);
        }
      } else {
        switch (engine) {
          case Engine::fft:
            return bopm::american_put_fft(spec, T, cfg, kernels);
          case Engine::vanilla: return bopm::american_put_vanilla(spec, T);
          default: unsupported(model, right, style, engine);
        }
      }
      break;
    case Model::topm:
      if (right == Right::call) {
        switch (engine) {
          case Engine::fft:
            return topm::american_call_fft(spec, T, cfg, kernels);
          case Engine::vanilla: return topm::american_call_vanilla(spec, T);
          case Engine::vanilla_parallel:
            return topm::american_call_vanilla_parallel(spec, T);
          default: unsupported(model, right, style, engine);
        }
      } else {
        switch (engine) {
          case Engine::fft: return topm::american_put_fft(spec, T, cfg);
          case Engine::vanilla: return topm::american_put_vanilla(spec, T);
          default: unsupported(model, right, style, engine);
        }
      }
      break;
    case Model::bsm:
      // The boundary engine serves BOTH rights (the only American call
      // path under BSM, via put-call symmetry). No kernel cache applies;
      // session callers pass their cached NodeTable through
      // Pricer::price_cached instead of this null-table convenience path.
      if (engine == Engine::boundary)
        return alo::american_price(spec, right, cfg, nullptr);
      if (right == Right::put) {
        switch (engine) {
          case Engine::fft:
            return bsm::american_put_fft(spec, T, cfg, kernels);
          case Engine::vanilla: return bsm::american_put_vanilla(spec, T);
          case Engine::vanilla_parallel:
            return bsm::american_put_vanilla_parallel(spec, T);
          default: unsupported(model, right, style, engine);
        }
      }
      unsupported(model, right, style, engine);
  }
  unsupported(model, right, style, engine);
}

stencil::LinearStencil shared_cache_stencil(const OptionSpec& spec,
                                            std::int64_t T, Model model,
                                            Right right, Style style,
                                            Engine engine) {
  if (engine != Engine::fft || T <= 0) return {};
  switch (model) {
    case Model::bopm: {
      // The American put descends the call lattice of the swapped spec.
      const BopmParams prm =
          derive_bopm(right == Right::put && style == Style::american
                          ? symmetric_call_spec(spec)
                          : spec,
                      T);
      return {{prm.s0, prm.s1}, 0};
    }
    case Model::topm: {
      if (right != Right::call) return {};
      const TopmParams prm = derive_topm(spec, T);
      return {{prm.s0, prm.s1, prm.s2}, 0};
    }
    case Model::bsm: {
      if (right != Right::put || style != Style::american) return {};
      const BsmParams prm = derive_bsm(spec, T);
      return {{prm.b, prm.c, prm.a}, -1};  // centered FDM stencil
    }
  }
  return {};
}

}  // namespace detail

namespace {

/// Legacy throwing semantics over a session result: unsupported and
/// invalid-request outcomes -> std::invalid_argument, pricer failure ->
/// the original exception.
double unwrap(const PricingResult& res) {
  if (res.error) std::rethrow_exception(res.error);
  if (!res.ok()) throw std::invalid_argument(res.message);
  return res.price;
}

}  // namespace

double price(const OptionSpec& spec, std::int64_t T, Model model, Right right,
             Style style, Engine engine, core::SolverConfig cfg) {
  Pricer session(PricerConfig{.solver = cfg});
  PricingRequest req;
  req.spec = spec;
  req.T = T;
  req.model = model;
  req.right = right;
  req.style = style;
  req.engine = engine;
  return unwrap(session.price_one(req));
}

std::vector<double> price_batch(std::span<const OptionSpec> chain,
                                std::int64_t T, Model model, Right right,
                                Style style, Engine engine,
                                core::SolverConfig cfg) {
  std::vector<double> out(chain.size(), 0.0);
  if (chain.empty()) return out;

  Pricer session(PricerConfig{.solver = cfg});
  std::vector<PricingRequest> reqs(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    reqs[i].spec = chain[i];
    reqs[i].T = T;
    reqs[i].model = model;
    reqs[i].right = right;
    reqs[i].style = style;
    reqs[i].engine = engine;
  }
  const std::vector<PricingResult> results = session.price_many(reqs);
  for (std::size_t i = 0; i < results.size(); ++i) out[i] = unwrap(results[i]);
  return out;
}

}  // namespace amopt::pricing
