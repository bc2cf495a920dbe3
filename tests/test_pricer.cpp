// The session API: Pricer::supports must agree with the per-item Status of
// price_many for EVERY Model x Right x Style x Engine combination, session
// results must be bit-identical to the legacy free functions, and the
// greeks / implied-vol layers must reproduce their free-function
// counterparts while reusing the session's kernel caches.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/greeks.hpp"
#include "amopt/pricing/implied_vol.hpp"
#include "amopt/pricing/pricer.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

constexpr Model kModels[] = {Model::bopm, Model::topm, Model::bsm};
constexpr Right kRights[] = {Right::call, Right::put};
constexpr Style kStyles[] = {Style::american, Style::european};
constexpr Engine kEngines[] = {Engine::fft,   Engine::vanilla,
                               Engine::vanilla_parallel, Engine::tiled,
                               Engine::cache_oblivious,  Engine::quantlib};

[[nodiscard]] std::vector<PricingRequest> all_combinations(std::int64_t T) {
  std::vector<PricingRequest> reqs;
  for (Model m : kModels)
    for (Right r : kRights)
      for (Style s : kStyles)
        for (Engine e : kEngines) {
          PricingRequest q;
          q.spec = paper_spec();
          q.T = T;
          q.model = m;
          q.right = r;
          q.style = s;
          q.engine = e;
          reqs.push_back(q);
        }
  return reqs;
}

TEST(Pricer, CapabilityMatrixMatchesPerItemStatus) {
  // One heterogeneous batch over the full 72-combination matrix: the
  // advertised capability must coincide with what actually prices, and
  // unsupported items must report status instead of throwing.
  Pricer session;
  const std::vector<PricingRequest> reqs = all_combinations(128);
  const std::vector<PricingResult> res = session.price_many(reqs);
  ASSERT_EQ(res.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const PricingRequest& q = reqs[i];
    const bool advertised =
        Pricer::supports(q.model, q.right, q.style, q.engine);
    if (advertised) {
      EXPECT_EQ(res[i].status, Status::ok)
          << to_string(q.model) << "/" << to_string(q.right) << "/"
          << to_string(q.style) << "/" << to_string(q.engine) << ": "
          << res[i].message;
      EXPECT_TRUE(std::isfinite(res[i].price));
      EXPECT_GE(res[i].price, 0.0);
    } else {
      EXPECT_EQ(res[i].status, Status::unsupported)
          << to_string(q.model) << "/" << to_string(q.right) << "/"
          << to_string(q.style) << "/" << to_string(q.engine);
      EXPECT_FALSE(res[i].message.empty());
      EXPECT_TRUE(std::isnan(res[i].price));
    }
  }
}

TEST(Pricer, SessionPricesBitIdenticalToFreeFunctions) {
  Pricer session;
  for (const PricingRequest& q : all_combinations(96)) {
    if (!Pricer::supports(q.model, q.right, q.style, q.engine)) {
      EXPECT_THROW((void)price(q.spec, q.T, q.model, q.right, q.style,
                               q.engine),
                   std::invalid_argument);
      continue;
    }
    const PricingResult res = session.price_one(q);
    ASSERT_EQ(res.status, Status::ok) << res.message;
    EXPECT_EQ(res.price, price(q.spec, q.T, q.model, q.right, q.style,
                               q.engine))
        << to_string(q.model) << "/" << to_string(q.right) << "/"
        << to_string(q.style) << "/" << to_string(q.engine);
  }
}

TEST(Pricer, WarmSessionStaysBitIdenticalAcrossRepeats) {
  // Second serve hits the session's warm kernel caches; the arithmetic, and
  // therefore the bits, must not change.
  Pricer session;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 512;
  const double cold = session.price_one(q).price;
  const double warm = session.price_one(q).price;
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, bopm::american_call_fft(q.spec, q.T));
  const Pricer::Stats st = session.stats();
  EXPECT_GE(st.cache_hits, 1u);  // the repeat found its tap group warm
}

TEST(Pricer, MixedChainReportsPerItemStatusWithoutThrowing) {
  std::vector<PricingRequest> reqs(3);
  for (PricingRequest& q : reqs) {
    q.spec = paper_spec();
    q.T = 128;
  }
  reqs[0].model = Model::bopm;                       // supported
  reqs[1].model = Model::bsm;                        // bsm call: unsupported
  reqs[1].right = Right::call;
  reqs[2].model = Model::topm;                       // unsupported engine
  reqs[2].engine = Engine::quantlib;

  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.price_many(reqs));
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].status, Status::ok);
  EXPECT_EQ(res[1].status, Status::unsupported);
  EXPECT_EQ(res[2].status, Status::unsupported);
  EXPECT_NE(res[1].message.find("bsm/call"), std::string::npos);
}

TEST(Pricer, LegacyTZeroIntrinsicValueStillWorks) {
  // The seed pricers accept T == 0 (intrinsic value); the session and the
  // thin wrappers must not regress that.
  OptionSpec spec = paper_spec();  // K=130 > S=127.62: put is in the money
  EXPECT_EQ(price(spec, 0, Model::bopm, Right::put), spec.K - spec.S);
  EXPECT_EQ(price(spec, 0, Model::bopm, Right::call), 0.0);
  PricingRequest q;
  q.spec = spec;
  q.T = 0;
  q.right = Right::put;
  Pricer session;
  const PricingResult res = session.price_one(q);
  EXPECT_EQ(res.status, Status::ok);
  EXPECT_EQ(res.price, spec.K - spec.S);

  // The BSM grid has no T=0 analogue (derive_bsm needs a step): per-item
  // error, not a contract abort.
  q.model = Model::bsm;
  const PricingResult bsm0 = session.price_one(q);
  EXPECT_EQ(bsm0.status, Status::error);
  EXPECT_NE(bsm0.message.find("bsm"), std::string::npos);
}

TEST(Pricer, InvalidSpecInChainBecomesPerItemErrorNotAbort) {
  // derive_* enforce V > 0 etc. and the solvers base_case >= 1 with
  // aborting contract checks; the session must validate requests at the
  // boundary so a V=0 item or a base_case=0 solver override reports
  // Status::error while the rest of the chain prices.
  std::vector<PricingRequest> reqs(4);
  for (PricingRequest& q : reqs) {
    q.spec = paper_spec();
    q.T = 128;
  }
  reqs[1].spec.V = 0.0;
  reqs[2].solver = core::SolverConfig{};
  reqs[2].solver->base_case = 0;
  reqs[3] = reqs[2];  // the BSM FDM solver carries the same contract
  reqs[3].model = Model::bsm;
  reqs[3].right = Right::put;
  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.price_many(reqs));
  EXPECT_EQ(res[0].status, Status::ok);
  EXPECT_EQ(res[1].status, Status::error);
  EXPECT_NE(res[1].message.find("invalid option spec"), std::string::npos);
  for (int i : {2, 3}) {
    EXPECT_EQ(res[i].status, Status::error) << i;
    EXPECT_NE(res[i].message.find("base_case"), std::string::npos)
        << "the diagnostic must name the bad field: " << res[i].message;
  }
  // And the legacy wrapper surfaces it as invalid_argument, not an abort.
  EXPECT_THROW((void)price(reqs[1].spec, 128, Model::bopm, Right::call),
               std::invalid_argument);
}

TEST(Pricer, NonFiniteFieldsBecomePerItemErrorsAcrossEngines) {
  // NaN/Inf in ANY quote field must stop at the session boundary with a
  // field-naming Status::error — never flow into a solver as lattice
  // drift or a boundary node. Every field, both non-finite flavors, across
  // a lattice engine, the vanilla reference, and the boundary engine.
  struct FieldCase {
    const char* name;
    void (*poison)(OptionSpec&, double);
  };
  const FieldCase kFields[] = {
      {"S", [](OptionSpec& s, double v) { s.S = v; }},
      {"K", [](OptionSpec& s, double v) { s.K = v; }},
      {"R", [](OptionSpec& s, double v) { s.R = v; }},
      {"V", [](OptionSpec& s, double v) { s.V = v; }},
      {"Y", [](OptionSpec& s, double v) { s.Y = v; }},
      {"expiry_years", [](OptionSpec& s, double v) { s.expiry_years = v; }},
  };
  const double kPoisons[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

  Pricer session;
  for (int eng = 0; eng < 3; ++eng) {
    PricingRequest base;
    base.spec = paper_spec();
    base.T = 64;
    if (eng == 1) base.engine = Engine::vanilla;
    if (eng == 2) {
      base.model = Model::bsm;
      base.right = Right::put;
      base.engine = Engine::boundary;
    }
    for (const FieldCase& f : kFields) {
      for (double poison : kPoisons) {
        // The poisoned item rides next to a healthy one: the error is
        // per-item, the chain keeps pricing.
        std::vector<PricingRequest> reqs(2, base);
        f.poison(reqs[1].spec, poison);
        std::vector<PricingResult> res;
        ASSERT_NO_THROW(res = session.price_many(reqs))
            << "engine " << eng << " field " << f.name;
        EXPECT_EQ(res[0].status, Status::ok)
            << "engine " << eng << " field " << f.name;
        EXPECT_EQ(res[1].status, Status::error)
            << "engine " << eng << " field " << f.name << " = " << poison;
        EXPECT_NE(res[1].message.find("non-finite"), std::string::npos);
        EXPECT_NE(res[1].message.find(f.name), std::string::npos)
            << "the diagnostic must name the bad field: " << res[1].message;
      }
    }
  }
}

TEST(Pricer, NonFiniteImpliedVolInputsAreRejectedAtTheBoundary) {
  // The IV inversion has its own inputs: a NaN quote or a non-finite
  // bracket edge must be a per-item error, not a Newton iteration on NaN.
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 64;
  q.compute = Compute::implied_vol;
  q.target_price = std::numeric_limits<double>::quiet_NaN();
  q.iv.vol_lo = 0.05;
  q.iv.vol_hi = 2.0;
  Pricer session;
  std::vector<PricingResult> res = session.price_many({&q, 1});
  EXPECT_EQ(res.at(0).status, Status::error);
  EXPECT_NE(res[0].message.find("non-finite"), std::string::npos);

  q.target_price = 6.0;
  q.iv.vol_hi = std::numeric_limits<double>::infinity();
  res = session.price_many({&q, 1});
  EXPECT_EQ(res.at(0).status, Status::error);
}

TEST(Pricer, BadQuoteInChainFailsAloneNotTheBatch) {
  // A vol too small for a valid CRR lattice (risk-neutral probability
  // outside (0,1)) makes derive_bopm throw during the tap-grouping phase;
  // the batch must absorb that into the item's Status and keep pricing the
  // healthy quotes.
  std::vector<PricingRequest> reqs(2);
  reqs[0].spec = paper_spec();
  reqs[0].T = 128;
  reqs[1].spec = paper_spec();
  reqs[1].spec.V = 0.01;  // with R >> V the lattice drift outruns the moves
  reqs[1].spec.R = 0.2;
  reqs[1].T = 128;

  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.price_many(reqs));
  EXPECT_EQ(res[0].status, Status::ok);
  EXPECT_EQ(res[0].price, price(reqs[0].spec, 128, Model::bopm, Right::call));
  EXPECT_EQ(res[1].status, Status::error);
  EXPECT_NE(res[1].error, nullptr);
  EXPECT_FALSE(res[1].message.empty());
}

TEST(Pricer, BsmChainSharesOneKernelCache) {
  // A put strike ladder collapses to one tap group: the BSM FDM solver
  // takes an injected cache (identical b, c, a taps), and the BOPM put
  // descends the swapped call's lattice, whose taps the strike does not
  // enter either.
  for (const Model model : {Model::bsm, Model::bopm}) {
    std::vector<PricingRequest> reqs;
    for (double k : {110.0, 120.0, 130.0, 140.0}) {
      PricingRequest q;
      q.spec = paper_spec();
      q.spec.K = k;
      q.T = 256;
      q.model = model;
      q.right = Right::put;
      reqs.push_back(q);
    }
    Pricer session;
    const std::vector<PricingResult> res = session.price_many(reqs);
    const Pricer::Stats st = session.stats();
    EXPECT_EQ(st.cache_misses, 1u) << to_string(model);
    EXPECT_EQ(st.cache_hits, 3u) << to_string(model);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(res[i].status, Status::ok);
      EXPECT_EQ(res[i].price,
                price(reqs[i].spec, reqs[i].T, model, Right::put));
    }
  }
}

TEST(Pricer, GreeksManyMatchesFreeFunctions) {
  std::vector<PricingRequest> reqs(2);
  reqs[0].spec = paper_spec();
  reqs[0].T = 512;
  reqs[0].right = Right::call;
  reqs[1].spec = paper_spec();
  reqs[1].T = 512;
  reqs[1].right = Right::put;

  Pricer session;
  const std::vector<PricingResult> res = session.greeks_many(reqs);
  ASSERT_EQ(res[0].status, Status::ok) << res[0].message;
  ASSERT_EQ(res[1].status, Status::ok) << res[1].message;

  // Call greeks: identical arithmetic (shared caches change nothing).
  const Greeks c = american_call_greeks_bopm(paper_spec(), 512);
  EXPECT_EQ(res[0].greeks.price, c.price);
  EXPECT_EQ(res[0].greeks.delta, c.delta);
  EXPECT_EQ(res[0].greeks.gamma, c.gamma);
  EXPECT_EQ(res[0].greeks.theta, c.theta);
  EXPECT_EQ(res[0].greeks.vega, c.vega);
  EXPECT_EQ(res[0].greeks.rho, c.rho);
  EXPECT_EQ(res[0].price, c.price);

  // Put greeks: the session and the free function reprice through the
  // same put-call-symmetry pricer, so every leg — and every greek — is
  // bit-identical too.
  const Greeks p = american_put_greeks_bopm(paper_spec(), 512);
  EXPECT_EQ(res[1].greeks.price, p.price);
  EXPECT_EQ(res[1].greeks.delta, p.delta);
  EXPECT_EQ(res[1].greeks.gamma, p.gamma);
  EXPECT_EQ(res[1].greeks.theta, p.theta);
  EXPECT_EQ(res[1].greeks.vega, p.vega);
  EXPECT_EQ(res[1].greeks.rho, p.rho);
  EXPECT_EQ(res[1].price, p.price);
}

TEST(Pricer, ImpliedVolManyMatchesFreeInversionBitForBit) {
  // Round-trip: price a small ladder at a known vol, invert through the
  // session, compare against the free function AND the known vol.
  const std::int64_t T = 512;
  std::vector<PricingRequest> reqs;
  for (double k : {120.0, 130.0, 140.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = k;
    q.T = T;
    q.right = Right::put;  // rate-dominant put: early exercise matters
    q.spec.R = 0.05;
    q.spec.Y = 0.0;
    q.target_price = bopm::american_put_fft(q.spec, T);
    reqs.push_back(q);
  }
  Pricer session;
  const std::vector<PricingResult> res = session.implied_vol_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(res[i].status, Status::ok) << res[i].message;
    EXPECT_TRUE(res[i].implied_vol.converged);
    EXPECT_NEAR(res[i].implied_vol.vol, reqs[i].spec.V, 2e-4);

    ImpliedVolConfig cfg;
    cfg.T = T;
    const ImpliedVolResult ref = american_put_implied_vol(
        reqs[i].spec, reqs[i].target_price, cfg);
    // Same evaluations -> same Newton iterates -> identical bits.
    EXPECT_EQ(res[i].implied_vol.vol, ref.vol);
    EXPECT_EQ(res[i].implied_vol.iterations, ref.iterations);
  }
}

TEST(Pricer, WarmStartImpliedVolConvergesFasterToTheSameRoot) {
  const std::int64_t T = 512;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);

  Pricer session;
  const PricingResult cold = session.implied_vol_many({&q, 1}).front();
  ASSERT_TRUE(cold.implied_vol.converged);
  EXPECT_EQ(session.stats().warm_roots, 1u);

  // Tick the quote a few bp: the warm secant must land on the moved root
  // with (far) fewer evaluations than the cold bracketed Newton.
  PricingRequest ticked = q;
  ticked.target_price = q.target_price * 1.0003;
  const PricingResult warm = session.implied_vol_many({&ticked, 1}).front();
  ASSERT_TRUE(warm.implied_vol.converged);
  EXPECT_LT(warm.implied_vol.iterations, cold.implied_vol.iterations);
  EXPECT_GT(warm.implied_vol.vol, cold.implied_vol.vol);  // price rose

  // And it must agree with a cold inversion of the same moved quote.
  ImpliedVolConfig cfg;
  cfg.T = T;
  const ImpliedVolResult ref =
      american_call_implied_vol(q.spec, ticked.target_price, cfg);
  EXPECT_NEAR(warm.implied_vol.vol, ref.vol, 1e-6);
}

TEST(Pricer, ImpliedVolOutOfRangeReportsFailedToConverge) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 256;
  q.target_price = 2.0 * q.spec.S;  // a call is never worth more than S
  Pricer session;
  const PricingResult res = session.implied_vol_many({&q, 1}).front();
  EXPECT_EQ(res.status, Status::failed_to_converge);
  EXPECT_FALSE(res.implied_vol.converged);
  EXPECT_FALSE(res.message.empty());
}

TEST(Pricer, ImpliedVolBadBracketIsPerItemErrorNotAbort) {
  // The free functions reject vol_lo <= 0 with an aborting contract check;
  // at the session boundary the same bad config must become Status::error.
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  q.target_price = 5.0;
  q.iv.vol_lo = 0.0;
  q.spec.R = q.spec.Y;  // no drift: the validity clamp cannot rescue lo
  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.implied_vol_many({&q, 1}));
  EXPECT_EQ(res.front().status, Status::error);
  EXPECT_NE(res.front().message.find("bracket"), std::string::npos);
}

TEST(Pricer, WarmRootDoesNotLeakAcrossNarrowedBrackets) {
  // A root found under the default bracket must not satisfy a later
  // request whose configured bracket excludes it.
  const std::int64_t T = 256;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);  // root near V=0.2
  Pricer session;
  const PricingResult wide = session.implied_vol_many({&q, 1}).front();
  ASSERT_TRUE(wide.implied_vol.converged);
  ASSERT_NEAR(wide.implied_vol.vol, 0.2, 1e-3);

  PricingRequest narrowed = q;
  narrowed.iv.vol_hi = 0.1;  // the true root is now out of bounds
  const PricingResult res = session.implied_vol_many({&narrowed, 1}).front();
  EXPECT_EQ(res.status, Status::failed_to_converge);
  EXPECT_FALSE(res.implied_vol.converged);
}

TEST(Pricer, WarmSessionStillRejectsOutOfRangeQuotes) {
  // Converge once (stores a warm root), then push the quote out of the
  // attainable range: the warm secant must hand over to the cold bracketed
  // path and report failed-to-converge within the iteration budget instead
  // of burning it on bisection.
  const std::int64_t T = 256;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);
  Pricer session;
  ASSERT_TRUE(session.implied_vol_many({&q, 1}).front().implied_vol.converged);

  PricingRequest jumped = q;
  jumped.target_price = 2.0 * q.spec.S;
  const PricingResult res = session.implied_vol_many({&jumped, 1}).front();
  EXPECT_EQ(res.status, Status::failed_to_converge);
  EXPECT_LT(res.implied_vol.iterations, jumped.iv.max_iterations / 2);

  // And the warm root survives for the next sane quote.
  PricingRequest sane = q;
  sane.target_price = q.target_price * 1.0002;
  EXPECT_TRUE(session.implied_vol_many({&sane, 1}).front().implied_vol.converged);
}

TEST(Pricer, GreeksUnsupportedOutsideBopmAmericanFft) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  q.model = Model::topm;
  q.compute = Compute::price | Compute::greeks;
  Pricer session;
  const PricingResult res = session.price_one(q);
  EXPECT_EQ(res.status, Status::unsupported);
  EXPECT_FALSE(
      Pricer::supports(Model::topm, Right::call, Style::american, Engine::fft,
                       Compute::greeks));
  EXPECT_TRUE(
      Pricer::supports(Model::topm, Right::call, Style::american, Engine::fft,
                       Compute::price));
}

TEST(Pricer, LruEvictionKeepsResultsCorrect) {
  // Three more expiry groups than the base tier holds: groups rotate out
  // and are rebuilt, results never change.
  const std::size_t groups = Pricer::kBaseKernelCaches + 3;
  Pricer session;
  std::vector<PricingRequest> reqs;
  for (std::size_t g = 0; g < groups; ++g) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = 0.25 + 0.03 * static_cast<double>(g);
    q.T = 64;
    reqs.push_back(q);
  }
  for (int round = 0; round < 2; ++round) {
    const std::vector<PricingResult> res = session.price_many(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(res[i].status, Status::ok);
      EXPECT_EQ(res[i].price, bopm::american_call_fft(reqs[i].spec, 64));
    }
  }
  const Pricer::Stats st = session.stats();
  EXPECT_LE(st.kernel_caches, Pricer::kBaseKernelCaches);
  // More misses than items: the second round rebuilt evicted groups.
  EXPECT_GT(st.cache_misses, groups);
}

TEST(Pricer, PerRequestSolverOverride) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 512;
  core::SolverConfig sc;
  sc.base_case = 8;  // not the default: the override must reach the solver
  ASSERT_NE(sc.base_case, core::SolverConfig{}.base_case);
  q.solver = sc;
  Pricer session;
  const PricingResult res = session.price_one(q);
  ASSERT_EQ(res.status, Status::ok);
  EXPECT_EQ(res.price, bopm::american_call_fft(q.spec, q.T, sc));
}

TEST(Pricer, EmptyBatchAndClear) {
  Pricer session;
  EXPECT_TRUE(session.price_many({}).empty());
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  (void)session.price_one(q);
  EXPECT_GE(session.stats().kernel_caches, 1u);
  session.clear();
  const Pricer::Stats st = session.stats();
  EXPECT_EQ(st.kernel_caches, 0u);
  EXPECT_EQ(st.requests, 0u);
}

TEST(Pricer, TransientFloodCannotEvictBaseGroups) {
  // A chain's own tap groups live in the base tier; implied-vol trial
  // evaluations mint transient groups in their own (smaller) LRU. Flooding
  // the session with trial vols must leave every base group warm.
  Pricer session;

  std::vector<PricingRequest> chain;
  for (double e : {0.5, 1.0, 2.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = e;
    q.T = 256;
    chain.push_back(q);
  }
  const std::vector<PricingResult> priced = session.price_many(chain);
  for (const PricingResult& r : priced) ASSERT_EQ(r.status, Status::ok);
  const Pricer::Stats warm = session.stats();
  EXPECT_EQ(warm.base_kernel_caches, 3u);

  // Flood: the first inversion of each contract is the cold bracketed
  // Newton, ~a dozen distinct trial vols each, every one a distinct tap
  // group.
  std::vector<PricingRequest> quotes = chain;
  for (std::size_t i = 0; i < quotes.size(); ++i)
    quotes[i].target_price = priced[i].price * 1.02;
  for (const PricingResult& r : session.implied_vol_many(quotes))
    ASSERT_TRUE(r.implied_vol.converged);

  const Pricer::Stats flooded = session.stats();
  EXPECT_EQ(flooded.base_kernel_caches, 3u);  // base tier untouched
  // The flood minted more groups than the transient tier holds, so the
  // tier really cycled.
  EXPECT_GT(flooded.cache_misses - warm.cache_misses,
            Pricer::kTransientKernelCaches);
  EXPECT_LE(flooded.transient_kernel_caches, Pricer::kTransientKernelCaches);

  // Repricing the chain hits every base group: zero new misses.
  const std::uint64_t misses_before = flooded.cache_misses;
  const std::vector<PricingResult> again = session.price_many(chain);
  for (std::size_t i = 0; i < chain.size(); ++i)
    EXPECT_EQ(again[i].price, priced[i].price);
  EXPECT_EQ(session.stats().cache_misses, misses_before);
}

TEST(Pricer, TransientGroupPromotedWhenRequestedAsBase) {
  // The converged root vol was evaluated by the inversion, so its tap group
  // sits in the transient tier; a subsequent request QUOTED at that vol
  // must promote the group (hit, not rebuild) into the base tier.
  Pricer session;

  PricingRequest q;
  q.spec = paper_spec();
  q.T = 256;
  const double base_price = session.price_one(q).price;

  PricingRequest quote = q;
  quote.target_price = base_price * 1.01;
  const PricingResult inverted =
      session.implied_vol_many({&quote, 1}).front();
  ASSERT_TRUE(inverted.implied_vol.converged);
  const Pricer::Stats after_iv = session.stats();
  ASSERT_GE(after_iv.transient_kernel_caches, 1u);

  PricingRequest at_root = q;
  at_root.spec.V = inverted.implied_vol.vol;
  ASSERT_EQ(session.price_one(at_root).status, Status::ok);
  const Pricer::Stats promoted = session.stats();
  EXPECT_EQ(promoted.cache_misses, after_iv.cache_misses);  // promoted: hit
  EXPECT_EQ(promoted.base_kernel_caches, after_iv.base_kernel_caches + 1);
  EXPECT_EQ(promoted.transient_kernel_caches,
            after_iv.transient_kernel_caches - 1);
}

TEST(Pricer, CrossExpirySharingCollapsesToOneTapGroup) {
  // A 5-expiry chain whose expiries are commensurate with the finest dt:
  // with sharing OFF every expiry derives its own taps (5 registry groups);
  // with sharing ON the batch is renormalized to the common dt and the
  // whole chain lands in ONE group, with prices within the lattice's own
  // discretization tolerance of the unshared ones.
  const double expiries[] = {0.25, 0.5, 0.75, 1.0, 1.25};
  std::vector<PricingRequest> chain;
  for (const double e : expiries) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = e;
    q.T = 1024;  // same step count per leg => five distinct dt values
    chain.push_back(q);
  }

  Pricer plain;
  const std::vector<PricingResult> off = plain.price_many(chain);
  for (const PricingResult& r : off) ASSERT_EQ(r.status, Status::ok);
  EXPECT_EQ(plain.stats().base_kernel_caches, 5u);

  PricerConfig cfg;
  cfg.share_expiries = 0.0;
  Pricer sharing(cfg);
  const std::vector<PricingResult> on = sharing.price_many(chain);
  for (const PricingResult& r : on) ASSERT_EQ(r.status, Status::ok);
  EXPECT_EQ(sharing.stats().base_kernel_caches, 1u);

  // Normalization refines T (never coarsens), so the shared prices sit
  // within the coarser leg's own O(1/T) discretization error band of the
  // unshared ones (documented in DESIGN.md §5; generous 1% relative guard
  // here — observed differences are ~1e-4 relative at T = 1024).
  for (std::size_t i = 0; i < chain.size(); ++i)
    EXPECT_NEAR(on[i].price, off[i].price, 0.01 * off[i].price) << "leg " << i;
  // The finest-dt leg (expiry 0.25 at T = 1024) is the reference grid: its
  // discretization is unchanged, so its price is bit-identical.
  EXPECT_EQ(on[0].price, off[0].price);
}

TEST(Pricer, CrossExpirySharingOffByDefault) {
  PricerConfig cfg;
  EXPECT_FALSE(cfg.share_expiries.has_value());
  // And incommensurate mixes never blow up the lattice: a leg whose
  // renormalized T would exceed 8x its request keeps its own grid.
  cfg.share_expiries = 0.0;
  Pricer session(cfg);
  std::vector<PricingRequest> mix(2);
  for (PricingRequest& q : mix) q.spec = paper_spec();
  mix[0].spec.expiry_years = 0.02;  // ~1 week at fine dt
  mix[0].T = 512;
  mix[1].spec.expiry_years = 1.0;   // a year at coarse dt
  mix[1].T = 512;                   // shared dt would need T = 25600
  const auto res = session.price_many(mix);
  ASSERT_EQ(res[0].status, Status::ok);
  ASSERT_EQ(res[1].status, Status::ok);
  EXPECT_EQ(res[1].price, Pricer(PricerConfig{}).price_one(mix[1]).price);
  EXPECT_EQ(session.stats().base_kernel_caches, 2u);  // no forced share
}

// ---- quantized sharing (a positive PricerConfig::share_expiries) --------

// The implementation's bucket function, replicated so the tests can derive
// values guaranteed inside / astride one bucket instead of guessing.
[[nodiscard]] std::int64_t vol_bucket(double v, double quantum) {
  return static_cast<std::int64_t>(
      std::floor(std::log(v) / std::log1p(quantum)));
}

[[nodiscard]] std::vector<PricingRequest> drifting_vol_chain(
    const std::vector<double>& vols) {
  const double expiries[] = {0.26, 0.51, 0.77, 1.03, 1.28};
  std::vector<PricingRequest> chain;
  for (std::size_t i = 0; i < vols.size(); ++i) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = expiries[i % 5];
    q.spec.V = vols[i];
    q.T = 512;
    chain.push_back(q);
  }
  return chain;
}

TEST(Pricer, ShareQuantumZeroReproducesExactGroupingBitIdentically) {
  // Distinct-by-ulps vols under quantum = 0: the exact byte key sees five
  // different (R, V, Y) tuples, so no group forms, normalization is a
  // no-op, and every price is bit-identical to a sharing-off session.
  std::vector<double> vols;
  for (int i = 0; i < 5; ++i) vols.push_back(0.25 * (1.0 + i * 1e-9));
  const std::vector<PricingRequest> chain = drifting_vol_chain(vols);

  Pricer plain;
  const auto off = plain.price_many(chain);
  PricerConfig cfg;
  cfg.share_expiries = 0.0;  // exact grouping
  Pricer sharing(cfg);
  const auto on = sharing.price_many(chain);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(on[i].status, Status::ok);
    EXPECT_EQ(on[i].price, off[i].price) << "leg " << i;
  }
  EXPECT_EQ(sharing.stats().base_kernel_caches, 5u);  // no quantized merge
}

TEST(Pricer, ShareQuantumLegsStraddlingBucketBoundaryNeverShare) {
  // Two vols a factor (1 + quantum/500) apart — far inside the tolerance —
  // but placed astride a bucket boundary: the conservative floor bucketing
  // must keep them in separate groups (documented in pricer.hpp).
  const double quantum = 1e-3;
  const std::int64_t b = vol_bucket(0.25, quantum);
  const double lo = std::exp(static_cast<double>(b) * std::log1p(quantum));
  const double v_below = lo * (1.0 - quantum / 1000.0);
  const double v_above = lo * (1.0 + quantum / 1000.0);
  ASSERT_NE(vol_bucket(v_below, quantum), vol_bucket(v_above, quantum));
  ASSERT_LT(v_above / v_below - 1.0, quantum);

  PricerConfig cfg;
  cfg.share_expiries = quantum;
  Pricer session(cfg);
  const auto res = session.price_many(drifting_vol_chain({v_below, v_above}));
  for (const auto& r : res) ASSERT_EQ(r.status, Status::ok);
  EXPECT_EQ(session.stats().base_kernel_caches, 2u);
}

TEST(Pricer, ShareQuantumCollapsesDriftingVolChainToOneGroup) {
  // Five expiries whose vols drift inside ONE bucket (derived from the
  // bucket's own bounds, so the collapse is guaranteed, not probabilistic):
  // the whole chain must land in a single kernel group, with every price
  // inside the documented contract of its unshared counterpart. The
  // representative tuple is the lexicographically smallest member, so each
  // vol moves by < quantum relative.
  const double quantum = 1e-3;
  const std::int64_t b = vol_bucket(0.25, quantum);
  const double lo = std::exp(static_cast<double>(b) * std::log1p(quantum));
  std::vector<double> vols;
  for (int i = 0; i < 5; ++i)
    vols.push_back(lo * (1.0 + (i + 1) * quantum / 8.0));
  for (const double v : vols)
    ASSERT_EQ(vol_bucket(v, quantum), b) << "test premise: one bucket";

  const std::vector<PricingRequest> chain = drifting_vol_chain(vols);
  Pricer plain;
  const auto off = plain.price_many(chain);
  EXPECT_EQ(plain.stats().base_kernel_caches, 5u);

  PricerConfig cfg;
  cfg.share_expiries = quantum;
  Pricer sharing(cfg);
  const auto on = sharing.price_many(chain);
  EXPECT_EQ(sharing.stats().base_kernel_caches, 1u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(on[i].status, Status::ok);
    // Contract bound: the vol snap moves prices first-order by
    // vega * dV (dV/V < quantum) plus the sharing refinement's O(1/T)
    // band — both far inside 1% relative at these parameters.
    EXPECT_NEAR(on[i].price, off[i].price, 0.01 * off[i].price)
        << "leg " << i;
  }
}

TEST(Pricer, ShareQuantumGroupingIsBatchOrderIndependent) {
  // The representative is the lexicographically smallest tuple, not the
  // first-seen member: reversing the batch must produce the same prices
  // leg for leg.
  const double quantum = 1e-3;
  const std::int64_t b = vol_bucket(0.25, quantum);
  const double lo = std::exp(static_cast<double>(b) * std::log1p(quantum));
  std::vector<double> vols;
  for (int i = 0; i < 5; ++i)
    vols.push_back(lo * (1.0 + (i + 1) * quantum / 8.0));
  std::vector<PricingRequest> fwd = drifting_vol_chain(vols);
  std::vector<PricingRequest> rev(fwd.rbegin(), fwd.rend());

  PricerConfig cfg;
  cfg.share_expiries = quantum;
  const auto a = Pricer(cfg).price_many(fwd);
  const auto z = Pricer(cfg).price_many(rev);
  for (std::size_t i = 0; i < fwd.size(); ++i)
    EXPECT_EQ(a[i].price, z[fwd.size() - 1 - i].price) << "leg " << i;
}

TEST(Pricer, GreeksWarmStartReplaysBumpedLegsExactly) {
  // Tick 1 prices every finite-difference leg; tick 2 re-requests the same
  // contracts and must serve the legs from the bumped-price store with
  // bit-identical results (memoization is exact, not approximate).
  std::vector<PricingRequest> chain;
  for (int i = 0; i < 4; ++i) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = 120.0 + 5.0 * i;
    q.T = 128;
    chain.push_back(q);
  }

  Pricer warm;
  const auto tick1 = warm.greeks_many(chain);
  for (const PricingResult& r : tick1) ASSERT_EQ(r.status, Status::ok);
  const Pricer::Stats after1 = warm.stats();
  EXPECT_GT(after1.warm_bump_prices, 0u);

  const auto tick2 = warm.greeks_many(chain);
  const Pricer::Stats after2 = warm.stats();
  EXPECT_GT(after2.bump_price_hits, after1.bump_price_hits);
  // No new bumped evaluations were priced on the repeat.
  EXPECT_EQ(after2.warm_bump_prices, after1.warm_bump_prices);

  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(tick2[i].status, Status::ok);
    EXPECT_EQ(tick1[i].greeks.vega, tick2[i].greeks.vega) << "item " << i;
    EXPECT_EQ(tick1[i].greeks.rho, tick2[i].greeks.rho);
    EXPECT_EQ(tick1[i].greeks.delta, tick2[i].greeks.delta);
    EXPECT_EQ(tick1[i].price, tick2[i].price);
  }
}

TEST(Pricer, SpectrumBudgetCapsRegistryBytes) {
  // 32 cold BSM tap groups at T = 16384 hold ~1.76 MiB of spectra each
  // (~56 MiB in all), more than the fixed registry-wide cap, so the registry
  // must evict (stats expose it) while every price stays correct — eviction
  // only forgets warm state.
  Pricer session;
  std::vector<PricingRequest> reqs;
  for (int k = 0; k < 32; ++k) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.V = 0.15 + 0.01 * k;  // 0.15 ... 0.46: one tap group each
    q.T = 16384;
    q.model = Model::bsm;
    q.right = Right::put;
    reqs.push_back(q);
  }
  const auto out = session.price_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(out[i].status, Status::ok) << out[i].message;
    EXPECT_EQ(out[i].price, bsm::american_put_fft(reqs[i].spec, reqs[i].T))
        << "item " << i;
  }
  const Pricer::Stats st = session.stats();
  EXPECT_LE(st.spectrum_bytes, Pricer::kSpectrumBytes);
  EXPECT_GT(st.spectrum_evictions, 0u);

  // clear() drops the spectrum tier's counters with the rest of the warm
  // state.
  session.clear();
  const Pricer::Stats cleared = session.stats();
  EXPECT_EQ(cleared.spectrum_bytes, 0u);
  EXPECT_EQ(cleared.spectrum_evictions, 0u);
}

TEST(Pricer, StatusToString) {
  EXPECT_EQ(to_string(Status::ok), "ok");
  EXPECT_EQ(to_string(Status::unsupported), "unsupported");
  EXPECT_EQ(to_string(Status::failed_to_converge), "failed-to-converge");
  EXPECT_EQ(to_string(Status::error), "error");
  EXPECT_EQ(to_string(Status::overloaded), "overloaded");
}

TEST(Pricer, ServiceStatsCountBatchesAndScratchBytes) {
  // The admission-control inputs the service plane keys on: the batch
  // count and the process-wide arena footprint.
  Pricer session;
  EXPECT_EQ(session.stats().batches, 0u);

  PricingRequest big;
  big.spec = paper_spec();
  big.T = 512;  // fft descent: the serving arena grows
  ASSERT_EQ(session.price_many({&big, 1}).at(0).status, Status::ok);
  const Pricer::Stats st1 = session.stats();
  EXPECT_EQ(st1.batches, 1u);
  EXPECT_GT(st1.scratch_total_bytes, 0u);

  // A smaller batch cannot shrink the footprint (arenas only grow), and
  // every price_many counts, whatever its size.
  PricingRequest small = big;
  small.T = 64;
  ASSERT_EQ(session.price_many({&small, 1}).at(0).status, Status::ok);
  const Pricer::Stats st2 = session.stats();
  EXPECT_EQ(st2.batches, 2u);
  EXPECT_GE(st2.scratch_total_bytes, st1.scratch_total_bytes);

  session.clear();
  EXPECT_EQ(session.stats().batches, 0u);
}

}  // namespace
