// The PR-10 accuracy contract (DESIGN.md §12): every engine's price is
// pinned against an analytic or converged high-T reference with a STATED
// tolerance, across every compiled SIMD dispatch level and pool widths
// {1, 4}. This is the harness that replaced the library's bit-exactness
// clauses when overlap-save minimal FFT padding and quantized kernel
// sharing were allowed to perturb FFT rounding: cross-run/cross-level
// reproducibility is still asserted where it is promised (test_simd,
// test_pricer), but VALUES are promised against references, not against
// yesterday's bits.
//
// Each case records its measured worst deviation next to its contract; with
// AMOPT_ACCURACY_REPORT=<path> the whole table is dumped as JSON, which
// tools/rebless.py commits as ACCURACY.json and CI feeds to
// `check_bench.py --tolerance-report` so the logs show contract headroom
// shrinking before a breach. Contracts are set 4-10x above the deviation
// measured on the reference build box — generous enough for toolchain and
// libm drift, tight enough that a sizing or sharing bug (an aliased
// convolution window, a mis-snapped vol) blows straight through them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "amopt/common/env.hpp"
#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/simd/simd.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

struct CaseRecord {
  std::string name;
  std::string reference;  ///< what the deviation is measured against
  double contract = 0.0;  ///< documented max |price - reference|
  double measured = 0.0;  ///< worst deviation over levels x widths
};

std::vector<CaseRecord>& records() {
  static std::vector<CaseRecord> r;
  return r;
}

/// Evaluate `price_at(threads)` at every compiled dispatch level x pool
/// widths {1, 4} and return the worst |price - reference|. The level is
/// restored afterwards so cases do not leak state into each other.
double worst_deviation(double reference,
                       const std::function<double(int)>& price_at) {
  const simd::Level entry = simd::active();
  double worst = 0.0;
  for (int lvl = 0; lvl <= static_cast<int>(simd::max_supported()); ++lvl) {
    simd::set_level(static_cast<simd::Level>(lvl));
    for (const int threads : {1, 4}) {
      const double p = price_at(threads);
      worst = std::max(worst, std::abs(p - reference));
    }
  }
  simd::set_level(entry);
  return worst;
}

/// Record + assert one contract case.
void pin(const std::string& name, const std::string& reference_desc,
         double contract, double reference,
         const std::function<double(int)>& price_at) {
  const double measured = worst_deviation(reference, price_at);
  records().push_back({name, reference_desc, contract, measured});
  EXPECT_LE(measured, contract)
      << name << ": measured deviation " << measured
      << " breaches the documented contract " << contract << " (reference: "
      << reference_desc << ")";
}

[[nodiscard]] double session_price(const PricingRequest& q, int threads) {
  PricerConfig cfg;
  cfg.threads = threads;
  Pricer session(cfg);
  const PricingResult r = session.price_one(q);
  EXPECT_EQ(r.status, Status::ok) << r.message;
  return r.price;
}

[[nodiscard]] PricingRequest make_request(Model m, Right r, Style s, Engine e,
                                          std::int64_t T) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.model = m;
  q.right = r;
  q.style = s;
  q.engine = e;
  return q;
}

/// Scalar single-threaded evaluation — the fixed configuration references
/// are computed at, so the reference itself is deterministic and the
/// deviations measure engine-vs-reference, not reference jitter.
[[nodiscard]] double reference_price(const PricingRequest& q) {
  const simd::Level entry = simd::active();
  simd::set_level(simd::Level::scalar);
  const double p = session_price(q, 1);
  simd::set_level(entry);
  return p;
}

// Writes the accuracy report on teardown (after every case has recorded).
class ReportWriter : public ::testing::Environment {
 public:
  void TearDown() override {
    const std::string path = env_string("AMOPT_ACCURACY_REPORT", "");
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "test_accuracy: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"title\": \"accuracy_contract\",\n  \"cases\": [\n");
    for (std::size_t i = 0; i < records().size(); ++i) {
      const CaseRecord& c = records()[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"contract\": %.3g, "
                   "\"measured\": %.6g, \"reference\": \"%s\"}%s\n",
                   c.name.c_str(), c.contract, c.measured,
                   c.reference.c_str(), i + 1 < records().size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
  }
};

const auto* const kReportWriter =
    ::testing::AddGlobalTestEnvironment(new ReportWriter);

// ---- analytic anchors ---------------------------------------------------
// European lattice/FDM prices converge to the closed form at O(1/T); the
// contract pins the discretization error at T = 4096 plus all dispatch/
// width perturbation. A transform sized one power of two too small (an
// aliased window) moves these prices by O(1), not O(1e-4).

TEST(Accuracy, EuropeanAnchorsAgainstClosedForm) {
  const OptionSpec spec = paper_spec();
  pin("bopm-eu-call-fft", "BSM closed form, T=4096 lattice", 2e-3,
      bs::european_call(spec), [](int threads) {
        return session_price(make_request(Model::bopm, Right::call,
                                          Style::european, Engine::fft, 4096),
                             threads);
      });
  pin("topm-eu-call-fft", "BSM closed form, T=4096 lattice", 2e-3,
      bs::european_call(spec), [](int threads) {
        return session_price(make_request(Model::topm, Right::call,
                                          Style::european, Engine::fft, 4096),
                             threads);
      });
  pin("bsm-eu-put-fft", "BSM closed form, T=4096 grid", 5e-3,
      bs::european_put(spec), [](int threads) {
        return session_price(make_request(Model::bsm, Right::put,
                                          Style::european, Engine::fft, 4096),
                             threads);
      });
}

// ---- high-T American anchors --------------------------------------------
// No closed form exists, so the reference is the same engine at 8x the
// steps (scalar, single-threaded): first-order lattice convergence puts
// p(T) - p(8T) at ~7/8 of p(T)'s own discretization error.

TEST(Accuracy, AmericanAnchorsAgainstHighT) {
  const auto high_t_case = [](const char* name, Model m, Right r) {
    const PricingRequest ref_req =
        make_request(m, r, Style::american, Engine::fft, 1 << 15);
    const double reference = reference_price(ref_req);
    pin(name, "same engine at T=2^15, scalar 1-thread", 2e-3, reference,
        [m, r](int threads) {
          return session_price(
              make_request(m, r, Style::american, Engine::fft, 1 << 12),
              threads);
        });
  };
  high_t_case("bopm-am-call-fft", Model::bopm, Right::call);
  high_t_case("topm-am-call-fft", Model::topm, Right::call);
  high_t_case("bsm-am-put-fft", Model::bsm, Right::put);
}

// ---- cross-engine parity at one discretization --------------------------
// Every lattice engine prices the SAME backward recursion; only the FFT
// paths carry transform round-off. Reference: the vanilla engine (direct
// arithmetic), scalar 1-thread, at the same T.

TEST(Accuracy, LatticeEnginesAgreeAtFixedT) {
  const std::int64_t T = 512;
  const double reference = reference_price(
      make_request(Model::bopm, Right::call, Style::american, Engine::vanilla,
                   T));
  const auto engine_case = [&](const char* name, Engine e, double contract) {
    pin(name, "vanilla engine, same T=512, scalar 1-thread", contract,
        reference, [e, T](int threads) {
          return session_price(make_request(Model::bopm, Right::call,
                                            Style::american, e, T),
                               threads);
        });
  };
  engine_case("bopm-am-call-fft@512", Engine::fft, 1e-8);
  engine_case("bopm-am-call-vanilla@512", Engine::vanilla, 1e-10);
  engine_case("bopm-am-call-vanilla-parallel@512", Engine::vanilla_parallel,
              1e-10);
  engine_case("bopm-am-call-tiled@512", Engine::tiled, 1e-10);
  engine_case("bopm-am-call-cache-oblivious@512", Engine::cache_oblivious,
              1e-10);
  engine_case("bopm-am-call-quantlib@512", Engine::quantlib, 1e-10);
}

// ---- boundary engine ----------------------------------------------------
// Reference: the engine's own converged preset (41/129/64 — DESIGN.md §6),
// scalar 1-thread. The default preset's documented error is ~2.4e-6.

TEST(Accuracy, BoundaryEngineAgainstConvergedPreset) {
  const auto boundary_case = [](const char* name, Right r) {
    PricingRequest ref_req =
        make_request(Model::bsm, r, Style::american, Engine::boundary, 1);
    core::SolverConfig converged;
    converged.alo_nodes = 41;
    converged.alo_quad = 129;
    converged.alo_iterations = 64;
    ref_req.solver = converged;
    const double reference = reference_price(ref_req);
    pin(name, "converged ALO preset (41/129/64), scalar 1-thread", 1e-4,
        reference, [r](int threads) {
          return session_price(make_request(Model::bsm, r, Style::american,
                                            Engine::boundary, 1),
                               threads);
        });
  };
  boundary_case("bsm-am-put-boundary", Right::put);
  boundary_case("bsm-am-call-boundary", Right::call);
}

// ---- quantized kernel sharing -------------------------------------------
// A drifting-vol chain under a sharing quantum: the snap moves each leg's vol
// by < quantum relative, so prices move first-order by vega * dV on top of
// the sharing refinement. Reference: the SAME batch priced unshared at the
// SAME level/width — the deviation isolates exactly what the quantized
// grouping changes.

TEST(Accuracy, ShareQuantumPerturbationWithinContract) {
  const double quantum = 1e-3;
  std::vector<PricingRequest> chain;
  const double expiries[] = {0.26, 0.51, 0.77, 1.03, 1.28};
  for (int i = 0; i < 5; ++i) {
    PricingRequest q = make_request(Model::bopm, Right::call, Style::american,
                                    Engine::fft, 1024);
    q.spec.expiry_years = expiries[i];
    q.spec.V = q.spec.V * (1.0 + i * quantum / 8.0);
    chain.push_back(q);
  }
  const auto worst_at = [&](int threads) {
    PricerConfig off_cfg;
    off_cfg.threads = threads;
    Pricer off(off_cfg);
    const auto plain = off.price_many(chain);
    PricerConfig on_cfg = off_cfg;
    on_cfg.share_expiries = quantum;
    Pricer on(on_cfg);
    const auto shared = on.price_many(chain);
    double worst = 0.0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(shared[i].status, Status::ok);
      worst = std::max(worst, std::abs(shared[i].price - plain[i].price));
    }
    return worst;
  };
  // pin() measures |price_at - reference|; here price_at already IS the
  // deviation, so the reference is 0.
  pin("share-quantum-chain", "unshared batch, same level/width", 5e-2, 0.0,
      worst_at);
}

}  // namespace
