// Pricing-daemon load bench (service/server.hpp): a client hammers a
// `Server` with single-quote submissions and chain batches, reporting per
// row (lattice size T):
//
//   p50-us / p99-us  — round-trip latency of a warm single-quote submit
//                      through one shard (enqueue, price, scatter, wake);
//   qps-1shard /     — chain-batch throughput, one shard vs four (on a
//   qps-4shard         1-core box these coincide; with real cores the
//                      shard fan-out shows up here);
//   coalesce-off /   — ms per recalibration tick of a 5-expiry TOPM chain
//   coalesce-on        whose vol drifts every tick (cold kernels), served
//                      item-by-item vs merged by the coalescing window
//                      into ONE shared-kernel price_many;
//   coalesce-x       — off/on: the algorithmic win of coalescing (one
//                      kernel-ladder build per tick instead of five), so
//                      it holds on a single core — CI requires >= 1.2x;
//   allocs-steady    — heap allocations of one warm wire round trip
//                      (decode -> coalesce -> price -> encode) of a
//                      boundary-engine chain over the loopback transport;
//                      the service plane pins this at exactly zero.
//   shed-p99-us      — p99 latency of an admission-SHED submit (the
//                      overload defense of DESIGN.md §11): reject, fill
//                      the fixed hint, complete — no pricing, no heap.
//
// The coalesced results are verified bit-identical against a direct
// `Pricer::price_many` of the same merged batch before timing counts —
// a wrong answer fails the binary, not just the numbers. Emits
// BENCH_server.json (AMOPT_BENCH_JSON overrides, "none" disables).
//
// Replaces global operator new/delete with counting versions for the
// allocs-steady series (include counting_new.hpp from exactly one TU).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/service/server.hpp"
#include "amopt/service/transport.hpp"
#include "amopt/service/wire.hpp"
#include "bench_common.hpp"

#include "counting_new.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;
using namespace amopt::service;

/// 64 quotes: 16 strikes x 4 vols, so a 4-shard server sees work on more
/// than one shard (routing keys on V, never on K).
[[nodiscard]] std::vector<PricingRequest> chain_batch(std::int64_t T) {
  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  for (int v = 0; v < 4; ++v) {
    q.spec.V = 0.18 + 0.02 * v;
    for (int k = 0; k < 16; ++k) {
      q.spec.K = 100.0 + 4.0 * k;
      reqs.push_back(q);
    }
  }
  return reqs;
}

/// The recalibration-tick chain for the coalescing experiment: 5 expiries
/// of one TOPM European contract with per-leg step counts targeting a
/// common steps-per-year (the llround leaves the five dt unequal in the
/// last bits) — exactly the shape `share_expiries` collapses to one
/// kernel ladder without inflating any leg's step count.
[[nodiscard]] std::vector<PricingRequest> expiry_chain(std::int64_t T,
                                                       double vol) {
  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.spec.V = vol;
  q.model = Model::topm;
  q.style = Style::european;
  for (double e : {0.26, 0.51, 0.77, 1.03, 1.28}) {
    q.spec.expiry_years = e;
    q.T = std::llround(e * static_cast<double>(T));
    reqs.push_back(q);
  }
  return reqs;
}

struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

[[nodiscard]] Latency measure_latency(std::int64_t T, int samples) {
  ServerConfig cfg;
  cfg.coalesce_window_us = 0;  // latency path: never linger for stragglers
  Server server(cfg);
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  PricingResult out;
  Server::Batch done;
  for (int i = 0; i < 8; ++i) {  // warm kernels, arena, queue ring
    server.submit({&q, 1}, &out, done);
    done.wait();
  }
  std::vector<double> us(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    q.spec.K = 100.0 + 4.0 * (i % 16);  // tick across a strike chain
    WallTimer t;
    server.submit({&q, 1}, &out, done);
    done.wait();
    us[static_cast<std::size_t>(i)] = t.seconds() * 1e6;
  }
  std::sort(us.begin(), us.end());
  Latency l;
  l.p50_us = us[us.size() / 2];
  l.p99_us = us[us.size() - 1 - us.size() / 100];
  return l;
}

[[nodiscard]] double measure_qps(std::int64_t T, std::size_t shards,
                                 int reps) {
  ServerConfig cfg;
  cfg.shards = shards;
  Server server(cfg);
  const std::vector<PricingRequest> reqs = chain_batch(T);
  std::vector<PricingResult> out;
  server.price_into(reqs, out);  // warm every shard the batch touches
  const double secs = bench::time_best(
      [&] { server.price_into(reqs, out); }, reps);
  return static_cast<double>(reqs.size()) / secs;
}

/// ms per tick serving the drifting-vol expiry chain. `coalesce` picks the
/// merged (window waits for the full chain) or item-by-item server shape;
/// `tick` keeps advancing across calls so no rep ever re-prices a vol the
/// session's kernel registry already holds.
[[nodiscard]] double measure_tick_ms(std::int64_t T, bool coalesce,
                                     int ticks, int& tick) {
  ServerConfig cfg;
  cfg.pricer.share_expiries = 0.0;
  cfg.max_coalesced_items = coalesce ? 5 : 1;
  cfg.coalesce_window_us = coalesce ? 100000 : 0;  // cap, not a cost: the
  // linger exits as soon as all 5 items of the tick are queued.
  Server server(cfg);
  std::vector<PricingResult> out(5);
  Server::Batch done;
  {  // warm-up tick (arena + queue + result capacities)
    const std::vector<PricingRequest> reqs =
        expiry_chain(T, 0.2 + 1e-4 * tick++);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      server.submit({&reqs[i], 1}, &out[i], done);
    done.wait();
  }
  WallTimer t;
  for (int k = 0; k < ticks; ++k) {
    const std::vector<PricingRequest> reqs =
        expiry_chain(T, 0.2 + 1e-4 * tick++);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      server.submit({&reqs[i], 1}, &out[i], done);
    done.wait();
  }
  const double ms = t.seconds() * 1e3 / ticks;

  if (coalesce) {
    // Acceptance: the merged batch must price bit-identically to a direct
    // session serving the same 5 requests in one price_many.
    const std::vector<PricingRequest> reqs =
        expiry_chain(T, 0.2 + 1e-4 * tick++);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      server.submit({&reqs[i], 1}, &out[i], done);
    done.wait();
    PricerConfig direct_cfg;
    direct_cfg.share_expiries = 0.0;
    Pricer direct(direct_cfg);
    const std::vector<PricingResult> want = direct.price_many(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(out[i].price) !=
          std::bit_cast<std::uint64_t>(want[i].price)) {
        std::fprintf(stderr,
                     "micro_server: coalesced item %zu diverged from the "
                     "direct session (%.17g vs %.17g)\n",
                     i, out[i].price, want[i].price);
        std::exit(1);
      }
    }
  }
  return ms;
}

/// p99 latency of a SHED request (the failure plane, DESIGN.md §11): with
/// the scratch admission ceiling set below any real footprint, every
/// submit after the first is rejected at admission with `overloaded` and a
/// fixed hint literal. Shedding is the daemon's defense under overload —
/// it must stay orders of magnitude cheaper than pricing, and CI holds its
/// p99 under a fixed budget (check_bench --latency-budget).
[[nodiscard]] double measure_shed_p99(std::int64_t T, int samples) {
  ServerConfig cfg;
  cfg.coalesce_window_us = 0;
  cfg.admit_scratch_bytes = 1;  // below any published footprint: all shed
  Server server(cfg);
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  PricingResult out;
  Server::Batch done;
  // The first submit is admitted (the ceiling compares against the shard's
  // last-published snapshot, initially zero) and publishes a real scratch
  // figure; everything after is rejected before it touches a queue.
  server.submit({&q, 1}, &out, done);
  done.wait();
  for (int i = 0; i < 8; ++i) {  // warm the rejection path
    server.submit({&q, 1}, &out, done);
    done.wait();
  }
  if (out.status != Status::overloaded) {
    std::fprintf(stderr, "micro_server: shed warm-up was not rejected\n");
    std::exit(1);
  }
  std::vector<double> us(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    WallTimer t;
    server.submit({&q, 1}, &out, done);
    done.wait();
    us[static_cast<std::size_t>(i)] = t.seconds() * 1e6;
  }
  std::sort(us.begin(), us.end());
  return us[us.size() - 1 - us.size() / 100];
}

/// Heap allocations of one steady-state wire round trip (boundary-engine
/// chain over the loopback): mirrors tests/test_server_alloc.cpp so CI can
/// guard allocs-steady=0 from the bench artifact too.
[[nodiscard]] double measure_allocs_steady() {
  // Shard drains execute on pool workers now; width 1 pins every drain to
  // the single housekeeping worker so one warm-up warms the one arena that
  // serves every counted round trip.
  ThreadScope width(1);
  ServerConfig cfg;
  cfg.pricer.threads = 1;
  cfg.coalesce_window_us = 0;
  Server server(cfg);
  auto pair = loopback_pair();
  Transport& client = *pair.first;
  std::thread conn([&server, t = pair.second.get()] { server.serve(*t); });

  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.model = Model::bsm;
  q.engine = Engine::boundary;
  for (Right r : {Right::put, Right::call}) {
    q.right = r;
    reqs.push_back(q);
  }
  std::vector<std::byte> frame;
  std::vector<std::byte> inbuf(std::size_t{1} << 16);
  std::vector<PricingResult> results;
  const auto round_trip = [&] {
    frame.clear();
    wire::encode_request_batch_v2(reqs, {}, 0, frame);
    if (!client.write_all(frame)) std::exit(1);
    std::size_t have = 0;
    for (;;) {
      std::size_t consumed = 0;
      if (wire::decode_result_batch({inbuf.data(), have}, results,
                                    consumed) == wire::DecodeError::ok)
        break;
      const std::size_t n =
          client.read_some({inbuf.data() + have, inbuf.size() - have});
      if (n == 0) std::exit(1);
      have += n;
    }
  };
  constexpr int kReps = 32;
  for (int i = 0; i < 8; ++i) round_trip();  // warm-up
  const std::uint64_t before = counting_new::count();
  for (int i = 0; i < kReps; ++i) round_trip();
  const double per_trip =
      static_cast<double>(counting_new::count() - before) / kReps;
  client.close();
  conn.join();
  return per_trip;
}

}  // namespace

int main() {
  using namespace amopt;

  const bench::Sweep sweep = bench::sweep_from_env(1 << 9, 1 << 11, 0);
  const int ticks = static_cast<int>(env_long("AMOPT_BENCH_TICKS", 8));
  const int samples =
      static_cast<int>(env_long("AMOPT_BENCH_LATENCY_SAMPLES", 100));

  bench::print_header(
      "pricing-daemon load bench: single-quote latency, chain throughput "
      "1 vs 4 shards, coalescing on/off on a drifting 5-expiry TOPM chain "
      "(ms/tick), and heap allocations per steady wire round trip",
      "microseconds / quotes-per-second / ms / allocations",
      {"p50-us", "p99-us", "qps-1shard", "qps-4shard", "coalesce-off",
       "coalesce-on", "coalesce-x", "allocs-steady", "shed-p99-us"});

  std::vector<std::int64_t> ts;
  std::vector<std::vector<double>> rows;
  int tick = 0;  // advances monotonically: no vol is ever re-priced warm
  for (std::int64_t T = sweep.min_t; T <= sweep.max_t; T *= 2) {
    const Latency lat = measure_latency(T, samples);
    const double qps1 = measure_qps(T, 1, sweep.reps);
    const double qps4 = measure_qps(T, 4, sweep.reps);
    const double off_ms = measure_tick_ms(T, /*coalesce=*/false, ticks, tick);
    const double on_ms = measure_tick_ms(T, /*coalesce=*/true, ticks, tick);
    const double allocs = measure_allocs_steady();
    const double shed_p99 = measure_shed_p99(T, samples);
    ts.push_back(T);
    rows.push_back({lat.p50_us, lat.p99_us, qps1, qps4, off_ms, on_ms,
                    off_ms / on_ms, allocs, shed_p99});
    bench::print_row(T, rows.back());
  }

  const std::string json = env_string("AMOPT_BENCH_JSON", "BENCH_server.json");
  if (json != "none") {
    bench::write_json(json, "micro_server_daemon",
                      "us/qps/ms/allocs (see series)",
                      {"p50-us", "p99-us", "qps-1shard", "qps-4shard",
                       "coalesce-off", "coalesce-on", "coalesce-x",
                       "allocs-steady", "shed-p99-us"},
                      ts, rows);
  }
  return 0;
}
