// Steady-state allocation guarantee of the shard hot path (DESIGN.md §8):
// once warm, a full daemon round trip — decode request frame, coalesce,
// price through the shard session, encode and write the result frame —
// must perform ZERO heap allocations. Boundary-engine quotes drive the
// check (their pricing is allocation-free at steady state, DESIGN.md §6,
// so any count here is the service plane's own fault). Like the other
// counter binaries this file replaces global operator new/delete and must
// stay one executable; the CI server-smoke job enforces the same bar on
// the bench's allocs-steady series.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/service/server.hpp"
#include "amopt/service/transport.hpp"
#include "amopt/service/wire.hpp"

#include "counting_new.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;
using namespace amopt::service;

[[nodiscard]] std::uint64_t allocs() { return counting_new::count(); }

[[nodiscard]] std::vector<PricingRequest> boundary_chain() {
  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.model = Model::bsm;
  q.style = Style::american;
  q.engine = Engine::boundary;
  for (Right r : {Right::put, Right::call}) {
    q.right = r;
    for (double k : {120.0, 130.0}) {
      q.spec.K = k;
      reqs.push_back(q);
    }
  }
  return reqs;
}

TEST(ServerAlloc, SteadyStateSubmitPathIsAllocationFree) {
  // Width 1 pins every shard drain to the pool's single housekeeping
  // worker, so exactly one thread arena warms up and stays warm — the
  // counter then measures the hot path, not scheduler placement.
  ThreadScope width(1);
  ServerConfig cfg;
  cfg.pricer.threads = 1;  // the shard drain serves items serially
  cfg.coalesce_window_us = 0;
  Server server(cfg);

  const std::vector<PricingRequest> reqs = boundary_chain();
  std::vector<PricingResult> out(reqs.size());
  Server::Batch done;  // reusable handle: no per-round-trip state

  // Warm-up: queue ring, batch buffers, session node table, thread arena
  // and result capacities all reach their high-water marks.
  for (int i = 0; i < 8; ++i) {
    server.submit(reqs, out.data(), done);
    done.wait();
  }
  for (const PricingResult& r : out) ASSERT_EQ(r.status, Status::ok);
  const std::vector<PricingResult> want = out;

  const std::uint64_t before = allocs();
  int mismatches = 0;
  for (int rep = 0; rep < 64; ++rep) {
    server.submit(reqs, out.data(), done);
    done.wait();
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out[i].price != want[i].price) ++mismatches;
  }
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << "the steady-state submit->price->scatter path must not allocate";
  EXPECT_EQ(mismatches, 0);
}

TEST(ServerAlloc, AdmissionRejectionPathIsAllocationFree) {
  // Shedding load is exactly when the daemon must not grow the heap: the
  // rejection path uses fixed hint literals and reuses each result's
  // message capacity, so after one warm-up round it is 0-allocation.
  ThreadScope width(1);
  ServerConfig cfg;
  cfg.pricer.threads = 1;
  cfg.coalesce_window_us = 0;
  cfg.admit_scratch_bytes = 1;  // any real pricing overshoots this ceiling
  Server server(cfg);

  const std::vector<PricingRequest> reqs = boundary_chain();
  std::vector<PricingResult> out(reqs.size());
  Server::Batch done;

  // First round is admitted (the ceiling compares against the shard's
  // last-published snapshot, which starts at zero) and publishes a real
  // scratch figure; every round after that is rejected at admission.
  server.submit(reqs, out.data(), done);
  done.wait();
  for (const PricingResult& r : out) ASSERT_EQ(r.status, Status::ok);
  server.submit(reqs, out.data(), done);  // warm the rejection capacities
  done.wait();
  for (const PricingResult& r : out) ASSERT_EQ(r.status, Status::overloaded);

  const std::uint64_t before = allocs();
  for (int rep = 0; rep < 64; ++rep) {
    server.submit(reqs, out.data(), done);
    done.wait();
  }
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << "shedding under overload must itself be allocation-free";
  for (const PricingResult& r : out) {
    EXPECT_EQ(r.status, Status::overloaded);
    EXPECT_NE(r.message.find("retry"), std::string::npos);
  }
}

TEST(ServerAlloc, SteadyStateWireRoundTripIsAllocationFree) {
  // The full daemon loop over the loopback transport: encode on the
  // client, decode + coalesce + price + encode on the daemon, decode the
  // reply on the client — all through reused buffers on both sides.
  ThreadScope width(1);  // one drain worker, one warm arena (see above)
  ServerConfig cfg;
  cfg.pricer.threads = 1;
  cfg.coalesce_window_us = 0;
  Server server(cfg);
  auto [client, daemon] = loopback_pair();
  std::thread conn([&server, t = daemon.get()] { server.serve(*t); });

  const std::vector<PricingRequest> reqs = boundary_chain();
  std::vector<std::byte> frame;
  std::vector<std::byte> inbuf(std::size_t{1} << 16);
  std::vector<PricingResult> results;

  const auto round_trip = [&] {
    frame.clear();
    wire::encode_request_batch_v2(reqs, {}, 0, frame);
    ASSERT_TRUE(client->write_all(frame));
    std::size_t have = 0;
    for (;;) {
      std::size_t consumed = 0;
      const wire::DecodeError e = wire::decode_result_batch(
          {inbuf.data(), have}, results, consumed);
      if (e == wire::DecodeError::ok) break;
      ASSERT_EQ(e, wire::DecodeError::need_more);
      ASSERT_LT(have, inbuf.size());
      const std::size_t n =
          client->read_some({inbuf.data() + have, inbuf.size() - have});
      ASSERT_GT(n, 0u);
      have += n;
    }
    ASSERT_EQ(results.size(), reqs.size());
  };

  for (int i = 0; i < 8; ++i) round_trip();  // warm-up
  for (const PricingResult& r : results) ASSERT_EQ(r.status, Status::ok);

  const std::uint64_t before = allocs();
  for (int rep = 0; rep < 64; ++rep) round_trip();
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << "the steady-state decode->price->encode loop must not allocate";

  client->close();
  conn.join();
}

}  // namespace
