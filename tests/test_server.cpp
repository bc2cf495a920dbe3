// The pricing daemon end to end (service/server.hpp): routed submission
// with per-item Status fan-back, result bit-identity against a direct
// Pricer session, request coalescing, shard affinity, admission control
// (Status::overloaded with a retry hint), graceful drain on stop, and the
// framed wire protocol over the in-process loopback transport — including
// chunked delivery and malformed-frame handling.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "amopt/pricing/pricer.hpp"
#include "amopt/service/server.hpp"
#include "amopt/service/transport.hpp"
#include "amopt/service/wire.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;
using namespace amopt::service;

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

/// A small heterogeneous batch: lattice FFT items across models plus a
/// boundary-engine quote and one unsupported combination.
[[nodiscard]] std::vector<PricingRequest> mixed_batch() {
  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  for (Model m : {Model::bopm, Model::topm}) {
    q.model = m;
    q.engine = Engine::fft;
    for (double k : {120.0, 130.0, 140.0}) {
      q.spec.K = k;
      reqs.push_back(q);
    }
  }
  PricingRequest alo;
  alo.spec = paper_spec();
  alo.model = Model::bsm;
  alo.right = Right::put;
  alo.engine = Engine::boundary;
  reqs.push_back(alo);
  PricingRequest bad;  // tiled engine is a BOPM-call specialist
  bad.spec = paper_spec();
  bad.T = 128;
  bad.model = Model::topm;
  bad.engine = Engine::tiled;
  reqs.push_back(bad);
  return reqs;
}

TEST(Server, ResultsMatchADirectSessionBitForBit) {
  const std::vector<PricingRequest> reqs = mixed_batch();
  Pricer direct;  // same default config as the server's shards

  ServerConfig cfg;
  cfg.shards = 2;
  Server server(cfg);
  const std::vector<PricingResult> got = server.price(reqs);
  const std::vector<PricingResult> want = direct.price_many(reqs);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, want[i].status) << "item " << i;
    EXPECT_EQ(bits(got[i].price), bits(want[i].price)) << "item " << i;
  }
  EXPECT_EQ(got.back().status, Status::unsupported);  // fan-back, no throw

  const Server::Stats st = server.stats();
  EXPECT_EQ(st.submitted, reqs.size());
  EXPECT_EQ(st.completed, reqs.size());
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.shard.size(), 2u);
}

TEST(Server, CoalescingMergesSingleQuoteSubmissionsIntoFewBatches) {
  // Eight async single-item submissions inside one coalescing window must
  // merge into fewer price_many calls than items — and produce exactly the
  // results of a direct session pricing the items one by one.
  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 96;
  for (int i = 0; i < 8; ++i) {
    q.spec.K = 118.0 + 3.0 * i;
    reqs.push_back(q);
  }

  ServerConfig cfg;
  cfg.coalesce_window_us = 50000;  // generous: the test box may be slow
  Server server(cfg);
  std::vector<PricingResult> out(reqs.size());
  Server::Batch done;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    server.submit({&reqs[i], 1}, &out[i], done);
  done.wait();

  Pricer direct;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const PricingResult want = direct.price_one(reqs[i]);
    EXPECT_EQ(out[i].status, Status::ok);
    EXPECT_EQ(bits(out[i].price), bits(want.price)) << "item " << i;
  }

  const Server::Stats st = server.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_LT(st.batches, 8u) << "no submissions were coalesced";
}

TEST(Server, ShardRoutingIsStableAndChainAffine) {
  ServerConfig cfg;
  cfg.shards = 4;
  Server server(cfg);

  // A chain over expiries (same model/right/style/engine and R, V, Y)
  // must land on ONE shard — that is what makes cross-expiry kernel
  // sharing reachable through the daemon.
  PricingRequest q;
  q.spec = paper_spec();
  const std::size_t home = server.shard_of(q);
  for (double e : {0.25, 0.5, 1.0, 2.0}) {
    q.spec.expiry_years = e;
    q.spec.K = 100.0 + e;  // strike/expiry must not affect routing
    q.T = static_cast<std::int64_t>(256 * e);
    EXPECT_EQ(server.shard_of(q), home);
  }

  // Distinct vols spread across shards (not all on one).
  std::set<std::size_t> seen;
  for (int i = 0; i < 32; ++i) {
    q.spec.V = 0.10 + 0.01 * i;
    seen.insert(server.shard_of(q));
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(Server, AdmissionControlRejectsWithRetryHintInsteadOfQueueing) {
  ServerConfig cfg;
  cfg.admit_scratch_bytes = 1;  // any real pricing overshoots this ceiling
  Server server(cfg);

  PricingRequest q;
  q.spec = paper_spec();
  q.T = 256;  // fft descent: the thread arena grows well past 1 byte

  // First batch is admitted (the ceiling is checked against the LAST
  // published snapshot, which starts at zero).
  const std::vector<PricingResult> first = server.price({&q, 1});
  ASSERT_EQ(first.at(0).status, Status::ok);

  // By completion the shard has published its scratch footprint, so
  // the next submission must bounce with a retry hint — deterministically,
  // because stats are published before completion is signalled.
  const std::vector<PricingResult> second = server.price({&q, 1});
  ASSERT_EQ(second.at(0).status, Status::overloaded);
  EXPECT_NE(second.at(0).message.find("retry"), std::string::npos);
  EXPECT_NE(second.at(0).message.find("scratch"), std::string::npos);

  const Server::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.rejected, 1u);
  ASSERT_EQ(st.shard.size(), 1u);
  EXPECT_GT(st.shard[0].scratch_total_bytes, 1u);
}

TEST(Server, QueueBoundRejectsWhenDepthCapIsZeroedDown) {
  ServerConfig cfg;
  cfg.queue_capacity = 1;
  cfg.coalesce_window_us = 0;
  Server server(cfg);
  // With capacity 1 a burst larger than the queue either prices or
  // bounces every item — none may vanish or block forever.
  std::vector<PricingRequest> reqs(64);
  for (auto& r : reqs) {
    r.spec = paper_spec();
    r.T = 64;
  }
  std::vector<PricingResult> out;
  server.price_into(reqs, out);
  std::size_t ok = 0, overloaded = 0;
  for (const PricingResult& r : out) {
    if (r.status == Status::ok) ++ok;
    if (r.status == Status::overloaded) ++overloaded;
  }
  EXPECT_EQ(ok + overloaded, reqs.size());
  EXPECT_GT(ok, 0u);  // the worker drains, so at least one item lands
}

TEST(Server, StopDrainsEveryQueuedItem) {
  ServerConfig cfg;
  cfg.coalesce_window_us = 200000;  // long linger: items sit queued
  Server server(cfg);
  std::vector<PricingRequest> reqs(6);
  for (auto& r : reqs) {
    r.spec = paper_spec();
    r.T = 64;
  }
  std::vector<PricingResult> out(reqs.size());
  Server::Batch done;
  server.submit(reqs, out.data(), done);
  server.stop();  // must cut the linger short AND drain everything queued
  EXPECT_TRUE(done.done());
  for (const PricingResult& r : out) EXPECT_EQ(r.status, Status::ok);

  // Submissions after stop bounce rather than hang.
  const std::vector<PricingResult> late = server.price({&reqs[0], 1});
  EXPECT_EQ(late.at(0).status, Status::overloaded);
}

// ------------------------------------------------------------- wire plane

/// Read frames from `t` until one result batch decodes (or EOF).
[[nodiscard]] wire::DecodeError read_result_frame(
    Transport& t, std::vector<PricingResult>& results) {
  std::vector<std::byte> buf;
  std::size_t have = 0;
  for (;;) {
    std::size_t consumed = 0;
    const wire::DecodeError e =
        wire::decode_result_batch({buf.data(), have}, results, consumed);
    if (e != wire::DecodeError::need_more) return e;
    if (buf.size() < have + 4096) buf.resize(have + 4096);
    const std::size_t n = t.read_some({buf.data() + have, buf.size() - have});
    if (n == 0) return wire::DecodeError::need_more;  // EOF mid-frame
    have += n;
  }
}

TEST(Server, ServesTheFramedProtocolOverLoopback) {
  Server server;
  auto [client, daemon] = loopback_pair();
  std::thread conn([&server, t = daemon.get()] { server.serve(*t); });

  std::vector<PricingRequest> reqs = mixed_batch();
  // A solver override the solvers would abort on: a per-item error reply,
  // not a dead daemon.
  PricingRequest bad_solver = reqs.front();
  bad_solver.solver = core::SolverConfig{};
  bad_solver.solver->base_case = 0;
  reqs.push_back(bad_solver);
  Pricer direct;
  const std::vector<PricingResult> want = direct.price_many(reqs);
  ASSERT_EQ(want.back().status, Status::error);

  // Two round trips on one connection; the second frame is delivered in
  // two chunks to exercise stream reassembly.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::byte> frame;
    wire::encode_request_batch_v2(reqs, {}, /*attempt=*/0, frame);
    if (round == 0) {
      ASSERT_TRUE(client->write_all(frame));
    } else {
      const std::size_t cut = wire::kHeaderBytes + 7;
      ASSERT_TRUE(client->write_all({frame.data(), cut}));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE(
          client->write_all({frame.data() + cut, frame.size() - cut}));
    }
    std::vector<PricingResult> got;
    ASSERT_EQ(read_result_frame(*client, got), wire::DecodeError::ok);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, want[i].status);
      EXPECT_EQ(bits(got[i].price), bits(want[i].price));
    }
    EXPECT_EQ(got.back().status, Status::error);
    EXPECT_NE(got.back().message.find("base_case"), std::string::npos);
  }

  client->close();
  conn.join();
}

TEST(Server, MalformedFrameGetsADiagnosticReplyThenClose) {
  Server server;
  auto [client, daemon] = loopback_pair();
  std::thread conn([&server, t = daemon.get()] { server.serve(*t); });

  const char junk[] = "GET / HTTP/1.1\r\n\r\n";  // not our magic
  ASSERT_TRUE(client->write_all(
      std::as_bytes(std::span<const char>{junk, sizeof(junk)})));

  std::vector<PricingResult> reply;
  ASSERT_EQ(read_result_frame(*client, reply), wire::DecodeError::ok);
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0].status, Status::error);
  EXPECT_NE(reply[0].message.find("bad-magic"), std::string::npos);

  // The daemon hung up: the next read is EOF.
  std::byte b;
  EXPECT_EQ(client->read_some({&b, 1}), 0u);
  conn.join();
}

// ---------------------------------------------------------- failure plane

TEST(Server, DeadlineShedHappensBeforePricingNotAfter) {
  // Items sit in a long coalescing linger; the ones whose deadline passes
  // while queued must be shed with deadline_exceeded BEFORE pricing, the
  // unbounded ones priced normally.
  ServerConfig cfg;
  cfg.coalesce_window_us = 20000;  // 20 ms linger: deadlines expire in queue
  Server server(cfg);

  std::vector<PricingRequest> reqs(4);
  for (auto& r : reqs) {
    r.spec = paper_spec();
    r.T = 64;
  }
  const auto now = std::chrono::steady_clock::now();
  const std::chrono::steady_clock::time_point deadlines[] = {
      now + std::chrono::microseconds(1),  // expires during the linger
      std::chrono::steady_clock::time_point::max(),
      now + std::chrono::microseconds(1),
      std::chrono::steady_clock::time_point::max(),
  };
  std::vector<PricingResult> out(reqs.size());
  Server::Batch done;
  server.submit(reqs, deadlines, out.data(), done);
  done.wait();

  EXPECT_EQ(out[0].status, Status::deadline_exceeded);
  EXPECT_EQ(out[2].status, Status::deadline_exceeded);
  EXPECT_NE(out[0].message.find("stale"), std::string::npos);
  EXPECT_TRUE(std::isnan(out[0].price));  // nothing was computed
  EXPECT_EQ(out[1].status, Status::ok);
  EXPECT_EQ(out[3].status, Status::ok);

  const Server::Stats st = server.stats();
  EXPECT_EQ(st.deadline_shed, 2u);
  EXPECT_EQ(st.completed, 2u);  // only the live items were priced
  // Per-shard counters fold up to the totals.
  std::uint64_t shard_sum = 0;
  for (const Server::ShardCounters& c : st.shard_counters)
    shard_sum += c.deadline_shed;
  EXPECT_EQ(shard_sum, st.deadline_shed);
}

TEST(Server, StopWithGraceShedsQueuedItemsInsteadOfPricingThem) {
  ServerConfig cfg;
  cfg.coalesce_window_us = 0;
  cfg.max_coalesced_items = 1;  // one slow item per drain iteration
  Server server(cfg);

  std::vector<PricingRequest> reqs(6);
  for (auto& r : reqs) {
    r.spec = paper_spec();
    r.T = 16384;  // slow enough that the queue outlives the grace
  }
  std::vector<PricingResult> out(reqs.size());
  Server::Batch done;
  server.submit(reqs, out.data(), done);
  server.stop(std::chrono::microseconds(100));

  // Every item reached exactly one terminal status before stop returned:
  // whatever was already pricing completed, the rest shed as overloaded.
  EXPECT_TRUE(done.done());
  std::uint64_t n_ok = 0, n_shed = 0;
  for (const PricingResult& r : out) {
    ASSERT_TRUE(r.status == Status::ok || r.status == Status::overloaded)
        << to_string(r.status);
    if (r.status == Status::ok)
      ++n_ok;
    else {
      ++n_shed;
      EXPECT_NE(r.message.find("draining"), std::string::npos);
    }
  }
  EXPECT_EQ(n_ok + n_shed, reqs.size());
  const Server::Stats st = server.stats();
  EXPECT_EQ(st.drain_shed, n_shed);
  // At most one item can have been mid-price when the grace expired.
  EXPECT_GE(st.drain_shed, reqs.size() - 1);
}

TEST(Server, ServeSpeaksV2DeadlinesAndCountsRetriesAndDecodeErrors) {
  ServerConfig cfg;
  cfg.coalesce_window_us = 20000;  // linger past the 1 us budgets below
  Server server(cfg);
  auto [client, daemon] = loopback_pair();
  std::thread conn([&server, t = daemon.get()] { server.serve(*t); });

  std::vector<PricingRequest> reqs(2);
  for (auto& r : reqs) {
    r.spec = paper_spec();
    r.T = 64;
  }
  // A frame with already-hopeless budgets and a retry marker.
  const std::uint64_t budgets[] = {1, 1};
  std::vector<std::byte> frame;
  wire::encode_request_batch_v2(reqs, budgets, /*attempt=*/1, frame);
  ASSERT_TRUE(client->write_all(frame));
  std::vector<PricingResult> got;
  ASSERT_EQ(read_result_frame(*client, got), wire::DecodeError::ok);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].status, Status::deadline_exceeded);
  EXPECT_EQ(got[1].status, Status::deadline_exceeded);

  // The same connection keeps serving a deadline-free frame afterwards.
  frame.clear();
  wire::encode_request_batch_v2({&reqs[0], 1}, {}, /*attempt=*/0, frame);
  ASSERT_TRUE(client->write_all(frame));
  ASSERT_EQ(read_result_frame(*client, got), wire::DecodeError::ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Status::ok);
  client->close();
  conn.join();

  // A second connection feeding junk bumps decode_errors.
  auto [client2, daemon2] = loopback_pair();
  std::thread conn2([&server, t = daemon2.get()] { server.serve(*t); });
  const char junk[] = "\x01\x02\x03 definitely not a frame";
  ASSERT_TRUE(client2->write_all(
      std::as_bytes(std::span<const char>{junk, sizeof(junk)})));
  std::vector<PricingResult> diag;
  ASSERT_EQ(read_result_frame(*client2, diag), wire::DecodeError::ok);
  conn2.join();

  const Server::Stats st = server.stats();
  EXPECT_EQ(st.deadline_shed, 2u);
  EXPECT_EQ(st.retries_observed, 1u);
  EXPECT_EQ(st.decode_errors, 1u);
}

TEST(Server, TcpHardCloseMidFrameLeavesServerServingNextConnection) {
  // A client dying mid-frame must cost exactly its own connection: the
  // serve() call returns cleanly (no SIGPIPE, no wedged shard) and the
  // daemon accepts and serves the next connection as if nothing happened.
  Server server;
  TcpListener listener(0);
  ASSERT_NE(listener.port(), 0);
  std::thread acceptor([&] {
    for (int i = 0; i < 2; ++i)
      if (auto t = listener.accept()) server.serve(*t);
  });

  {
    auto dying = tcp_connect("127.0.0.1", listener.port());
    ASSERT_NE(dying, nullptr);
    PricingRequest q;
    q.spec = paper_spec();
    std::vector<std::byte> frame;
    wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, frame);
    // Header plus a few record bytes, then a hard close mid-frame.
    ASSERT_TRUE(dying->write_all({frame.data(), wire::kHeaderBytes + 5}));
    dying->close();
  }

  auto client = tcp_connect("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 96;
  std::vector<std::byte> frame;
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, frame);
  ASSERT_TRUE(client->write_all(frame));
  std::vector<PricingResult> got;
  ASSERT_EQ(read_result_frame(*client, got), wire::DecodeError::ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Status::ok);

  client->close();
  acceptor.join();
  listener.close();
}

TEST(Server, TcpTransportCarriesTheSameProtocol) {
  Server server;
  TcpListener listener(0);  // ephemeral port
  ASSERT_NE(listener.port(), 0);
  std::thread acceptor([&] {
    if (auto t = listener.accept()) server.serve(*t);
  });

  auto client = tcp_connect("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 96;
  std::vector<std::byte> frame;
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, frame);
  ASSERT_TRUE(client->write_all(frame));
  std::vector<PricingResult> got;
  ASSERT_EQ(read_result_frame(*client, got), wire::DecodeError::ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Status::ok);
  Pricer direct;
  EXPECT_EQ(bits(got[0].price), bits(direct.price_one(q).price));

  client->close();
  acceptor.join();
  listener.close();
}

}  // namespace
