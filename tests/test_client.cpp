// The retrying client's contract (DESIGN.md §11): every price_many call
// ends with exactly one terminal status per item, no matter what the
// transport does. Backoff is deterministic off the jitter seed; overloaded
// is the only retried status; any transport failure drops the connection
// and resubmits the still-pending items as a whole v2 frame with a bumped
// attempt header; deadlines turn a silent peer into `deadline_exceeded`
// instead of a hang. Scripted in-test servers pin the frame-level protocol
// (what the client actually sends per attempt); real `Server::serve`
// threads behind a FaultInjectingTransport pin end-to-end recovery.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "amopt/pricing/pricer.hpp"
#include "amopt/service/client.hpp"
#include "amopt/service/fault.hpp"
#include "amopt/service/server.hpp"
#include "amopt/service/transport.hpp"
#include "amopt/service/wire.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;
using namespace amopt::service;

[[nodiscard]] std::vector<PricingRequest> put_chain(std::size_t n) {
  std::vector<PricingRequest> reqs;
  PricingRequest q;
  q.spec = paper_spec();
  q.right = Right::put;
  q.T = 256;
  for (std::size_t i = 0; i < n; ++i) {
    q.spec.K = 110.0 + 5.0 * static_cast<double>(i);
    reqs.push_back(q);
  }
  return reqs;
}

// Blocking-read one whole request frame off `t` (scripted-server side).
// Returns false on EOF before a full frame.
[[nodiscard]] bool read_request_frame(Transport& t,
                                      std::vector<PricingRequest>& reqs,
                                      std::vector<std::uint64_t>& deadlines,
                                      wire::FrameHeader& hdr) {
  std::vector<std::byte> buf(std::size_t{1} << 16);
  std::size_t have = 0;
  for (;;) {
    std::size_t consumed = 0;
    const wire::DecodeError e = wire::decode_request_batch(
        {buf.data(), have}, reqs, deadlines, hdr, consumed);
    if (e == wire::DecodeError::ok) return true;
    if (e != wire::DecodeError::need_more) return false;
    const std::size_t n = t.read_some({buf.data() + have, buf.size() - have});
    if (n == 0) return false;
    have += n;
  }
}

TEST(ClientBackoff, IsDeterministicDoublingCappedAndJittered) {
  // Same seed, same sequence — reproducible soaks. Each value lands in
  // [50%, 100%] of min(max, initial * 2^(attempt-1)).
  std::uint64_t s1 = 42, s2 = 42;
  for (unsigned attempt = 1; attempt <= 12; ++attempt) {
    const std::uint64_t a = service::detail::backoff_us(500, 100000, attempt, s1);
    const std::uint64_t b = service::detail::backoff_us(500, 100000, attempt, s2);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    std::uint64_t base = 500;
    for (unsigned i = 1; i < attempt && base < 100000; ++i) base *= 2;
    base = std::min<std::uint64_t>(base, 100000);
    EXPECT_GE(a, base / 2) << "attempt " << attempt;
    EXPECT_LE(a, base) << "attempt " << attempt;
  }
  // Different seeds decorrelate (the whole point of jitter): at least one
  // of the first few draws must differ.
  std::uint64_t s3 = 1, s4 = 2;
  bool differs = false;
  for (unsigned attempt = 1; attempt <= 8; ++attempt)
    differs |= service::detail::backoff_us(500, 100000, attempt, s3) !=
               service::detail::backoff_us(500, 100000, attempt, s4);
  EXPECT_TRUE(differs);
  // Degenerate knobs are quiet zeros, not UB.
  std::uint64_t s5 = 7;
  EXPECT_EQ(service::detail::backoff_us(0, 100000, 3, s5), 0u);
  EXPECT_EQ(service::detail::backoff_us(500, 100000, 0, s5), 0u);
}

TEST(Client, HappyPathPricesInOneAttemptAndReusesTheConnection) {
  Server server;
  auto [client_end, daemon_end] = loopback_pair();
  std::thread conn([&server, t = daemon_end.get()] { server.serve(*t); });

  ClientConfig cfg;
  auto endpoint =
      std::make_shared<std::unique_ptr<Transport>>(std::move(client_end));
  cfg.connect = [endpoint] { return std::move(*endpoint); };
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(4);
  std::vector<PricingResult> out;
  EXPECT_TRUE(client.price_many(reqs, out));
  ASSERT_EQ(out.size(), reqs.size());
  for (const PricingResult& r : out) EXPECT_EQ(r.status, Status::ok);
  EXPECT_EQ(client.last_call().attempts, 1u);
  EXPECT_EQ(client.last_call().reconnects, 0u);
  EXPECT_EQ(client.last_call().retried_items, 0u);

  // Second call rides the same connection; prices are bit-identical to a
  // direct session (the daemon is just a session behind a wire).
  std::vector<PricingResult> again;
  EXPECT_TRUE(client.price_many(reqs, again));
  EXPECT_EQ(client.last_call().attempts, 1u);
  EXPECT_EQ(client.last_call().reconnects, 0u);
  Pricer direct;
  const std::vector<PricingResult> want = direct.price_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(again[i].price, want[i].price);
    EXPECT_EQ(again[i].price, out[i].price);
  }
  EXPECT_EQ(server.stats().retries_observed, 0u);

  client.disconnect();
  conn.join();
}

TEST(Client, OnlyOverloadedItemsAreResentAndTheRetryFrameSaysSo) {
  // Scripted server: first frame answers {ok, overloaded, error}; the
  // retry frame must carry ONLY the overloaded item, with attempt == 1,
  // and gets an ok. Pins frame-level retry semantics exactly.
  auto [client_end, daemon_end] = loopback_pair();
  wire::FrameHeader hdr1{}, hdr2{};
  std::vector<PricingRequest> got1, got2;
  std::thread scripted([&, t = daemon_end.get()] {
    std::vector<std::uint64_t> dls;
    ASSERT_TRUE(read_request_frame(*t, got1, dls, hdr1));
    std::vector<PricingResult> res(got1.size());
    res[0].status = Status::ok;
    res[0].price = 17.25;
    res[1].status = Status::overloaded;
    res[1].message = "shard busy; retry after a backoff";
    res[2].status = Status::error;
    res[2].message = "scripted per-item failure";
    std::vector<std::byte> reply;
    wire::encode_result_batch(res, reply);
    ASSERT_TRUE(t->write_all(reply));

    ASSERT_TRUE(read_request_frame(*t, got2, dls, hdr2));
    std::vector<PricingResult> res2(got2.size());
    for (PricingResult& r : res2) {
      r.status = Status::ok;
      r.price = 9.5;
    }
    reply.clear();
    wire::encode_result_batch(res2, reply);
    ASSERT_TRUE(t->write_all(reply));
  });

  ClientConfig cfg;
  auto endpoint =
      std::make_shared<std::unique_ptr<Transport>>(std::move(client_end));
  cfg.connect = [endpoint] { return std::move(*endpoint); };
  cfg.backoff_initial = std::chrono::microseconds(100);
  cfg.jitter_seed = 3;
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(3);
  std::vector<PricingResult> out;
  EXPECT_FALSE(client.price_many(reqs, out));  // the error item is terminal
  scripted.join();

  ASSERT_EQ(got1.size(), 3u);
  EXPECT_EQ(hdr1.attempt, 0u);
  ASSERT_EQ(got2.size(), 1u) << "retry frames carry only pending items";
  EXPECT_EQ(hdr2.attempt, 1u);
  EXPECT_EQ(got2[0].spec.K, reqs[1].spec.K) << "the overloaded item, alone";

  EXPECT_EQ(out[0].status, Status::ok);
  EXPECT_EQ(out[0].price, 17.25);
  EXPECT_EQ(out[1].status, Status::ok) << "retried to completion";
  EXPECT_EQ(out[1].price, 9.5);
  EXPECT_EQ(out[2].status, Status::error) << "errors are never retried";
  EXPECT_EQ(out[2].message, "scripted per-item failure");

  const CallStats& cs = client.last_call();
  EXPECT_EQ(cs.attempts, 2u);
  EXPECT_EQ(cs.retried_items, 1u);
  EXPECT_EQ(cs.reconnects, 0u);
  EXPECT_GT(cs.backoff_total_us, 0u) << "retries wait out a backoff";
  client.disconnect();
}

TEST(Client, ExhaustedRetriesKeepTheServersOverloadedVerdict) {
  // A server that never stops saying overloaded: after max_attempts the
  // item's terminal status is the server's own verdict and hint message,
  // not a synthesized transport error.
  auto [client_end, daemon_end] = loopback_pair();
  std::thread scripted([t = daemon_end.get()] {
    for (int frame = 0; frame < 2; ++frame) {
      std::vector<PricingRequest> reqs;
      std::vector<std::uint64_t> dls;
      wire::FrameHeader hdr{};
      if (!read_request_frame(*t, reqs, dls, hdr)) return;
      std::vector<PricingResult> res(reqs.size());
      for (PricingResult& r : res) {
        r.status = Status::overloaded;
        r.message = "saturated; retry after a backoff";
      }
      std::vector<std::byte> reply;
      wire::encode_result_batch(res, reply);
      if (!t->write_all(reply)) return;
    }
  });

  ClientConfig cfg;
  auto endpoint =
      std::make_shared<std::unique_ptr<Transport>>(std::move(client_end));
  cfg.connect = [endpoint] { return std::move(*endpoint); };
  cfg.max_attempts = 2;
  cfg.backoff_initial = std::chrono::microseconds(100);
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(2);
  std::vector<PricingResult> out;
  EXPECT_FALSE(client.price_many(reqs, out));
  for (const PricingResult& r : out) {
    EXPECT_EQ(r.status, Status::overloaded);
    EXPECT_NE(r.message.find("retry"), std::string::npos);
  }
  EXPECT_EQ(client.last_call().attempts, 2u);
  client.disconnect();
  scripted.join();
}

TEST(Client, DeadlineOnASilentServerIsTerminalNotAHang) {
  // The peer accepts frames and never answers. Every item must end
  // deadline_exceeded within the budget (plus scheduling slack) — the
  // no-hang guarantee the whole client exists for.
  std::vector<std::unique_ptr<Transport>> parked;  // keep peers alive
  ClientConfig cfg;
  cfg.connect = [&parked] {
    auto [a, b] = loopback_pair();
    parked.push_back(std::move(b));
    return std::move(a);
  };
  cfg.max_attempts = 100;  // the deadline, not the attempt cap, must bind
  cfg.backoff_initial = std::chrono::microseconds(200);
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(2);
  std::vector<PricingResult> out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      client.price_many(reqs, out, std::chrono::milliseconds(50)));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "must not block unbounded";
  for (const PricingResult& r : out) {
    EXPECT_EQ(r.status, Status::deadline_exceeded);
    EXPECT_NE(r.message.find("deadline"), std::string::npos);
    EXPECT_TRUE(std::isnan(r.price));
  }
  EXPECT_GE(client.last_call().attempts, 1u);
  client.disconnect();
}

TEST(Client, ConnectFailureIsATerminalTransportError) {
  ClientConfig cfg;
  cfg.connect = [] { return std::unique_ptr<Transport>(); };
  cfg.max_attempts = 3;
  cfg.backoff_initial = std::chrono::microseconds(50);
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(2);
  std::vector<PricingResult> out;
  EXPECT_FALSE(client.price_many(reqs, out));
  for (const PricingResult& r : out) {
    EXPECT_EQ(r.status, Status::error);
    EXPECT_NE(r.message.find("transport"), std::string::npos);
  }
  EXPECT_EQ(client.last_call().attempts, 0u) << "no frame ever went out";
  EXPECT_EQ(client.last_call().reconnects, 3u);
}

// Dials a real Server over fresh loopback pairs, one serve thread per
// dial, with the FIRST dial's client end wrapped in a fault injector.
struct FaultyDialer {
  explicit FaultyDialer(FaultConfig first_dial_faults)
      : faults(first_dial_faults) {}
  ~FaultyDialer() {
    server.stop();
    for (std::thread& th : threads) th.join();
  }
  [[nodiscard]] std::unique_ptr<Transport> dial() {
    auto [a, b] = loopback_pair();
    threads.emplace_back([this, t = b.get()] { server.serve(*t); });
    parked.push_back(std::move(b));
    if (dials++ == 0)
      return std::make_unique<FaultInjectingTransport>(std::move(a), faults);
    return a;
  }
  Server server;
  FaultConfig faults;
  int dials = 0;
  std::vector<std::unique_ptr<Transport>> parked;
  std::vector<std::thread> threads;
};

TEST(Client, TruncatedWriteForcesReconnectAndWholeFrameResubmission) {
  // Dial 1's first write is truncated mid-frame and hard-closed (a peer
  // dying mid-send). The client must reconnect and resubmit the whole
  // frame on a fresh transport; the server sees attempt > 0.
  FaultConfig faults;
  faults.truncate_write = 1.0;
  faults.seed = 11;
  FaultyDialer dialer(faults);

  ClientConfig cfg;
  cfg.connect = [&dialer] { return dialer.dial(); };
  cfg.backoff_initial = std::chrono::microseconds(100);
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(3);
  std::vector<PricingResult> out;
  EXPECT_TRUE(client.price_many(reqs, out));
  for (const PricingResult& r : out) EXPECT_EQ(r.status, Status::ok);
  EXPECT_EQ(client.last_call().reconnects, 1u);
  EXPECT_EQ(client.last_call().attempts, 2u);
  EXPECT_EQ(client.last_call().retried_items, reqs.size());
  EXPECT_GE(dialer.server.stats().retries_observed, 1u)
      << "the resubmitted frame carries its attempt count to the server";
  client.disconnect();
}

TEST(Client, LostReplyIsResubmittedAndPricedAgainIdempotently) {
  // drop_close on the first dial's READ path: the request reaches the
  // server and is priced, but the reply is lost when the injector
  // hard-closes. Resubmission prices the frame again — idempotent, so the
  // final answer matches a direct session bit for bit.
  FaultConfig faults;
  faults.drop_close = 1.0;
  faults.seed = 5;
  FaultyDialer dialer(faults);

  ClientConfig cfg;
  cfg.connect = [&dialer] { return dialer.dial(); };
  cfg.backoff_initial = std::chrono::microseconds(100);
  Client client(std::move(cfg));

  const std::vector<PricingRequest> reqs = put_chain(2);
  std::vector<PricingResult> out;
  EXPECT_TRUE(client.price_many(reqs, out));
  EXPECT_EQ(client.last_call().reconnects, 1u);

  Pricer direct;
  const std::vector<PricingResult> want = direct.price_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(out[i].price, want[i].price);
  client.disconnect();
}

}  // namespace
