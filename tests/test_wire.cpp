// Wire-format properties (service/wire.hpp): exact round trip — bit-
// identical doubles, including NaN payloads, infinities and signed zeros —
// across every supports() combination; strict rejection of truncated and
// corrupted frames as DecodeError values (never UB — this binary also runs
// under the CI ASan/UBSan leg); stream framing that consumes exactly one
// frame at a time.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "amopt/service/wire.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;
using namespace amopt::service;

constexpr Model kModels[] = {Model::bopm, Model::topm, Model::bsm};
constexpr Right kRights[] = {Right::call, Right::put};
constexpr Style kStyles[] = {Style::american, Style::european};
constexpr Engine kEngines[] = {Engine::fft,   Engine::vanilla,
                               Engine::vanilla_parallel, Engine::tiled,
                               Engine::cache_oblivious,  Engine::quantlib};

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

/// Field-by-field bitwise equality — EXPECT_EQ on doubles would call NaN
/// != NaN a mismatch and -0.0 == +0.0 a match, both wrong for a wire test.
void expect_bitwise_equal(const PricingRequest& a, const PricingRequest& b) {
  EXPECT_EQ(bits(a.spec.S), bits(b.spec.S));
  EXPECT_EQ(bits(a.spec.K), bits(b.spec.K));
  EXPECT_EQ(bits(a.spec.R), bits(b.spec.R));
  EXPECT_EQ(bits(a.spec.V), bits(b.spec.V));
  EXPECT_EQ(bits(a.spec.Y), bits(b.spec.Y));
  EXPECT_EQ(bits(a.spec.expiry_years), bits(b.spec.expiry_years));
  EXPECT_EQ(a.T, b.T);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.right, b.right);
  EXPECT_EQ(a.style, b.style);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.compute, b.compute);
  EXPECT_EQ(bits(a.target_price), bits(b.target_price));
  EXPECT_EQ(bits(a.iv.tol), bits(b.iv.tol));
  EXPECT_EQ(bits(a.iv.vol_lo), bits(b.iv.vol_lo));
  EXPECT_EQ(bits(a.iv.vol_hi), bits(b.iv.vol_hi));
  EXPECT_EQ(a.iv.max_iterations, b.iv.max_iterations);
  EXPECT_EQ(a.iv.T, b.iv.T);
  ASSERT_EQ(a.solver.has_value(), b.solver.has_value());
  if (a.solver.has_value()) {
    EXPECT_EQ(a.solver->base_case, b.solver->base_case);
    EXPECT_EQ(a.solver->parallel, b.solver->parallel);
    EXPECT_EQ(a.solver->alo_nodes, b.solver->alo_nodes);
    EXPECT_EQ(a.solver->alo_quad, b.solver->alo_quad);
    EXPECT_EQ(a.solver->alo_iterations, b.solver->alo_iterations);
  }
}

void expect_bitwise_equal(const PricingResult& a, const PricingResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(bits(a.price), bits(b.price));
  EXPECT_EQ(bits(a.greeks.price), bits(b.greeks.price));
  EXPECT_EQ(bits(a.greeks.delta), bits(b.greeks.delta));
  EXPECT_EQ(bits(a.greeks.gamma), bits(b.greeks.gamma));
  EXPECT_EQ(bits(a.greeks.theta), bits(b.greeks.theta));
  EXPECT_EQ(bits(a.greeks.vega), bits(b.greeks.vega));
  EXPECT_EQ(bits(a.greeks.rho), bits(b.greeks.rho));
  EXPECT_EQ(bits(a.implied_vol.vol), bits(b.implied_vol.vol));
  EXPECT_EQ(a.implied_vol.converged, b.implied_vol.converged);
  EXPECT_EQ(a.implied_vol.iterations, b.implied_vol.iterations);
}

[[nodiscard]] std::vector<PricingRequest> exhaustive_requests() {
  std::vector<PricingRequest> reqs;
  int i = 0;
  for (Model m : kModels)
    for (Right r : kRights)
      for (Style s : kStyles)
        for (Engine e : kEngines) {
          PricingRequest q;
          q.model = m;
          q.right = r;
          q.style = s;
          q.engine = e;
          // Vary every field, with awkward values mixed in: NaN with a
          // payload, infinities, signed zero, denormals.
          q.spec.S = 100.0 + i;
          q.spec.K = i % 5 == 0 ? -0.0 : 130.0 - i;
          q.spec.R = i % 7 == 0
                         ? std::bit_cast<double>(0x7ff8dead'beef0001ull)
                         : 0.001 * i;
          q.spec.V = i % 6 == 0 ? std::numeric_limits<double>::infinity()
                                : 0.15 + 0.01 * i;
          q.spec.Y = i % 6 == 3 ? -std::numeric_limits<double>::infinity()
                                : 0.0163;
          q.spec.expiry_years =
              i % 8 == 0 ? std::numeric_limits<double>::denorm_min()
                         : 0.25 + 0.125 * (i % 9);
          q.T = 64 + 17 * i;
          q.compute = 1u + static_cast<unsigned>(i) % 7u;
          q.target_price = 3.5 + 0.25 * i;
          q.iv.tol = 1e-8 * (1 + i % 3);
          q.iv.vol_lo = 1e-4;
          q.iv.vol_hi = 4.0 + i % 2;
          q.iv.max_iterations = 32 + i;
          q.iv.T = 1024 + i;
          if (i % 2 == 0) {
            core::SolverConfig c;
            c.base_case = 4 + i % 8;
            c.parallel = i % 4 == 0;
            c.alo_nodes = 13 + i % 12;
            c.alo_quad = 25 + i % 40;
            c.alo_iterations = 8 + i % 24;
            q.solver = c;
          }
          reqs.push_back(q);
          ++i;
        }
  return reqs;
}

TEST(Wire, RequestBatchRoundTripsBitIdenticalOverAllCombinations) {
  std::vector<PricingRequest> reqs = exhaustive_requests();
  ASSERT_EQ(reqs.size(), 72u);  // the full supports() matrix
  // ... plus the boundary engine, which sits outside the lattice matrix.
  PricingRequest alo;
  alo.model = Model::bsm;
  alo.engine = Engine::boundary;
  alo.solver = core::SolverConfig{};
  alo.solver->alo_nodes = 25;
  alo.solver->alo_quad = 65;
  reqs.push_back(alo);

  std::vector<std::byte> buf;
  wire::encode_request_batch_v2(reqs, {}, /*attempt=*/0, buf);
  EXPECT_EQ(buf.size(),
            wire::kHeaderBytes + reqs.size() * wire::kRequestRecordBytes);

  std::vector<PricingRequest> back;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_request_batch(buf, back, consumed),
            wire::DecodeError::ok);
  EXPECT_EQ(consumed, buf.size());
  ASSERT_EQ(back.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_bitwise_equal(reqs[i], back[i]);
}

TEST(Wire, ResultBatchRoundTripsBitIdentical) {
  std::vector<PricingResult> results(6);
  results[0].status = Status::ok;
  results[0].price = 6.0930616081388835;
  results[0].greeks = {6.09, -0.55, 0.02, -1.9,
                       std::bit_cast<double>(0x7ff0dead'00000001ull), 0.4};
  results[1].status = Status::unsupported;
  results[1].message = "greeks: bsm_fdm engine has no greeks path";
  results[1].price = std::numeric_limits<double>::quiet_NaN();
  results[2].status = Status::failed_to_converge;
  results[2].implied_vol.vol = 0.19999999999;
  results[2].implied_vol.converged = false;
  results[2].implied_vol.iterations = 64;
  results[3].status = Status::error;
  results[3].message = std::string(3000, 'x');  // long diagnostic survives
  results[4].status = Status::overloaded;
  results[4].message = "overloaded: shard queue full; retry after a backoff";
  results[4].price = -0.0;
  results[5].status = Status::deadline_exceeded;
  results[5].message = "deadline exceeded: request went stale";

  std::vector<std::byte> buf;
  wire::encode_result_batch(results, buf);
  std::vector<PricingResult> back;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_result_batch(buf, back, consumed),
            wire::DecodeError::ok);
  EXPECT_EQ(consumed, buf.size());
  ASSERT_EQ(back.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    expect_bitwise_equal(results[i], back[i]);
  // The exception_ptr never crosses the wire.
  EXPECT_EQ(back[3].error, nullptr);
}

TEST(Wire, EmptyBatchesAreValidFrames) {
  std::vector<std::byte> buf;
  wire::encode_request_batch_v2({}, {}, /*attempt=*/0, buf);
  EXPECT_EQ(buf.size(), wire::kHeaderBytes);
  std::vector<PricingRequest> back{PricingRequest{}};
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_request_batch(buf, back, consumed),
            wire::DecodeError::ok);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(consumed, wire::kHeaderBytes);
}

TEST(Wire, UnknownComputeBitsPassThroughForForwardCompat) {
  // Frame-level validation deliberately leaves `compute` alone: unknown
  // bits must become a per-item Status downstream, not poison the frame.
  PricingRequest q;
  q.compute = 0xee;
  std::vector<std::byte> buf;
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, buf);
  std::vector<PricingRequest> back;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_request_batch(buf, back, consumed),
            wire::DecodeError::ok);
  EXPECT_EQ(back.at(0).compute, 0xeeu);
}

TEST(Wire, EveryTruncationIsNeedMoreNeverACrash) {
  // Through both decoder overloads, including every offset of the
  // trailing deadline field.
  const std::vector<PricingRequest> reqs(3);
  const std::uint64_t budgets[] = {1, 2, 3};
  std::vector<std::byte> buf;
  wire::encode_request_batch_v2(reqs, budgets, /*attempt=*/0, buf);
  std::vector<PricingRequest> out;
  std::vector<std::uint64_t> dl;
  wire::FrameHeader hdr;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    std::size_t consumed = ~std::size_t{0};
    EXPECT_EQ(wire::decode_request_batch({buf.data(), len}, out, consumed),
              wire::DecodeError::need_more)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
    consumed = ~std::size_t{0};
    EXPECT_EQ(wire::decode_request_batch({buf.data(), len}, out, dl, hdr,
                                         consumed),
              wire::DecodeError::need_more)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Wire, HeaderCorruptionIsDiagnosedPrecisely) {
  PricingRequest q;
  std::vector<std::byte> good;
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, good);
  std::vector<PricingRequest> out;
  std::size_t consumed = 0;

  auto mutate = [&](std::size_t off, std::uint8_t value) {
    std::vector<std::byte> bad = good;
    bad[off] = static_cast<std::byte>(value);
    return wire::decode_request_batch(bad, out, consumed);
  };
  EXPECT_EQ(mutate(0, 0x00), wire::DecodeError::bad_magic);
  EXPECT_EQ(mutate(4, 0x7f), wire::DecodeError::bad_version);
  EXPECT_EQ(mutate(4, 0x01), wire::DecodeError::bad_version);  // retired v1
  EXPECT_EQ(mutate(5, 0x09), wire::DecodeError::bad_kind);
  EXPECT_EQ(mutate(7, 0x01), wire::DecodeError::bad_reserved);
  // Count/payload mismatch: count says 2, payload holds 1 record.
  EXPECT_EQ(mutate(8, 0x02), wire::DecodeError::bad_length);
  // A result frame fed to the request decoder is a kind error.
  {
    std::vector<PricingResult> results(1);
    std::vector<std::byte> res;
    wire::encode_result_batch(results, res);
    EXPECT_EQ(wire::decode_request_batch(res, out, consumed),
              wire::DecodeError::bad_kind);
  }
  // An absurd declared payload is rejected before any allocation sizing.
  {
    std::vector<std::byte> bad = good;
    const std::uint32_t huge = 0xffffff00u;
    std::memcpy(bad.data() + 12, &huge, sizeof(huge));
    EXPECT_EQ(wire::decode_request_batch(bad, out, consumed),
              wire::DecodeError::oversized);
  }
}

TEST(Wire, RecordCorruptionIsRejected) {
  PricingRequest q;
  q.solver.reset();
  std::vector<std::byte> good;
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, good);
  std::vector<PricingRequest> out;
  std::size_t consumed = 0;

  {  // out-of-range engine byte
    std::vector<std::byte> bad = good;
    bad[wire::kHeaderBytes + 59] = static_cast<std::byte>(200);
    EXPECT_EQ(wire::decode_request_batch(bad, out, consumed),
              wire::DecodeError::bad_enum);
  }
  {  // nonzero solver block while has_solver == 0
    std::vector<std::byte> bad = good;
    bad[wire::kHeaderBytes + 130] = static_cast<std::byte>(1);
    EXPECT_EQ(wire::decode_request_batch(bad, out, consumed),
              wire::DecodeError::bad_reserved);
  }
  {  // a solver block selecting a retired option is rejected, never
     // misread: the retired fork cutoff (bytes 120-127), boundary drift
     // (129), memory plane (130) and conv path (131) are reserved-zero
    PricingRequest with_solver;
    with_solver.solver = core::SolverConfig{};
    std::vector<std::byte> solver_frame;
    wire::encode_request_batch_v2({&with_solver, 1}, {}, /*attempt=*/0,
                                  solver_frame);
    ASSERT_EQ(wire::decode_request_batch(solver_frame, out, consumed),
              wire::DecodeError::ok);
    for (const std::size_t off : {120u, 127u, 129u, 130u, 131u}) {
      std::vector<std::byte> bad = solver_frame;
      bad[wire::kHeaderBytes + off] = static_cast<std::byte>(1);
      EXPECT_EQ(wire::decode_request_batch(bad, out, consumed),
                wire::DecodeError::bad_reserved)
          << "solver byte " << off;
    }
  }
  {  // status byte past deadline_exceeded
    std::vector<PricingResult> results(1);
    std::vector<std::byte> res;
    wire::encode_result_batch(results, res);
    res[wire::kHeaderBytes] = std::byte{6};
    std::vector<PricingResult> rout;
    EXPECT_EQ(wire::decode_result_batch(res, rout, consumed),
              wire::DecodeError::bad_enum);
  }
  {  // message length pointing past the payload
    std::vector<PricingResult> results(1);
    results[0].message = "abc";
    std::vector<std::byte> res;
    wire::encode_result_batch(results, res);
    std::vector<PricingResult> rout;
    res[wire::kHeaderBytes + 4] = static_cast<std::byte>(200);
    EXPECT_EQ(wire::decode_result_batch(res, rout, consumed),
              wire::DecodeError::bad_length);
  }
  {  // declared payload longer than its records: trailing slack is an error
    std::vector<PricingResult> results(1);
    std::vector<std::byte> res;
    wire::encode_result_batch(results, res);
    res.push_back(std::byte{0});
    const std::uint32_t payload =
        static_cast<std::uint32_t>(res.size() - wire::kHeaderBytes);
    std::memcpy(res.data() + 12, &payload, sizeof(payload));
    std::vector<PricingResult> rout;
    EXPECT_EQ(wire::decode_result_batch(res, rout, consumed),
              wire::DecodeError::bad_length);
  }
}

TEST(Wire, SingleByteFuzzNeverCrashesTheDecoders) {
  // Flip every byte of a valid two-record frame through a handful of
  // values: the decoder must always return cleanly (ok when the flipped
  // byte lands in a don't-care position like a double payload, an error
  // value otherwise) — never crash, scribble, or read out of bounds. The
  // sanitizer CI leg turns any violation into a failure here.
  std::vector<PricingRequest> reqs(2);
  reqs[1].solver = core::SolverConfig{};
  std::vector<std::byte> good;
  wire::encode_request_batch_v2(reqs, {}, /*attempt=*/0, good);
  std::vector<PricingRequest> out;
  constexpr std::uint8_t kProbes[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
  for (std::size_t off = 0; off < good.size(); ++off) {
    for (std::uint8_t probe : kProbes) {
      std::vector<std::byte> bad = good;
      bad[off] = static_cast<std::byte>(probe);
      std::size_t consumed = 0;
      const wire::DecodeError e =
          wire::decode_request_batch(bad, out, consumed);
      if (e == wire::DecodeError::ok) {
        EXPECT_EQ(consumed, bad.size());
      }
      if (e == wire::DecodeError::need_more) {
        EXPECT_GT(off, 11u);  // only the length field can demand more bytes
      }
    }
  }
}

TEST(Wire, StreamDecodingConsumesExactlyOneFrame) {
  // Two frames back to back plus a trailing partial header: the decoder
  // peels the first frame exactly and reports need_more on the tail.
  std::vector<PricingRequest> first(2), second(1);
  first[0].T = 111;
  second[0].T = 222;
  std::vector<std::byte> stream;
  wire::encode_request_batch_v2(first, {}, /*attempt=*/0, stream);
  const std::size_t first_bytes = stream.size();
  wire::encode_request_batch_v2(second, {}, /*attempt=*/0, stream);
  const std::size_t second_bytes = stream.size() - first_bytes;
  stream.push_back(std::byte{'A'});  // start of a third frame's magic

  std::vector<PricingRequest> out;
  std::size_t consumed = 0;
  std::span<const std::byte> cursor{stream};
  ASSERT_EQ(wire::decode_request_batch(cursor, out, consumed),
            wire::DecodeError::ok);
  EXPECT_EQ(consumed, first_bytes);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].T, 111);
  cursor = cursor.subspan(consumed);
  ASSERT_EQ(wire::decode_request_batch(cursor, out, consumed),
            wire::DecodeError::ok);
  EXPECT_EQ(consumed, second_bytes);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].T, 222);
  cursor = cursor.subspan(consumed);
  EXPECT_EQ(wire::decode_request_batch(cursor, out, consumed),
            wire::DecodeError::need_more);
}

// ------------------------------------------------------------- deadlines
// The failure plane's fields (DESIGN.md §11): request records carry a
// trailing u64 remaining-budget field and the header's byte 6 is the
// client's attempt counter.

TEST(WireV2, RequestBatchRoundTripsDeadlinesAndAttempt) {
  std::vector<PricingRequest> reqs = exhaustive_requests();
  std::vector<std::uint64_t> deadlines(reqs.size());
  for (std::size_t i = 0; i < deadlines.size(); ++i)
    deadlines[i] = i % 3 == 0 ? 0 : 1000 + 77 * i;  // 0 = no deadline

  std::vector<std::byte> buf;
  wire::encode_request_batch_v2(reqs, deadlines, /*attempt=*/3, buf);
  EXPECT_EQ(buf.size(),
            wire::kHeaderBytes + reqs.size() * wire::kRequestRecordBytes);

  std::vector<PricingRequest> back;
  std::vector<std::uint64_t> back_deadlines;
  wire::FrameHeader hdr;
  std::size_t consumed = 0;
  ASSERT_EQ(
      wire::decode_request_batch(buf, back, back_deadlines, hdr, consumed),
      wire::DecodeError::ok);
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(hdr.attempt, 3);
  ASSERT_EQ(back.size(), reqs.size());
  ASSERT_EQ(back_deadlines.size(), deadlines.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expect_bitwise_equal(reqs[i], back[i]);
    EXPECT_EQ(back_deadlines[i], deadlines[i]);
  }

  // The deadline-free decoder drops the budgets and keeps the requests.
  std::vector<PricingRequest> plain;
  ASSERT_EQ(wire::decode_request_batch(buf, plain, consumed),
            wire::DecodeError::ok);
  EXPECT_EQ(consumed, buf.size());
  ASSERT_EQ(plain.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_bitwise_equal(reqs[i], plain[i]);
}

TEST(WireV2, MultiFrameStreamWithInjectedFaults) {
  // A stream of frames with and without deadlines back to back, decoded
  // the way serve() does — then the same stream with faults injected
  // between and inside frames. The decoder must peel clean frames exactly
  // and convert every fault into a DecodeError at the frame it corrupts,
  // never before.
  std::vector<PricingRequest> a(2), b(1), c(3);
  a[0].T = 11;
  b[0].T = 22;
  c[0].T = 33;
  const std::uint64_t budgets_b[] = {1234};
  std::vector<std::byte> stream;
  wire::encode_request_batch_v2(a, {}, /*attempt=*/0, stream);
  const std::size_t a_end = stream.size();
  wire::encode_request_batch_v2(b, budgets_b, /*attempt=*/2, stream);
  const std::size_t b_end = stream.size();
  wire::encode_request_batch_v2(c, {}, /*attempt=*/0, stream);

  const auto drain = [](std::span<const std::byte> cursor,
                        std::vector<std::size_t>& counts) {
    std::vector<PricingRequest> out;
    std::vector<std::uint64_t> dl;
    wire::FrameHeader hdr;
    for (;;) {
      std::size_t consumed = 0;
      const wire::DecodeError e =
          wire::decode_request_batch(cursor, out, dl, hdr, consumed);
      if (e != wire::DecodeError::ok) return e;
      counts.push_back(out.size());
      cursor = cursor.subspan(consumed);
      if (cursor.empty()) return wire::DecodeError::ok;
    }
  };

  {  // clean stream: three frames, exact counts
    std::vector<std::size_t> counts;
    EXPECT_EQ(drain(stream, counts), wire::DecodeError::ok);
    EXPECT_EQ(counts, (std::vector<std::size_t>{2, 1, 3}));
  }
  {  // truncation on a frame boundary: the tail frame reports need_more
    std::vector<std::size_t> counts;
    EXPECT_EQ(drain({stream.data(), b_end + 7}, counts),
              wire::DecodeError::need_more);
    EXPECT_EQ(counts, (std::vector<std::size_t>{2, 1}));
  }
  {  // a fault INSIDE the middle frame: first frame still decodes, the
     // corrupted one errors (version byte of frame b)
    std::vector<std::byte> bad(stream.begin(), stream.end());
    bad[a_end + 4] = std::byte{9};
    std::vector<std::size_t> counts;
    EXPECT_EQ(drain(bad, counts), wire::DecodeError::bad_version);
    EXPECT_EQ(counts, (std::vector<std::size_t>{2}));
  }
  {  // a flipped bit BETWEEN frames (b's magic): desync diagnosed at b
    std::vector<std::byte> bad(stream.begin(), stream.end());
    bad[a_end] = std::byte{0x7e};
    std::vector<std::size_t> counts;
    EXPECT_EQ(drain(bad, counts), wire::DecodeError::bad_magic);
    EXPECT_EQ(counts, (std::vector<std::size_t>{2}));
  }
  {  // single-byte fuzz across the whole mixed stream: never a crash
    std::vector<PricingRequest> out;
    std::vector<std::uint64_t> dl;
    wire::FrameHeader hdr;
    for (std::size_t off = 0; off < stream.size(); ++off) {
      std::vector<std::byte> bad(stream.begin(), stream.end());
      bad[off] = static_cast<std::byte>(static_cast<std::uint8_t>(bad[off]) ^
                                        0xa5u);
      std::span<const std::byte> cursor{bad};
      for (;;) {
        std::size_t consumed = 0;
        if (wire::decode_request_batch(cursor, out, dl, hdr, consumed) !=
            wire::DecodeError::ok)
          break;
        cursor = cursor.subspan(consumed);
        if (cursor.empty()) break;
      }
    }
  }
}

TEST(Wire, EncodeAppendsSoFramesPackIntoOneWrite) {
  PricingRequest q;
  std::vector<std::byte> buf;
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, buf);
  const std::size_t one = buf.size();
  wire::encode_request_batch_v2({&q, 1}, {}, /*attempt=*/0, buf);
  EXPECT_EQ(buf.size(), 2 * one);  // first frame untouched, second appended
  wire::FrameHeader hdr;
  EXPECT_EQ(wire::peek_header(buf, hdr), wire::DecodeError::ok);
  EXPECT_EQ(hdr.kind, wire::Kind::request_batch);
  EXPECT_EQ(hdr.count, 1u);
}

}  // namespace
