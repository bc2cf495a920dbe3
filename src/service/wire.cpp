#include "amopt/service/wire.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace amopt::service::wire {

std::string_view to_string(DecodeError e) {
  switch (e) {
    case DecodeError::ok: return "ok";
    case DecodeError::need_more: return "need-more";
    case DecodeError::bad_magic: return "bad-magic";
    case DecodeError::bad_version: return "bad-version";
    case DecodeError::bad_kind: return "bad-kind";
    case DecodeError::bad_length: return "bad-length";
    case DecodeError::bad_enum: return "bad-enum";
    case DecodeError::bad_reserved: return "bad-reserved";
    case DecodeError::oversized: return "oversized";
  }
  return "?";
}

namespace {

using pricing::PricingRequest;
using pricing::PricingResult;

// The enum byte ranges the decoders accept, pinned against the real enums
// so adding a variant without updating the wire layer fails the build here
// instead of silently rejecting valid frames.
static_assert(static_cast<int>(pricing::Model::bsm) == 2);
static_assert(static_cast<int>(pricing::Right::put) == 1);
static_assert(static_cast<int>(pricing::Style::european) == 1);
static_assert(static_cast<int>(pricing::Engine::boundary) == 6);
static_assert(static_cast<int>(pricing::Status::overloaded) == 4);
static_assert(static_cast<int>(pricing::Status::deadline_exceeded) == 5);

// ---------------------------------------------------------------- raw I/O
// All accessors go through memcpy (defined for any alignment, no aliasing
// violation); on little-endian hosts that IS the wire order and compiles to
// a plain load/store, otherwise the bytes are swapped explicitly.

template <typename U>
[[nodiscard]] U byteswap(U v) {
  U out = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i)
    out = static_cast<U>(out << 8 | (v >> (8 * i) & 0xffu));
  return out;
}

template <typename U>
void store_le(std::byte* p, U v) {
  if constexpr (std::endian::native != std::endian::little) v = byteswap(v);
  std::memcpy(p, &v, sizeof(U));
}

template <typename U>
[[nodiscard]] U load_le(const std::byte* p) {
  U v;
  std::memcpy(&v, p, sizeof(U));
  if constexpr (std::endian::native != std::endian::little) v = byteswap(v);
  return v;
}

void store_f64(std::byte* p, double v) {
  store_le(p, std::bit_cast<std::uint64_t>(v));
}
[[nodiscard]] double load_f64(const std::byte* p) {
  return std::bit_cast<double>(load_le<std::uint64_t>(p));
}
void store_i64(std::byte* p, std::int64_t v) {
  store_le(p, static_cast<std::uint64_t>(v));
}
[[nodiscard]] std::int64_t load_i64(const std::byte* p) {
  return static_cast<std::int64_t>(load_le<std::uint64_t>(p));
}
void store_i32(std::byte* p, std::int32_t v) {
  store_le(p, static_cast<std::uint32_t>(v));
}
[[nodiscard]] std::int32_t load_i32(const std::byte* p) {
  return static_cast<std::int32_t>(load_le<std::uint32_t>(p));
}

void put_header(std::byte* p, Kind kind, std::uint8_t attempt,
                std::uint32_t count, std::uint32_t payload_bytes) {
  store_le<std::uint32_t>(p, kMagic);
  p[4] = static_cast<std::byte>(kVersion);
  p[5] = static_cast<std::byte>(kind);
  p[6] = static_cast<std::byte>(attempt);
  p[7] = std::byte{0};  // reserved
  store_le<std::uint32_t>(p + 8, count);
  store_le<std::uint32_t>(p + 12, payload_bytes);
}

// ----------------------------------------------------------- request recs
// Record layout (offsets in bytes; total kRequestRecordBytes = 152):
//    0  f64 x6   spec S, K, R, V, Y, expiry_years
//   48  i64      T
//   56  u8 x6    model, right, style, engine, compute, has_solver
//   62  u16      reserved (0)
//   64  f64      target_price
//   72  f64 x3   iv.tol, iv.vol_lo, iv.vol_hi
//   96  i32/u32  iv.max_iterations, reserved (0)
//  104  i64      iv.T (carried for exactness; the session ignores it)
//  112  [32]     solver override, all-zero when has_solver == 0:
//       112 i32  base_case        116 i32 alo_nodes
//       120 u64  reserved (0)
//       128 u8   parallel         129 u8x3 reserved (0)
//       132 i32  alo_quad         136 i32 alo_iterations
//       140 u32  reserved (0)
//  144  u64      deadline_us (written by the frame encoder)

void put_request(std::byte* p, const PricingRequest& q) {
  store_f64(p + 0, q.spec.S);
  store_f64(p + 8, q.spec.K);
  store_f64(p + 16, q.spec.R);
  store_f64(p + 24, q.spec.V);
  store_f64(p + 32, q.spec.Y);
  store_f64(p + 40, q.spec.expiry_years);
  store_i64(p + 48, q.T);
  p[56] = static_cast<std::byte>(q.model);
  p[57] = static_cast<std::byte>(q.right);
  p[58] = static_cast<std::byte>(q.style);
  p[59] = static_cast<std::byte>(q.engine);
  p[60] = static_cast<std::byte>(q.compute & 0xffu);
  p[61] = static_cast<std::byte>(q.solver.has_value() ? 1 : 0);
  store_le<std::uint16_t>(p + 62, 0);
  store_f64(p + 64, q.target_price);
  store_f64(p + 72, q.iv.tol);
  store_f64(p + 80, q.iv.vol_lo);
  store_f64(p + 88, q.iv.vol_hi);
  store_i32(p + 96, q.iv.max_iterations);
  store_le<std::uint32_t>(p + 100, 0);
  store_i64(p + 104, q.iv.T);
  std::memset(p + 112, 0, 32);  // reserved bytes, and an absent override
  if (q.solver.has_value()) {
    const core::SolverConfig& c = *q.solver;
    store_i32(p + 112, c.base_case);
    store_i32(p + 116, c.alo_nodes);
    p[128] = static_cast<std::byte>(c.parallel ? 1 : 0);
    store_i32(p + 132, c.alo_quad);
    store_i32(p + 136, c.alo_iterations);
  }
}

/// Byte offset of the trailing deadline_us field in a request record.
constexpr std::size_t kDeadlineOffset = 144;

[[nodiscard]] DecodeError get_request(const std::byte* p, PricingRequest& q) {
  const auto u8 = [&](std::size_t off) {
    return static_cast<std::uint8_t>(p[off]);
  };
  if (u8(56) > 2 || u8(57) > 1 || u8(58) > 1 || u8(59) > 6 || u8(61) > 1)
    return DecodeError::bad_enum;
  if (load_le<std::uint16_t>(p + 62) != 0 ||
      load_le<std::uint32_t>(p + 100) != 0)
    return DecodeError::bad_reserved;
  q.spec.S = load_f64(p + 0);
  q.spec.K = load_f64(p + 8);
  q.spec.R = load_f64(p + 16);
  q.spec.V = load_f64(p + 24);
  q.spec.Y = load_f64(p + 32);
  q.spec.expiry_years = load_f64(p + 40);
  q.T = load_i64(p + 48);
  q.model = static_cast<pricing::Model>(u8(56));
  q.right = static_cast<pricing::Right>(u8(57));
  q.style = static_cast<pricing::Style>(u8(58));
  q.engine = static_cast<pricing::Engine>(u8(59));
  q.compute = u8(60);  // unknown bits become a per-item Status, not a
                       // frame error (see wire.hpp versioning rules)
  q.target_price = load_f64(p + 64);
  q.iv.tol = load_f64(p + 72);
  q.iv.vol_lo = load_f64(p + 80);
  q.iv.vol_hi = load_f64(p + 88);
  q.iv.max_iterations = load_i32(p + 96);
  q.iv.T = load_i64(p + 104);
  if (u8(61) == 1) {
    if (u8(128) > 1) return DecodeError::bad_enum;
    if (load_le<std::uint64_t>(p + 120) != 0 || u8(129) != 0 ||
        u8(130) != 0 || u8(131) != 0 || load_le<std::uint32_t>(p + 140) != 0)
      return DecodeError::bad_reserved;
    core::SolverConfig c;
    c.base_case = load_i32(p + 112);
    c.alo_nodes = load_i32(p + 116);
    c.parallel = u8(128) != 0;
    c.alo_quad = load_i32(p + 132);
    c.alo_iterations = load_i32(p + 136);
    q.solver = c;
  } else {
    // The solver block must be all-zero when absent: free corruption
    // detection over a fifth of the record.
    for (std::size_t off = 112; off < 144; ++off)
      if (u8(off) != 0) return DecodeError::bad_reserved;
    q.solver.reset();
  }
  return DecodeError::ok;
}

// ------------------------------------------------------------ result recs
// Fixed part (kResultRecordBytes = 80), then message_len message bytes:
//    0  u8 status   1 u8 iv.converged   2 u16 reserved   4 u32 message_len
//    8  f64 price
//   16  f64 x6  greeks price, delta, gamma, theta, vega, rho
//   64  f64     implied_vol.vol
//   72  i32/u32 implied_vol.iterations, reserved (0)

void put_result(std::byte* p, const PricingResult& r) {
  p[0] = static_cast<std::byte>(r.status);
  p[1] = static_cast<std::byte>(r.implied_vol.converged ? 1 : 0);
  store_le<std::uint16_t>(p + 2, 0);
  store_le<std::uint32_t>(p + 4,
                          static_cast<std::uint32_t>(r.message.size()));
  store_f64(p + 8, r.price);
  store_f64(p + 16, r.greeks.price);
  store_f64(p + 24, r.greeks.delta);
  store_f64(p + 32, r.greeks.gamma);
  store_f64(p + 40, r.greeks.theta);
  store_f64(p + 48, r.greeks.vega);
  store_f64(p + 56, r.greeks.rho);
  store_f64(p + 64, r.implied_vol.vol);
  store_i32(p + 72, r.implied_vol.iterations);
  store_le<std::uint32_t>(p + 76, 0);
  if (!r.message.empty())
    std::memcpy(p + 80, r.message.data(), r.message.size());
}

[[nodiscard]] DecodeError get_result(const std::byte* p, std::size_t avail,
                                     PricingResult& r,
                                     std::size_t& record_bytes) {
  if (avail < kResultRecordBytes) return DecodeError::bad_length;
  const auto u8 = [&](std::size_t off) {
    return static_cast<std::uint8_t>(p[off]);
  };
  if (u8(0) > 5 || u8(1) > 1) return DecodeError::bad_enum;
  if (load_le<std::uint16_t>(p + 2) != 0 ||
      load_le<std::uint32_t>(p + 76) != 0)
    return DecodeError::bad_reserved;
  const std::uint32_t msg_len = load_le<std::uint32_t>(p + 4);
  if (msg_len > avail - kResultRecordBytes) return DecodeError::bad_length;
  r.status = static_cast<pricing::Status>(u8(0));
  r.implied_vol.converged = u8(1) != 0;
  r.price = load_f64(p + 8);
  r.greeks.price = load_f64(p + 16);
  r.greeks.delta = load_f64(p + 24);
  r.greeks.gamma = load_f64(p + 32);
  r.greeks.theta = load_f64(p + 40);
  r.greeks.vega = load_f64(p + 48);
  r.greeks.rho = load_f64(p + 56);
  r.implied_vol.vol = load_f64(p + 64);
  r.implied_vol.iterations = load_i32(p + 72);
  r.message.assign(reinterpret_cast<const char*>(p) + kResultRecordBytes,
                   msg_len);
  r.error = nullptr;  // exception_ptr does not cross the wire
  record_bytes = kResultRecordBytes + msg_len;
  return DecodeError::ok;
}

}  // namespace

// ---------------------------------------------------------------- encode

void encode_request_batch_v2(std::span<const PricingRequest> requests,
                             std::span<const std::uint64_t> deadline_us,
                             std::uint8_t attempt,
                             std::vector<std::byte>& out) {
  if (!deadline_us.empty() && deadline_us.size() != requests.size())
    throw std::length_error(
        "amopt: deadline_us must be empty or match the request count");
  const std::size_t payload = requests.size() * kRequestRecordBytes;
  if (requests.size() > std::numeric_limits<std::uint32_t>::max() ||
      kHeaderBytes + payload > kMaxFrameBytes)
    throw std::length_error("amopt: request batch exceeds wire frame limits");
  const std::size_t base = out.size();
  out.resize(base + kHeaderBytes + payload);
  put_header(out.data() + base, Kind::request_batch, attempt,
             static_cast<std::uint32_t>(requests.size()),
             static_cast<std::uint32_t>(payload));
  std::byte* p = out.data() + base + kHeaderBytes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    put_request(p, requests[i]);
    store_le<std::uint64_t>(p + kDeadlineOffset,
                            deadline_us.empty() ? 0 : deadline_us[i]);
    p += kRequestRecordBytes;
  }
}

void encode_result_batch(std::span<const PricingResult> results,
                         std::vector<std::byte>& out) {
  std::size_t payload = results.size() * kResultRecordBytes;
  for (const PricingResult& r : results) payload += r.message.size();
  if (results.size() > std::numeric_limits<std::uint32_t>::max() ||
      kHeaderBytes + payload > kMaxFrameBytes)
    throw std::length_error("amopt: result batch exceeds wire frame limits");
  const std::size_t base = out.size();
  out.resize(base + kHeaderBytes + payload);
  put_header(out.data() + base, Kind::result_batch, 0,
             static_cast<std::uint32_t>(results.size()),
             static_cast<std::uint32_t>(payload));
  std::byte* p = out.data() + base + kHeaderBytes;
  for (const PricingResult& r : results) {
    put_result(p, r);
    p += kResultRecordBytes + r.message.size();
  }
}

// ---------------------------------------------------------------- decode

DecodeError peek_header(std::span<const std::byte> buf, FrameHeader& hdr) {
  if (buf.size() < kHeaderBytes) return DecodeError::need_more;
  const std::byte* p = buf.data();
  if (load_le<std::uint32_t>(p) != kMagic) return DecodeError::bad_magic;
  if (static_cast<std::uint8_t>(p[4]) != kVersion)
    return DecodeError::bad_version;
  const std::uint8_t kind = static_cast<std::uint8_t>(p[5]);
  if (kind != static_cast<std::uint8_t>(Kind::request_batch) &&
      kind != static_cast<std::uint8_t>(Kind::result_batch))
    return DecodeError::bad_kind;
  if (static_cast<std::uint8_t>(p[7]) != 0) return DecodeError::bad_reserved;
  hdr.attempt = static_cast<std::uint8_t>(p[6]);
  hdr.kind = static_cast<Kind>(kind);
  hdr.count = load_le<std::uint32_t>(p + 8);
  hdr.payload_bytes = load_le<std::uint32_t>(p + 12);
  if (kHeaderBytes + static_cast<std::size_t>(hdr.payload_bytes) >
      kMaxFrameBytes)
    return DecodeError::oversized;
  return DecodeError::ok;
}

namespace {

// Shared body of both decode_request_batch overloads: `deadline_us` and
// `hdr_out` may be null (the deadline-free overload drops them).
[[nodiscard]] DecodeError decode_request_impl(
    std::span<const std::byte> buf, std::vector<PricingRequest>& out,
    std::vector<std::uint64_t>* deadline_us, FrameHeader* hdr_out,
    std::size_t& consumed) {
  consumed = 0;
  FrameHeader hdr;
  if (const DecodeError e = peek_header(buf, hdr); e != DecodeError::ok)
    return e;
  if (hdr.kind != Kind::request_batch) return DecodeError::bad_kind;
  if (static_cast<std::size_t>(hdr.payload_bytes) !=
      static_cast<std::size_t>(hdr.count) * kRequestRecordBytes)
    return DecodeError::bad_length;
  if (buf.size() < frame_bytes(hdr)) return DecodeError::need_more;
  out.resize(hdr.count);
  if (deadline_us != nullptr) deadline_us->resize(hdr.count);
  const std::byte* p = buf.data() + kHeaderBytes;
  for (std::uint32_t i = 0; i < hdr.count; ++i) {
    if (const DecodeError e = get_request(p, out[i]); e != DecodeError::ok)
      return e;
    if (deadline_us != nullptr)
      (*deadline_us)[i] = load_le<std::uint64_t>(p + kDeadlineOffset);
    p += kRequestRecordBytes;
  }
  if (hdr_out != nullptr) *hdr_out = hdr;
  consumed = frame_bytes(hdr);
  return DecodeError::ok;
}

}  // namespace

DecodeError decode_request_batch(std::span<const std::byte> buf,
                                 std::vector<PricingRequest>& out,
                                 std::size_t& consumed) {
  return decode_request_impl(buf, out, nullptr, nullptr, consumed);
}

DecodeError decode_request_batch(std::span<const std::byte> buf,
                                 std::vector<PricingRequest>& out,
                                 std::vector<std::uint64_t>& deadline_us,
                                 FrameHeader& hdr, std::size_t& consumed) {
  return decode_request_impl(buf, out, &deadline_us, &hdr, consumed);
}

DecodeError decode_result_batch(std::span<const std::byte> buf,
                                std::vector<PricingResult>& out,
                                std::size_t& consumed) {
  consumed = 0;
  FrameHeader hdr;
  if (const DecodeError e = peek_header(buf, hdr); e != DecodeError::ok)
    return e;
  if (hdr.kind != Kind::result_batch) return DecodeError::bad_kind;
  if (buf.size() < frame_bytes(hdr)) return DecodeError::need_more;
  out.resize(hdr.count);
  const std::byte* p = buf.data() + kHeaderBytes;
  std::size_t remaining = hdr.payload_bytes;
  for (std::uint32_t i = 0; i < hdr.count; ++i) {
    std::size_t record_bytes = 0;
    if (const DecodeError e =
            get_result(p, remaining, out[i], record_bytes);
        e != DecodeError::ok)
      return e;
    p += record_bytes;
    remaining -= record_bytes;
  }
  // Every declared payload byte must belong to a record: trailing slack is
  // corruption (or a framing bug), not padding.
  if (remaining != 0) return DecodeError::bad_length;
  consumed = frame_bytes(hdr);
  return DecodeError::ok;
}

}  // namespace amopt::service::wire
