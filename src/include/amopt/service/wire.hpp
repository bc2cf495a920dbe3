#pragma once
// W1: the service plane's wire format (DESIGN.md §8).
//
// A versioned, endian-explicit binary serialization of
// `pricing::PricingRequest` / `pricing::PricingResult` batches, framed as a
// length-prefixed stream so any byte transport (the in-process loopback,
// plain TCP — see transport.hpp) can carry pricing traffic. Design rules:
//
//  * **Exact round trip.** Doubles travel as raw IEEE-754 binary64 bit
//    patterns (little-endian on the wire), so every representable value —
//    including NaN payloads, infinities and signed zeros — decodes to the
//    bit-identical double. What the daemon prices is exactly what the
//    client asked for; there is no text formatting anywhere on this path.
//  * **Little-endian wire, any-endian host.** All integers are fixed-width
//    little-endian. On little-endian hosts (every production target) the
//    field accessors compile to plain unaligned loads/stores via memcpy —
//    no staging buffer, no byte shuffling; big-endian hosts pay an explicit
//    per-field byteswap. Decoding never aliases the input buffer with a
//    typed pointer, so alignment and strict-aliasing rules hold on every
//    path.
//  * **Malformed input is an error value, never UB.** Every header field,
//    record count, enum byte and length is validated against the payload
//    actually present; truncated or corrupted frames yield a `DecodeError`
//    (`need_more` for a clean prefix of a valid frame, a specific error
//    otherwise) and leave the output vector contents unspecified but valid.
//    The decoders are fuzzed and run under the ASan/UBSan CI legs
//    (tests/test_wire.cpp).
//  * **Zero steady-state allocations.** Encoders append to a caller-owned
//    byte vector and decoders fill caller-owned request/result vectors;
//    capacities converge to the high-water mark, after which a stable
//    traffic shape touches the heap only for non-empty result messages
//    (error paths). This is what lets the shard hot path keep the PR-5/6
//    allocation-free discipline end to end.
//
// Versioning rules: `kVersion` bumps whenever a frame laid out by an older
// writer would decode differently (field moved/resized/reinterpreted).
// Appending new trailing record fields requires a bump too — records are
// fixed-size. Decoders speak exactly one version and reject every other
// with `bad_version` rather than guessing; reserved bytes must be zero on
// the wire so they can later become fields without ambiguity. A value
// retired from a field is a decode error too (`bad_enum`, or
// `bad_reserved` when the whole field is retired), so a frame that
// selects a removed option is rejected, never misread. The `compute` mask
// is deliberately NOT validated here: unknown bits are a per-item
// semantic error (`Status::error` from request validation), not a
// frame-level one, so one forward-compat request cannot poison the rest
// of its frame.
//
// Version 2 (the failure plane, DESIGN.md §11) is the one version:
//  * request records end in a `deadline_us` field (u64 at offset 144,
//    record stride 152) — the caller's REMAINING budget in microseconds
//    (relative, so no clock synchronization across machines; 0 = none).
//    The server converts it to an absolute steady_clock deadline the
//    moment the frame decodes and sheds items whose deadline passed
//    before pricing them (`Status::deadline_exceeded`).
//  * header byte 6 is `attempt`: the retrying client's resubmission
//    counter for this frame, 0 on the first try. Purely observability —
//    the server counts attempt > 0 frames as `retries_observed`; it never
//    changes pricing.
//  * solver bytes 120-127 (once the fork cutoff), 129 (once the boundary
//    drift), 130 (once the memory-plane selector) and 131 (once the conv
//    path) are reserved-zero. An older encoder's solver block carries the
//    fork cutoff (512 unless its caller zeroed it), so it is rejected
//    (`bad_reserved`) rather than misread; one with a zeroed cutoff and the
//    default drift and conv path prices the same as before.
//
// Not on the wire: `PricingRequest::iv.T` is carried for exactness but the
// session ignores it (the request's own T governs); `PricingResult::error`
// (an exception_ptr) cannot cross a process boundary — the `message` text
// carries the diagnostic and decoded error results have a null pointer.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "amopt/pricing/request.hpp"

namespace amopt::service::wire {

/// "AMQW" as little-endian bytes 'A','M','Q','W'.
inline constexpr std::uint32_t kMagic = 0x57514D41u;
inline constexpr std::uint8_t kVersion = 2;  ///< the version the codecs speak

/// Frame payload discriminator.
enum class Kind : std::uint8_t {
  request_batch = 1,  ///< `count` fixed-size PricingRequest records
  result_batch = 2,   ///< `count` PricingResult records (+ message bytes)
};

enum class DecodeError : std::uint8_t {
  ok = 0,
  need_more,     ///< buffer is a proper prefix of a valid frame — read more
  bad_magic,     ///< not an amopt wire frame (or stream desynchronized)
  bad_version,   ///< version this decoder does not speak
  bad_kind,      ///< unknown frame kind
  bad_length,    ///< header/count/payload/message lengths inconsistent
  bad_enum,      ///< out-of-range model/right/style/engine/status/... byte
  bad_reserved,  ///< reserved bytes nonzero (corruption or future version)
  oversized,     ///< declared frame exceeds kMaxFrameBytes
};

[[nodiscard]] std::string_view to_string(DecodeError e);

/// Parsed frame prefix.
struct FrameHeader {
  Kind kind = Kind::request_batch;
  std::uint8_t attempt = 0;         ///< client resubmission count
  std::uint32_t count = 0;          ///< records in the payload
  std::uint32_t payload_bytes = 0;  ///< bytes following the header
};

inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kRequestRecordBytes = 152;  ///< incl. deadline
inline constexpr std::size_t kResultRecordBytes = 80;  ///< + message bytes
/// Hard cap on one frame (header + payload): bounds decoder memory against
/// a corrupted/hostile length field. 64 MiB ~ 450k requests per frame.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;

/// Total stream bytes of the frame `hdr` announces.
[[nodiscard]] constexpr std::size_t frame_bytes(const FrameHeader& hdr) {
  return kHeaderBytes + hdr.payload_bytes;
}

/// Append one request-batch frame carrying per-item deadlines to `out`
/// (existing contents are kept, so a caller can pack several frames into
/// one write). `deadline_us[i]` is requests[i]'s REMAINING budget in
/// microseconds (0 = no deadline); `deadline_us` may be empty (all items
/// unbounded) but must otherwise match `requests` in size. `attempt` is
/// the retrying client's resubmission counter for this frame (0 = first
/// try). Throws std::length_error if the batch cannot fit the wire limits
/// — a caller bug, unlike decode errors, which are data.
void encode_request_batch_v2(std::span<const pricing::PricingRequest> requests,
                             std::span<const std::uint64_t> deadline_us,
                             std::uint8_t attempt, std::vector<std::byte>& out);

/// Append one result-batch frame to `out`. `PricingResult::error` is not
/// serialized (see header comment).
void encode_result_batch(std::span<const pricing::PricingResult> results,
                         std::vector<std::byte>& out);

/// Validate and parse the 16-byte frame header at the front of `buf`.
/// Returns `need_more` when fewer than kHeaderBytes are present. On `ok`
/// the caller knows the full frame spans `frame_bytes(hdr)` bytes.
[[nodiscard]] DecodeError peek_header(std::span<const std::byte> buf,
                                      FrameHeader& hdr);

/// Decode the request-batch frame at the front of `buf` into `out`
/// (resized to the record count; capacity reused across calls); the
/// frame's deadlines are dropped. On `ok`, `consumed` is the frame's total
/// size — the stream caller drops exactly that many bytes. `need_more`
/// when `buf` holds only a frame prefix.
/// Never reads past `buf`, never writes past `out`'s records.
[[nodiscard]] DecodeError decode_request_batch(
    std::span<const std::byte> buf, std::vector<pricing::PricingRequest>& out,
    std::size_t& consumed);

/// Deadline-aware overload (the server's): additionally fills
/// `deadline_us` (resized to the record count, 0 = no deadline) and `hdr`
/// with the parsed header, whose `attempt` the caller uses to count
/// retries.
[[nodiscard]] DecodeError decode_request_batch(
    std::span<const std::byte> buf, std::vector<pricing::PricingRequest>& out,
    std::vector<std::uint64_t>& deadline_us, FrameHeader& hdr,
    std::size_t& consumed);

/// Same for a result-batch frame.
[[nodiscard]] DecodeError decode_result_batch(
    std::span<const std::byte> buf, std::vector<pricing::PricingResult>& out,
    std::size_t& consumed);

}  // namespace amopt::service::wire
