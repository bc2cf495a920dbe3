#pragma once
// Lightweight operation counters. The energy model (metrics/energy.hpp)
// converts these into joules when hardware RAPL counters are unavailable
// (the usual case inside containers). Counting happens at block granularity
// (one add per convolution / per row sweep).
//
// Every thread counts into its own 64-byte slot, so a count is one relaxed
// load and one relaxed store to a cache line no other thread writes: no
// lock-prefixed instruction, no call. A thread's first count registers its
// slot in a process-wide registry (out of line); when the thread exits, its
// counts fold into a retired total, so short-lived threads lose nothing.
//
// snapshot() and reset_counters() take the registry mutex and read every
// live slot. They are meant for quiescent points — before or after the
// counted work, with every thread that did it joined — as the energy meter,
// the tests and the energy benches use them. A snapshot taken while other
// threads count is a valid total, but not one tied to any instant.

#include <atomic>
#include <cstdint>

namespace amopt::metrics {

struct OpSnapshot {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;  ///< estimated data movement to/from memory
};

namespace detail {

/// One thread's counts, alone on its cache line. Only the owning thread
/// writes `flops` and `bytes`; the registry reads them under its mutex and
/// owns the links.
struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> bytes{0};
  CounterSlot* prev = nullptr;
  CounterSlot* next = nullptr;
};

inline constinit thread_local CounterSlot* tls_slot = nullptr;

/// Register this thread's slot (first count on the thread) and return it.
CounterSlot& register_slot();

inline CounterSlot& slot() {
  CounterSlot* s = tls_slot;
  if (s == nullptr) [[unlikely]] s = &register_slot();
  return *s;
}

/// Single-writer add: no other thread stores to `c`.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace detail

inline void add_flops(std::uint64_t n) { detail::bump(detail::slot().flops, n); }
inline void add_bytes(std::uint64_t n) { detail::bump(detail::slot().bytes, n); }

/// Counts since the last reset_counters(), over every thread, live or
/// exited. Call at a quiescent point (see the header comment).
[[nodiscard]] OpSnapshot snapshot();
/// Make the current counts the new zero. Call at a quiescent point.
void reset_counters();

/// Difference helper: ops performed between two snapshots.
[[nodiscard]] inline OpSnapshot delta(const OpSnapshot& before,
                                      const OpSnapshot& after) {
  return {after.flops - before.flops, after.bytes - before.bytes};
}

}  // namespace amopt::metrics
