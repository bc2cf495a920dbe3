#include "amopt/metrics/counters.hpp"

#include <mutex>
#include <new>

namespace amopt::metrics {

namespace {

/// Every live thread's slot, linked intrusively so registering a thread
/// grows no container, plus the counts of exited threads and the zero point
/// reset_counters() sets. Moving the zero point instead of clearing slots
/// keeps each slot single-writer.
struct Registry {
  std::mutex mu;
  detail::CounterSlot* head = nullptr;
  OpSnapshot retired;  ///< folded in by exited threads
  OpSnapshot zero;     ///< the total at the last reset_counters()

  /// Caller holds `mu`.
  [[nodiscard]] OpSnapshot total() const {
    OpSnapshot t = retired;
    for (const detail::CounterSlot* s = head; s != nullptr; s = s->next) {
      t.flops += s->flops.load(std::memory_order_relaxed);
      t.bytes += s->bytes.load(std::memory_order_relaxed);
    }
    return t;
  }
};

/// Never destroyed: a thread's exit hook can run after static destructors
/// (the task pool's workers are joined by one). Built in static storage, so
/// creating it calls no operator new either.
Registry& registry() {
  alignas(Registry) static unsigned char storage[sizeof(Registry)];
  static Registry* const r = new (storage) Registry;
  return *r;
}

/// A thread's slot; constructed by its first count, destroyed at its exit.
struct SlotOwner {
  detail::CounterSlot slot;

  SlotOwner() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    slot.next = r.head;
    if (r.head != nullptr) r.head->prev = &slot;
    r.head = &slot;
  }

  ~SlotOwner() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired.flops += slot.flops.load(std::memory_order_relaxed);
    r.retired.bytes += slot.bytes.load(std::memory_order_relaxed);
    if (slot.prev != nullptr) slot.prev->next = slot.next;
    else r.head = slot.next;
    if (slot.next != nullptr) slot.next->prev = slot.prev;
  }
};

}  // namespace

detail::CounterSlot& detail::register_slot() {
  thread_local SlotOwner owner;
  tls_slot = &owner.slot;
  return owner.slot;
}

OpSnapshot snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return delta(r.zero, r.total());
}

void reset_counters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.zero = r.total();
}

}  // namespace amopt::metrics
