#include "amopt/core/scratch.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#if defined(AMOPT_DEBUG_CHECKS)
#include <limits>
#endif

namespace amopt::core {

namespace {
constexpr std::size_t kAlignDoubles = kCacheLine / sizeof(double);

// Every live arena, so aggregate_scratch() can report the process-wide
// footprint. Leaked rather than a static object: pool workers' thread-local
// arenas unregister during thread exit, which can run after static
// destruction has begun.
struct Registry {
  std::mutex mu;
  std::vector<ScratchStack*> stacks;
};
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

struct Block {
  explicit Block(std::size_t n) : data(n) {}
  aligned_vector<double> data;
  Block* next = nullptr;  ///< free-list / lease-chain link
};

int ScratchStack::size_class(std::size_t pow2_doubles) noexcept {
  const int c =
      std::bit_width(pow2_doubles) - std::bit_width(kClass0Doubles);
  return std::clamp(c, 0, kNumClasses - 1);
}

ScratchStack::ScratchStack() {
  auto& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.stacks.push_back(this);
}

ScratchStack::~ScratchStack() {
  auto& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::erase(r.stacks, this);
}

std::span<double> ScratchStack::Frame::alloc(std::size_t n) {
  if (n == 0) return {};
  // Round every allocation to a cache line so each span starts 64B-aligned
  // (block bases are aligned_vector allocations).
  const std::size_t need = (n + kAlignDoubles - 1) & ~(kAlignDoubles - 1);
  if (head_ == nullptr || head_->data.size() - used_ < need) {
    head_ = s_.lease(need, head_);
    used_ = 0;
  }
  double* p = head_->data.data() + used_;
  used_ += need;
#if defined(AMOPT_DEBUG_CHECKS)
  // Poison so Debug builds turn any read-before-write into a NaN price.
  std::fill_n(p, n, std::numeric_limits<double>::quiet_NaN());
#endif
  return {p, n};
}

Block* ScratchStack::lease(std::size_t need, Block* chain) {
  // Power-of-two size classes, smallest adequate class first — with every
  // block pow2-sized, class fit IS best fit, which is what makes warm reuse
  // exact: a small request never strands a later large request by grabbing
  // the one big block, so a steady-state descent re-allocates nothing.
  // Owner-thread only (like all arena mutation), hence no locking.
  const std::size_t sz = std::max(kClass0Doubles, std::bit_ceil(need));
  for (int c = size_class(sz); c < kNumClasses; ++c) {
    for (Block** p = &free_[c]; *p != nullptr; p = &(*p)->next) {
      // Classes below the last hold exactly one size; the last mixes
      // oversized blocks, so re-check the fit there.
      if ((*p)->data.size() < need) continue;
      Block* b = *p;
      *p = b->next;
      b->next = chain;
      return b;
    }
  }
  blocks_.push_back(std::make_unique<Block>(sz));
  capacity_.fetch_add(sz, std::memory_order_relaxed);
  Block* b = blocks_.back().get();
  b->next = chain;
  return b;
}

void ScratchStack::release(Block* chain) noexcept {
  while (chain != nullptr) {
    Block* next = chain->next;
    const int c = size_class(chain->data.size());
    chain->next = free_[c];
    free_[c] = chain;
    chain = next;
  }
}

std::size_t ScratchStack::capacity() const noexcept {
  return capacity_.load(std::memory_order_relaxed);
}

ScratchStack& thread_scratch() {
  thread_local ScratchStack s;
  return s;
}

ScratchAggregate aggregate_scratch() {
  ScratchAggregate agg;
  auto& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const ScratchStack* s : r.stacks) {
    const std::size_t bytes = s->capacity() * sizeof(double);
    agg.total_bytes += bytes;
    agg.max_bytes = std::max(agg.max_bytes, bytes);
  }
  agg.arenas = r.stacks.size();
  return agg;
}

}  // namespace amopt::core
