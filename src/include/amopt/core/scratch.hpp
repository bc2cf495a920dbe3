#pragma once
// S5b: the solvers' scratch arena — per-task frames over per-thread blocks.
//
// Every level of the trapezoid recursion needs a handful of short-lived row
// buffers (`mid`, the base case's ping-pong rows, the FDM assembly row).
// Allocating them from the heap makes the descent allocation-bound: the
// recursion performs O(T) vector constructions per pricing, each paying
// malloc/free plus a cold-page zero-fill. `ScratchStack` replaces that with
// grow-only, 64-byte-aligned storage: a `Frame` leases blocks from its
// thread's arena on entry to a recursion level and returns them on exit, so
// a warmed-up arena serves an entire descent without touching the heap,
// from memory that stays cache-resident across trapezoids.
//
// The arena was originally a single strictly-LIFO bump stack, which was
// correct while the recursion ran on one thread (frames nest stack-like).
// Task-parallel descent breaks that discipline: a worker that steals the
// sibling leg of a fork holds a frame whose lifetime is NOT nested inside
// the frames already live on the victim's thread. Frames are therefore
// independent block *leases* now — each frame owns a private chain of
// blocks checked out from the arena's per-size-class free lists (blocks are
// power-of-two sized, so class-fit IS best-fit and warm reuse is exact
// across repeated identical descents) and bump-allocates inside its chain.
// Growth never invalidates outstanding spans: blocks are immovable once
// created, and a frame that outgrows its head block leases another.
//
// Threading: one ScratchStack serves one thread's frames (the library keeps
// one per thread via `thread_scratch()` — pool tasks allocate from their
// executing worker's arena, and the TaskPool's join rules confine each
// worker's live frames to one solve's nesting, which is what keeps the
// per-worker footprint — and the zero-steady-state-allocation counter tests
// — deterministic). Every *mutation* (frames, lease/release) happens on
// the owning thread, so the whole hot path is synchronization-free — a
// frame costs a bump and a free-list pop, which is what keeps the
// task-parallel descent as cheap per level as the old single-stack bump
// arena. Cross-thread readers (`capacity()`, the process-wide
// `aggregate_scratch()` behind the server's admission control) see the
// footprint through one atomic counter instead of walking the block list.

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "amopt/common/aligned.hpp"

namespace amopt::core {

class ScratchStack {
 public:
  ScratchStack();
  ~ScratchStack();
  ScratchStack(const ScratchStack&) = delete;
  ScratchStack& operator=(const ScratchStack&) = delete;

  /// One task's (or recursion level's) allocations: a private lease of
  /// arena blocks, released wholesale on destruction. Frames on one thread
  /// may be destroyed in any order relative to sibling tasks' frames; a
  /// frame must simply outlive the spans alloc()'d through it.
  class Frame {
   public:
    explicit Frame(ScratchStack& s) noexcept : s_(s) {}
    ~Frame() { if (head_) s_.release(head_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// A 64-byte-aligned span of n doubles, valid until this frame is
    /// destroyed. Contents are uninitialized (NaN-poisoned under
    /// AMOPT_DEBUG_CHECKS, so Debug/sanitize builds catch any read of a
    /// cell the algorithms were supposed to have written).
    [[nodiscard]] std::span<double> alloc(std::size_t n);

   private:
    ScratchStack& s_;
    struct Block* head_ = nullptr;  ///< lease chain, newest first
    std::size_t used_ = 0;          ///< doubles bumped in *head_
  };

  /// Total doubles of backing storage currently held, leased or free. The
  /// arena only grows, so this is also its high-water mark.
  [[nodiscard]] std::size_t capacity() const noexcept;

 private:
  friend class Frame;
  /// Free blocks segregated by power-of-two size class; kClass0Doubles is
  /// the minting floor, the last class additionally holds every oversized
  /// block.
  static constexpr std::size_t kClass0Doubles = 1024;  ///< 8 KiB
  static constexpr int kNumClasses = 24;               ///< up to 64 GiB

  /// Class of a power-of-two block size (or the class a need mints into).
  [[nodiscard]] static int size_class(std::size_t pow2_doubles) noexcept;

  [[nodiscard]] struct Block* lease(std::size_t need_doubles,
                                    struct Block* chain);
  void release(struct Block* chain) noexcept;

  std::vector<std::unique_ptr<struct Block>> blocks_;  ///< all owned blocks
  struct Block* free_[kNumClasses] = {};  ///< unleased blocks, per class
  std::atomic<std::size_t> capacity_{0};  ///< doubles held, for readers
};

/// The calling thread's scratch arena (created on first use, never freed
/// while the thread lives).
[[nodiscard]] ScratchStack& thread_scratch();

/// Process-wide snapshot over every live arena (all threads' thread_scratch
/// instances plus any standalone stacks): the true multi-thread scratch
/// footprint, which is what the server's admission control must compare
/// against its byte ceiling once solves fan out across pool workers.
struct ScratchAggregate {
  std::size_t total_bytes = 0;  ///< sum of capacities across arenas
  std::size_t max_bytes = 0;    ///< largest single arena
  std::size_t arenas = 0;
};
[[nodiscard]] ScratchAggregate aggregate_scratch();

}  // namespace amopt::core
