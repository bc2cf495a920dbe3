#pragma once
// The execution plane: a small work-stealing task pool shared process-wide
// by the solvers (task-parallel trapezoid descent), the Pricer's batch
// fan-out, the FFT stage splits, and the service shards' drain tasks —
// replacing both the OpenMP runtime and the server's one-thread-per-shard
// workers with a single set of workers sized by AMOPT_THREADS.
//
// Determinism contract: the pool changes WHERE work runs, never what it
// computes. Every fork in the library is a pair of legs writing disjoint
// output ranges (or a counter-driven sweep over disjoint indices) with no
// reductions, so results are bit-identical at any concurrency — and at
// concurrency <= 1 invoke2()/for_each() degrade to plain inline calls in
// the historical serial order, so a 1-thread pooled build IS the
// sequential library, bit for bit and allocation for allocation.
//
// Scheduling rules (they are what keeps per-worker scratch arenas bounded
// and the nested joins deadlock-free):
//   * Tasks run to completion on whichever thread picks them up; they
//     never migrate or suspend.
//   * A WORKER blocked in a join helps only with tasks from its own deque
//     pushed at or above the join's fork point — i.e. strictly nested
//     descendants of the task it is already running. Anything shallower
//     (or another item's tree) stays for the thieves. This confines a
//     worker's scratch footprint to one item's serial footprint, which is
//     what makes the per-worker zero-steady-state-allocation guarantee
//     deterministic rather than scheduling-dependent.
//   * An EXTERNAL thread (not a pool worker) forks only at the top level,
//     and while blocked in that join it helps from the injection queue and
//     steals from workers. Once it is running a pool task (one it stole, or
//     a for_each drain), any fork inside that task runs both legs inline:
//     it has no deque of its own, and a leg it offered to the injection
//     queue could wait forever once every worker is blocked in a join that
//     helps only from its own deque.
//   * Idle workers take: own deque (LIFO, cache-warm), then the injection
//     queue (FIFO, latency-fair to the service plane), then steal the
//     oldest task of a sibling.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

namespace amopt::core {

class TaskPool {
 public:
  /// Hard ceiling on workers (and on a for_each fan-out width). The helper
  /// node array for a fan-out lives on the caller's stack, so this stays
  /// small; the paper's largest evaluation machine had 48 cores.
  static constexpr int kMaxThreads = 64;

  struct Join;
  struct Worker;  ///< opaque; defined in task_pool.cpp

  /// One schedulable unit. Callers own the node's storage (stack or a
  /// long-lived struct); it must stay alive until the task has run — for
  /// joined tasks that is until the join's pending count hits zero, for
  /// detached tasks until `fn` returns.
  struct Task {
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
    Join* join = nullptr;  ///< null for detached tasks
  };

  /// Fork/join completion state. Lives on the forking caller's stack.
  struct Join {
    std::atomic<int> pending{0};
    std::exception_ptr err;  ///< first helper exception (under `mu`)
    std::mutex mu;
  };

  /// The process-wide pool, sized by AMOPT_THREADS (default: the hardware
  /// concurrency, minimum 1). Constructed on first use.
  [[nodiscard]] static TaskPool& instance();

  explicit TaskPool(int threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// The current execution width: the caller plus concurrency()-1 workers.
  /// 1 means strictly serial library execution (the lone housekeeping
  /// worker then only ever runs detached tasks, e.g. server shard drains).
  [[nodiscard]] int concurrency() const noexcept {
    return limit_.load(std::memory_order_relaxed);
  }

  /// Retarget the execution width, spawning workers on demand (never
  /// joining them — excess workers park). Clamped to [1, kMaxThreads].
  /// Widths beyond the hardware concurrency genuinely oversubscribe, which
  /// the thread-scaling benches and the determinism stress test rely on.
  void set_concurrency(int n);

  /// True on a pool worker thread.
  [[nodiscard]] static bool on_worker() noexcept;

  /// Run `f` and `g` as potentially-parallel legs: `g` is offered to the
  /// pool, `f` runs inline, then the caller joins (helping per the rules
  /// above). At concurrency <= 1 — or if the queues are full — this is
  /// exactly `f(); g();`. Exceptions from either leg propagate (first one
  /// wins when both throw).
  ///
  /// Never inlined: the join machinery (mutex-bearing Join, EH landing
  /// pads, submit/wait) would otherwise bloat the caller's frame and
  /// pessimize its serial branch — every caller pairs this with an inline
  /// `f(); g();` else-path, so the fork path can afford a call.
  template <class F, class G>
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void invoke2(F&& f, G&& g) {
    if (concurrency() <= 1 || nested_external()) {
      f();
      g();
      return;
    }
    using Gv = std::remove_reference_t<G>;
    Join join;
    join.pending.store(1, std::memory_order_relaxed);
    Task t;
    t.fn = [](void* p) { (*static_cast<Gv*>(p))(); };
    t.arg = const_cast<void*>(static_cast<const void*>(std::addressof(g)));
    t.join = &join;
    const std::uint64_t floor = submit_floor();
    if (!submit(&t)) {
      f();
      g();
      return;
    }
    try {
      f();
    } catch (...) {
      wait(join, floor);  // g still references this stack frame
      throw;
    }
    wait(join, floor);
    if (join.err) std::rethrow_exception(join.err);
  }

  /// Counter-scheduled parallel map: `body(i)` for every i in [0, n), with
  /// up to min(concurrency, max_width, n) executors (0 = no cap) pulling
  /// indices from a shared atomic counter. The caller always participates;
  /// with one executor everything runs inline in index order.
  template <class Body>
  void for_each(std::ptrdiff_t n, Body&& body, int max_width = 0) {
    if (n <= 0) return;
    int width = concurrency();
    if (max_width > 0 && max_width < width) width = max_width;
    if (static_cast<std::ptrdiff_t>(width) > n) width = static_cast<int>(n);
    if (width > kMaxThreads) width = kMaxThreads;
    using Ctx = ForEachCtx<std::remove_reference_t<Body>>;
    Ctx ctx;
    ctx.n = n;
    ctx.body = std::addressof(body);
    if (width <= 1 || nested_external()) {
      run_inline(&Ctx::drain, &ctx);
      return;
    }
    Join join;
    join.pending.store(width - 1, std::memory_order_relaxed);
    Task nodes[kMaxThreads];
    const std::uint64_t floor = submit_floor();
    for (int k = 0; k + 1 < width; ++k) {
      nodes[k].fn = &Ctx::drain;
      nodes[k].arg = &ctx;
      nodes[k].join = &join;
      if (!submit(&nodes[k]))  // queues full: this helper simply never runs
        join.pending.fetch_sub(1, std::memory_order_relaxed);
    }
    try {
      run_inline(&Ctx::drain, &ctx);
    } catch (...) {
      wait(join, floor);
      throw;
    }
    wait(join, floor);
    if (join.err) std::rethrow_exception(join.err);
  }

  /// Offer a detached task (join == nullptr, `fn` must not throw) to the
  /// workers. Returns false when the queue is full — the caller must then
  /// run the task inline. The node is reusable as soon as `fn` returns.
  bool submit_detached(Task* t);

 private:
  /// Bounded MPMC ring of task pointers under one mutex. Owner pushes and
  /// pops at the tail (LIFO); thieves and the injection path pop at the
  /// head (FIFO). Head/tail are monotone, so a tail position doubles as
  /// the "fork floor" a nested join must not pop below.
  struct Ring {
    explicit Ring(std::size_t cap);
    bool push(Task* t);
    Task* pop_front();
    Task* pop_back_above(std::uint64_t floor);
    [[nodiscard]] std::uint64_t tail_position();

    std::mutex m;
    std::unique_ptr<Task*[]> buf;
    std::uint64_t mask;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
  };

  template <class Body>
  struct ForEachCtx {
    std::atomic<std::ptrdiff_t> next{0};
    std::ptrdiff_t n = 0;
    Body* body = nullptr;

    static void drain(void* p) {
      auto& c = *static_cast<ForEachCtx*>(p);
      for (;;) {
        const std::ptrdiff_t i = c.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= c.n) break;
        (*c.body)(static_cast<std::size_t>(i));
      }
    }
  };

  [[nodiscard]] int active_workers() const noexcept {
    const int lim = limit_.load(std::memory_order_acquire);
    return lim <= 1 ? 1 : lim - 1;
  }

  /// True on an external thread that is already running a pool task: its
  /// forks run inline (see the scheduling rules above).
  [[nodiscard]] static bool nested_external() noexcept;
  bool submit(Task* t);
  [[nodiscard]] std::uint64_t submit_floor();
  void wait(Join& join, std::uint64_t floor);
  void run_inline(void (*fn)(void*), void* arg);
  void run_task(Task* t);
  Task* find_task(Worker* w);
  Task* steal_external();
  void worker_main(Worker* w);
  void spawn_workers_locked(int target);
  void wake_sleepers();

  std::atomic<int> limit_{1};
  std::atomic<bool> stop_{false};

  // Worker slots are fixed-address (unique_ptr in a fixed array) so the
  // steal scan can walk them lock-free up to spawned_.
  std::unique_ptr<Worker> workers_[kMaxThreads];
  std::atomic<int> spawned_{0};
  std::mutex spawn_mu_;

  Ring inject_;

  // Sleep protocol: submitters bump ready_ (seq_cst) then read sleepers_
  // (seq_cst); sleepers bump sleepers_ (seq_cst) then read ready_ (seq_cst)
  // inside the cv predicate — the Dekker pairing that makes a lost wakeup
  // impossible without locking on every submit.
  std::atomic<int> ready_{0};
  std::atomic<int> sleepers_{0};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

}  // namespace amopt::core
