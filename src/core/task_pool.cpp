#include "amopt/core/task_pool.hpp"

#include <algorithm>
#include <utility>

#include "amopt/common/env.hpp"

namespace amopt::core {

namespace {

// Worker identity for on_worker() / the own-deque fast path, plus the
// task nesting depth: an external thread at depth > 0 is mid-task and runs
// its forks inline (see the scheduling rules in the header).
thread_local int tls_depth = 0;

}  // namespace

struct TaskPool::Worker {
  Worker(TaskPool* p, int idx) : pool(p), index(idx), deque(256) {}

  TaskPool* pool;
  int index;
  Ring deque;
  std::thread thread;  ///< started last, joined by ~TaskPool
};

namespace {
thread_local TaskPool::Worker* tls_worker = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Ring

TaskPool::Ring::Ring(std::size_t cap) {
  std::size_t p2 = 1;
  while (p2 < cap) p2 <<= 1;
  buf = std::make_unique<Task*[]>(p2);
  mask = p2 - 1;
}

bool TaskPool::Ring::push(Task* t) {
  std::lock_guard<std::mutex> lk(m);
  if (tail - head > mask) return false;
  buf[tail & mask] = t;
  ++tail;
  return true;
}

TaskPool::Task* TaskPool::Ring::pop_front() {
  std::lock_guard<std::mutex> lk(m);
  if (head == tail) return nullptr;
  Task* t = buf[head & mask];
  ++head;
  return t;
}

TaskPool::Task* TaskPool::Ring::pop_back_above(std::uint64_t floor) {
  std::lock_guard<std::mutex> lk(m);
  const std::uint64_t lo = std::max(head, floor);
  if (tail <= lo) return nullptr;
  --tail;
  return buf[tail & mask];
}

std::uint64_t TaskPool::Ring::tail_position() {
  std::lock_guard<std::mutex> lk(m);
  return tail;
}

// ---------------------------------------------------------------------------
// Pool lifecycle

TaskPool& TaskPool::instance() {
  static TaskPool pool(static_cast<int>(env_long("AMOPT_THREADS", 0)));
  return pool;
}

TaskPool::TaskPool(int threads) : inject_(2048) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  set_concurrency(threads);
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    sleep_cv_.notify_all();
  }
  const int n = spawned_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i)
    if (workers_[i]->thread.joinable()) workers_[i]->thread.join();
}

void TaskPool::set_concurrency(int n) {
  n = std::clamp(n, 1, kMaxThreads);
  std::lock_guard<std::mutex> lk(spawn_mu_);
  limit_.store(n, std::memory_order_release);
  spawn_workers_locked(n <= 1 ? 1 : n - 1);
  // Wake everyone: parked workers may now be active, active workers may
  // now need to park; both re-evaluate their predicates.
  std::lock_guard<std::mutex> slk(sleep_mu_);
  sleep_cv_.notify_all();
}

void TaskPool::spawn_workers_locked(int target) {
  int n = spawned_.load(std::memory_order_acquire);
  while (n < target) {
    workers_[n] = std::make_unique<Worker>(this, n);
    Worker* w = workers_[n].get();
    spawned_.store(n + 1, std::memory_order_release);
    w->thread = std::thread([this, w] { worker_main(w); });
    ++n;
  }
}

bool TaskPool::on_worker() noexcept { return tls_worker != nullptr; }

bool TaskPool::nested_external() noexcept {
  return tls_worker == nullptr && tls_depth > 0;
}

// ---------------------------------------------------------------------------
// Submission

std::uint64_t TaskPool::submit_floor() {
  Worker* w = tls_worker;
  return w ? w->deque.tail_position() : 0;
}

bool TaskPool::submit(Task* t) {
  Worker* w = tls_worker;
  const bool ok = w ? w->deque.push(t) : inject_.push(t);
  if (!ok) return false;
  ready_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) wake_sleepers();
  return true;
}

bool TaskPool::submit_detached(Task* t) { return submit(t); }

void TaskPool::wake_sleepers() {
  // Taking the mutex orders this notify after any in-flight waiter's
  // registration; notify_all because active and parked workers share the
  // cv and notify_one could land on a parked worker whose predicate is
  // still false.
  std::lock_guard<std::mutex> lk(sleep_mu_);
  sleep_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Execution

void TaskPool::run_inline(void (*fn)(void*), void* arg) {
  ++tls_depth;
  try {
    fn(arg);
  } catch (...) {
    --tls_depth;
    throw;
  }
  --tls_depth;
}

void TaskPool::run_task(Task* t) {
  // Copy out before running: a joined task's node lives on the forking
  // caller's stack and is dead the instant pending hits zero.
  void (*fn)(void*) = t->fn;
  void* arg = t->arg;
  Join* join = t->join;
  ready_.fetch_sub(1, std::memory_order_relaxed);
  ++tls_depth;
  if (join) {
    try {
      fn(arg);
    } catch (...) {
      std::lock_guard<std::mutex> lk(join->mu);
      if (!join->err) join->err = std::current_exception();
    }
    --tls_depth;
    // err must be visible before the joiner can observe pending == 0.
    join->pending.fetch_sub(1, std::memory_order_release);
  } else {
    fn(arg);  // detached tasks must not throw
    --tls_depth;
  }
}

TaskPool::Task* TaskPool::find_task(Worker* w) {
  if (Task* t = w->deque.pop_back_above(0)) return t;
  if (Task* t = inject_.pop_front()) return t;
  const int n = spawned_.load(std::memory_order_acquire);
  for (int k = 1; k < n; ++k) {
    Worker* v = workers_[(w->index + k) % n].get();
    if (Task* t = v->deque.pop_front()) return t;
  }
  return nullptr;
}

TaskPool::Task* TaskPool::steal_external() {
  if (Task* t = inject_.pop_front()) return t;
  const int n = spawned_.load(std::memory_order_acquire);
  for (int k = 0; k < n; ++k)
    if (Task* t = workers_[k]->deque.pop_front()) return t;
  return nullptr;
}

void TaskPool::wait(Join& join, std::uint64_t floor) {
  Worker* w = tls_worker;
  while (join.pending.load(std::memory_order_acquire) > 0) {
    Task* t = nullptr;
    if (w) {
      // Only descendants of the current task (pushed at/above the fork
      // floor) — shallower entries belong to an enclosing fork and would
      // blow the per-worker scratch confinement if nested here.
      t = w->deque.pop_back_above(floor);
    } else {
      t = steal_external();
    }
    if (t)
      run_task(t);
    else
      std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Worker main loop

void TaskPool::worker_main(Worker* w) {
  tls_worker = w;
  std::uint64_t idle_spins = 0;
  while (!stop_.load(std::memory_order_seq_cst)) {
    if (w->index >= active_workers()) {
      // Parked: beyond the current width. Sleep until reconfigured or
      // stopped. Does not register in sleepers_ — both events notify
      // unconditionally.
      std::unique_lock<std::mutex> lk(sleep_mu_);
      sleep_cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_seq_cst) ||
               w->index < active_workers();
      });
      continue;
    }
    if (Task* t = find_task(w)) {
      run_task(t);
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    idle_spins = 0;
    // Dekker handshake with submit(): register as a sleeper, then
    // re-check ready_ inside the predicate.
    std::unique_lock<std::mutex> lk(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_seq_cst) ||
             ready_.load(std::memory_order_seq_cst) > 0 ||
             w->index >= active_workers();
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  tls_worker = nullptr;
}

}  // namespace amopt::core
