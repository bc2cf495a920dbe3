#pragma once
// Thin veneer over the process-wide core::TaskPool: the width/region
// queries the solvers and FFT gate on, the RAII width pin the benches use,
// and a chunked parallel-for for the embarrassingly-parallel row sweeps of
// the vanilla pricers and baselines.

#include <algorithm>
#include <cstddef>

#include "amopt/core/task_pool.hpp"

namespace amopt {

/// The pool's current execution width (1 = strictly serial library).
[[nodiscard]] inline int hardware_threads() {
  return core::TaskPool::instance().concurrency();
}

/// Retarget the pool width used by subsequent parallel work.
inline void set_threads(int n) {
  if (n > 0) core::TaskPool::instance().set_concurrency(n);
}

/// True on a pool worker thread — i.e. inside task execution, where the
/// FFT must not fan out again (nested transforms stay serial).
[[nodiscard]] inline bool in_parallel_region() {
  return core::TaskPool::on_worker();
}

/// RAII guard that pins the pool width for a scope (used by the Table 5
/// scalability bench and the determinism stress test) and restores the
/// previous value on exit.
class ThreadScope {
 public:
  explicit ThreadScope(int n) : saved_(hardware_threads()) { set_threads(n); }
  ~ThreadScope() { set_threads(saved_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

/// Run `fn(lo, hi)` over a static split of [0, n) into at most width
/// contiguous chunks of at least `min_chunk` elements, for pure disjoint
/// maps. The chunk boundaries depend only on (n, width), and the legs
/// write disjoint ranges, so for the library's split-invariant sweeps the
/// bits match serial execution at any width. Runs serially (one call,
/// [0, n)) when the pool is at width 1, on a worker already, or
/// n < 2 * min_chunk.
template <class Fn>
void parallel_for_chunks(std::ptrdiff_t n, std::ptrdiff_t min_chunk,
                         Fn&& fn) {
  if (n <= 0) return;
  auto& pool = core::TaskPool::instance();
  std::ptrdiff_t width = pool.concurrency();
  if (min_chunk > 0) width = std::min(width, n / min_chunk);
  if (width <= 1 || core::TaskPool::on_worker()) {
    fn(std::ptrdiff_t{0}, n);
    return;
  }
  const std::ptrdiff_t chunk = (n + width - 1) / width;
  pool.for_each(
      (n + chunk - 1) / chunk,
      [&](std::size_t k) {
        const std::ptrdiff_t lo = static_cast<std::ptrdiff_t>(k) * chunk;
        fn(lo, std::min(lo + chunk, n));
      },
      static_cast<int>(width));
}

}  // namespace amopt
