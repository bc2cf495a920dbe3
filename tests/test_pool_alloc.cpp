// The per-worker zero-steady-state-allocation guarantee under the
// task-parallel trapezoid descent: once every pool worker's scratch arena
// (and thread-local convolution workspace) has been warmed to one item's
// serial footprint, a parallel descend leases every frame from warm
// blocks — the counted phase must not touch the heap from ANY thread.
// This is the deterministic consequence of the pool's scheduling rules
// (a worker blocked in a join only helps with strictly nested descendants,
// so its footprint never exceeds one serial solve) plus the arena's
// best-fit block leasing. The parallel result is also asserted bit-equal
// to the serial solver's.

#include "counting_new.hpp"
//
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>

#include "amopt/common/parallel.hpp"
#include "amopt/core/lattice_solver.hpp"
#include "amopt/core/scratch.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/stencil/kernel_cache.hpp"

namespace {

using namespace amopt;

std::uint64_t allocs() { return counting_new::count(); }

constexpr std::int64_t kT = 4096;
constexpr int kWidth = 4;

struct WarmupCtx {
  pricing::OptionSpec spec;
  pricing::BopmParams prm;
};

// Runs one full SERIAL descend on the calling thread, warming its
// thread-local scratch arena and convolution workspace to the exact
// footprint a stolen subtree of the parallel descend can require (a
// subtree's level heights are a suffix of the serial chain's, so its
// frames best-fit into the serially warmed blocks).
void warm_this_thread(const WarmupCtx& ctx) {
  const pricing::bopm::CallGreen green(ctx.spec, ctx.prm);
  core::SolverConfig cfg;
  cfg.parallel = false;
  stencil::KernelCache cache({{ctx.prm.s0, ctx.prm.s1}, 0});
  core::LatticeSolver solver(&cache, {{ctx.prm.s0, ctx.prm.s1}, 0}, green,
                             cfg);
  core::LatticeRow row = pricing::bopm::expiry_row(ctx.prm, green);
  while (row.i > kT - 2)
    row = solver.step_naive(row, /*unbounded_scan=*/true);
  (void)solver.descend(std::move(row), 0);
}

TEST(PoolAlloc, WarmParallelDescendPerformsZeroAllocations) {
  ThreadScope width(kWidth);
  auto& pool = core::TaskPool::instance();
  ASSERT_EQ(pool.concurrency(), kWidth);

  WarmupCtx ctx{pricing::paper_spec(), {}};
  ctx.prm = pricing::derive_bopm(ctx.spec, kT);

  // Serial reference (and main-thread warm-up in one go).
  const pricing::bopm::CallGreen green(ctx.spec, ctx.prm);
  core::SolverConfig serial_cfg;
  serial_cfg.parallel = false;
  stencil::KernelCache cache({{ctx.prm.s0, ctx.prm.s1}, 0});
  core::LatticeSolver serial(&cache, {{ctx.prm.s0, ctx.prm.s1}, 0}, green,
                             serial_cfg);
  core::LatticeRow row = pricing::bopm::expiry_row(ctx.prm, green);
  while (row.i > kT - 2)
    row = serial.step_naive(row, /*unbounded_scan=*/true);
  const core::LatticeRow top = row;
  const core::LatticeRow ref = serial.descend(std::move(row), 0);

  // Warm every worker's arena to the serial footprint, deterministically:
  // each executor holds its first index until all kWidth are taken, so the
  // caller and each of the 3 active workers run the whole serial solve
  // exactly once, on its own thread.
  std::latch all_in(kWidth);
  pool.for_each(kWidth, [&](std::size_t) {
    all_in.arrive_and_wait();
    warm_this_thread(ctx);
  });

  // The parallel solver shares the warmed kernel cache; its first descend
  // (uncounted) converges any per-solver buffers.
  core::SolverConfig par_cfg;  // parallel = true by default
  core::LatticeSolver parallel(&cache, {{ctx.prm.s0, ctx.prm.s1}, 0}, green,
                               par_cfg);
  {
    core::LatticeRow warm = top;
    (void)parallel.descend(std::move(warm), 0);
  }

  for (int rep = 0; rep < 3; ++rep) {
    core::LatticeRow again = top;  // the copy allocates OUTSIDE the counter
    const std::uint64_t before = allocs();
    const core::LatticeRow out = parallel.descend(std::move(again), 0);
    EXPECT_EQ(allocs() - before, 0u)
        << "rep " << rep << ": warm parallel descend touched the heap";
    ASSERT_EQ(out.q, ref.q) << "rep " << rep;
    ASSERT_EQ(out.red.size(), ref.red.size());
    for (std::size_t j = 0; j < out.red.size(); ++j)
      ASSERT_EQ(out.red[j], ref.red[j]) << "rep " << rep << " j=" << j;
  }

  // The warmed pool is visible to the process-wide aggregate: one arena
  // per warmed thread, and the total dominates any single arena.
  const core::ScratchAggregate agg = core::aggregate_scratch();
  EXPECT_GE(agg.arenas, static_cast<std::size_t>(kWidth));
  EXPECT_GT(agg.max_bytes, 0u);
  EXPECT_GE(agg.total_bytes, agg.max_bytes);
}

}  // namespace
