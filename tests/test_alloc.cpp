// Steady-state allocation guarantees of the PR 5 memory plane. Like
// test_workspace, this binary replaces global operator new/delete with
// counting versions (its own executable so the counter stays isolated):
// after warm-up, a trapezoid descent must not touch the heap at all, and a
// warm Pricer batch must allocate O(1) per request independent of T.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/core/scratch.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/stencil/kernel_cache.hpp"

#include "counting_new.hpp"

namespace {

using namespace amopt;

[[nodiscard]] std::uint64_t allocs() { return counting_new::count(); }

TEST(ScratchStack, SpansAreCacheLineAlignedAndDistinct) {
  core::ScratchStack st;
  core::ScratchStack::Frame frame(st);
  const auto a = frame.alloc(3);
  const auto b = frame.alloc(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
  EXPECT_NE(a.data(), b.data());
  // Rounded to whole cache lines: no overlap even for tiny spans.
  EXPECT_GE(reinterpret_cast<std::uintptr_t>(b.data()),
            reinterpret_cast<std::uintptr_t>(a.data() + 8));
}

TEST(ScratchStack, LifoFramesReuseStorage) {
  core::ScratchStack st;
  double* first = nullptr;
  {
    core::ScratchStack::Frame frame(st);
    first = frame.alloc(64).data();
  }
  {
    core::ScratchStack::Frame frame(st);
    EXPECT_EQ(frame.alloc(64).data(), first);  // popped and re-bumped
  }
}

TEST(ScratchStack, GrowthKeepsOutstandingSpansValid) {
  core::ScratchStack st;
  core::ScratchStack::Frame frame(st);
  const auto small = frame.alloc(16);
  small[0] = 42.0;
  // Force block growth well past the first block.
  const auto big = frame.alloc(1u << 16);
  big[0] = 1.0;
  EXPECT_EQ(small[0], 42.0);  // earlier span untouched by growth
}

TEST(ScratchStack, WarmFramesAllocateNothing) {
  core::ScratchStack st;
  {
    core::ScratchStack::Frame frame(st);
    (void)frame.alloc(5000);
    (void)frame.alloc(300);
  }
  const std::uint64_t before = allocs();
  for (int r = 0; r < 100; ++r) {
    core::ScratchStack::Frame frame(st);
    auto a = frame.alloc(5000);
    auto b = frame.alloc(300);
    a[0] = b[0] = static_cast<double>(r);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(Descend, SteadyStateDescendPerformsZeroAllocations) {
  const auto spec = pricing::paper_spec();
  const std::int64_t T = 4096;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::SolverConfig cfg;
  cfg.parallel = false;  // deterministic thread placement for the counter
  stencil::KernelCache cache({{prm.s0, prm.s1}, 0});
  core::LatticeSolver solver(&cache, {{prm.s0, prm.s1}, 0}, green, cfg);

  core::LatticeRow row = pricing::bopm::expiry_row(prm, green);
  while (row.i > T - 2) row = solver.step_naive(row, /*unbounded_scan=*/true);
  const core::LatticeRow top = row;

  const core::LatticeRow ref = solver.descend(std::move(row), 0);  // warm-up
  core::LatticeRow again = top;  // copy allocates OUTSIDE the counter
  const std::uint64_t before = allocs();
  const core::LatticeRow out = solver.descend(std::move(again), 0);
  EXPECT_EQ(allocs() - before, 0u)
      << "steady-state descend touched the heap";
  ASSERT_EQ(out.q, ref.q);
  for (std::size_t j = 0; j < out.red.size(); ++j)
    ASSERT_EQ(out.red[j], ref.red[j]) << "j=" << j;
}

TEST(PricerAlloc, WarmBatchAllocationsAreIndependentOfT) {
  // A warm session batch still allocates (results vector, request copies,
  // row buffers of brand-new solver objects are arena-backed but the
  // LatticeRow tops are not) — the guarantee is that the count is O(1) per
  // request and does NOT scale with the discretization, i.e. the O(T)
  // per-level allocations of the old memory plane are gone.
  using namespace amopt::pricing;
  PricerConfig pc;
  pc.threads = 1;  // deterministic item->thread placement for counting
  Pricer session(pc);
  const auto count_batch = [&](std::int64_t T) {
    std::vector<PricingRequest> reqs(4);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].spec = paper_spec();
      reqs[i].spec.K = 95.0 + 5.0 * static_cast<double>(i);
      reqs[i].T = T;
      core::SolverConfig cfg;
      cfg.parallel = false;
      reqs[i].solver = cfg;
    }
    (void)session.price_many(reqs);  // warm this T's caches
    const std::uint64_t before = allocs();
    const auto out = session.price_many(reqs);
    const std::uint64_t spent = allocs() - before;
    for (const auto& r : out) EXPECT_EQ(r.status, Status::ok);
    return spent;
  };
  const std::uint64_t small = count_batch(1024);
  const std::uint64_t big = count_batch(8192);
  // Old memory plane: thousands of allocations per pricing, strongly
  // increasing in T. New plane: a fixed session/batch overhead.
  EXPECT_LE(big, small + 64) << "warm batch allocations scale with T";
  EXPECT_LE(big, 512u);
}

}  // namespace
