// Tests for the operation counters and the energy meter (S9a). The model
// fallback must track counted work; hardware RAPL, when present, is only
// smoke-tested (values are machine-dependent).

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/metrics/energy.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/params.hpp"

namespace {

using namespace amopt;
using namespace amopt::metrics;

TEST(Counters, AccumulateAndReset) {
  reset_counters();
  add_flops(100);
  add_bytes(50);
  add_flops(1);
  const OpSnapshot s = snapshot();
  EXPECT_EQ(s.flops, 101u);
  EXPECT_EQ(s.bytes, 50u);
  reset_counters();
  EXPECT_EQ(snapshot().flops, 0u);
}

TEST(Counters, DeltaArithmetic) {
  reset_counters();
  add_flops(10);
  const OpSnapshot a = snapshot();
  add_flops(32);
  add_bytes(8);
  const OpSnapshot d = delta(a, snapshot());
  EXPECT_EQ(d.flops, 32u);
  EXPECT_EQ(d.bytes, 8u);
}

TEST(Counters, PricersCountWork) {
  reset_counters();
  const auto spec = pricing::paper_spec();
  (void)pricing::bopm::american_call_vanilla(spec, 512);
  const OpSnapshot after_vanilla = snapshot();
  // Figure-1 loop does ~3*T^2/2 flops.
  EXPECT_NEAR(static_cast<double>(after_vanilla.flops), 1.5 * 512.0 * 512.0,
              0.5 * 512.0 * 512.0);
}

TEST(Counters, ExitedThreadsKeepTheirCounts) {
  // Each thread counts into its own slot; when it exits the slot folds into
  // the retired total, so the joined threads' counts are all still there.
  const OpSnapshot before = snapshot();
  std::vector<std::thread> threads;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 1000; ++i) {
        add_flops(t);
        add_bytes(8 * t);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const OpSnapshot d = delta(before, snapshot());
  EXPECT_EQ(d.flops, 1000u * (1 + 2 + 3 + 4));
  EXPECT_EQ(d.bytes, 8000u * (1 + 2 + 3 + 4));
}

TEST(Counters, ResetZeroesCountsOfExitedThreads) {
  std::thread([] {
    add_flops(123);
    add_bytes(456);
  }).join();
  EXPECT_GE(snapshot().flops, 123u);
  reset_counters();
  const OpSnapshot s = snapshot();
  EXPECT_EQ(s.flops, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(Counters, SolveCountsTheSameAtEveryWidth) {
  // The pool's workers count into their own slots; the join makes their
  // counts visible, so a forked solve counts exactly what a serial one does.
  const auto spec = pricing::paper_spec();
  const auto count_solve = [&](int width) {
    ThreadScope scope(width);
    const OpSnapshot before = snapshot();
    (void)pricing::bopm::american_call_fft(spec, 4096);
    return delta(before, snapshot());
  };
  const OpSnapshot serial = count_solve(1);
  const OpSnapshot forked = count_solve(4);
  EXPECT_GT(serial.flops, 0u);
  EXPECT_EQ(forked.flops, serial.flops);
  EXPECT_EQ(forked.bytes, serial.bytes);
}

TEST(EnergyModel, ModeledEnergyTracksCountedWork) {
  EnergyMeter meter;  // uses model when RAPL is unreachable (typical in CI)
  if (meter.hardware_available()) GTEST_SKIP() << "hardware RAPL active";
  reset_counters();
  meter.start();
  add_flops(1'000'000'000);  // 1 Gflop at 0.5 nJ => 0.5 J
  const EnergySample s = meter.stop();
  EXPECT_FALSE(s.hardware);
  EXPECT_NEAR(s.pkg_joules, 0.5, 1e-12);
  EXPECT_EQ(s.ram_joules, 0.0);  // no bytes counted
}

TEST(EnergyModel, RamTermTracksBytes) {
  EnergyMeter meter;
  if (meter.hardware_available()) GTEST_SKIP();
  reset_counters();
  meter.start();
  add_bytes(100'000'000'000ull);  // 100 GB at 30 pJ/B => 3 J
  const EnergySample s = meter.stop();
  EXPECT_NEAR(s.ram_joules, 3.0, 0.5);
}

TEST(EnergyModel, MoreWorkMoreEnergy) {
  EnergyMeter meter;
  if (meter.hardware_available()) GTEST_SKIP();
  const auto spec = pricing::paper_spec();

  const auto fft_joules = [&] {
    reset_counters();
    meter.start();
    (void)pricing::bopm::american_call_fft(spec, 4096);
    return meter.stop().total();
  };
  const double e_fft = fft_joules();
  // A sample depends only on the counted work, so the same work models the
  // same joules however loaded the host is.
  EXPECT_EQ(fft_joules(), e_fft);

  reset_counters();
  meter.start();
  (void)pricing::bopm::american_call_vanilla(spec, 4096);
  const double e_vanilla = meter.stop().total();

  // The Θ(T^2) loop must cost more modeled energy than the O(T log^2 T)
  // algorithm at T=4096 — the core claim of the paper's Fig. 6.
  EXPECT_GT(e_vanilla, e_fft);
}

TEST(EnergySample, TotalIsSum) {
  EnergySample s;
  s.pkg_joules = 2.0;
  s.ram_joules = 0.5;
  EXPECT_DOUBLE_EQ(s.total(), 2.5);
}

}  // namespace
