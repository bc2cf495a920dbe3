// Determinism stress test for the execution plane: the task pool changes
// WHERE work runs, never what it computes. A heterogeneous 64-item batch
// (mixed models, rights, expiries, engines, targets) priced at width 8 —
// with the per-batch fan-out, the task-parallel descent, and the FFT stage
// splits all live — must reproduce the width-1 session bit for bit, on
// prices, greeks and implied vols alike, across 50 repeated rounds on one
// warm session (so steals hit warm arenas in every interleaving the
// scheduler can produce). Also pins the cross-thread scratch accounting
// the service plane's admission control keys on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/core/scratch.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/pricer.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

[[nodiscard]] std::vector<PricingRequest> heterogeneous_batch() {
  // 64 items: cycle models/rights/engines/targets while sweeping spot,
  // vol and expiry so no two items are the same unit of work.
  constexpr Model kModels[] = {Model::bopm, Model::topm, Model::bsm};
  constexpr Engine kEngines[] = {Engine::fft, Engine::vanilla,
                                 Engine::tiled};
  std::vector<PricingRequest> reqs;
  reqs.reserve(64);
  for (int i = 0; i < 64; ++i) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.S = 80.0 + static_cast<double>(i % 9) * 5.0;
    q.spec.V = 0.15 + static_cast<double>(i % 5) * 0.05;
    q.T = 256 << (i % 3);
    q.model = kModels[i % 3];
    q.right = i % 2 == 0 ? Right::call : Right::put;
    q.style = Style::american;
    q.engine = kEngines[(i / 2) % 3];
    if (!Pricer::supports(q.model, q.right, q.style, q.engine)) {
      // Keep all 64 items real work: BOPM/fft american prices both rights.
      q.model = Model::bopm;
      q.engine = Engine::fft;
    }
    q.compute = Compute::price;
    if (i % 4 == 1) {
      // Greeks (and implied vol below) are a bopm/american/fft capability;
      // pin those items there, keeping the sweep over spot/vol/T.
      q.model = Model::bopm;
      q.engine = Engine::fft;
      q.compute |= Compute::greeks;
    }
    if (i % 8 == 3) {
      q.model = Model::bopm;
      q.engine = Engine::fft;
      // Invert a slightly-ticked true quote so Newton genuinely iterates.
      q.compute |= Compute::implied_vol;
      q.target_price = bopm::american_put_fft(q.spec, q.T) * 1.0003;
    }
    reqs.push_back(q);
  }
  return reqs;
}

[[nodiscard]] std::vector<PricingResult> price_at_width(
    Pricer& session, const std::vector<PricingRequest>& reqs, int width) {
  ThreadScope scope(width);
  return session.price_many(reqs);
}

TEST(Determinism, WidthEightMatchesWidthOneBitForBitOverFiftyRounds) {
  const std::vector<PricingRequest> reqs = heterogeneous_batch();

  Pricer serial_session;
  const std::vector<PricingResult> ref =
      price_at_width(serial_session, reqs, 1);
  ASSERT_EQ(ref.size(), reqs.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i].status, Status::ok) << "item " << i;

  Pricer parallel_session;
  for (int round = 0; round < 50; ++round) {
    const std::vector<PricingResult> got =
        price_at_width(parallel_session, reqs, 8);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i].status, ref[i].status)
          << "round " << round << " item " << i;
      // Bit-identical, not merely close: EQ on the exact doubles.
      ASSERT_EQ(got[i].price, ref[i].price)
          << "round " << round << " item " << i;
      if (reqs[i].compute & Compute::greeks) {
        ASSERT_EQ(got[i].greeks.delta, ref[i].greeks.delta)
            << "round " << round << " item " << i;
        ASSERT_EQ(got[i].greeks.gamma, ref[i].greeks.gamma)
            << "round " << round << " item " << i;
        ASSERT_EQ(got[i].greeks.theta, ref[i].greeks.theta)
            << "round " << round << " item " << i;
      }
      if (reqs[i].compute & Compute::implied_vol) {
        // Iteration counts legitimately drop to zero on warm rounds (the
        // session's memo replays the inversion); the NUMBER must not move.
        ASSERT_EQ(got[i].implied_vol.vol, ref[i].implied_vol.vol)
            << "round " << round << " item " << i;
        ASSERT_EQ(got[i].implied_vol.converged, ref[i].implied_vol.converged)
            << "round " << round << " item " << i;
      }
    }
  }
}

TEST(Determinism, StatsAggregateScratchAcrossPoolThreads) {
  // After a parallel batch, the session must report the process-wide arena
  // total the server's admission control compares against its ceiling; the
  // total covers every pool worker's arena, so it dominates the largest
  // single arena.
  const std::vector<PricingRequest> reqs = heterogeneous_batch();
  Pricer session;
  {
    ThreadScope scope(4);
    (void)session.price_many(reqs);
  }
  const Pricer::Stats st = session.stats();
  EXPECT_GT(st.scratch_total_bytes, 0u);
  EXPECT_GE(st.scratch_total_bytes, core::aggregate_scratch().max_bytes);
}

}  // namespace
