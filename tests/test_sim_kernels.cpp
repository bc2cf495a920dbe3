// Cache-simulation integration tests: the simulated miss counts must show
// the qualitative ordering Fig. 7 reports — the FFT algorithms touch
// asymptotically less memory than the quadratic loops once T is out of
// cache, and zb-bopm's tiling beats ql-bopm's row streaming in L1.

#include <gtest/gtest.h>

#include <vector>

#include "amopt/fft/convolution.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/metrics/sim_kernels.hpp"
#include "amopt/pricing/params.hpp"

namespace {

using namespace amopt;
using namespace amopt::metrics;

TEST(SimKernels, FftBeatsRowStreamingInL1MissesAtScale) {
  // The paper's headline Fig. 7(a) separation: at T where the rows no
  // longer fit in L1, the Θ(T^2) row-streaming ql-bopm misses ~T^2/8 times
  // while fft-bopm touches O(T log^2 T) data. (An *ideally tiled* zb-bopm
  // stays L1-resident per band and can undercut fft at simulator-feasible
  // T — see EXPERIMENTS.md; at the paper's 2^19 scale the T^2 band count
  // overtakes fft. L2 separations likewise need T beyond 2^17 and are
  // exercised by bench/fig7_cache_misses, not here.)
  const auto spec = pricing::paper_spec();
  const std::int64_t T = 4096;  // 32 KiB row == L1 size
  const CacheStats fft = simulate_kernel(SimAlg::bopm_fft, spec, T);
  const CacheStats ql = simulate_kernel(SimAlg::bopm_quantlib, spec, T);
  EXPECT_LT(fft.l1_misses, ql.l1_misses / 4);
}

TEST(SimKernels, TilingReducesL1MissesVersusRowStreaming) {
  const auto spec = pricing::paper_spec();
  const std::int64_t T = 4096;
  const CacheStats ql = simulate_kernel(SimAlg::bopm_quantlib, spec, T);
  const CacheStats zb = simulate_kernel(SimAlg::bopm_zubair, spec, T);
  EXPECT_LT(zb.l1_misses, ql.l1_misses);
}

TEST(SimKernels, TopmFftBeatsVanillaInL1) {
  const auto spec = pricing::paper_spec();
  const std::int64_t T = 4096;  // 2T+1 row = 64 KiB > L1
  const CacheStats fft = simulate_kernel(SimAlg::topm_fft, spec, T);
  const CacheStats van = simulate_kernel(SimAlg::topm_vanilla, spec, T);
  EXPECT_LT(fft.l1_misses, van.l1_misses / 2);
}

TEST(SimKernels, BsmFftCompetitiveAtSmallTAndScalesBetter) {
  // The paper's own Fig. 7(c)/(f) note that BSM shows "no clear winner" in
  // raw miss counts at moderate T; the separation is asymptotic. Assert
  // fft is not worse at 4096 and grows sub-quadratically while vanilla is
  // quadratic.
  const auto spec = pricing::paper_spec();
  const CacheStats f1 = simulate_kernel(SimAlg::bsm_fft, spec, 2048);
  const CacheStats f2 = simulate_kernel(SimAlg::bsm_fft, spec, 4096);
  const CacheStats v2 = simulate_kernel(SimAlg::bsm_vanilla, spec, 4096);
  EXPECT_LT(f2.l1_misses, v2.l1_misses);
  const double growth = static_cast<double>(f2.accesses) /
                        static_cast<double>(std::max<std::uint64_t>(f1.accesses, 1));
  EXPECT_LT(growth, 3.0);
}

TEST(SimKernels, QuadraticLoopsScaleQuadratically) {
  const auto spec = pricing::paper_spec();
  const CacheStats small = simulate_kernel(SimAlg::bopm_vanilla, spec, 2048);
  const CacheStats big = simulate_kernel(SimAlg::bopm_vanilla, spec, 4096);
  const double ratio = static_cast<double>(big.accesses) /
                       static_cast<double>(small.accesses);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(SimKernels, FftAccessesScaleSubQuadratically) {
  const auto spec = pricing::paper_spec();
  const CacheStats small = simulate_kernel(SimAlg::bopm_fft, spec, 2048);
  const CacheStats big = simulate_kernel(SimAlg::bopm_fft, spec, 4096);
  const double ratio = static_cast<double>(big.accesses) /
                       static_cast<double>(small.accesses);
  EXPECT_LT(ratio, 3.0);  // T log^2 T doubles-ish, far from 4x
}

TEST(SimKernels, R2CConvolutionModelParityWithMeasuredTraffic) {
  // Hold the replay against the real pipeline's own traffic accounting
  // (metrics::add_bytes in conv::real_convolve_into): the replay counts
  // every element touch of every sweep while the counter streams each
  // transform once, so exact equality is not expected — but the two must
  // agree on the order of magnitude, which is what Fig. 7 rests on.
  const std::size_t n = 4096;
  const std::vector<double> in(2 * n, 1.0);
  const std::vector<double> kernel(n, 0.5);
  std::vector<double> out(n + 1);
  const metrics::OpSnapshot before = metrics::snapshot();
  conv::correlate_valid(in, kernel, out, {conv::Policy::Path::fft});
  const metrics::OpSnapshot after = metrics::snapshot();
  const std::uint64_t measured = metrics::delta(before, after).bytes;
  ASSERT_GT(measured, 0u);

  const CacheStats sim = simulate_fft_convolution(out.size() + kernel.size() - 1,
                                                  kernel.size(), out.size());
  const double modeled_bytes =
      static_cast<double>(sim.accesses) * sizeof(double) * 2.0;  // avg elem
  const double ratio = modeled_bytes / static_cast<double>(measured);
  EXPECT_GT(ratio, 0.25);
  EXPECT_LT(ratio, 8.0);
}

TEST(SimKernels, NamesAreStable) {
  EXPECT_STREQ(to_string(SimAlg::bopm_fft), "fft-bopm");
  EXPECT_STREQ(to_string(SimAlg::bopm_quantlib), "ql-bopm");
  EXPECT_STREQ(to_string(SimAlg::bsm_vanilla), "vanilla-bsm");
}

}  // namespace
