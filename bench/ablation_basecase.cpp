// Ablation: trapezoid base-case size. §5.1 of the paper: "We have found
// empirically that a base case size of 8 steps yields the best running
// times." This sweep regenerates that claim for our implementation, whose
// default is 64 (core::SolverConfig): with power-of-two trapezoids, fused
// two-row leaf sweeps and four-chain tap kernels, leaves of 32-128 rows
// measure flat and beat 8 (DESIGN.md §9).

#include "amopt/pricing/bopm.hpp"
#include "bench_common.hpp"

int main() {
  using namespace amopt;
  const auto spec = pricing::paper_spec();
  const std::int64_t T = env_long("AMOPT_BENCH_T", 1 << 16);
  const int reps = static_cast<int>(env_long("AMOPT_BENCH_REPS", 3));

  std::printf("# Ablation: fft-bopm base-case size at T = %lld\n",
              static_cast<long long>(T));
  std::printf("%-12s %16s\n", "base_case", "seconds");
  for (int base : {2, 4, 8, 16, 32, 64, 128, 256}) {
    core::SolverConfig cfg;
    cfg.base_case = base;
    const double t = bench::time_best(
        [&] { (void)pricing::bopm::american_call_fft(spec, T, cfg); }, reps);
    std::printf("%-12d %16.6f\n", base, t);
  }
  return 0;
}
