// Figure 5(a): parallel running time of American call pricing under BOPM —
// fft-bopm vs ql-bopm vs zb-bopm over a T sweep. The paper sweeps
// T = 2^11..2^19 on 48 cores; defaults here finish in seconds on one core
// and AMOPT_BENCH_MAX_T / AMOPT_BENCH_SLOW_MAX_T scale the sweep up.
// Results are also dumped to BENCH_bopm.json (override with
// AMOPT_BENCH_JSON, disable with AMOPT_BENCH_JSON=none) so the perf
// trajectory can be tracked across commits.

#include <string>
#include <vector>

#include "amopt/baselines/baselines.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/pricing/bopm.hpp"
#include "bench_common.hpp"

int main() {
  using namespace amopt;
  const auto spec = pricing::paper_spec();
  const auto sweep = bench::sweep_from_env(1 << 11, 1 << 17, 1 << 14);

  // fft-bopm runs at the session's inherited pool width; fft-bopm-4t pins
  // width 4 so the task-parallel descent's scaling shows in the same sweep
  // (on a >= 4-core box it tracks the paper's parallel trajectory; on a
  // smaller one it documents oversubscription).
  const std::vector<std::string> series{"fft-bopm", "fft-bopm-4t",
                                        "ql-bopm", "zb-bopm"};
  bench::print_header("Figure 5(a): BOPM American call, parallel running time",
                      "seconds", series);
  std::vector<std::int64_t> ts;
  std::vector<std::vector<double>> rows;
  for (std::int64_t T = sweep.min_t; T <= sweep.max_t; T *= 2) {
    const double fft = bench::time_best(
        [&] { (void)pricing::bopm::american_call_fft(spec, T); }, sweep.reps);
    double fft_4t = -1.0;
    {
      ThreadScope scope(4);
      fft_4t = bench::time_best(
          [&] { (void)pricing::bopm::american_call_fft(spec, T); },
          sweep.reps);
    }
    double ql = -1.0, zb = -1.0;
    if (T <= sweep.slow_max_t) {
      ql = bench::time_best(
          [&] { (void)baselines::quantlib_style_american_call(spec, T); },
          sweep.reps);
      zb = bench::time_best(
          [&] { (void)baselines::zubair_american_call(spec, T); }, sweep.reps);
    }
    bench::print_row(T, {fft, fft_4t, ql, zb});
    ts.push_back(T);
    rows.push_back({fft, fft_4t, ql, zb});
  }
  std::printf("# '-' entries: Theta(T^2) baselines skipped beyond "
              "AMOPT_BENCH_SLOW_MAX_T=%lld\n",
              static_cast<long long>(sweep.slow_max_t));
  const std::string json = env_string("AMOPT_BENCH_JSON", "BENCH_bopm.json");
  if (json != "none")
    bench::write_json(json, "fig5a_bopm_runtime", "seconds", series, ts, rows);
  return 0;
}
