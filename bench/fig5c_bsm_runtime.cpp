// Figure 5(c): parallel running time of American put pricing under the
// Black-Scholes-Merton explicit FDM — fft-bsm vs vanilla-bsm. Also dumps
// BENCH_bsm.json for the CI bench guard.

#include <string>
#include <vector>

#include "amopt/pricing/bsm_fdm.hpp"
#include "bench_common.hpp"

int main() {
  using namespace amopt;
  const auto spec = pricing::paper_spec();
  const auto sweep = bench::sweep_from_env(1 << 11, 1 << 16, 1 << 13);

  const std::vector<std::string> series{"fft-bsm", "vanilla-bsm"};
  bench::print_header("Figure 5(c): BSM American put, parallel running time",
                      "seconds", series);
  std::vector<std::int64_t> ts;
  std::vector<std::vector<double>> rows;
  for (std::int64_t T = sweep.min_t; T <= sweep.max_t; T *= 2) {
    const double fft = bench::time_best(
        [&] { (void)pricing::bsm::american_put_fft(spec, T); }, sweep.reps);
    double van = -1.0;
    if (T <= sweep.slow_max_t) {
      van = bench::time_best(
          [&] { (void)pricing::bsm::american_put_vanilla_parallel(spec, T); },
          sweep.reps);
    }
    bench::print_row(T, {fft, van});
    ts.push_back(T);
    rows.push_back({fft, van});
  }
  const std::string json = env_string("AMOPT_BENCH_JSON", "BENCH_bsm.json");
  if (json != "none")
    bench::write_json(json, "fig5c_bsm_runtime", "seconds", series, ts, rows);
  return 0;
}
