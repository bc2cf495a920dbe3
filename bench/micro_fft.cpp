// google-benchmark microbenches for the FFT substrate: complex and real
// transform throughput, the two convolution pipelines (direct and
// real-input R2C/C2R), and the allocation-free Workspace paths the solvers
// rely on.
//
// On top of the statically registered benches (which run at the ambient
// dispatch level, i.e. the production default), main() registers one copy
// of the transform/convolution benches per SIMD dispatch path available on
// the host — "BM_FftForward<scalar>", "BM_FftForward<avx2>", ... — so
// BENCH_fft.json records per-path numbers and the CI bench guard can check
// the vector paths' speedup over scalar. The spectral kernel engine adds
// per-path pairs the guard holds against each other: BM_CorrelateSpectral
// (cached kernel spectrum) vs BM_CorrelateValidWorkspace (transform per
// call), BM_PolyPowerFft (aliased csquare squarings) vs its two-transform
// reference, BM_KernelLadderDescent (shared squaring ladder) vs
// BM_KernelPowersUnshared, and BM_KernelSpectrumFromTaps (a cold kernel
// spectrum raised bin by bin from the taps) vs BM_KernelSpectrumViaPower
// (time-domain power, then its transform).
//
// The binary writes its results to BENCH_fft.json by default (benchmark's
// own JSON format) so perf can be diffed across commits; set
// AMOPT_BENCH_JSON to change the path or to "none" to disable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "amopt/common/env.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/fft/fft.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/simd/simd.hpp"
#include "amopt/stencil/kernel_cache.hpp"

namespace {

using amopt::fft::cplx;

std::vector<cplx> random_complex(std::size_t n) {
  std::mt19937 rng(123);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx{dist(rng), dist(rng)};
  return v;
}

std::vector<double> random_real(std::size_t n) {
  std::mt19937 rng(321);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto data = random_complex(n);
  const auto& plan = amopt::fft::plan_for(n);
  for (auto _ : state) {
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftForward)->RangeMultiplier(4)->Range(1 << 8, 1 << 20);

void BM_RealFftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto data = random_real(n);
  const auto& plan = amopt::fft::real_plan_for(n);
  std::vector<cplx> spec(plan.spectrum_size());
  for (auto _ : state) {
    plan.forward(data.data(), spec.data());
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RealFftForward)->RangeMultiplier(4)->Range(1 << 8, 1 << 20);

// The production real-input path (allocating result vector each call).
void BM_ConvolveFull(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_real(n);
  const auto b = random_real(n);
  for (auto _ : state) {
    auto c = amopt::conv::convolve_full(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_ConvolveFull)->RangeMultiplier(4)->Range(1 << 8, 1 << 18);

// Real-input path through a warm Workspace: zero heap traffic per call.
void BM_ConvolveFullWorkspace(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_real(n);
  const auto b = random_real(n);
  amopt::conv::Workspace ws;
  std::vector<double> out(2 * n - 1);
  const amopt::conv::Policy fft{amopt::conv::Policy::Path::fft};
  amopt::conv::convolve_full(a, b, out, ws, fft);  // warm-up
  for (auto _ : state) {
    amopt::conv::convolve_full(a, b, out, ws, fft);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvolveFullWorkspace)->RangeMultiplier(4)->Range(1 << 8, 1 << 18);

void BM_CorrelateValid(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = random_real(2 * n);
  const auto kernel = random_real(n);
  std::vector<double> out(n + 1);
  for (auto _ : state) {
    amopt::conv::correlate_valid(in, kernel, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CorrelateValid)->RangeMultiplier(4)->Range(1 << 8, 1 << 18);

void BM_CorrelateValidWorkspace(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = random_real(2 * n);
  const auto kernel = random_real(n);
  std::vector<double> out(n + 1);
  amopt::conv::Workspace ws;
  const amopt::conv::Policy fft{amopt::conv::Policy::Path::fft};
  amopt::conv::correlate_valid(in, kernel, out, ws, fft);  // warm-up
  for (auto _ : state) {
    amopt::conv::correlate_valid(in, kernel, out, ws, fft);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CorrelateValidWorkspace)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 18);

// Chain-style batched convolution: 16 rows against one shared kernel whose
// spectrum is computed once (vs. 16 times through the unbatched call).
void BM_ConvolveMany(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kItems = 16;
  std::vector<std::vector<double>> storage;
  for (std::size_t i = 0; i < kItems; ++i) storage.push_back(random_real(n));
  std::vector<std::span<const double>> inputs(storage.begin(), storage.end());
  const auto kernel = random_real(n);
  std::vector<std::vector<double>> outs(kItems);
  amopt::conv::Workspace ws;
  const amopt::conv::Policy fft{amopt::conv::Policy::Path::fft};
  amopt::conv::convolve_many(inputs, kernel, outs, ws, fft);  // warm-up
  for (auto _ : state) {
    amopt::conv::convolve_many(inputs, kernel, outs, ws, fft);
    benchmark::DoNotOptimize(outs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
}
BENCHMARK(BM_ConvolveMany)->RangeMultiplier(4)->Range(1 << 10, 1 << 16);

// ---------------------------------------------------- per-dispatch-path

// One benchmark body per kernel family; the dispatch level is installed at
// benchmark entry (google-benchmark runs benchmarks sequentially, so the
// override cannot leak into a concurrently running bench).

// Pins the dispatch level for one benchmark body and restores the ambient
// (AMOPT_SIMD-resolved) level on every exit path, so an early return or
// SkipWithError cannot leak the override into later benches.
struct LevelScope {
  explicit LevelScope(amopt::simd::Level lvl)
      : prev(amopt::simd::active()) {
    amopt::simd::set_level(lvl);
  }
  ~LevelScope() { amopt::simd::set_level(prev); }
  amopt::simd::Level prev;
};

// Forward + inverse per iteration: repeated forward-only transforms grow
// the data by ~n per pass until it overflows to inf/NaN, and non-finite
// arithmetic skews per-path timing — the round trip keeps values bounded
// so the scalar/vector ratio is honest.
void BM_FftRoundTripPath(benchmark::State& state, amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto data = random_complex(n);
  const auto& plan = amopt::fft::plan_for(n);
  for (auto _ : state) {
    plan.forward(data.data());
    plan.inverse(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_RealFftForwardPath(benchmark::State& state, amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto data = random_real(n);
  const auto& plan = amopt::fft::real_plan_for(n);
  std::vector<cplx> spec(plan.spectrum_size());
  for (auto _ : state) {
    plan.forward(data.data(), spec.data());
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ConvolveWorkspacePath(benchmark::State& state,
                              amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_real(n);
  const auto b = random_real(n);
  amopt::conv::Workspace ws;
  std::vector<double> out(2 * n - 1);
  const amopt::conv::Policy fft{amopt::conv::Policy::Path::fft};
  amopt::conv::convolve_full(a, b, out, ws, fft);  // warm-up
  for (auto _ : state) {
    amopt::conv::convolve_full(a, b, out, ws, fft);
    benchmark::DoNotOptimize(out.data());
  }
}

// Transform-per-call correlation (the pre-spectral kernel path): the
// denominator of the spectral-path speedup check_bench.py enforces.
void BM_CorrelateWorkspacePath(benchmark::State& state,
                               amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = random_real(2 * n);
  const auto kernel = random_real(n);
  std::vector<double> out(n + 1);
  amopt::conv::Workspace ws;
  const amopt::conv::Policy fft{amopt::conv::Policy::Path::fft};
  amopt::conv::correlate_valid(in, kernel, out, ws, fft);  // warm-up
  for (auto _ : state) {
    amopt::conv::correlate_valid(in, kernel, out, ws, fft);
    benchmark::DoNotOptimize(out.data());
  }
}

// Correlation consuming a precomputed kernel spectrum: what the solvers'
// run_conv pays once the KernelCache spectrum tier is warm (2 transforms
// per call instead of 3).
void BM_CorrelateSpectralPath(benchmark::State& state,
                              amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = random_real(2 * n);
  const auto kernel = random_real(n);
  std::vector<double> out(n + 1);
  amopt::conv::Workspace ws;
  const amopt::fft::RealSpectrum kspec = amopt::conv::kernel_spectrum(
      kernel, amopt::conv::correlate_fft_size(out.size(), kernel.size()),
      /*reversed=*/true, ws);
  amopt::conv::correlate_valid(in, kspec, out, ws);  // warm-up
  for (auto _ : state) {
    amopt::conv::correlate_valid(in, kspec, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
}

// Production kernel power: binary exponentiation whose squarings ride the
// aliased one-transform fast path (csquare).
void BM_PolyPowerFftPath(benchmark::State& state, amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::uint64_t h = static_cast<std::uint64_t>(state.range(0));
  const std::vector<double> taps{0.24, 0.50, 0.25};
  amopt::conv::Workspace ws;
  (void)amopt::poly::power_fft(taps, h, ws);  // warm-up
  for (auto _ : state) {
    auto k = amopt::poly::power_fft(taps, h, ws);
    benchmark::DoNotOptimize(k.data());
  }
}

// Pre-PR reference: the same square-and-multiply walk with every squaring
// forced through the two-operand path (base copied to a second buffer so
// the operands never alias) — the transform count power_fft used to pay.
void BM_PolyPowerFftTwoTransformPath(benchmark::State& state,
                                     amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::uint64_t h = static_cast<std::uint64_t>(state.range(0));
  const std::vector<double> taps{0.24, 0.50, 0.25};
  amopt::conv::Workspace ws;
  const auto clamp = [](std::span<double> k) {
    double peak = 0.0;
    for (double x : k) peak = std::max(peak, std::abs(x));
    const double floor = 1e-12 * peak;
    for (double& x : k) {
      if (std::abs(x) < floor) x = 0.0;
      if (x < 0.0) x = 0.0;
    }
  };
  std::vector<double> base_copy;
  const auto run = [&] {
    const std::size_t d = taps.size() - 1;
    const std::size_t max_len = d * static_cast<std::size_t>(h) + 1;
    std::span<double> result = ws.acc(max_len);
    std::span<double> base = ws.tmp(max_len);
    std::span<double> stage = ws.aux(max_len);
    base_copy.resize(max_len);
    std::size_t nr = 1, nb = taps.size();
    result[0] = 1.0;
    std::copy(taps.begin(), taps.end(), base.begin());
    std::uint64_t e = h;
    while (e > 0) {
      if (e & 1u) {
        const std::size_t len = nr + nb - 1;
        amopt::conv::convolve_full(result.first(nr), base.first(nb),
                                   stage.first(len), ws);
        std::copy_n(stage.begin(), len, result.begin());
        nr = len;
        clamp(result.first(nr));
      }
      e >>= 1;
      if (e > 0) {
        const std::size_t len = 2 * nb - 1;
        std::copy_n(base.begin(), nb, base_copy.begin());
        amopt::conv::convolve_full(base.first(nb),
                                   std::span<const double>(base_copy).first(nb),
                                   stage.first(len), ws);
        std::copy_n(stage.begin(), len, base.begin());
        nb = len;
        clamp(base.first(nb));
      }
    }
    benchmark::DoNotOptimize(result.data());
  };
  run();  // warm-up
  for (auto _ : state) run();
}

// pad-x numerator: the SAME spectral correlation as BM_CorrelateSpectral,
// but with the kernel spectrum built at the pre-PR-10 double-padded size
// next_pow2(out + 2*(klen-1)) — every linear bin alias-free, including the
// bins no correlation reads. The spectral overload accepts any n above the
// overlap-save minimum, so the legacy sizing stays reproducible for this
// in-run comparison: check_bench holds
// BM_CorrelateSpectralWidePad / BM_CorrelateSpectral >= 1.25x at n >= 2^12.
void BM_CorrelateSpectralWidePadPath(benchmark::State& state,
                                     amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto in = random_real(2 * n);
  const auto kernel = random_real(n);
  std::vector<double> out(n + 1);
  amopt::conv::Workspace ws;
  const std::size_t wide =
      amopt::next_pow2(out.size() + 2 * (kernel.size() - 1));
  const amopt::fft::RealSpectrum kspec =
      amopt::conv::kernel_spectrum(kernel, wide, /*reversed=*/true, ws);
  amopt::conv::correlate_valid(in, kspec, out, ws);  // warm-up
  for (auto _ : state) {
    amopt::conv::correlate_valid(in, kspec, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
}

// share-quantum-x: a drifting-vol 5-leg batch (one expiry, each leg's vol a
// few e-5 off its neighbours — recalibration-tick traffic) priced by a FRESH
// session per iteration, so the timing is dominated by kernel construction
// (European fft legs are a single kernel power apply; the ladder IS the
// solve). Off: sharing enabled but quantum 0 (exact keys — the drift defeats
// every merge, five kernel ladders). On: the quantum covers the drift, the
// batch collapses to ONE ladder with no dt rescaling (equal expiries).
// check_bench holds Off/On >= 1.2x.
void BM_ShareQuantumChainPath(benchmark::State& state, amopt::simd::Level lvl,
                              double quantum) {
  const LevelScope scope(lvl);
  const std::int64_t T = state.range(0);
  std::vector<amopt::pricing::PricingRequest> chain;
  for (int i = 0; i < 5; ++i) {
    amopt::pricing::PricingRequest q;
    q.spec = amopt::pricing::paper_spec();
    q.spec.V *= 1.0 + i * 1e-4;
    q.T = T;
    q.style = amopt::pricing::Style::european;
    chain.push_back(q);
  }
  amopt::pricing::PricerConfig cfg;
  cfg.share_expiries = quantum;
  for (auto _ : state) {
    amopt::pricing::Pricer session(cfg);
    auto res = session.price_many(chain);
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5);
}

// Kernel-ladder micro: one descent-like height set (h, h/2, ..., 1) served
// by a fresh KernelCache (rungs shared across heights) vs the same heights
// each rebuilt from the raw taps.
void BM_KernelLadderDescentPath(benchmark::State& state,
                                amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::uint64_t h = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    amopt::stencil::KernelCache cache({{0.24, 0.50, 0.25}, 0});
    for (std::uint64_t step = h; step >= 1; step /= 2) {
      const auto k = cache.power(step);
      benchmark::DoNotOptimize(k.data());
    }
  }
}

void BM_KernelPowersUnsharedPath(benchmark::State& state,
                                 amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::uint64_t h = static_cast<std::uint64_t>(state.range(0));
  const std::vector<double> taps{0.24, 0.50, 0.25};
  amopt::conv::Workspace ws;
  for (auto _ : state) {
    for (std::uint64_t step = h; step >= 1; step /= 2) {
      auto k = amopt::poly::power_fft(taps, step, ws);
      benchmark::DoNotOptimize(k.data());
    }
  }
}

// One cold tap group's kernel spectrum, built two ways for taps
// {0.24, 0.5, 0.25} at h = n/4 (the kernel fills half the padded size, as at
// a descent's top levels): a fresh KernelCache, whose spectrum tier raises
// each bin R(w_k)^h straight from the taps, against the time-domain route
// the tier used to take — poly::power, then the reversed R2C transform.
void BM_KernelSpectrumFromTapsPath(benchmark::State& state,
                                   amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    amopt::stencil::KernelCache cache({{0.24, 0.50, 0.25}, 0});
    const auto spec = cache.power_spectrum(n / 4, n);
    benchmark::DoNotOptimize(spec->bins.data());
    benchmark::ClobberMemory();
  }
}

void BM_KernelSpectrumViaPowerPath(benchmark::State& state,
                                   amopt::simd::Level lvl) {
  const LevelScope scope(lvl);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> taps{0.24, 0.50, 0.25};
  amopt::conv::Workspace ws;
  for (auto _ : state) {
    const auto power = amopt::poly::power(taps, n / 4, ws);
    const auto spec =
        amopt::conv::kernel_spectrum(power, n, /*reversed=*/true, ws);
    benchmark::DoNotOptimize(spec.bins.data());
    benchmark::ClobberMemory();
  }
}

void register_per_path_benches() {
  using amopt::simd::Level;
  for (const Level lvl : {Level::scalar, Level::avx2, Level::avx512}) {
    if (static_cast<int>(lvl) >
        static_cast<int>(amopt::simd::max_supported()))
      continue;
    const std::string tag = std::string("<") + amopt::simd::to_string(lvl) + ">";
    benchmark::RegisterBenchmark(("BM_FftRoundTrip" + tag).c_str(),
                                 BM_FftRoundTripPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_RealFftForward" + tag).c_str(),
                                 BM_RealFftForwardPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_ConvolveFullWorkspace" + tag).c_str(),
                                 BM_ConvolveWorkspacePath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_CorrelateValidWorkspace" + tag).c_str(),
                                 BM_CorrelateWorkspacePath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_CorrelateSpectral" + tag).c_str(),
                                 BM_CorrelateSpectralPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_CorrelateSpectralWidePad" + tag).c_str(),
                                 BM_CorrelateSpectralWidePadPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_ShareQuantumOff" + tag).c_str(),
                                 BM_ShareQuantumChainPath, lvl, 0.0)
        ->Arg(1 << 13)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("BM_ShareQuantumOn" + tag).c_str(),
                                 BM_ShareQuantumChainPath, lvl, 1e-3)
        ->Arg(1 << 13)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("BM_PolyPowerFft" + tag).c_str(),
                                 BM_PolyPowerFftPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 14);
    benchmark::RegisterBenchmark(("BM_PolyPowerFftTwoTransform" + tag).c_str(),
                                 BM_PolyPowerFftTwoTransformPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 14);
    benchmark::RegisterBenchmark(("BM_KernelLadderDescent" + tag).c_str(),
                                 BM_KernelLadderDescentPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 14);
    benchmark::RegisterBenchmark(("BM_KernelPowersUnshared" + tag).c_str(),
                                 BM_KernelPowersUnsharedPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 14);
    benchmark::RegisterBenchmark(("BM_KernelSpectrumFromTaps" + tag).c_str(),
                                 BM_KernelSpectrumFromTapsPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
    benchmark::RegisterBenchmark(("BM_KernelSpectrumViaPower" + tag).c_str(),
                                 BM_KernelSpectrumViaPowerPath, lvl)
        ->RangeMultiplier(4)
        ->Range(1 << 10, 1 << 16);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_per_path_benches();
  // Default to a JSON dump next to the binary unless the caller already
  // steers the output or opts out with AMOPT_BENCH_JSON=none.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  const std::string json =
      amopt::env_string("AMOPT_BENCH_JSON", "BENCH_fft.json");
  std::string out_flag, fmt_flag;
  if (!has_out && json != "none") {
    out_flag = "--benchmark_out=" + json;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
