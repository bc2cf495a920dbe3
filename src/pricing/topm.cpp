#include "amopt/pricing/topm.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "amopt/common/assert.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/poly/poly_power.hpp"

namespace amopt::pricing::topm {

namespace {

[[nodiscard]] std::int64_t expiry_boundary(const TopmParams& prm,
                                           const core::ExerciseTable& green) {
  const std::int64_t T = prm.T;
  const std::int64_t jmax = 2 * T;
  if (green.value(T, 0) > 0.0) return -1;
  if (green.value(T, jmax) <= 0.0) return jmax;
  std::int64_t lo = 0, hi = jmax;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (green.value(T, mid) <= 0.0 ? lo : hi) = mid;
  }
  return lo;
}

template <bool kParallel, class Payoff>
[[nodiscard]] double rollback_vanilla(const TopmParams& prm,
                                      const Payoff& payoff, bool american) {
  const std::int64_t T = prm.T;
  if (T == 0) return std::max(0.0, payoff(0, 0));
  std::vector<double> cur(static_cast<std::size_t>(2 * T + 1));
  for (std::int64_t j = 0; j <= 2 * T; ++j)
    cur[static_cast<std::size_t>(j)] = std::max(0.0, payoff(T, j));
  if constexpr (!kParallel) {
    for (std::int64_t i = T - 1; i >= 0; --i) {
      for (std::int64_t j = 0; j <= 2 * i; ++j) {
        const double lin = prm.s0 * cur[static_cast<std::size_t>(j)] +
                           prm.s1 * cur[static_cast<std::size_t>(j + 1)] +
                           prm.s2 * cur[static_cast<std::size_t>(j + 2)];
        cur[static_cast<std::size_t>(j)] =
            american ? std::max(lin, payoff(i, j)) : lin;
      }
    }
  } else {
    std::vector<double> nxt(cur.size());
    for (std::int64_t i = T - 1; i >= 0; --i) {
      parallel_for_chunks(2 * i + 1, 1024, [&](std::ptrdiff_t lo,
                                               std::ptrdiff_t hi) {
        for (std::ptrdiff_t j = lo; j < hi; ++j) {
          const double lin = prm.s0 * cur[static_cast<std::size_t>(j)] +
                             prm.s1 * cur[static_cast<std::size_t>(j + 1)] +
                             prm.s2 * cur[static_cast<std::size_t>(j + 2)];
          nxt[static_cast<std::size_t>(j)] =
              american ? std::max(lin, payoff(i, j)) : lin;
        }
      });
      cur.swap(nxt);
    }
  }
  metrics::add_flops(5 * static_cast<std::uint64_t>(T) * (T + 1));
  metrics::add_bytes(3 * sizeof(double) * static_cast<std::uint64_t>(T) *
                     (T + 1));
  return cur[0];
}

}  // namespace

core::LatticeRow expiry_row(const TopmParams& prm,
                            const core::ExerciseTable& green) {
  core::LatticeRow row;
  row.i = prm.T;
  row.q = expiry_boundary(prm, green);
  row.red.assign(static_cast<std::size_t>(std::max<std::int64_t>(row.q + 1, 0)),
                 0.0);
  return row;
}

double american_call_fft(const OptionSpec& spec, std::int64_t T,
                         core::SolverConfig cfg,
                         stencil::KernelCache* kernels) {
  if (T == 0) return std::max(0.0, spec.S - spec.K);
  if (spec.Y <= 0.0 && spec.R >= 0.0) return european_call_fft(spec, T, kernels);

  const TopmParams prm = derive_topm(spec, T);
  const CallGreen green(spec, prm);
  core::LatticeSolver solver(kernels, {{prm.s0, prm.s1, prm.s2}, 0}, green,
                             cfg);

  core::LatticeRow row = expiry_row(prm, green);
  // Full scans for the first two rows: Corollary A.6 is proved below the
  // expiry row, and for R > Y the boundary jumps right off it.
  while (row.i > std::max<std::int64_t>(T - 2, 0))
    row = solver.step_naive(row, /*unbounded_scan=*/true);
  row = solver.descend(std::move(row), 0);
  return row.q >= 0 ? row.red[0] : green.value(0, 0);
}

double american_call_fft(const OptionSpec& spec, std::int64_t T,
                         core::SolverConfig cfg) {
  return american_call_fft(spec, T, cfg, nullptr);
}

double american_call_vanilla(const OptionSpec& spec, std::int64_t T) {
  const TopmParams prm = derive_topm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.S * up(j - i) - spec.K;
  };
  return rollback_vanilla<false>(prm, payoff, /*american=*/true);
}

double american_call_vanilla_parallel(const OptionSpec& spec, std::int64_t T) {
  const TopmParams prm = derive_topm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.S * up(j - i) - spec.K;
  };
  return rollback_vanilla<true>(prm, payoff, /*american=*/true);
}

double american_put_vanilla(const OptionSpec& spec, std::int64_t T) {
  const TopmParams prm = derive_topm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.K - spec.S * up(j - i);
  };
  return rollback_vanilla<false>(prm, payoff, /*american=*/true);
}

double american_put_fft(const OptionSpec& spec, std::int64_t T,
                        core::SolverConfig cfg) {
  return american_call_fft(symmetric_call_spec(spec), T, cfg);
}

double european_call_vanilla(const OptionSpec& spec, std::int64_t T) {
  const TopmParams prm = derive_topm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.S * up(j - i) - spec.K;
  };
  return rollback_vanilla<false>(prm, payoff, /*american=*/false);
}

double european_call_fft(const OptionSpec& spec, std::int64_t T,
                         stencil::KernelCache* kernels) {
  if (T == 0) return std::max(0.0, spec.S - spec.K);
  const TopmParams prm = derive_topm(spec, T);
  const PowerTable up(prm.log_u, T);
  std::vector<double> storage;
  std::span<const double> kernel;
  if (kernels != nullptr) {
    kernel = kernels->power(static_cast<std::uint64_t>(T));
  } else {
    storage = poly::power(std::vector<double>{prm.s0, prm.s1, prm.s2},
                          static_cast<std::uint64_t>(T));
    kernel = storage;
  }
  double acc = 0.0;
  for (std::int64_t j = 0; j <= 2 * T; ++j)
    acc += kernel[static_cast<std::size_t>(j)] *
           std::max(0.0, spec.S * up(j - T) - spec.K);
  return acc;
}

double european_call_fft(const OptionSpec& spec, std::int64_t T) {
  return european_call_fft(spec, T, nullptr);
}

}  // namespace amopt::pricing::topm
