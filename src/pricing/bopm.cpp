#include "amopt/pricing/bopm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "amopt/common/assert.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/poly/poly_power.hpp"

namespace amopt::pricing::bopm {

namespace {

[[nodiscard]] double payoff_expiry(const core::ExerciseTable& green,
                                   std::int64_t T, std::int64_t j) {
  return std::max(0.0, green.value(T, j));
}

/// Coefficients of taps^h: from the shared chain cache when available,
/// otherwise computed into `storage`. Both roads run the same poly::power.
[[nodiscard]] std::span<const double> kernel_power(
    stencil::KernelCache* kernels, const std::vector<double>& taps,
    std::int64_t h, std::vector<double>& storage) {
  if (kernels != nullptr) return kernels->power(static_cast<std::uint64_t>(h));
  storage = poly::power(taps, static_cast<std::uint64_t>(h));
  return storage;
}

/// Largest j with S*u^(2j-T) <= K (the last red cell of the expiry row);
/// -1 if even j = 0 is in the money. The green value is strictly increasing
/// in j, so a binary search suffices.
[[nodiscard]] std::int64_t expiry_boundary(const BopmParams& prm,
                                           const core::ExerciseTable& green) {
  const std::int64_t T = prm.T;
  std::int64_t lo = -1, hi = T;  // invariant: green(lo) <= 0 < green(hi+1)
  if (green.value(T, 0) > 0.0) return -1;
  if (green.value(T, T) <= 0.0) return T;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (green.value(T, mid) <= 0.0 ? lo : hi) = mid;
  }
  return lo;
}

struct VanillaResult {
  double price = 0.0;
};

template <bool kParallel, class Payoff>
[[nodiscard]] double rollback_vanilla(const OptionSpec& spec, std::int64_t T,
                                      const Payoff& payoff, bool american) {
  if (T == 0) return std::max(0.0, payoff(0, 0));
  const BopmParams prm = derive_bopm(spec, T);
  std::vector<double> cur(static_cast<std::size_t>(T + 1));
  for (std::int64_t j = 0; j <= T; ++j)
    cur[static_cast<std::size_t>(j)] = std::max(0.0, payoff(T, j));
  if constexpr (!kParallel) {
    // In-place forward sweep: writing G[j] uses the old G[j], G[j+1].
    for (std::int64_t i = T - 1; i >= 0; --i) {
      for (std::int64_t j = 0; j <= i; ++j) {
        const double lin = prm.s0 * cur[static_cast<std::size_t>(j)] +
                           prm.s1 * cur[static_cast<std::size_t>(j + 1)];
        cur[static_cast<std::size_t>(j)] =
            american ? std::max(lin, payoff(i, j)) : lin;
      }
    }
  } else {
    std::vector<double> nxt(cur.size());
    for (std::int64_t i = T - 1; i >= 0; --i) {
      parallel_for_chunks(i + 1, 1024, [&](std::ptrdiff_t lo,
                                           std::ptrdiff_t hi) {
        for (std::ptrdiff_t j = lo; j < hi; ++j) {
          const double lin = prm.s0 * cur[static_cast<std::size_t>(j)] +
                             prm.s1 * cur[static_cast<std::size_t>(j + 1)];
          nxt[static_cast<std::size_t>(j)] =
              american ? std::max(lin, payoff(i, j)) : lin;
        }
      });
      cur.swap(nxt);
    }
  }
  metrics::add_flops(3 * static_cast<std::uint64_t>(T) * (T + 1) / 2);
  metrics::add_bytes(2 * sizeof(double) * static_cast<std::uint64_t>(T) *
                     (T + 1) / 2);
  return cur[0];
}

}  // namespace

core::LatticeRow expiry_row(const BopmParams& prm,
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
  // With Y <= 0 (and R >= 0) early exercise of a call is never optimal and
  // the red/green boundary degenerates; the price is the European one,
  // which the linear FFT path computes exactly.
  if (spec.Y <= 0.0 && spec.R >= 0.0) return european_call_fft(spec, T, kernels);

  const BopmParams prm = derive_bopm(spec, T);
  const CallGreen green(spec, prm);
  core::LatticeSolver solver(kernels, {{prm.s0, prm.s1}, 0}, green, cfg);

  core::LatticeRow row = expiry_row(prm, green);
  // Corollary 2.7's <=1-cell motion is proved from row T-2 downward, and
  // when R > Y the discrete boundary can jump RIGHT off the expiry row (the
  // exercise threshold moves from K to ~(R/Y)K in one step): scan the first
  // two rows in full (see DESIGN.md).
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
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.S * up(2 * j - i) - spec.K;
  };
  return rollback_vanilla<false>(spec, T, payoff, /*american=*/true);
}

double american_call_vanilla_parallel(const OptionSpec& spec, std::int64_t T) {
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.S * up(2 * j - i) - spec.K;
  };
  return rollback_vanilla<true>(spec, T, payoff, /*american=*/true);
}

double american_put_vanilla(const OptionSpec& spec, std::int64_t T) {
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.K - spec.S * up(2 * j - i);
  };
  return rollback_vanilla<false>(spec, T, payoff, /*american=*/true);
}

double american_put_fft(const OptionSpec& spec, std::int64_t T,
                        core::SolverConfig cfg,
                        stencil::KernelCache* kernels) {
  return american_call_fft(symmetric_call_spec(spec), T, cfg, kernels);
}

double european_call_vanilla(const OptionSpec& spec, std::int64_t T) {
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.S * up(2 * j - i) - spec.K;
  };
  return rollback_vanilla<false>(spec, T, payoff, /*american=*/false);
}

double european_put_vanilla(const OptionSpec& spec, std::int64_t T) {
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, T);
  const auto payoff = [&](std::int64_t i, std::int64_t j) {
    return spec.K - spec.S * up(2 * j - i);
  };
  return rollback_vanilla<false>(spec, T, payoff, /*american=*/false);
}

namespace {
template <class Payoff>
[[nodiscard]] double european_fft_impl(const OptionSpec& spec, std::int64_t T,
                                       const Payoff& payoff,
                                       stencil::KernelCache* kernels) {
  if (T == 0) return std::max(0.0, payoff(0, 0));
  const BopmParams prm = derive_bopm(spec, T);
  // A shared chain cache (taps {s0, s1}) serves the T-step power directly.
  std::vector<double> storage;
  const std::span<const double> kernel =
      kernel_power(kernels, {prm.s0, prm.s1}, T, storage);
  double acc = 0.0;
  for (std::int64_t j = 0; j <= T; ++j)
    acc += kernel[static_cast<std::size_t>(j)] * std::max(0.0, payoff(T, j));
  return acc;
}
}  // namespace

double european_call_fft(const OptionSpec& spec, std::int64_t T,
                         stencil::KernelCache* kernels) {
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, std::max<std::int64_t>(T, 1));
  return european_fft_impl(
      spec, T,
      [&](std::int64_t i, std::int64_t j) {
        return spec.S * up(2 * j - i) - spec.K;
      },
      kernels);
}

double european_call_fft(const OptionSpec& spec, std::int64_t T) {
  return european_call_fft(spec, T, nullptr);
}

double european_put_fft(const OptionSpec& spec, std::int64_t T,
                        stencil::KernelCache* kernels) {
  const BopmParams prm = derive_bopm(spec, T);
  const PowerTable up(prm.log_u, std::max<std::int64_t>(T, 1));
  return european_fft_impl(
      spec, T,
      [&](std::int64_t i, std::int64_t j) {
        return spec.K - spec.S * up(2 * j - i);
      },
      kernels);
}

double european_put_fft(const OptionSpec& spec, std::int64_t T) {
  return european_put_fft(spec, T, nullptr);
}

LowNodes american_call_nodes_fft(const OptionSpec& spec, std::int64_t T,
                                 core::SolverConfig cfg,
                                 stencil::KernelCache* kernels) {
  AMOPT_EXPECTS(T >= 2);
  const BopmParams prm = derive_bopm(spec, T);
  const CallGreen green(spec, prm);
  LowNodes nodes;
  nodes.prm = prm;

  if (spec.Y <= 0.0 && spec.R >= 0.0) {
    // Linear everywhere: evaluate rows 0..2 with kernel powers. All nodes of
    // row i share the (T-i)-step kernel, so compute it once per row rather
    // than once per node — or draw it from the shared chain cache. The
    // expiry payoff row is materialized once and shared by all three rows
    // (it was being re-evaluated through the oracle per node and tap).
    const std::vector<double> taps{prm.s0, prm.s1};
    std::vector<double> s0, s1, s2;
    const std::span<const double> kT = kernel_power(kernels, taps, T, s0);
    const std::span<const double> kT1 = kernel_power(kernels, taps, T - 1, s1);
    const std::span<const double> kT2 = kernel_power(kernels, taps, T - 2, s2);
    std::vector<double> payoff(static_cast<std::size_t>(T + 1));
    for (std::int64_t j = 0; j <= T; ++j)
      payoff[static_cast<std::size_t>(j)] = payoff_expiry(green, T, j);

    // Six output nodes: direct dot products, O(T) in total, beat any
    // transform.
    const auto node_value = [&](std::span<const double> kernel,
                                std::int64_t j) {
      double acc = 0.0;
      for (std::size_t m = 0; m < kernel.size(); ++m)
        acc += kernel[m] * payoff[static_cast<std::size_t>(j) + m];
      return acc;
    };
    nodes.g00 = node_value(kT, 0);
    nodes.g10 = node_value(kT1, 0);
    nodes.g11 = node_value(kT1, 1);
    nodes.g20 = node_value(kT2, 0);
    nodes.g21 = node_value(kT2, 1);
    nodes.g22 = node_value(kT2, 2);
    return nodes;
  }

  core::LatticeSolver solver(kernels, {{prm.s0, prm.s1}, 0}, green, cfg);
  core::LatticeRow row = expiry_row(prm, green);
  while (row.i > std::max<std::int64_t>(T - 2, 2))
    row = solver.step_naive(row, /*unbounded_scan=*/true);
  row = solver.descend(std::move(row), 2);

  const auto value_at = [&](const core::LatticeRow& r, std::int64_t j) {
    return j <= r.q ? r.red[static_cast<std::size_t>(j)]
                    : green.value(r.i, j);
  };
  nodes.g20 = value_at(row, 0);
  nodes.g21 = value_at(row, 1);
  nodes.g22 = value_at(row, 2);
  row = solver.step_naive(row);
  nodes.g10 = value_at(row, 0);
  nodes.g11 = value_at(row, 1);
  row = solver.step_naive(row);
  nodes.g00 = value_at(row, 0);
  return nodes;
}

LowNodes american_call_nodes_fft(const OptionSpec& spec, std::int64_t T,
                                 core::SolverConfig cfg) {
  return american_call_nodes_fft(spec, T, cfg, nullptr);
}

}  // namespace amopt::pricing::bopm
