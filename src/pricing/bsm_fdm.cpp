#include "amopt/pricing/bsm_fdm.hpp"

#include <algorithm>
#include <cmath>

#include "amopt/common/assert.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/poly/poly_power.hpp"

namespace amopt::pricing::bsm {

namespace {

constexpr std::int64_t kPad = FdmLayout::kPad;

/// Naive-projection tail length at the apex of the solution cone.
[[nodiscard]] std::int64_t tail_steps(const core::SolverConfig& cfg) {
  return std::max<std::int64_t>(cfg.base_case, 8);
}

}  // namespace

FdmLayout make_layout(const BsmParams& prm) {
  FdmLayout lay;
  const double k_real = prm.s_target / prm.ds;
  lay.k_read = static_cast<std::int64_t>(std::floor(k_real));
  lay.theta = k_real - static_cast<double>(lay.k_read);
  // The right edge erodes one cell per step, so kr0 - T >= k_read + 1 keeps
  // both read cells. The driver's advances need kr - f >= remaining + 1 with
  // kr = kr0 - n and f <= 0, which kr0 >= T + 1 covers; the max() covers
  // deep-ITM reads (k_read < 0).
  lay.kr0 = prm.T + std::max<std::int64_t>(lay.k_read + 1, 1) + kPad;
  return lay;
}

double american_put_fft(const OptionSpec& spec, std::int64_t T,
                        core::SolverConfig cfg,
                        stencil::KernelCache* kernels) {
  const BsmParams prm = derive_bsm(spec, T);
  const FdmLayout lay = make_layout(prm);
  const PutGreen green(prm.ds, lay.kr0 + kPad);
  core::FdmSolver solver(kernels, {{prm.b, prm.c, prm.a}, -1}, green, cfg);

  core::FdmRow row;
  row.n = 0;
  row.f = 0;  // v0(k) = max(1 - e^{k ds}, 0): green exactly for k <= 0
  row.kr = lay.kr0;
  row.red.assign(static_cast<std::size_t>(row.kr - row.f), 0.0);

  std::int64_t remaining = T;
  // The first rows off the payoff are not yet governed by the free-boundary
  // dynamics: for Y > R the discrete boundary jumps to ~ln(R/Y)/ds in one
  // step. Re-discover it with full scans before trusting Theorem 4.3.
  while (remaining > 0 && T - remaining < 2) {
    row = solver.step_naive(row, /*unbounded_scan=*/true);
    --remaining;
  }
  const std::int64_t tail = tail_steps(cfg);
  while (remaining > tail) {
    // The layout keeps kr - f >= remaining + 1 >= 2L here (make_layout).
    const std::int64_t L = (remaining + 1) / 2;
    row = solver.advance(std::move(row), L);
    remaining -= L;
  }
  while (remaining > 0) {
    row = solver.step_naive(row);
    --remaining;
  }

  const auto value_at = [&](std::int64_t k) {
    AMOPT_EXPECTS(k <= row.kr);
    return k <= row.f ? green.value(row.n, k)
                      : row.red[static_cast<std::size_t>(k - row.f - 1)];
  };
  const double v = (1.0 - lay.theta) * value_at(lay.k_read) +
                   lay.theta * value_at(lay.k_read + 1);
  return spec.K * v;
}

double american_put_fft(const OptionSpec& spec, std::int64_t T,
                        core::SolverConfig cfg) {
  return american_put_fft(spec, T, cfg, nullptr);
}

namespace {

template <bool kParallel>
[[nodiscard]] double vanilla_impl(const OptionSpec& spec, std::int64_t T,
                                  bool american) {
  const BsmParams prm = derive_bsm(spec, T);
  const FdmLayout lay = make_layout(prm);
  // Symmetric cone around the read point; one cell erodes per step/side.
  const std::int64_t klo = lay.k_read - T - kPad;
  const std::int64_t khi = lay.k_read + 1 + T + kPad;
  const std::int64_t width = khi - klo + 1;

  std::vector<double> payoff(static_cast<std::size_t>(width));
  for (std::int64_t k = klo; k <= khi; ++k)
    payoff[static_cast<std::size_t>(k - klo)] =
        -std::expm1(static_cast<double>(k) * prm.ds);
  std::vector<double> cur(static_cast<std::size_t>(width));
  for (std::int64_t t = 0; t < width; ++t)
    cur[static_cast<std::size_t>(t)] =
        std::max(payoff[static_cast<std::size_t>(t)], 0.0);

  const double b = prm.b, c = prm.c, a = prm.a;
  if constexpr (!kParallel) {
    for (std::int64_t n = 1; n <= T; ++n) {
      const std::int64_t lo = n, hi = width - 1 - n;  // cone interior
      double left_old = cur[static_cast<std::size_t>(lo - 1)];
      for (std::int64_t t = lo; t <= hi; ++t) {
        const double old_t = cur[static_cast<std::size_t>(t)];
        const double lin =
            b * left_old + c * old_t + a * cur[static_cast<std::size_t>(t + 1)];
        cur[static_cast<std::size_t>(t)] =
            american ? std::max(lin, payoff[static_cast<std::size_t>(t)]) : lin;
        left_old = old_t;
      }
    }
  } else {
    std::vector<double> nxt(cur.size());
    for (std::int64_t n = 1; n <= T; ++n) {
      const std::int64_t lo = n, hi = width - 1 - n;
      parallel_for_chunks(hi - lo + 1, 1024, [&](std::ptrdiff_t clo,
                                                 std::ptrdiff_t chi) {
        for (std::ptrdiff_t t = lo + clo; t < lo + chi; ++t) {
          const double lin = b * cur[static_cast<std::size_t>(t - 1)] +
                             c * cur[static_cast<std::size_t>(t)] +
                             a * cur[static_cast<std::size_t>(t + 1)];
          nxt[static_cast<std::size_t>(t)] =
              american ? std::max(lin, payoff[static_cast<std::size_t>(t)])
                       : lin;
        }
      });
      cur.swap(nxt);
    }
  }
  metrics::add_flops(6 * static_cast<std::uint64_t>(T) *
                     static_cast<std::uint64_t>(width));
  metrics::add_bytes(2 * sizeof(double) * static_cast<std::uint64_t>(T) *
                     static_cast<std::uint64_t>(width));

  const double v0 = cur[static_cast<std::size_t>(lay.k_read - klo)];
  const double v1 = cur[static_cast<std::size_t>(lay.k_read + 1 - klo)];
  return spec.K * ((1.0 - lay.theta) * v0 + lay.theta * v1);
}

}  // namespace

double american_put_vanilla(const OptionSpec& spec, std::int64_t T) {
  return vanilla_impl<false>(spec, T, /*american=*/true);
}

double american_put_vanilla_parallel(const OptionSpec& spec, std::int64_t T) {
  return vanilla_impl<true>(spec, T, /*american=*/true);
}

double european_put_fdm(const OptionSpec& spec, std::int64_t T) {
  const BsmParams prm = derive_bsm(spec, T);
  const FdmLayout lay = make_layout(prm);
  // v(T, k) = sum_m kernel[m] * v0(k - T + m): one kernel power + two dots.
  const std::vector<double> kernel =
      poly::power(std::vector<double>{prm.b, prm.c, prm.a},
                  static_cast<std::uint64_t>(T));
  const auto value = [&](std::int64_t k) {
    double acc = 0.0;
    for (std::int64_t m = 0; m <= 2 * T; ++m) {
      const std::int64_t k0 = k - T + m;
      const double v0 =
          std::max(-std::expm1(static_cast<double>(k0) * prm.ds), 0.0);
      acc += kernel[static_cast<std::size_t>(m)] * v0;
    }
    return acc;
  };
  const double v = (1.0 - lay.theta) * value(lay.k_read) +
                   lay.theta * value(lay.k_read + 1);
  return spec.K * v;
}

std::vector<std::int64_t> exercise_boundary_vanilla(const OptionSpec& spec,
                                                    std::int64_t T) {
  const BsmParams prm = derive_bsm(spec, T);
  // The boundary jumps to ~ln(R/Y)/ds off the payoff row (Y > R) and then
  // drifts further left like sqrt(tau); size the window for both, and keep
  // its LEFT edge fixed with the payoff as a Dirichlet value — exact there,
  // since the edge sits deep inside the exercise region where v == payoff.
  std::int64_t jump = 0;
  if (spec.Y > spec.R && spec.R > 0.0)
    jump = static_cast<std::int64_t>(
        std::floor(std::log(spec.R / spec.Y) / prm.ds));
  const std::int64_t klo =
      2 * jump - 4 * static_cast<std::int64_t>(std::sqrt(static_cast<double>(T))) -
      T / 4 - 64;
  const std::int64_t khi = T + kPad;  // right edge erodes with the cone
  const std::int64_t width = khi - klo + 1;
  std::vector<double> payoff(static_cast<std::size_t>(width));
  for (std::int64_t k = klo; k <= khi; ++k)
    payoff[static_cast<std::size_t>(k - klo)] =
        -std::expm1(static_cast<double>(k) * prm.ds);
  std::vector<double> cur(static_cast<std::size_t>(width));
  for (std::int64_t t = 0; t < width; ++t)
    cur[static_cast<std::size_t>(t)] =
        std::max(payoff[static_cast<std::size_t>(t)], 0.0);

  std::vector<std::int64_t> boundary(static_cast<std::size_t>(T + 1));
  boundary[0] = 0;
  const double b = prm.b, c = prm.c, a = prm.a;
  for (std::int64_t n = 1; n <= T; ++n) {
    const std::int64_t lo = 1, hi = width - 1 - n;
    double left_old = cur[0];  // fixed left edge: deep green, v == payoff
    std::int64_t last_green = klo;
    for (std::int64_t t = lo; t <= hi; ++t) {
      const double old_t = cur[static_cast<std::size_t>(t)];
      const double lin =
          b * left_old + c * old_t + a * cur[static_cast<std::size_t>(t + 1)];
      const double pay = payoff[static_cast<std::size_t>(t)];
      if (pay > lin) last_green = klo + t;
      cur[static_cast<std::size_t>(t)] = std::max(lin, pay);
      left_old = old_t;
    }
    AMOPT_ENSURES(last_green > klo + 1);  // boundary stayed interior
    boundary[static_cast<std::size_t>(n)] = last_green;
  }
  return boundary;
}

}  // namespace amopt::pricing::bsm
