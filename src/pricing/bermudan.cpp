#include "amopt/pricing/bermudan.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "amopt/common/assert.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/stencil/kernel_cache.hpp"

namespace amopt::pricing::bermudan {

namespace {

[[nodiscard]] double payoff_of(Right right, double S, double K, double upow) {
  return right == Right::call ? S * upow - K : K - S * upow;
}

void check_steps(std::span<const std::int64_t> steps, std::int64_t T) {
  std::int64_t prev = -1;
  for (const std::int64_t s : steps) {
    AMOPT_EXPECTS(s > prev && s >= 0 && s <= T);
    prev = s;
  }
}

}  // namespace

double price_fft(const OptionSpec& spec, std::int64_t T,
                 std::span<const std::int64_t> exercise_steps, Right right) {
  AMOPT_EXPECTS(T >= 0);
  check_steps(exercise_steps, T);
  const BopmParams prm = derive_bopm(spec, std::max<std::int64_t>(T, 1));
  const PowerTable up(prm.log_u, std::max<std::int64_t>(T, 1));
  if (T == 0) return std::max(0.0, payoff_of(right, spec.S, spec.K, up(0)));

  stencil::KernelCache kernels({{prm.s0, prm.s1}, 0});

  // Full row at expiry (no red/green compression: between dates everything
  // is linear and we keep all T+1 values).
  std::vector<double> row(static_cast<std::size_t>(T + 1));
  for (std::int64_t j = 0; j <= T; ++j)
    row[static_cast<std::size_t>(j)] =
        std::max(0.0, payoff_of(right, spec.S, spec.K, up(2 * j - T)));

  // Exercise dates strictly below T, processed downward.
  std::vector<std::int64_t> dates(exercise_steps.begin(),
                                  exercise_steps.end());
  std::erase_if(dates, [&](std::int64_t s) { return s >= T; });
  std::sort(dates.rbegin(), dates.rend());

  std::int64_t i = T;
  const auto evolve_to = [&](std::int64_t target) {
    const std::int64_t h = i - target;
    if (h == 0) return;
    std::vector<double> next(static_cast<std::size_t>(target + 1));
    // Equal inter-date gaps re-request the same height; consume the cached
    // kernel spectrum on the FFT path like the trapezoid solvers do. The
    // 2-tap kernel's length h + 1 is known without materializing it.
    const std::size_t klen = static_cast<std::size_t>(h + 1);
    if (conv::correlate_prefers_fft(next.size(), klen, {})) {
      const auto spec = kernels.power_spectrum(
          static_cast<std::uint64_t>(h),
          conv::correlate_fft_size(next.size(), klen));
      conv::correlate_valid(row, *spec, next, conv::thread_workspace());
    } else {
      conv::correlate_valid(row, kernels.power(static_cast<std::uint64_t>(h)),
                            next);
    }
    row = std::move(next);
    i = target;
  };
  for (const std::int64_t date : dates) {
    evolve_to(date);
    for (std::int64_t j = 0; j <= i; ++j) {
      const double ex = payoff_of(right, spec.S, spec.K, up(2 * j - i));
      row[static_cast<std::size_t>(j)] =
          std::max(row[static_cast<std::size_t>(j)], ex);
    }
  }
  evolve_to(0);
  return row[0];
}

double price_vanilla(const OptionSpec& spec, std::int64_t T,
                     std::span<const std::int64_t> exercise_steps,
                     Right right) {
  AMOPT_EXPECTS(T >= 0);
  check_steps(exercise_steps, T);
  const BopmParams prm = derive_bopm(spec, std::max<std::int64_t>(T, 1));
  const PowerTable up(prm.log_u, std::max<std::int64_t>(T, 1));
  if (T == 0) return std::max(0.0, payoff_of(right, spec.S, spec.K, up(0)));

  std::vector<bool> exercisable(static_cast<std::size_t>(T + 1), false);
  for (const std::int64_t s : exercise_steps)
    if (s < T) exercisable[static_cast<std::size_t>(s)] = true;

  std::vector<double> row(static_cast<std::size_t>(T + 1));
  for (std::int64_t j = 0; j <= T; ++j)
    row[static_cast<std::size_t>(j)] =
        std::max(0.0, payoff_of(right, spec.S, spec.K, up(2 * j - T)));
  for (std::int64_t i = T - 1; i >= 0; --i) {
    const bool ex = exercisable[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j <= i; ++j) {
      double v = prm.s0 * row[static_cast<std::size_t>(j)] +
                 prm.s1 * row[static_cast<std::size_t>(j + 1)];
      if (ex)
        v = std::max(v, payoff_of(right, spec.S, spec.K, up(2 * j - i)));
      row[static_cast<std::size_t>(j)] = v;
    }
  }
  return row[0];
}

}  // namespace amopt::pricing::bermudan
