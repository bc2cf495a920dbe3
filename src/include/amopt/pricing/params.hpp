#pragma once
// Option contract specification and derived model parameters for the three
// pricing models of the paper (BOPM, TOPM, BSM explicit FDM).

#include <cstdint>
#include <vector>

namespace amopt::pricing {

/// Contract + market data (Table 1 of the paper). Rates and volatility are
/// annualized with continuous compounding; `expiry_years` is E expressed in
/// years (the paper's E=252 trading days == 1.0).
struct OptionSpec {
  double S = 100.0;  ///< spot price
  double K = 100.0;  ///< strike price
  double R = 0.05;   ///< risk-free rate
  double V = 0.2;    ///< volatility
  double Y = 0.0;    ///< continuous dividend yield
  double expiry_years = 1.0;  ///< time to expiration E
};

/// McDonald–Schroder put-call symmetry, P(S, K, R, Y) = C(K, S, Y, R): the
/// spec of the call whose price equals the put's. Exact on the binomial and
/// trinomial lattices too (the swapped problem's lattice mirrors the
/// original's), so the lattice puts price through their calls.
[[nodiscard]] inline OptionSpec symmetric_call_spec(const OptionSpec& put) {
  return {put.K, put.S, put.Y, put.V, put.R, put.expiry_years};
}

/// The fixed parameter set used throughout the paper's §5 experiments:
/// E=252d, K=130, S=127.62, R=0.00163, V=0.2, Y=0.0163.
[[nodiscard]] OptionSpec paper_spec();

/// Derived binomial-lattice quantities (paper §2.1). Cell (i, j) carries
/// price S*u^(2j-i); the backward step is
///   G[i][j] = max(s0*G[i+1][j] + s1*G[i+1][j+1], S*u^(2j-i) - K)
/// with s0 = e^{-R dt}(1-p) weighting the down child.
struct BopmParams {
  std::int64_t T = 0;
  double dt = 0.0;
  double u = 1.0, d = 1.0;
  double p = 0.5;          ///< risk-neutral up probability
  double s0 = 0.0, s1 = 0.0;
  double log_u = 0.0;
};
[[nodiscard]] BopmParams derive_bopm(const OptionSpec& spec, std::int64_t T);

/// Derived trinomial-lattice quantities (paper §3 / App. A). Cell (i, j),
/// j in [0, 2i], carries price S*u^(j-i); children are (i+1, j) [down, pd],
/// (i+1, j+1) [flat, po], (i+1, j+2) [up, pu]; u = e^{V sqrt(2 dt)}.
struct TopmParams {
  std::int64_t T = 0;
  double dt = 0.0;
  double u = 1.0, d = 1.0;
  double pu = 0.0, po = 0.0, pd = 0.0;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;  ///< discounted pd, po, pu
  double log_u = 0.0;
};
[[nodiscard]] TopmParams derive_topm(const OptionSpec& spec, std::int64_t T);

/// Derived explicit-FDM quantities for the dimensionless BSM put problem
/// (paper §4.2, Eq. (5)). State s = ln(x/K), tau = sigma^2 (T-t)/2,
/// v = price/K; update taps (b, c, a) act on (k-1, k, k+1). The scheme is
/// monotone (a, b, c >= 0, Theorem 4.3's precondition) by construction.
struct BsmParams {
  std::int64_t T = 0;
  double omega = 0.0;        ///< 2R / V^2 (discounting term)
  double omega_drift = 0.0;  ///< 2(R-Y) / V^2 (drift term; == omega for Y=0,
                             ///< a library extension over the paper's Eq. 5)
  double tau_max = 0.0;      ///< V^2 E / 2
  double dtau = 0.0;
  double ds = 0.0;
  double lambda = 0.0;  ///< dtau/ds^2
  double a = 0.0, b = 0.0, c = 0.0;
  double s_target = 0.0;  ///< ln(S/K): where the price is read at tau_max
};
[[nodiscard]] BsmParams derive_bsm(const OptionSpec& spec, std::int64_t T);

/// Precomputed powers u^e for e in [-(T+pad), T+pad]; shared by the green
/// oracles and the vanilla pricers (this is also what the Zubair baseline
/// calls the "option probability calculation" tables).
class PowerTable {
 public:
  PowerTable(double log_u, std::int64_t T, std::int64_t pad = 4);
  [[nodiscard]] double operator()(std::int64_t e) const {
    return pow_[static_cast<std::size_t>(e + off_)];
  }
  [[nodiscard]] std::int64_t max_exponent() const noexcept { return off_; }

 private:
  std::vector<double> pow_;
  std::int64_t off_;
};

}  // namespace amopt::pricing
