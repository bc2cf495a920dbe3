#pragma once
// Session-based pricing front-end — the object a pricing server sits on.
//
// A `Pricer` is a long-lived session owning the reusable machinery the
// one-shot facade rebuilds on every call: per-tap-group `KernelCache`s
// (keyed by the stencil taps a request derives, exactly the sharing rule of
// the legacy `price_batch`), bounded by an LRU so recalibration loops over
// thousands of distinct vols cannot grow memory without bound. FFT plans
// and conv workspaces are already process/thread-global, so a warm session
// makes the kernel powers — the dominant per-pricing setup cost — the last
// thing left to amortize:
//
//   * `price_many` serves a HETEROGENEOUS batch (mixed models, rights,
//     expiries, engines, compute targets) with per-item `Status` instead of
//     throw-on-first-error; items whose derived taps coincide share one
//     kernel cache and the items fan out across the task pool;
//   * `greeks_many` layers the finite-difference greeks on top, with every
//     bumped re-pricing routed through the session's caches;
//   * `implied_vol_many` runs the safeguarded Newton inversion with every
//     trial-vol evaluation routed through the session's caches, so the
//     bracket endpoints and early iterates (shared across a chain, and
//     across repeated calls as quotes tick) hit warm kernels.
//
// The legacy free functions `price()` / `price_batch()` are thin wrappers
// over a temporary session and return bit-identical values (asserted by
// tests/test_pricer.cpp).

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "amopt/pricing/request.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::pricing::alo {
struct NodeTable;
}

namespace amopt::pricing {

/// Session-level configuration.
struct PricerConfig {
  core::SolverConfig solver{};  ///< default per-request solver config
  /// Cap on this session's batch fan-out width (number of pool executors a
  /// price_many call may occupy, caller included). 0 = the pool's current
  /// width (AMOPT_THREADS / set_threads); 1 pins the session serial without
  /// narrowing the process-wide pool. The cap bounds only the per-batch
  /// item fan-out — the solvers' intra-solve tasks still use the shared
  /// pool, which is what `SolverConfig::parallel` gates.
  int threads = 0;
  /// Opt-in cross-expiry kernel sharing; unset (default) turns it off.
  /// When set, requests in one `price_many` batch whose derived taps
  /// differ ONLY through the time step (same model / right / style / fft
  /// engine and same R, V, Y — a chain over expiries) are renormalized to
  /// their group's finest dt: T becomes round(expiry / dt*) and expiry is
  /// snapped onto the step grid (|change| <= dt*/2, sub-step). Tap vectors
  /// across the group then coincide bit for bit, so the whole chain shares
  /// ONE kernel cache — powers, squaring ladder, and spectra are built
  /// once per chain instead of once per expiry. Prices change by the
  /// normalization itself (a refinement: T never decreases), bounded by
  /// the lattice's own O(1/T) discretization error; see DESIGN.md §5.
  /// Items whose renormalized T would exceed 8x the requested T keep their
  /// own discretization.
  ///
  /// The value is the relative quantum of the group key. 0 groups on exact
  /// (R, V, Y) bytes. A positive quantum buckets each of R, V, Y by
  /// floor(log|x| / log1p(quantum)) (sign-separated; 0 only matches 0), so
  /// legs land in one group only when every field agrees within a factor of
  /// (1 + quantum); each >= 2-member group then snaps its (R, V, Y) onto
  /// the group's lexicographically smallest member tuple before the dt
  /// renormalization, moving any field by at most `quantum` relative —
  /// that is what makes near-identical vol legs (recalibration-tick drift)
  /// derive bit-equal taps and hit ONE warm kernel group. Bucketing is
  /// conservative: legs straddling a bucket boundary never share, even if
  /// pairwise closer than the quantum. Price perturbation is bounded by the
  /// field snap (first-order: vega * quantum * V etc.) on top of the
  /// sharing refinement above; covered by the DESIGN.md §12 accuracy
  /// contract.
  std::optional<double> share_expiries{};
};

class Pricer {
 public:
  /// The kernel-cache registry is two-tiered. The BASE tier holds the tap
  /// groups of the requests themselves (the chain's own contracts), at most
  /// kBaseKernelCaches of them; the TRANSIENT tier holds the groups minted
  /// by greeks bumps and implied-vol trial evaluations, at most
  /// kTransientKernelCaches. Each tier runs its own LRU, so a flood of
  /// heterogeneous trial vols can only cycle the (smaller) transient tier —
  /// it can never evict a chain's base groups. Transient groups that later
  /// arrive as base requests are promoted. In-flight pricings keep evicted
  /// caches alive — eviction only forgets warm state, it never invalidates
  /// a running computation. Bracket endpoints and early iterates still
  /// repeat across a chain and across recalibration ticks, which is where
  /// the transient tier's warm-session win comes from; a miss costs a
  /// rebuild, never correctness.
  static constexpr std::size_t kBaseKernelCaches = 64;
  static constexpr std::size_t kTransientKernelCaches = 16;
  /// Byte cap for the spectrum tier ACROSS the whole registry: every
  /// session cache shares one stencil::SpectrumBudget, which LRU-evicts
  /// (height, fft-size) spectra — whichever cache owns them — once their
  /// total bytes exceed this. Time-domain kernel powers are NOT counted
  /// (they are what the LRU'd caches themselves bound); this cap closes the
  /// one unbounded tier left inside a cache.
  static constexpr std::size_t kSpectrumBytes = std::size_t{32} << 20;

  explicit Pricer(PricerConfig cfg = {});
  Pricer(const Pricer&) = delete;
  Pricer& operator=(const Pricer&) = delete;

  /// Capability introspection: true iff `price_many` produces Status::ok
  /// for this combination (mirrors the legacy `price()` dispatch; asserted
  /// against it combination-by-combination in tests/test_pricer.cpp).
  [[nodiscard]] static bool supports(Model m, Right r, Style s,
                                     Engine e) noexcept;
  /// Same including the compute targets: greeks and implied-vol are
  /// currently implemented for BOPM American contracts on the fft engine.
  [[nodiscard]] static bool supports(Model m, Right r, Style s, Engine e,
                                     unsigned compute) noexcept;

  /// Serve a heterogeneous batch. results[i] describes requests[i]; no
  /// exception escapes for unsupported combinations or per-item failures
  /// (those are reported in the item's Status/message/error).
  [[nodiscard]] std::vector<PricingResult> price_many(
      std::span<const PricingRequest> requests);

  /// Reusable per-caller workspace for `price_many_into`: the batch-local
  /// vectors `price_many` would otherwise allocate per call. A long-lived
  /// caller (a server shard's hot loop) keeps one and reuses it, so a
  /// steady-state batch of a stable size performs no heap allocations at
  /// the batching layer — the capacities converge to the high-water mark
  /// and stay there.
  struct BatchScratch {
    std::vector<std::shared_ptr<stencil::KernelCache>> cache_of;
    std::vector<PricingRequest> normalized;
  };

  /// `price_many` writing into caller-owned storage: `out` is resized to
  /// requests.size() (capacity reused across calls) and `scratch` supplies
  /// the batch-local buffers. Semantics and per-item results are identical
  /// to `price_many` (which wraps this with fresh vectors).
  void price_many_into(std::span<const PricingRequest> requests,
                       std::vector<PricingResult>& out, BatchScratch& scratch);

  /// Single-request convenience (no batch fan-out, so the solver's own
  /// internal parallelism stays available, like a legacy `price()` call).
  [[nodiscard]] PricingResult price_one(const PricingRequest& request);

  /// Batch greeks: `price_many` with every item's compute mask replaced by
  /// Compute::greeks (the report's own price lands in both `greeks.price`
  /// and `price`). Warm-started: the session remembers the price of every
  /// bumped spec a greeks report evaluates (keyed by the full spec +
  /// discretization + resolved solver config), so a recalibration tick that
  /// re-requests greeks for an unchanged contract replays its
  /// finite-difference legs from the store instead of re-pricing them.
  /// Prices are deterministic in the key, so reuse is exact — results are
  /// bit-identical to a cold call at the same SIMD dispatch level.
  [[nodiscard]] std::vector<PricingResult> greeks_many(
      std::span<const PricingRequest> requests);

  /// Batch implied vol: `price_many` with every item's compute mask
  /// replaced by Compute::implied_vol. Each item inverts its
  /// `target_price` with the safeguarded Newton of `implied_vol.hpp`,
  /// every trial-vol evaluation drawing on the session's kernel caches.
  /// The first inversion of a contract is the free functions' cold
  /// bracketed Newton, iterate for iterate. Later ones are warm-started:
  /// the session remembers the contract's last two (vol, price) evaluation
  /// points and restarts the safeguarded secant from them, so a
  /// recalibration tick typically costs 1-3 pricings instead of ~12. A warm
  /// root satisfies the same price tolerance but may differ from a cold
  /// inversion in the last bits (different, fewer iterates).
  [[nodiscard]] std::vector<PricingResult> implied_vol_many(
      std::span<const PricingRequest> requests);

  struct Stats {
    std::size_t kernel_caches = 0;  ///< live registry entries (both tiers)
    std::size_t base_kernel_caches = 0;       ///< base-tier entries
    std::size_t transient_kernel_caches = 0;  ///< transient-tier entries
    std::size_t spectrum_bytes = 0;     ///< spectra held across all caches
    std::size_t spectrum_entries = 0;   ///< live (h, n) spectrum entries
    std::uint64_t spectrum_evictions = 0;  ///< dropped to honor the cap
    std::uint64_t cache_hits = 0;   ///< tap-group lookups served warm
    std::uint64_t cache_misses = 0; ///< tap-group lookups that built a cache
    std::uint64_t requests = 0;     ///< items served across all batches
    std::size_t node_tables = 0;    ///< cached boundary-engine node tables
    std::size_t warm_roots = 0;     ///< contracts with a remembered IV root
    std::size_t warm_bump_prices = 0;   ///< remembered greeks-leg prices
    std::uint64_t bump_price_hits = 0;  ///< greeks legs served from the store
    std::uint64_t batches = 0;  ///< price_many/price_many_into calls served
    /// Current PROCESS-WIDE arena footprint summed over every live thread
    /// arena (core::aggregate_scratch) — once batches fan out across pool
    /// workers, the true multi-thread footprint is this sum, not any single
    /// thread's. Arenas only grow, so it is also their high-water mark.
    /// Snapshot at stats() time, shared by all sessions in the process; the
    /// service plane's admission control (service/server.hpp) keys on it.
    std::size_t scratch_total_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Drop all warm state (kernel caches and counters). The spectrum budget
  /// is replaced by a fresh one, so its byte and eviction counts restart
  /// at zero; a cache still held by an in-flight batch keeps the old one.
  void clear();

  [[nodiscard]] const PricerConfig& config() const noexcept { return cfg_; }

 private:
  using CachePtr = std::shared_ptr<stencil::KernelCache>;

  /// Which registry tier a lookup belongs to: `base` for a request's own
  /// tap group (pinned against transient churn), `transient` for groups
  /// minted by greeks bumps / implied-vol trial evaluations.
  enum class Tier { base, transient };

  /// Find-or-create the session cache for a tap group; thread-safe. Base
  /// lookups that hit the transient tier promote the entry. Empty taps (no
  /// cache-aware path) yield null.
  [[nodiscard]] CachePtr cache_for(const stencil::LinearStencil& st,
                                   Tier tier);

  struct Entry;
  /// Drop the least-recently-used entry of `tier` if it exceeds `cap`, and
  /// hand its cache back (null if nothing was dropped). Caller holds mu_
  /// and releases the returned pointer only after mu_: a cache's
  /// destructor frees all of its powers and spectra.
  [[nodiscard]] static CachePtr evict_lru(std::vector<Entry>& tier,
                                          std::size_t cap);

  /// Find-or-create the session's boundary-engine node table for the
  /// config's (alo_nodes, alo_quad); thread-safe. Lives next to the kernel
  /// registry so steady-state boundary quotes (and their IV trials) are
  /// pure evaluation — the table build is a once-per-setting setup cost.
  [[nodiscard]] std::shared_ptr<const alo::NodeTable> node_table_for(
      const core::SolverConfig& cfg);

  /// Price `spec` under the request's (model, right, style, engine) with
  /// the session cache for its derived taps — the evaluation primitive the
  /// greeks bumps and implied-vol iterations run on.
  [[nodiscard]] double price_cached(const OptionSpec& spec,
                                    const PricingRequest& req,
                                    const core::SolverConfig& cfg);

  /// price_cached through the session's bumped-price store (the greeks
  /// warm-start): identical value, remembered across calls so repeated
  /// greeks over an unchanged contract skip the re-pricing entirely.
  [[nodiscard]] double price_cached_memo(const OptionSpec& spec,
                                         const PricingRequest& req,
                                         const core::SolverConfig& cfg);

  /// The cross-expiry dt normalization behind
  /// `PricerConfig::share_expiries` (see its comment). `quantum` is that
  /// field's value: 0 groups on exact (R, V, Y) bytes; > 0 groups on
  /// quantized buckets and snaps each >= 2-member group's (R, V, Y) onto
  /// its lexicographically smallest member tuple before the dt
  /// renormalization.
  static void normalize_expiries(std::vector<PricingRequest>& reqs,
                                 double quantum = 0.0);

  /// Serve one validated item; throws on pricer failure (caught by the
  /// batch loop and converted to Status::error).
  void run_item(const PricingRequest& req, stencil::KernelCache* kernels,
                PricingResult& out);

  /// The implied-vol leg of run_item: cold bracketed Newton on the first
  /// inversion of a contract, warm-started secant afterwards.
  void run_implied_vol(const PricingRequest& req, const ImpliedVolConfig& ivc,
                       const core::SolverConfig& cfg, PricingResult& out);

  /// Two genuine (vol, price-at-vol) samples from a contract's last
  /// converged inversion; prices do not depend on the quote, so they seed
  /// the next tick's secant for free.
  struct WarmRoot {
    double v0 = 0.0, p0 = 0.0;  ///< newest point (the root)
    double v1 = 0.0, p1 = 0.0;  ///< previous distinct iterate
  };

  PricerConfig cfg_;
  mutable std::mutex mu_;
  struct Entry {
    CachePtr cache;             ///< its stencil() is the registry key
    std::uint64_t last_used = 0;
  };
  std::vector<Entry> base_caches_;       ///< requests' own tap groups
  std::vector<Entry> transient_caches_;  ///< bump/trial-vol tap groups
  /// Registry-wide spectrum-tier byte budget (kSpectrumBytes), attached to
  /// every cache the registry creates; guarded by mu_. shared_ptr because
  /// evicted-but-in-flight caches may outlive the registry entry.
  std::shared_ptr<stencil::SpectrumBudget> spectrum_budget_;
  /// Boundary-engine node tables by (alo_nodes << 32) | alo_quad (clamped
  /// values). Unbounded by design: entries are ~O(nodes^2) doubles and the
  /// key space is the handful of accuracy presets a session uses.
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const alo::NodeTable>>
      node_tables_;
  std::unordered_map<std::string, WarmRoot> warm_roots_;  ///< by contract key
  /// Bumped-spec prices the greeks legs evaluated, by full evaluation key
  /// (spec + T + model/right/style/engine + resolved solver config).
  std::unordered_map<std::string, double> bump_prices_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t bump_hits_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace amopt::pricing
