#pragma once
// Memoized stencil-kernel powers, cached in BOTH domains.
//
// The trapezoid recursion requests kernels for heights L/2, L/4, ... and the
// top-level descent re-requests many of the same heights, so each pricing
// call owns a KernelCache — or, for chain pricing, many concurrent pricings
// SHARE one (all strikes of a chain have the same taps, so they request the
// same kernel powers). Lookups of warm heights take a shared lock only, so
// readers never serialize against each other; the cache is safe to use from
// the solver's pool tasks and from a batch fan-out's concurrent pricings.
//
// Two tiers per height:
//   * TIME DOMAIN — `power(h)`: the coefficients of taps^h. Unchanged
//     contract (spans stay valid for the cache's lifetime) and unchanged
//     bits: FFT-built powers replay poly::power_fft's square-and-multiply
//     walk, drawing the squaring chain taps^(2^k) from one shared ladder so
//     each squaring is paid once per cache instead of once per height.
//   * SPECTRAL — `power_spectrum(h, n)`: the reversed (correlation-layout)
//     negacyclic spectrum of taps^h at padded size n (fft::RealSpectrum),
//     materialized lazily on first use and keyed by (h, n). It is built
//     straight from the taps, never from the time-domain tier: bin j is
//     R(y_j)^h / m, with R the reversed tap polynomial, y_j the j-th root of
//     t^m = i the data transform evaluates at (m = n/2), stored at the
//     bit-reversed position the data transform leaves bin j in — one dispatched
//     binary-exponentiation pass (simd tap_power_bins) with no time-domain
//     power and no forward transform. So a cold tap group pays for its solves'
//     transforms, not for its kernels'. The bins are not the bits of the
//     transformed time-domain power (conv::kernel_spectrum of power(h)): they
//     agree with it to about h * eps of the largest bin. Repeated convolutions
//     at the same recursion depth then skip the kernel transform entirely (the
//     conv spectral overloads run 2 transforms per call instead of 3). Spectrum
//     entries are returned as shared_ptr so an attached `SpectrumBudget` may
//     evict them under its byte cap without invalidating in-flight
//     convolutions; a cache with no budget attached never evicts.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amopt/fft/fft.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::stencil {

class KernelCache;

/// Registry-level byte budget for the spectrum tier, shared by every cache
/// it is attached to (the Pricer attaches one per session). Tracks the
/// bytes of all live spectrum entries across those caches and, on
/// overflow, evicts the least-recently-used entry — whichever cache owns
/// it. Eviction only forgets warm state: entries are shared_ptr-held, so a
/// convolution already consuming one finishes safely, and the next request
/// simply rebuilds it. Lock order is budget mutex -> owner-cache mutex;
/// caches never call into the budget while holding their own lock.
class SpectrumBudget {
 public:
  explicit SpectrumBudget(std::size_t max_bytes) : max_bytes_(max_bytes) {}
  SpectrumBudget(const SpectrumBudget&) = delete;
  SpectrumBudget& operator=(const SpectrumBudget&) = delete;

  struct Stats {
    std::size_t bytes = 0;        ///< live spectrum bytes across all caches
    std::size_t entries = 0;      ///< live spectrum entries
    std::uint64_t evictions = 0;  ///< entries dropped to stay under the cap
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

 private:
  friend class KernelCache;

  /// One spectrum entry's recency, co-owned by the owning cache's map
  /// entry and the budget's heap entry. A warm hit refreshes its LRU
  /// position with ONE relaxed store to `tick` — no budget mutex, no entry
  /// scan — keeping the hot spectrum path as lock-free as the power()
  /// snapshot beside it. `dead` marks an entry of a retired cache: the
  /// mark sits here, never on the owner's address (a new cache may reuse
  /// it), and admit() checks it before it re-keys an entry or calls its
  /// owner back. The mutex guards the entry heap and `dead`.
  struct Recency {
    std::atomic<std::uint64_t> tick{0};
    bool dead = false;
  };
  using RecencyPtr = std::shared_ptr<Recency>;
  [[nodiscard]] std::uint64_t next_tick() noexcept {
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Admit `key` of `owner` at `bytes` — once per spectrum a cache
  /// inserts; evicts LRU entries of any registered cache until the total
  /// fits the cap again, dropping retired entries as they surface.
  void admit(KernelCache* owner, std::uint64_t key, std::size_t bytes,
             const RecencyPtr& recency);
  /// Retire a dying cache in O(its own entries): mark each of its entries
  /// dead and drop its bytes at once. The heap keeps the dead entries
  /// until they reach its top, and compacts once they exceed half of it.
  void forget(KernelCache* owner);

  struct Entry {
    KernelCache* owner;  ///< touched only while !recency->dead
    std::uint64_t key;
    std::size_t bytes;
    RecencyPtr recency;
    std::uint64_t stamp;  ///< recency->tick when last (re)pushed: the key
  };
  /// Min-heap order on `stamp`.
  static bool newer(const Entry& a, const Entry& b) noexcept {
    return a.stamp > b.stamp;
  }

  mutable std::mutex mu_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> tick_{0};
  std::uint64_t evictions_ = 0;
  /// A refresh only raises a tick, so a stamp never exceeds its entry's
  /// live tick (racing refreshes aside, which reorder LRU neighbours under
  /// any scheme): a live top whose stamp still equals its tick is the exact
  /// LRU entry, and a stale top is re-pushed under its live tick.
  std::vector<Entry> heap_;
  std::size_t dead_ = 0;  ///< entries of heap_ whose recency is dead
};

class KernelCache {
 public:
  explicit KernelCache(LinearStencil st) : stencil_(std::move(st)) {}
  ~KernelCache();

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  [[nodiscard]] const LinearStencil& stencil() const noexcept {
    return stencil_;
  }

  /// Coefficients of taps(x)^h. The returned span stays valid for the
  /// lifetime of the cache (time-domain entries are never evicted).
  [[nodiscard]] std::span<const double> power(std::uint64_t h);

  /// The reversed negacyclic spectrum of taps^h at padded transform size n
  /// (a power of two >= the input length of the intended correlation —
  /// conv::correlate_fft_size of the call's dimensions — so at least the
  /// kernel length g*h + 1, its `klen`; n = 1 builds at 2). It never
  /// touches the time-domain tier. The shared_ptr keeps the spectrum alive
  /// across a concurrent budget eviction; without an attached budget
  /// entries live as long as the cache.
  [[nodiscard]] std::shared_ptr<const fft::RealSpectrum> power_spectrum(
      std::uint64_t h, std::size_t n);

  /// Attach a registry-level spectrum budget. Must be called before the
  /// first power_spectrum() lookup (the Pricer attaches at cache creation);
  /// pass nullptr for unbounded (the default).
  void set_spectrum_budget(std::shared_ptr<SpectrumBudget> budget);

  struct Stats {
    std::size_t powers = 0;         ///< cached time-domain heights
    std::size_t spectra = 0;        ///< cached (h, n) spectra
    std::size_t spectrum_bytes = 0; ///< bytes held by the spectrum tier
    std::size_t ladder_rungs = 0;   ///< squaring-ladder entries taps^(2^k)
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class SpectrumBudget;

  /// taps^h, computed the way poly::power would, but with FFT-path heights
  /// drawing on the shared squaring ladder. Caller holds no lock.
  [[nodiscard]] std::vector<double> compute_power(std::uint64_t h);

  /// The reversed spectrum of taps^h at n, straight from the taps (see the
  /// file comment). Caller holds no lock.
  [[nodiscard]] fft::RealSpectrum compute_spectrum(std::uint64_t h,
                                                   std::size_t n);

  /// Budget callback: drop the (h, n) entry for `key` if still present.
  /// Called with the budget mutex held; takes only this cache's mutex.
  void evict_spectrum(std::uint64_t key);

  LinearStencil stencil_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::vector<double>>>
      cache_;
  /// Wait-free read path for warm heights: an immutable sorted (h -> taps^h)
  /// snapshot published through an atomic pointer, the plan-cache idiom.
  /// The recursion looks a height up per convolution, so the shared-lock
  /// acquisition on every hit was measurable; snapshots make warm lookups a
  /// load + binary search. Old snapshots are retired (kept alive) until the
  /// cache dies so in-flight readers never race a free.
  struct PowerSnapshot {
    std::vector<std::pair<std::uint64_t, const std::vector<double>*>> entries;
  };
  std::atomic<const PowerSnapshot*> power_snap_{nullptr};
  std::vector<std::unique_ptr<const PowerSnapshot>> retired_snaps_;
  /// Spectra keyed by (h, log2 n) packed into one word (log2 n < 64). The
  /// recency is co-owned with the budget's heap entry (see
  /// SpectrumBudget::Recency); null when no budget is attached.
  struct SpectrumEntry {
    std::shared_ptr<const fft::RealSpectrum> spec;
    SpectrumBudget::RecencyPtr recency;
  };
  std::unordered_map<std::uint64_t, SpectrumEntry> spectra_;
  std::shared_ptr<SpectrumBudget> budget_;  ///< null = unbounded
  /// Shared repeated-squaring chain taps^(2^k) for the FFT power path; its
  /// own mutex, held only while EXTENDING the chain — the combine steps of
  /// a power build read stable rung snapshots outside it, so concurrent
  /// cold builds at different heights serialize only on missing rungs.
  mutable std::mutex ladder_mu_;
  poly::SquaringLadder ladder_;
};

}  // namespace amopt::stencil
