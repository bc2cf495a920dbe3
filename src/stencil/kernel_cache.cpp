#include "amopt/stencil/kernel_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "amopt/common/aligned.hpp"
#include "amopt/common/assert.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::stencil {

namespace {

/// Pack a spectrum key: heights fit far below 2^57 and padded sizes are
/// powers of two, so (h, log2 n) shares one 64-bit word.
[[nodiscard]] std::uint64_t spectrum_key(std::uint64_t h, std::size_t n) {
  std::uint64_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  return (h << 6) | log2n;
}

[[nodiscard]] std::size_t spectrum_bytes_of(const fft::RealSpectrum& s) {
  return s.bins.size() * sizeof(fft::cplx);
}

}  // namespace

// ------------------------------------------------------------ SpectrumBudget

void SpectrumBudget::admit(KernelCache* owner, std::uint64_t key,
                           std::size_t bytes, const RecencyPtr& recency) {
  std::lock_guard<std::mutex> lock(mu_);
  heap_.push_back({owner, key, bytes, recency,
                   recency->tick.load(std::memory_order_relaxed)});
  std::push_heap(heap_.begin(), heap_.end(), newer);
  bytes_ += bytes;
  while (bytes_ > max_bytes_ && heap_.size() > 1) {
    std::pop_heap(heap_.begin(), heap_.end(), newer);
    Entry& lru = heap_.back();
    if (lru.recency->dead) {  // a retired cache's: its bytes already left
      heap_.pop_back();
      --dead_;
      continue;
    }
    const std::uint64_t live =
        lru.recency->tick.load(std::memory_order_relaxed);
    if (live != lru.stamp) {  // touched since it was pushed: re-key it
      lru.stamp = live;
      std::push_heap(heap_.begin(), heap_.end(), newer);
      continue;
    }
    // Never evict what we just admitted — the caller is about to use it.
    if (lru.recency == recency) {
      std::push_heap(heap_.begin(), heap_.end(), newer);
      break;
    }
    lru.owner->evict_spectrum(lru.key);
    bytes_ -= lru.bytes;
    ++evictions_;
    heap_.pop_back();
  }
}

void SpectrumBudget::forget(KernelCache* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  // The dying cache's map holds exactly its admitted, not yet evicted
  // entries (evictions erase from both sides under this mutex), and no
  // lookup can race its destructor — so its own entries are the whole
  // retirement, whatever else the session holds.
  for (const auto& [key, entry] : owner->spectra_) {
    entry.recency->dead = true;
    bytes_ -= spectrum_bytes_of(*entry.spec);
    ++dead_;
  }
  if (2 * dead_ > heap_.size()) {  // amortized: each entry is erased once
    std::erase_if(heap_, [](const Entry& e) { return e.recency->dead; });
    std::make_heap(heap_.begin(), heap_.end(), newer);
    dead_ = 0;
  }
}

SpectrumBudget::Stats SpectrumBudget::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.bytes = bytes_;
  s.entries = heap_.size() - dead_;
  s.evictions = evictions_;
  return s;
}

// --------------------------------------------------------------- KernelCache

KernelCache::~KernelCache() {
  // Retire before the spectra die. forget() serializes with any in-flight
  // eviction pass (budget mutex) and marks every entry of this cache dead,
  // so no evictor can reach this cache afterwards.
  if (budget_) budget_->forget(this);
}

void KernelCache::set_spectrum_budget(std::shared_ptr<SpectrumBudget> budget) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  AMOPT_EXPECTS(spectra_.empty());  // attach before the first lookup
  budget_ = std::move(budget);
}

std::vector<double> KernelCache::compute_power(std::uint64_t h) {
  const std::span<const double> taps = stencil_.taps;
  // The closed-form dispatch of poly::power needs no ladder (and must keep
  // producing the identical closed-form bits); only the FFT square-and-
  // multiply path shares its squaring chain across heights.
  const bool closed_form =
      h == 0 || taps.size() == 1 ||
      (taps.size() == 2 && taps[0] >= 0.0 && taps[1] >= 0.0);
  if (closed_form) return poly::power(taps, h);
  // Extend the shared ladder under its mutex, then combine OUTSIDE it:
  // rungs are append-only and their heap buffers survive later extensions
  // (SquaringLadder's documented invariant), so the snapshot spans stay
  // valid while other threads grow the chain — concurrent cold builds at
  // different heights serialize only on the squarings themselves.
  std::size_t kmax = 0;
  for (std::uint64_t e = h; e >>= 1;) ++kmax;
  std::vector<std::span<const double>> rungs;
  rungs.reserve(kmax + 1);
  {
    std::lock_guard<std::mutex> lock(ladder_mu_);
    poly::extend_ladder(taps, h, ladder_, conv::thread_workspace());
    for (std::size_t k = 0; k <= kmax; ++k) rungs.emplace_back(ladder_[k]);
  }
  return poly::power_from_rungs(h, rungs, conv::thread_workspace());
}

std::span<const double> KernelCache::power(std::uint64_t h) {
  // Warm path: one acquire load + binary search over the published
  // snapshot; no lock. Entries are never evicted, so a snapshot hit is
  // always safe to return.
  if (const PowerSnapshot* snap =
          power_snap_.load(std::memory_order_acquire)) {
    const auto it = std::lower_bound(
        snap->entries.begin(), snap->entries.end(), h,
        [](const auto& e, std::uint64_t key) { return e.first < key; });
    if (it != snap->entries.end() && it->first == h) return *it->second;
  }
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(h);
    if (it != cache_.end()) return *it->second;
  }
  // Compute outside the map lock (scratch comes from the calling thread's
  // convolution workspace); a racing duplicate computation is harmless and
  // the first inserted entry wins. FFT-path heights serialize on the ladder
  // mutex so the shared squaring chain extends consistently.
  auto kernel = std::make_unique<std::vector<double>>(compute_power(h));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(h, std::move(kernel));
  // Publish a fresh snapshot; the old one is retired, not freed, because a
  // concurrent reader may still be walking it.
  auto snap = std::make_unique<PowerSnapshot>();
  snap->entries.reserve(cache_.size());
  for (const auto& [hk, vec] : cache_) snap->entries.emplace_back(hk, vec.get());
  std::sort(snap->entries.begin(), snap->entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const PowerSnapshot* published = snap.get();
  retired_snaps_.push_back(std::move(snap));
  power_snap_.store(published, std::memory_order_release);
  return *it->second;
}

fft::RealSpectrum KernelCache::compute_spectrum(std::uint64_t h,
                                                std::size_t n) {
  const std::span<const double> taps = stencil_.taps;
  const std::size_t klen = (taps.size() - 1) * static_cast<std::size_t>(h) + 1;
  AMOPT_EXPECTS(n >= klen);
  // Below 4 points the plan has no quarter-circle table; no FFT-path
  // correlation is that small, so these keep the transformed power.
  if (n < 4) {
    return conv::kernel_spectrum(power(h), n, /*reversed=*/true,
                                 conv::thread_workspace());
  }
  fft::RealSpectrum spec;
  spec.n = n;
  spec.klen = klen;
  spec.reversed = true;
  spec.bins.resize(spec.spectrum_size());
  simd::kernels().tap_power_bins(taps.data(), taps.size(), h,
                                 fft::real_plan_for(n).quarter_roots().data(),
                                 n / 2, spec.bins.data());
  // Horner plus ~2 log2(h) complex products per bin.
  metrics::add_flops(6 * spec.bins.size() *
                     (taps.size() + 2 * static_cast<std::size_t>(
                                            std::bit_width(h))));
  return spec;
}

std::shared_ptr<const fft::RealSpectrum> KernelCache::power_spectrum(
    std::uint64_t h, std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  const std::uint64_t key = spectrum_key(h, n);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = spectra_.find(key);
    if (it != spectra_.end()) {
      // Refresh the LRU stamp with one relaxed store — the hot warm path
      // never touches the budget mutex.
      if (it->second.recency)
        it->second.recency->tick.store(budget_->next_tick(),
                                       std::memory_order_relaxed);
      return it->second.spec;
    }
  }
  // Build outside the lock, straight from the taps.
  SpectrumEntry entry{
      std::make_shared<const fft::RealSpectrum>(compute_spectrum(h, n)),
      nullptr};
  if (budget_) {
    entry.recency = std::make_shared<SpectrumBudget::Recency>();
    entry.recency->tick.store(budget_->next_tick(),
                              std::memory_order_relaxed);
  }
  std::shared_ptr<const fft::RealSpectrum> out;
  SpectrumBudget::RecencyPtr admitted;  // set only if this call inserted
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto [it, inserted] = spectra_.emplace(key, std::move(entry));
    out = it->second.spec;
    if (inserted) admitted = it->second.recency;
  }
  if (admitted) budget_->admit(this, key, spectrum_bytes_of(*out), admitted);
  return out;
}

void KernelCache::evict_spectrum(std::uint64_t key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  spectra_.erase(key);  // shared_ptr keeps in-flight consumers alive
}

KernelCache::Stats KernelCache::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::lock_guard<std::mutex> ladder_lock(ladder_mu_);
  Stats s;
  s.powers = cache_.size();
  s.spectra = spectra_.size();
  for (const auto& [key, entry] : spectra_)
    s.spectrum_bytes += spectrum_bytes_of(*entry.spec);
  s.ladder_rungs = ladder_.size();
  return s;
}

}  // namespace amopt::stencil
