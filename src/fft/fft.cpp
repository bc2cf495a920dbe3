#include "amopt/fft/fft.hpp"

#include <cstring>

#include <algorithm>
#include <cstdint>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>

#include "amopt/common/assert.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::fft {

namespace {

// Below this size the parallel-for overhead of a stage exceeds its work;
// complex transforms stay serial. Chosen conservatively; see
// bench/micro_fft. (The negacyclic passes always run on the caller.)
constexpr std::size_t kParallelThreshold = std::size_t{1} << 15;

// Stages whose butterfly blocks span at most this many points run depth
// first, block by block (32 KB of split data: it stays in L1 across them);
// the larger stages run breadth first over the whole array.
constexpr std::size_t kDepthBlock = std::size_t{1} << 11;

// Below this size the complex transform's split/interleave passes cost
// more than the vector butterflies save; stay on the interleaved scalar
// loops.
constexpr std::size_t kSimdThreshold = 32;

[[nodiscard]] std::size_t ilog2(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

/// Per-thread split real/imag scratch for the SoA transform pipeline.
/// Grow-only and 64-byte aligned, so every vector load on the fast path is
/// an unmasked aligned load; reused across calls like conv::Workspace.
struct SoaScratch {
  aligned_vector<double> re, im;
};

[[nodiscard]] SoaScratch& soa_scratch(std::size_t n) {
  thread_local SoaScratch s;
  if (s.re.size() < n) {
    s.re.resize(n);
    s.im.resize(n);
  }
  return s;
}

}  // namespace

Plan::Plan(std::size_t n) : n_(n), log2n_(ilog2(n)) {
  AMOPT_EXPECTS(is_pow2(n));
  // Radix-4 twiddle triples (see header). The leading radix-2 stage of
  // odd-log2 sizes uses only w = 1 and needs no table.
  std::size_t total = 0;
  for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) total += 3 * h;
  twiddle4_.resize(total);
  cplx* w = twiddle4_.data();
  for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) {
    const double theta = -std::numbers::pi / static_cast<double>(2 * h);
    for (std::size_t j = 0; j < h; ++j) {
      const double a = theta * static_cast<double>(j);
      w[3 * j + 0] = cplx{std::cos(a), std::sin(a)};
      w[3 * j + 1] = cplx{std::cos(2 * a), std::sin(2 * a)};
      w[3 * j + 2] = cplx{std::cos(3 * a), std::sin(3 * a)};
    }
    w += 3 * h;
  }
  // Mirror the triples into the SoA layout the dispatched kernels consume
  // (same values; only the memory layout differs, so the interleaved and
  // split passes see bit-identical twiddles).
  twiddle4_soa_.resize(2 * total);
  double* ws = twiddle4_soa_.data();
  const cplx* wt = twiddle4_.data();
  for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) {
    for (std::size_t j = 0; j < h; ++j) {
      ws[0 * h + j] = wt[3 * j + 0].real();
      ws[1 * h + j] = wt[3 * j + 0].imag();
      ws[2 * h + j] = wt[3 * j + 1].real();
      ws[3 * h + j] = wt[3 * j + 1].imag();
      ws[4 * h + j] = wt[3 * j + 2].real();
      ws[5 * h + j] = wt[3 * j + 2].imag();
    }
    ws += 6 * h;
    wt += 3 * h;
  }
  bitrev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n_; ++b) r |= ((i >> b) & 1u) << (log2n_ - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(r);
  }
}

void Plan::bit_reverse_permute(cplx* data) const {
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = bitrev_[i];
    if (i < r) std::swap(data[i], data[r]);
  }
}

void Plan::radix2_stage(cplx* data, bool parallel) const {
  // Half-size-1 butterflies carry twiddle w = 1 in both directions.
  if (parallel) {
    // Pool chunks are disjoint and the per-butterfly arithmetic does not
    // depend on the split, so the bits match the serial sweep.
    constexpr std::size_t kChunk = std::size_t{1} << 13;
    core::TaskPool::instance().for_each(
        static_cast<std::ptrdiff_t>(n_ / kChunk), [&](std::size_t c) {
          const std::size_t hi = (c + 1) * kChunk;
          for (std::size_t base = c * kChunk; base < hi; base += 2) {
            const cplx t = data[base + 1];
            data[base + 1] = data[base] - t;
            data[base] += t;
          }
        });
  } else {
    for (std::size_t base = 0; base < n_; base += 2) {
      const cplx t = data[base + 1];
      data[base + 1] = data[base] - t;
      data[base] += t;
    }
  }
}

template <bool kInverse>
void Plan::radix4_pass(cplx* data, std::size_t h, const cplx* w,
                       bool parallel) const {
  // One pass = two fused radix-2 stages (half-sizes h and 2h) on
  // bit-reversed data. With W = e^{-i pi / (2h)}:
  //   bb = b W^2j, cc = c W^j, dd = d W^3j,
  //   a1 = a + bb, b1 = a - bb,
  //   out[j]    = a1 + (cc + dd)      out[j+2h] = a1 - (cc + dd)
  //   out[j+h]  = b1 -+ i (cc - dd)   out[j+3h] = b1 +- i (cc - dd)
  // (upper signs forward, lower inverse; inverse also conjugates W).
  const std::size_t step = 4 * h;
  const auto block = [&](std::size_t base) {
    for (std::size_t j = 0; j < h; ++j) {
      cplx w1 = w[3 * j + 0];
      cplx w2 = w[3 * j + 1];
      cplx w3 = w[3 * j + 2];
      if constexpr (kInverse) {
        w1 = std::conj(w1);
        w2 = std::conj(w2);
        w3 = std::conj(w3);
      }
      cplx& ra = data[base + j];
      cplx& rb = data[base + j + h];
      cplx& rc = data[base + j + 2 * h];
      cplx& rd = data[base + j + 3 * h];
      const cplx bb = rb * w2;
      const cplx cc = rc * w1;
      const cplx dd = rd * w3;
      const cplx a1 = ra + bb;
      const cplx b1 = ra - bb;
      const cplx s = cc + dd;
      const cplx t = cc - dd;
      // -i t forward, +i t inverse
      const cplx it = kInverse ? cplx{-t.imag(), t.real()}
                               : cplx{t.imag(), -t.real()};
      ra = a1 + s;
      rc = a1 - s;
      rb = b1 + it;
      rd = b1 - it;
    }
  };
  if (parallel) {
    // Several blocks per chunk while h is small, one block per chunk once
    // step dominates; block order is irrelevant (disjoint ranges).
    const std::size_t chunk = std::max(step, std::size_t{1} << 13);
    core::TaskPool::instance().for_each(
        static_cast<std::ptrdiff_t>((n_ + chunk - 1) / chunk),
        [&](std::size_t c) {
          const std::size_t hi = std::min((c + 1) * chunk, n_);
          for (std::size_t base = c * chunk; base < hi; base += step)
            block(base);
        });
  } else {
    for (std::size_t base = 0; base < n_; base += step) block(base);
  }
}

void Plan::transform(cplx* data, bool inverse) const {
  if (n_ <= 1) return;
  if (const simd::Level lvl = simd::active();
      lvl != simd::Level::scalar && n_ >= kSimdThreshold) {
    transform_simd(data, inverse, lvl);
    return;
  }
  bit_reverse_permute(data);

  const bool parallel = n_ >= kParallelThreshold && !in_parallel_region() &&
                        hardware_threads() > 1;
  std::size_t h = 1;
  if (log2n_ & 1) {
    radix2_stage(data, parallel);
    h = 2;
  }
  const cplx* w = twiddle4_.data();
  for (; h < n_; h <<= 2) {
    if (inverse) {
      radix4_pass<true>(data, h, w, parallel);
    } else {
      radix4_pass<false>(data, h, w, parallel);
    }
    w += 3 * h;
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
  }
}

void Plan::transform_simd(cplx* data, bool inverse, simd::Level lvl) const {
  const simd::Kernels& kn = simd::kernels(lvl);
  SoaScratch& scratch = soa_scratch(n_);
  double* re = scratch.re.data();
  double* im = scratch.im.data();
  // Bit-reversal fused into the split: one gathered pass instead of the
  // scalar path's swap pass + copy pass.
  kn.deinterleave_rev(data, bitrev_.data(), re, im, n_);

  dit_stages(re, im, inverse,
             n_ >= kParallelThreshold && !in_parallel_region() &&
                 hardware_threads() > 1,
             kn);

  // The 1/n normalization rides the interleave pass (one fewer sweep over
  // the data).
  if (inverse) {
    kn.interleave_scaled(re, im, data, n_, 1.0 / static_cast<double>(n_));
  } else {
    kn.interleave(re, im, data, n_);
  }
}

void Plan::dit_stages(double* re, double* im, bool inverse, bool parallel,
                      const simd::Kernels& kn) const {
  const std::size_t h0 = (log2n_ & 1) ? 2 : 1;
  const double* w = twiddle4_soa_.data();
  std::size_t h = h0;
  if (!parallel) {
    // Depth first: every stage whose butterfly blocks fit in kDepthBlock
    // runs over one block before the next block starts, so the block
    // stays in L1 across those stages; the rest run breadth first below.
    const std::size_t block = std::min(n_, kDepthBlock);
    const double* wb = w;
    for (std::size_t b = 0; b < n_; b += block) {
      if (log2n_ & 1) kn.radix2_pass(re + b, im + b, block);
      wb = w;
      for (h = h0; 4 * h <= block; h <<= 2) {
        kn.radix4_pass(re + b, im + b, block, h, wb, inverse);
        wb += 6 * h;
      }
    }
    w = wb;
    for (; h < n_; h <<= 2) {
      kn.radix4_pass(re, im, n_, h, w, inverse);
      w += 6 * h;
    }
    return;
  }
  if (log2n_ & 1) {
    // Chunks align to butterfly pairs; any power-of-two split works.
    constexpr std::size_t kChunk = std::size_t{1} << 13;
    core::TaskPool::instance().for_each(
        static_cast<std::ptrdiff_t>(n_ / kChunk), [&](std::size_t c) {
          kn.radix2_pass(re + c * kChunk, im + c * kChunk, kChunk);
        });
  }
  for (; h < n_; h <<= 2) {
    const std::size_t step = 4 * h;
    // Parallel chunks must be multiples of the block size AND large enough
    // that the early stages still hand the vector kernels whole 16-element
    // groups (the h = 1 transpose kernel needs them) — one block per chunk
    // would feed h = 1 four elements at a time and fall back to scalar.
    const std::size_t chunk = std::max(step, std::size_t{1} << 13);
    if (n_ > chunk) {
      core::TaskPool::instance().for_each(
          static_cast<std::ptrdiff_t>(n_ / chunk), [&](std::size_t c) {
            kn.radix4_pass(re + c * chunk, im + c * chunk, chunk, h, w,
                           inverse);
          });
    } else {
      kn.radix4_pass(re, im, n_, h, w, inverse);
    }
    w += 6 * h;
  }
}

void Plan::dit(double* re, double* im, bool inverse) const {
  dit_stages(re, im, inverse, /*parallel=*/false, simd::kernels());
}

void Plan::dif(double* re, double* im) const {
  // The DIT passes transposed, last to first: each radix-4 stage reads its
  // DIT twiddle block (walked backwards from the end of the table), and the
  // unit-twiddle radix-2 stage, its own transpose, closes odd log2 n. The
  // stages whose butterfly blocks exceed kDepthBlock run breadth first; the
  // rest run depth first, one block at a time (dit_stages in reverse).
  const simd::Kernels& kn = simd::kernels();
  const std::size_t h0 = (log2n_ & 1) ? 2 : 1;
  const std::size_t block = std::min(n_, kDepthBlock);
  const double* w = twiddle4_soa_.data() + twiddle4_soa_.size();
  std::size_t h = n_ / 4;
  for (; n_ >= 4 && 4 * h > block; h >>= 2) {
    w -= 6 * h;
    kn.dif4_pass(re, im, n_, h, w);
  }
  for (std::size_t b = 0; b < n_; b += block) {
    const double* wb = w;
    for (std::size_t hh = h; n_ >= 4; hh >>= 2) {
      wb -= 6 * hh;
      kn.dif4_pass(re + b, im + b, block, hh, wb);
      if (hh == h0) break;
    }
    if (log2n_ & 1) kn.radix2_pass(re + b, im + b, block);
  }
}

NegacyclicPlan::NegacyclicPlan(std::size_t n)
    : n_(n), m_(n / 2), half_(&plan_for(n / 2)) {
  AMOPT_EXPECTS(is_pow2(n) && n >= 2);
  twist_.resize(2 * m_);
  roots_.resize(2 * m_);
  const double step = std::numbers::pi / static_cast<double>(n_);
  const auto n2 = static_cast<std::int64_t>(2 * n_);
  for (std::size_t k = 0; k < m_; ++k) {
    // psi^k = e^{i pi k / n}
    const double a = step * static_cast<double>(k);
    twist_[k] = std::cos(a);
    twist_[m_ + k] = std::sin(a);
    // y_k = psi^(1 - 4k), the exponent reduced into [-n, n) so every angle
    // lies in [-pi, pi).
    std::int64_t e = (1 - 4 * static_cast<std::int64_t>(k)) % n2;
    if (e < -static_cast<std::int64_t>(n_)) e += n2;
    const double b = step * static_cast<double>(e);
    roots_[k] = std::cos(b);
    roots_[m_ + k] = std::sin(b);
  }
}

RealPlan::RealPlan(std::size_t n) : n_(n), m_(n / 2), half_(nullptr) {
  AMOPT_EXPECTS(is_pow2(n));
  if (n_ >= 4) {
    half_ = &plan_for(m_);
    twiddle_.resize(m_ / 2 + 1);
    const double theta = -2.0 * std::numbers::pi / static_cast<double>(n_);
    for (std::size_t k = 0; k <= m_ / 2; ++k) {
      const double a = theta * static_cast<double>(k);
      twiddle_[k] = cplx{std::cos(a), std::sin(a)};
    }
  }
}

void RealPlan::forward(const double* in, cplx* spec) const {
  if (n_ == 1) {
    spec[0] = cplx{in[0], 0.0};
    return;
  }
  if (n_ == 2) {
    spec[1] = cplx{in[0] - in[1], 0.0};
    spec[0] = cplx{in[0] + in[1], 0.0};
    return;
  }
  // Pack z[k] = x[2k] + i x[2k+1] into the low half of `spec` and transform.
  // The pairwise packing IS the complex memory layout, so the "pack" is one
  // flat copy at memory bandwidth instead of a scalar pair loop.
  cplx* z = spec;
  std::memcpy(static_cast<void*>(z), static_cast<const void*>(in),
              m_ * sizeof(cplx));
  half_->forward(z);

  // Untangle: with Xe/Xo the DFTs of the even/odd samples,
  //   Xe[k] = (Z[k] + conj(Z[m-k]))/2,  Xo[k] = (Z[k] - conj(Z[m-k]))/(2i),
  //   X[k] = Xe[k] + t_k Xo[k],  t_k = e^{-2 pi i k / n},
  // and for the mirror bin t_{m-k} = -conj(t_k) gives
  //   X[m-k] = conj(Xe[k] - t_k Xo[k]).
  const cplx z0 = z[0];
  // Dispatched pair sweep; the scalar table entry is this function's
  // historical loop, so the scalar level stays bit-identical.
  simd::kernels().rfft_untangle(spec, twiddle_.data(), m_);
  spec[m_ / 2] = std::conj(spec[m_ / 2]);  // t = -i bin: X = conj(Z)
  spec[m_] = cplx{z0.real() - z0.imag(), 0.0};
  spec[0] = cplx{z0.real() + z0.imag(), 0.0};
}

namespace {

/// Append-only plan cache: readers follow one atomic pointer to an immutable
/// sorted snapshot (wait-free once their size is warm); writers serialize on
/// a mutex, copy the snapshot, and publish the extension. Old snapshots are
/// retained so in-flight readers never race a free; the whole cache is
/// intentionally leaked to outlive detached threads at shutdown.
template <class P>
class PlanCache {
 public:
  const P& get(std::size_t n) {
    if (const Map* m = current_.load(std::memory_order_acquire)) {
      if (const P* p = m->find(n)) return *p;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const Map* cur = current_.load(std::memory_order_relaxed);
    if (cur != nullptr) {
      if (const P* p = cur->find(n)) return *p;
    }
    auto plan = std::make_unique<P>(n);
    const P* raw = plan.get();
    plans_.push_back(std::move(plan));
    auto next = std::make_unique<Map>();
    if (cur != nullptr) next->entries = cur->entries;
    next->entries.emplace_back(n, raw);
    std::sort(next->entries.begin(), next->entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const Map* published = next.get();
    maps_.push_back(std::move(next));
    current_.store(published, std::memory_order_release);
    return *raw;
  }

 private:
  struct Map {
    std::vector<std::pair<std::size_t, const P*>> entries;
    [[nodiscard]] const P* find(std::size_t n) const {
      auto it = std::lower_bound(
          entries.begin(), entries.end(), n,
          [](const auto& e, std::size_t key) { return e.first < key; });
      return (it != entries.end() && it->first == n) ? it->second : nullptr;
    }
  };

  std::atomic<const Map*> current_{nullptr};
  std::mutex mu_;
  std::vector<std::unique_ptr<P>> plans_;
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace

const Plan& plan_for(std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  static PlanCache<Plan>& cache = *new PlanCache<Plan>();
  return cache.get(n);
}

const NegacyclicPlan& negacyclic_plan_for(std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n) && n >= 2);
  static PlanCache<NegacyclicPlan>& cache = *new PlanCache<NegacyclicPlan>();
  return cache.get(n);
}

const RealPlan& real_plan_for(std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  static PlanCache<RealPlan>& cache = *new PlanCache<RealPlan>();
  return cache.get(n);
}

void forward(std::span<cplx> data) { plan_for(data.size()).forward(data.data()); }
void inverse(std::span<cplx> data) { plan_for(data.size()).inverse(data.data()); }

}  // namespace amopt::fft
