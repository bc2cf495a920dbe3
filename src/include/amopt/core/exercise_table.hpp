#pragma once
// The exercise ("green") value oracle both trapezoid solvers read: one
// concrete class, read inline (no virtual call per cell), covering the
// lattice calls and the BSM put with one closed form,
//
//     value(i, j) = S * f(a*j + b*i) - K,
//     f(e) = exp(e * c)       (lattice calls: c = log u, f = u^e)
//     f(e) = -expm1(e * c)    (BSM put: c = ds, S = 1, K = 0).
//
// A solve reads a few hundred distinct exponents around its boundary out of
// the ~2T the lattice spans, so the values are not computed up front: each
// 32-exponent block of the table is filled on its first read, behind a
// per-block ready flag, and construction touches no slot at all. Slots are
// relaxed atomics (std::atomic_ref over a plain array), so concurrent first
// reads from pool tasks are race-free: a duplicate fill writes the same
// bits. Exponents outside [-span, span] are evaluated directly.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace amopt::core {

class ExerciseTable {
 public:
  /// Which closed form f is (see the file comment).
  enum class Form { exp, neg_expm1 };

  /// Oracle for value(i, j) = S * f(a*j + b*i) - K with the table covering
  /// exponents e in [-span, span].
  ExerciseTable(Form form, double c, std::int64_t a, std::int64_t b, double S,
                double K, std::int64_t span);

  ExerciseTable(const ExerciseTable&) = delete;
  ExerciseTable& operator=(const ExerciseTable&) = delete;

  [[nodiscard]] double value(std::int64_t i, std::int64_t j) const {
    const std::int64_t e = a_ * j + b_ * i;
    const auto slot = static_cast<std::uint64_t>(e + span_);
    if (slot >= size_) return S_ * eval(e) - K_;
    if (ready_[slot >> kBlockLog2].load(std::memory_order_acquire) == 0)
      fill(slot >> kBlockLog2);
    return S_ * std::atomic_ref<double>(table_[slot]).load(
                    std::memory_order_relaxed) -
           K_;
  }

 private:
  static constexpr unsigned kBlockLog2 = 5;

  [[nodiscard]] double eval(std::int64_t e) const noexcept {
    const double x = static_cast<double>(e) * c_;
    return form_ == Form::exp ? std::exp(x) : -std::expm1(x);
  }
  /// Compute every slot of block `blk`, then publish its ready flag.
  void fill(std::size_t blk) const;

  Form form_;
  double c_;
  std::int64_t a_, b_;
  double S_, K_;
  std::int64_t span_;
  std::uint64_t size_;  ///< 2 span + 1 slots, slot = e + span
  std::unique_ptr<double[]> table_;  ///< uninitialized until filled
  std::unique_ptr<std::atomic<std::uint8_t>[]> ready_;  ///< one per block
};

}  // namespace amopt::core
