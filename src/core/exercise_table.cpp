#include "amopt/core/exercise_table.hpp"

#include <algorithm>

#include "amopt/common/assert.hpp"

namespace amopt::core {

ExerciseTable::ExerciseTable(Form form, double c, std::int64_t a,
                             std::int64_t b, double S, double K,
                             std::int64_t span)
    : form_(form), c_(c), a_(a), b_(b), S_(S), K_(K), span_(span),
      size_(static_cast<std::uint64_t>(2 * span + 1)),
      table_(new double[size_]),
      ready_(new std::atomic<std::uint8_t>[(size_ >> kBlockLog2) + 1]()) {
  AMOPT_EXPECTS(span >= 0);
}

void ExerciseTable::fill(std::size_t blk) const {
  const std::uint64_t lo = std::uint64_t{blk} << kBlockLog2;
  const std::uint64_t hi =
      std::min(lo + (std::uint64_t{1} << kBlockLog2), size_);
  for (std::uint64_t slot = lo; slot < hi; ++slot)
    std::atomic_ref<double>(table_[slot])
        .store(eval(static_cast<std::int64_t>(slot) - span_),
               std::memory_order_relaxed);
  ready_[blk].store(1, std::memory_order_release);
}

}  // namespace amopt::core
