#pragma once
// Cache-line / SIMD aligned storage. FFT butterflies and the row buffers of
// the pricers are the bandwidth-critical data structures; aligning them to
// 64 bytes keeps them vectorizable and avoids split lines.

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <utility>
#include <vector>

namespace amopt {

inline constexpr std::size_t kCacheLine = 64;

/// Minimal allocator meeting the Cpp17Allocator requirements that hands out
/// 64-byte aligned memory. Used through the `aligned_vector` alias below.
template <class T, std::size_t Align = kCacheLine>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T));
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    void* p = ::operator new(n * sizeof(T), std::align_val_t{Align});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose argument-less construct default-initializes: a
/// resize leaves trivial elements uninitialized instead of zero-filling
/// them. For buffers whose every element the owner writes before reading.
template <class T>
struct UninitAllocator : AlignedAllocator<T> {
  UninitAllocator() noexcept = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

template <class T>
using uninit_vector = std::vector<T, UninitAllocator<T>>;

/// Round `n` up to the next power of two (n >= 1).
[[nodiscard]] constexpr std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace amopt
