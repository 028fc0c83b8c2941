// Cache-line / SIMD aligned storage.
//
// SpMV kernels stream large value arrays with vector loads; keeping them
// 64-byte aligned lets the compiler emit aligned AVX-512 accesses and keeps
// CSCVE groups from straddling cache lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace cscv::util {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal C++17 aligned allocator. Alignment is a compile-time constant so
/// two AlignedVector<T> with different alignments are distinct types.
template <typename T, std::size_t Alignment = kCacheLineBytes>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment must satisfy the type");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) throw std::bad_alloc{};
    // Round the byte count up to a multiple of Alignment: std::aligned_alloc
    // requires it, and the slack keeps vector loads off the final partial line.
    std::size_t bytes = (n * sizeof(T) + Alignment - 1) / Alignment * Alignment;
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc{};
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) { return false; }
};

/// AlignedAllocator whose no-argument construct default-initialises, so
/// `UninitAlignedVector<T>(n)` and `resize(n)` leave arithmetic elements
/// indeterminate instead of zeroing them on the calling thread. For arrays
/// that a (parallel) fill then overwrites in full: the fill's writes become
/// the pages' first touch. Construction from a value (`(n, v)`, `assign`)
/// still writes it.
template <typename T, std::size_t Alignment = kCacheLineBytes>
class DefaultInitAllocator : public AlignedAllocator<T, Alignment> {
 public:
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U, Alignment>;
  };

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const DefaultInitAllocator&, const DefaultInitAllocator&) {
    return true;
  }
  friend bool operator!=(const DefaultInitAllocator&, const DefaultInitAllocator&) {
    return false;
  }
};

/// std::vector with 64-byte-aligned storage; the default container for all
/// numeric arrays in the library (matrix values, index arrays, x/y vectors).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// AlignedVector whose sized construction and resize skip value-initialisation
/// (see DefaultInitAllocator); only for arrays whose producer writes every
/// element.
template <typename T>
using UninitAlignedVector = std::vector<T, DefaultInitAllocator<T>>;

/// True if `p` is aligned to `alignment` bytes.
inline bool is_aligned(const void* p, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(p) % alignment == 0;
}

}  // namespace cscv::util
