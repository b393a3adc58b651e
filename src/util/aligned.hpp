// 64-byte aligned vector for SIMD kernels.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace smg {

/// Minimal allocator giving cache-line (and AVX) alignment.
template <class T, std::size_t Align = 64>
struct AlignedAllocator {
  using value_type = T;

  // The non-type Align parameter defeats allocator_traits' automatic rebind
  // deduction; spell it out.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) {
      return nullptr;
    }
    void* p = ::operator new(n * sizeof(T), std::align_val_t{Align});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

template <class T>
using avec = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose value-less construct() default-initializes, so a
/// `uvec<T>(n)` of trivial T allocates without writing: each page is first
/// touched (and placed) by the parallel loop that produces its values,
/// instead of by a serial zero fill.  Read nothing before writing it.
template <class T>
struct UninitAllocator : AlignedAllocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };

  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const UninitAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using uvec = std::vector<T, UninitAllocator<T>>;

}  // namespace smg
