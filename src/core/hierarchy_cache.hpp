// Setup/apply split: a keyed cache of MGHierarchy setups.
//
// Hierarchy setup (Galerkin chain, smoother data, coarsest LU — Alg. 1) is
// the expensive, once-per-problem half of the preconditioner; the V-cycle
// apply is the cheap, once-per-solve half.  Throughput mode (solve_many,
// fig_many_rhs) reuses one setup across many right-hand sides and many
// solver invocations, so setups are cached behind a fingerprint of
// everything that determines them:
//
//   grid box dims, layout, block size, stencil offsets, the FP64 matrix
//   value bytes, and every MGConfig field
//
// hashed FNV-1a 64-bit.  Two problems with the same fingerprint get the
// same std::shared_ptr<MGHierarchy>; eviction is LRU.
//
// The SMG_HIERARCHY_CACHE environment variable sizes the process-global
// cache: unset or empty keeps the default capacity (4 setups), a positive
// integer overrides it, and 0 disables caching (every lookup builds a
// fresh hierarchy and stores nothing).  Any other value is a fatal error.
//
// Sharing note: under PrecisionPolicy::Guarded the runtime governor
// repairs the hierarchy's stored matrices IN PLACE, so every adapter
// holding the shared setup sees the repair — which is exactly the
// semantics a repaired level should have.  The cache itself is
// mutex-guarded; concurrent get_or_build calls are safe (a fingerprint
// race at worst builds the same setup twice and keeps one).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "core/mg_hierarchy.hpp"

namespace smg {

/// FNV-1a fingerprint of (grid geometry, layout, block size, stencil,
/// matrix values, config) — everything MGHierarchy setup depends on.
std::uint64_t hierarchy_fingerprint(const StructMat<double>& A,
                                    const MGConfig& cfg) noexcept;

class HierarchyCache {
 public:
  /// `capacity` 0 disables caching: get_or_build always builds and never
  /// stores.
  explicit HierarchyCache(std::size_t capacity) : capacity_(capacity) {}

  /// Return the cached setup for (A, cfg), building (and caching) it on a
  /// miss.  The matrix is only copied on a miss.
  std::shared_ptr<MGHierarchy> get_or_build(const StructMat<double>& A,
                                            const MGConfig& cfg);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const;
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  void clear();

  /// Observer of LRU evictions: called once per evicted entry with its
  /// fingerprint, in eviction order (least recently used first), AFTER
  /// the cache releases its lock — the hook may call back into the cache.
  /// One hook per cache; replace with nullptr to remove.
  using EvictionHook = std::function<void(std::uint64_t key)>;
  void set_eviction_hook(EvictionHook hook);

  /// Process-global cache, sized once from SMG_HIERARCHY_CACHE on first
  /// use (default capacity 4; "0" disables; a value that is not a
  /// non-negative integer aborts).
  static HierarchyCache& global();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<MGHierarchy> hierarchy;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  EvictionHook eviction_hook_;
};

}  // namespace smg
