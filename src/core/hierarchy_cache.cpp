#include "core/hierarchy_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace smg {

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void bytes(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }

  /// Bulk data, 8-byte words in four independent lanes.  Each word step
  /// xors the word into its lane, multiplies by an odd constant and folds
  /// the high half down: a bijection of the lane for a fixed word, so
  /// changing any one word (any one bit) always changes that lane.  Leftover
  /// words and bytes go through the same step; the lanes fold into h last.
  void words(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    std::uint64_t lane[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                             0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
    const auto step = [](std::uint64_t x, std::uint64_t w) noexcept {
      x = (x ^ w) * 0x9e3779b97f4a7c15ull;
      return x ^ (x >> 32);
    };
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      for (int l = 0; l < 4; ++l) {
        std::uint64_t w;
        std::memcpy(&w, b + i + 8 * l, 8);
        lane[l] = step(lane[l], w);
      }
    }
    for (int l = 0; i < n; i += 8, ++l) {
      std::uint64_t w = 0;
      std::memcpy(&w, b + i, std::min<std::size_t>(8, n - i));
      lane[l] = step(lane[l], w);
    }
    value(n);
    bytes(lane, sizeof lane);
  }

  template <class T>
  void value(const T& v) noexcept {
    bytes(&v, sizeof(T));
  }

  template <class E>
  void enumval(E e) noexcept {
    const auto u = static_cast<std::int64_t>(e);
    value(u);
  }
};

}  // namespace

std::uint64_t hierarchy_fingerprint(const StructMat<double>& A,
                                    const MGConfig& cfg) noexcept {
  Fnv1a f;
  // Geometry, layout, stencil.
  const Box& box = A.box();
  f.value(box.nx);
  f.value(box.ny);
  f.value(box.nz);
  f.enumval(A.layout());
  f.value(A.block_size());
  const Stencil& st = A.stencil();
  f.value(st.ndiag());
  for (int d = 0; d < st.ndiag(); ++d) {
    const Offset& o = st.offset(d);
    f.value(o.dx);
    f.value(o.dy);
    f.value(o.dz);
  }
  // Matrix values: the full stored run (boundary-truncated entries are
  // stored zeros, so this is layout-stable for a fixed layout field).
  const std::size_t nvals = static_cast<std::size_t>(A.ncells()) *
                            static_cast<std::size_t>(st.ndiag()) *
                            static_cast<std::size_t>(A.block_size()) *
                            static_cast<std::size_t>(A.block_size());
  f.words(A.data(), nvals * sizeof(double));
  // Every MGConfig field that shapes the setup (all but the inert
  // `decomp`: a telemetry or layout change must not alias a cached setup
  // either).
  f.value(cfg.max_levels);
  f.value(cfg.min_coarse_cells);
  f.value(cfg.min_dim);
  f.enumval(cfg.cycle);
  f.value(cfg.aniso_coarsening);
  f.value(cfg.coarsen_threshold);
  f.enumval(cfg.smoother);
  f.value(cfg.nu1);
  f.value(cfg.nu2);
  f.value(cfg.jacobi_weight);
  f.enumval(cfg.smoother_parallel);
  f.enumval(cfg.compute);
  f.value(cfg.storage_ladder.size());
  for (const Prec r : cfg.storage_ladder) {
    f.enumval(r);
  }
  f.value(cfg.ladder_auto);
  f.value(cfg.ladder_min_level);
  f.enumval(cfg.scale);
  f.value(cfg.scale_safety);
  f.enumval(cfg.precision_policy);
  f.value(cfg.truncate_smoother);
  f.enumval(cfg.telemetry);
  f.enumval(cfg.metrics);
  f.enumval(cfg.layout);
  return f.h;
}

std::shared_ptr<MGHierarchy> HierarchyCache::get_or_build(
    const StructMat<double>& A, const MGConfig& cfg) {
  const std::uint64_t key = hierarchy_fingerprint(A, cfg);
  if (capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) {
        lru_.splice(lru_.begin(), lru_, it);  // bump to MRU
        ++hits_;
        obs::record_cache_hit();
        return lru_.front().hierarchy;
      }
    }
    ++misses_;
    obs::record_cache_miss();
  }
  // Build outside the lock: setups are expensive and concurrent misses on
  // different problems should not serialize.
  Timer setup_timer;
  StructMat<double> copy = A;
  auto built = std::make_shared<MGHierarchy>(std::move(copy), cfg);
  obs::record_cache_setup(setup_timer.seconds());
  // Evicted fingerprints are collected under the lock but reported after
  // it drops, so the hook may re-enter the cache without deadlocking.
  std::vector<std::uint64_t> evicted;
  EvictionHook hook;
  if (capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.push_front(Entry{key, built});
    while (lru_.size() > capacity_) {
      evicted.push_back(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
    obs::set_cache_entries(lru_.size());
    hook = eviction_hook_;
  }
  for (std::uint64_t evicted_key : evicted) {
    obs::record_cache_eviction();
    if (hook) {
      hook(evicted_key);
    }
  }
  return built;
}

void HierarchyCache::set_eviction_hook(EvictionHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  eviction_hook_ = std::move(hook);
}

std::size_t HierarchyCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void HierarchyCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

HierarchyCache& HierarchyCache::global() {
  static HierarchyCache* g = [] {
    std::size_t cap = 4;
    if (const auto env = env_value("SMG_HIERARCHY_CACHE")) {
      cap = static_cast<std::size_t>(env_int_at_least(
          *env, 0, "SMG_HIERARCHY_CACHE must be a non-negative integer"));
    }
    return new HierarchyCache(cap);
  }();
  return *g;
}

}  // namespace smg
