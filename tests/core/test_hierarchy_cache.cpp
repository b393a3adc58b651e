// Setup/apply split tests: hierarchy fingerprinting and the LRU cache.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "core/hierarchy_cache.hpp"
#include "problems/problem.hpp"

namespace smg {
namespace {

TEST(HierarchyFingerprint, SensitiveToEverySetupInput) {
  auto p = make_laplace27(Box{8, 8, 8});
  const MGConfig cfg = config_d16_setup_scale();
  const std::uint64_t base = hierarchy_fingerprint(p.A, cfg);
  EXPECT_EQ(base, hierarchy_fingerprint(p.A, cfg));  // deterministic

  // A different box.
  auto p2 = make_laplace27(Box{8, 8, 9});
  EXPECT_NE(hierarchy_fingerprint(p2.A, cfg), base);

  // One perturbed matrix value.
  auto p3 = make_laplace27(Box{8, 8, 8});
  p3.A.data()[0] += 1e-13;
  EXPECT_NE(hierarchy_fingerprint(p3.A, cfg), base);

  // Config fields that change the setup...
  MGConfig c2 = cfg;
  c2.nu1 = 2;
  EXPECT_NE(hierarchy_fingerprint(p.A, c2), base);
  MGConfig c3 = cfg;
  c3.storage_ladder = {Prec::BF16};
  EXPECT_NE(hierarchy_fingerprint(p.A, c3), base);
  MGConfig c4 = cfg;
  c4.scale_safety *= 2.0;
  EXPECT_NE(hierarchy_fingerprint(p.A, c4), base);
  // ...and fields that "only" change runtime behavior must not alias
  // either (a cached hierarchy carries its config).
  MGConfig c5 = cfg;
  c5.smoother_parallel = SmootherParallel::Sequential;
  EXPECT_NE(hierarchy_fingerprint(p.A, c5), base);
  MGConfig c6 = cfg;
  c6.layout = Layout::AOS;
  EXPECT_NE(hierarchy_fingerprint(p.A, c6), base);
  // The box decomposition picks the engine a preconditioner runs on.
  MGConfig c7 = cfg;
  c7.decomp = {2, 2, 1};
  EXPECT_NE(hierarchy_fingerprint(p.A, c7), base);
  MGConfig c8 = cfg;
  c8.decomp_min_box = 64;
  EXPECT_NE(hierarchy_fingerprint(p.A, c8), base);
  MGConfig c9 = cfg;
  c9.halo_fp16 = true;
  EXPECT_NE(hierarchy_fingerprint(p.A, c9), base);
}

TEST(HierarchyFingerprint, SensitiveToLowestMantissaBitOfFirstLastAndTailValues) {
  // 18 cells x 7 diagonals = 126 values: 31 full four-word groups plus a
  // two-value tail after the lane loop.
  StructMat<double> A(Box{2, 3, 3}, Stencil::make(Pattern::P3d7), 1);
  const std::size_t n = A.values().size();
  ASSERT_EQ(n % 4, 2u);
  for (std::size_t q = 0; q < n; ++q) {
    A.values()[q] = 1.0 + static_cast<double>(q);
  }
  const MGConfig cfg = config_d16_setup_scale();
  const std::uint64_t base = hierarchy_fingerprint(A, cfg);
  const auto flipped = [&](std::size_t q) {
    StructMat<double> B = A;
    std::uint64_t bits;
    std::memcpy(&bits, &B.values()[q], sizeof bits);
    bits ^= 1u;  // lowest mantissa bit
    std::memcpy(&B.values()[q], &bits, sizeof bits);
    return hierarchy_fingerprint(B, cfg);
  };
  EXPECT_NE(flipped(0), base);          // first value
  EXPECT_NE(flipped(n - 1), base);      // last value
  EXPECT_NE(flipped(n / 4 * 4), base);  // first value of the tail
}

TEST(HierarchyCache, HitsReuseTheSameSetup) {
  auto p = make_laplace27(Box{8, 8, 8});
  const MGConfig cfg = config_d16_setup_scale();
  HierarchyCache cache(4);
  const auto h1 = cache.get_or_build(p.A, cfg);
  const auto h2 = cache.get_or_build(p.A, cfg);
  EXPECT_EQ(h1.get(), h2.get());  // the very same setup, not a rebuild
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(h1->nlevels(), 2);
}

TEST(HierarchyCache, EvictsLeastRecentlyUsed) {
  const MGConfig cfg = config_d16_setup_scale();
  HierarchyCache cache(2);
  auto pa = make_laplace27(Box{6, 6, 6});
  auto pb = make_laplace27(Box{7, 7, 7});
  auto pc = make_laplace27(Box{8, 8, 8});
  const auto ha = cache.get_or_build(pa.A, cfg);
  const auto hb = cache.get_or_build(pb.A, cfg);
  // Touch A so B becomes the LRU entry, then insert C.
  (void)cache.get_or_build(pa.A, cfg);
  const auto hc = cache.get_or_build(pc.A, cfg);
  EXPECT_EQ(cache.size(), 2u);
  // A is still cached, B was evicted and rebuilds fresh.
  EXPECT_EQ(cache.get_or_build(pa.A, cfg).get(), ha.get());
  EXPECT_NE(cache.get_or_build(pb.A, cfg).get(), hb.get());
}

TEST(HierarchyCache, EvictionHookSeesLruOrderAndMatchesStats) {
  const MGConfig cfg = config_d16_setup_scale();
  HierarchyCache cache(2);
  auto pa = make_laplace27(Box{6, 6, 6});
  auto pb = make_laplace27(Box{7, 7, 7});
  auto pc = make_laplace27(Box{8, 8, 8});
  auto pd = make_laplace27(Box{9, 9, 9});
  const std::uint64_t ka = hierarchy_fingerprint(pa.A, cfg);
  const std::uint64_t kb = hierarchy_fingerprint(pb.A, cfg);
  const std::uint64_t kc = hierarchy_fingerprint(pc.A, cfg);

  std::vector<std::uint64_t> evicted;
  cache.set_eviction_hook(
      [&evicted](std::uint64_t key) { evicted.push_back(key); });

  (void)cache.get_or_build(pa.A, cfg);
  (void)cache.get_or_build(pb.A, cfg);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch A so B is the LRU victim, then insert C (evicts B) and D
  // (evicts A: C's insert refreshed nothing, A was touched before C).
  (void)cache.get_or_build(pa.A, cfg);
  (void)cache.get_or_build(pc.A, cfg);
  (void)cache.get_or_build(pd.A, cfg);

  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], kb);  // LRU order: B first...
  EXPECT_EQ(evicted[1], ka);  // ...then A
  EXPECT_EQ(cache.evictions(), evicted.size());
  EXPECT_EQ(cache.size(), 2u);

  // The hook may re-enter the cache (it runs after the lock is released).
  cache.set_eviction_hook([&cache, &evicted](std::uint64_t key) {
    evicted.push_back(key);
    EXPECT_EQ(cache.size(), cache.capacity());
  });
  (void)cache.get_or_build(pa.A, cfg);  // evicts C
  ASSERT_EQ(evicted.size(), 3u);
  EXPECT_EQ(evicted[2], kc);
  EXPECT_EQ(cache.evictions(), 3u);

  // Removing the hook stops callbacks but not the eviction counter.
  cache.set_eviction_hook(nullptr);
  (void)cache.get_or_build(pb.A, cfg);  // evicts D
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(cache.evictions(), 4u);
}

TEST(HierarchyCache, CapacityZeroDisablesCaching) {
  auto p = make_laplace27(Box{6, 6, 6});
  const MGConfig cfg = config_d16_setup_scale();
  HierarchyCache cache(0);
  const auto h1 = cache.get_or_build(p.A, cfg);
  const auto h2 = cache.get_or_build(p.A, cfg);
  EXPECT_NE(h1.get(), h2.get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(HierarchyCache, ClearDropsEntriesAndCounters) {
  auto p = make_laplace27(Box{6, 6, 6});
  const MGConfig cfg = config_d16_setup_scale();
  HierarchyCache cache(4);
  (void)cache.get_or_build(p.A, cfg);
  (void)cache.get_or_build(p.A, cfg);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(HierarchyCache, GlobalIsACacheWithDefaultOrEnvCapacity) {
  // The global cache is sized once from SMG_HIERARCHY_CACHE on first use;
  // within one test process we can only assert it exists and behaves like
  // a cache (capacity is whatever the environment said at first touch).
  HierarchyCache& g = HierarchyCache::global();
  EXPECT_EQ(&g, &HierarchyCache::global());
  if (g.capacity() > 0) {
    auto p = make_laplace27(Box{6, 6, 6});
    const MGConfig cfg = config_d16_setup_scale();
    g.clear();
    const auto h1 = g.get_or_build(p.A, cfg);
    const auto h2 = g.get_or_build(p.A, cfg);
    EXPECT_EQ(h1.get(), h2.get());
    g.clear();
  }
}

// SMG_HIERARCHY_CACHE sizes the global cache on first use, so each case
// runs in a fresh child process.  A malformed value is fatal and names the
// variable and its accepted values; it never falls back to the default.
class HierarchyCacheEnvDeathTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_HIERARCHY_CACHE"); }
};

TEST_P(HierarchyCacheEnvDeathTest, RejectsMalformedCapacity) {
  setenv("SMG_HIERARCHY_CACHE", GetParam(), 1);
  EXPECT_DEATH(HierarchyCache::global(),
               "SMG_HIERARCHY_CACHE must be a non-negative integer");
}

INSTANTIATE_TEST_SUITE_P(Malformed, HierarchyCacheEnvDeathTest,
                         ::testing::Values("abc", "-2", "3x", " 3", "3 ",
                                           "1.5"));

TEST(GlobalCacheDeathTest, WellFormedValueSizesTheCache) {
  for (const char* value : {"0", "7"}) {
    setenv("SMG_HIERARCHY_CACHE", value, 1);
    const std::size_t want = static_cast<std::size_t>(std::atoi(value));
    EXPECT_EXIT(std::exit(HierarchyCache::global().capacity() == want ? 0 : 1),
                ::testing::ExitedWithCode(0), "")
        << "SMG_HIERARCHY_CACHE=" << value;
  }
  unsetenv("SMG_HIERARCHY_CACHE");
}

}  // namespace
}  // namespace smg
