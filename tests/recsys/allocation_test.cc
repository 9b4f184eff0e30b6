// Allocation-count regression for the serve hot path: a warm
// `RecommendInto` must perform ZERO heap allocations, on cache hits and
// on computed misses (explain on or off); and a one-user SUM publish
// must allocate a small constant, whatever the population. This TU
// replaces the global operator new/delete with counting versions
// (binary-wide — the replacements just delegate to malloc/free, so
// every other test is unaffected) and counts the calls inside a
// measured window.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"
#include "recsys/request.h"
#include "sum/sum_service.h"
#include "sum/sum_update.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_new_calls{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* CountedAllocAligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  void* ptr = std::aligned_alloc(alignment, rounded);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t,
                       std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace spa::recsys {
namespace {

class AllocationRegressionTest : public ::testing::Test {
 protected:
  AllocationRegressionTest()
      : matrix_(MakeTwoCommunityMatrix()),
        catalog_(sum::AttributeCatalog::EmagisterDefault()),
        sums_(&catalog_) {}

  std::unique_ptr<RecsysEngine> MakeEngine(EngineConfig config = {}) {
    auto engine = std::make_unique<RecsysEngine>(config);
    engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine->AddComponent(std::make_unique<PopularityRecommender>(),
                         0.4);
    engine->set_sum_service(&sums_);
    EXPECT_TRUE(engine->Fit(matrix_).ok());
    return engine;
  }

  InteractionMatrix matrix_;
  sum::AttributeCatalog catalog_;
  sum::SumService sums_;
};

TEST_F(AllocationRegressionTest, WarmCachedRecommendIntoIsAllocFree) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;

  // Warm up: first call computes + caches; the next hits the cache and
  // sizes the reused response's buffers.
  RecommendResponse out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
  }
  ASSERT_GT(engine->cache_stats().hits, 0u);

  // Measurement window: nothing inside may allocate, including the
  // Status round-trips (OK is an SSO-empty string). All EXPECTs stay
  // outside the window — gtest assertions allocate.
  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int i = 0; i < 200; ++i) {
    all_ok = all_ok && engine->RecommendInto(request, &out).ok();
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u)
      << "warm cached RecommendInto entered operator new " << allocs
      << " times over 200 calls";
  EXPECT_FALSE(out.items.empty());
}

TEST_F(AllocationRegressionTest, DistinctWarmEntriesStayAllocFree) {
  // Alternating between several already-cached fingerprints must also
  // stay alloc-free: the reused response's capacity only grows.
  auto engine = MakeEngine();
  RecommendRequest requests[4];
  for (UserId u = 0; u < 4; ++u) {
    requests[u].user = u;
    requests[u].k = 5;
  }
  RecommendResponse out;
  for (int round = 0; round < 3; ++round) {
    for (const RecommendRequest& request : requests) {
      ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
    }
  }

  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int round = 0; round < 50; ++round) {
    for (const RecommendRequest& request : requests) {
      all_ok = all_ok && engine->RecommendInto(request, &out).ok();
    }
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST_F(AllocationRegressionTest, WarmUncachedRecommendIntoIsAllocFree) {
  // With the cache off every call computes: candidate fetch, blend,
  // rerank, explanation and response copy all run on the serving
  // thread's recycled state, so once that state and the reused
  // response are sized, a miss must not allocate either — with or
  // without per-item score breakdowns.
  for (const bool explain : {false, true}) {
    SCOPED_TRACE(explain ? "explain" : "no explain");
    EngineConfig config;
    config.response_cache_capacity = 0;
    auto engine = MakeEngine(config);
    RecommendRequest requests[4];
    for (UserId u = 0; u < 4; ++u) {
      requests[u].user = u;
      requests[u].k = 5;
      requests[u].explain = explain;
    }
    RecommendResponse out;
    for (int round = 0; round < 3; ++round) {
      for (const RecommendRequest& request : requests) {
        ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
      }
    }

    bool all_ok = true;
    g_new_calls.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
    for (int round = 0; round < 50; ++round) {
      for (const RecommendRequest& request : requests) {
        all_ok = all_ok && engine->RecommendInto(request, &out).ok();
      }
    }
    g_counting.store(false, std::memory_order_release);
    const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

    EXPECT_TRUE(all_ok);
    EXPECT_EQ(out.explained, explain);
    EXPECT_EQ(engine->cache_stats().hits, 0u);
    EXPECT_EQ(allocs, 0u)
        << "warm uncached RecommendInto entered operator new " << allocs
        << " times over 200 calls";
  }
}

TEST_F(AllocationRegressionTest, RecomputePathStillProducesResults) {
  // Sanity guard for the counter harness itself: the cold (computing)
  // path does allocate, so the counter must observe traffic there —
  // otherwise a silent counting breakage would make the zero-alloc
  // assertions above vacuous.
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 1;
  request.k = 3;
  RecommendResponse out;

  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  const bool ok = engine->RecommendInto(request, &out).ok();
  g_counting.store(false, std::memory_order_release);

  EXPECT_TRUE(ok);
  EXPECT_GT(g_new_calls.load(std::memory_order_relaxed), 0u);
  EXPECT_FALSE(out.items.empty());
}

TEST_F(AllocationRegressionTest, SingleUserPublishIsPopulationIndependent) {
  // A one-user Apply copies the snapshot's group pointers, one radix
  // group, one leaf and the user's model: the same handful of
  // allocations at a thousand users as at a hundred thousand.
  const sum::AttributeId attribute =
      catalog_.EmotionalId(eit::EmotionalAttribute::kEnthusiastic);
  const auto publish_allocs = [&](UserId population) -> uint64_t {
    sum::SumService service(&catalog_);
    std::vector<sum::SumUpdate> bootstrap;
    for (UserId user = 0; user < population; ++user) {
      bootstrap.push_back(sum::SumUpdate(user).SetSensibility(attribute, 0.5));
    }
    EXPECT_TRUE(service.ApplyAll(bootstrap).ok());
    const sum::SumUpdate update = sum::SumUpdate(7).Reward(attribute, 1.0);
    g_new_calls.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
    const bool ok = service.Apply(update).ok();
    g_counting.store(false, std::memory_order_release);
    EXPECT_TRUE(ok);
    EXPECT_EQ(service.size(), static_cast<size_t>(population));
    return g_new_calls.load(std::memory_order_relaxed);
  };
  const uint64_t small = publish_allocs(1000);
  const uint64_t large = publish_allocs(100000);
  EXPECT_EQ(small, large)
      << "a one-user publish allocates more as the population grows";
  EXPECT_LE(large, 8u);
}

}  // namespace
}  // namespace spa::recsys
