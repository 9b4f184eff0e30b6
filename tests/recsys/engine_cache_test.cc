#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"
#include "recsys/request.h"
#include "sum/sum_service.h"

namespace spa::recsys {
namespace {

/// Live threads of this process (Linux: one /proc/self/task entry each).
size_t ProcessThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(
      std::distance(std::filesystem::begin(tasks),
                    std::filesystem::end(tasks)));
}

/// Fixture: engine over the two-community matrix with emotional
/// context wired through a SumService, exercising the response cache.
class EngineCacheTest : public ::testing::Test {
 protected:
  EngineCacheTest()
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

  void SetItemProfiles(RecsysEngine* engine) {
    for (ItemId item = 0; item < 10; ++item) {
      EmotionProfile profile{};
      profile[static_cast<size_t>(
          eit::EmotionalAttribute::kEnthusiastic)] =
          static_cast<double>(item) / 10.0;
      engine->SetItemEmotionProfile(item, profile);
    }
  }

  sum::AttributeId Enthusiastic() const {
    return catalog_.EmotionalId(eit::EmotionalAttribute::kEnthusiastic);
  }

  static void ExpectSameItems(const RecommendResponse& a,
                              const RecommendResponse& b) {
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].item, b.items[i].item);
      EXPECT_EQ(a.items[i].score, b.items[i].score);  // bitwise
    }
  }

  InteractionMatrix matrix_;
  sum::AttributeCatalog catalog_;
  sum::SumService sums_;
};

TEST_F(EngineCacheTest, SecondIdenticalRecommendIsServedFromCache) {
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.8))
          .ok());
  auto engine = MakeEngine();
  SetItemProfiles(engine.get());

  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  const auto first = engine->Recommend(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  EXPECT_EQ(engine->cache_stats().misses, 1u);

  const auto second = engine->Recommend(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  EXPECT_EQ(engine->cache_stats().misses, 1u);
  ExpectSameItems(first.value(), second.value());
}

TEST_F(EngineCacheTest, SumUpdateToUserInvalidatesExactlyThatUser) {
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.8))
          .ok());
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(1).SetSensibility(Enthusiastic(), 0.5))
          .ok());
  auto engine = MakeEngine();
  SetItemProfiles(engine.get());

  RecommendRequest for_user0;
  for_user0.user = 0;
  for_user0.k = 3;
  RecommendRequest for_user1;
  for_user1.user = 1;
  for_user1.k = 3;
  ASSERT_TRUE(engine->Recommend(for_user0).ok());
  ASSERT_TRUE(engine->Recommend(for_user1).ok());

  // One update lands for user 0.
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.1))
          .ok());

  // User 1's entry still hits; user 0's entry is stale and recomputes
  // against the new snapshot.
  ASSERT_TRUE(engine->Recommend(for_user1).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  const auto refreshed = engine->Recommend(for_user0);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  EXPECT_EQ(engine->cache_stats().stale_evictions, 1u);

  // And the recomputed response is cached again.
  ASSERT_TRUE(engine->Recommend(for_user0).ok());
  EXPECT_EQ(engine->cache_stats().hits, 2u);
}

TEST_F(EngineCacheTest, CachedResponseReflectsPreUpdateRanking) {
  // The cache must serve the *same bytes* as the original computation,
  // and recompute only after the invalidating update.
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.9))
          .ok());
  auto engine = MakeEngine();
  SetItemProfiles(engine.get());

  RecommendRequest request;
  request.user = 0;
  request.k = 2;
  request.exclude_seen = ExcludeSeen::kNo;
  const auto before = engine->Recommend(request);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.0))
          .ok());
  const auto after = engine->Recommend(request);
  ASSERT_TRUE(after.ok());
  // Emotion stage still applies (model exists) but alignment changed;
  // scores must differ from the cached pre-update response.
  ASSERT_FALSE(after.value().items.empty());
  EXPECT_NE(before.value().items.front().score,
            after.value().items.front().score);
}

TEST_F(EngineCacheTest, RequestFingerprintSeparatesEntries) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  ASSERT_TRUE(engine->Recommend(request).ok());

  RecommendRequest different_k = request;
  different_k.k = 4;
  RecommendRequest with_exclusion = request;
  with_exclusion.exclude_items = {2};
  RecommendRequest with_explain = request;
  with_explain.explain = true;
  RecommendRequest relaxed = request;
  relaxed.exclude_seen = ExcludeSeen::kNo;
  ASSERT_TRUE(engine->Recommend(different_k).ok());
  ASSERT_TRUE(engine->Recommend(with_exclusion).ok());
  ASSERT_TRUE(engine->Recommend(with_explain).ok());
  ASSERT_TRUE(engine->Recommend(relaxed).ok());
  // Five distinct fingerprints: no hit yet, five live entries.
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  EXPECT_EQ(engine->cache_size(), 5u);

  // Each repeats as a hit.
  ASSERT_TRUE(engine->Recommend(request).ok());
  ASSERT_TRUE(engine->Recommend(different_k).ok());
  ASSERT_TRUE(engine->Recommend(with_exclusion).ok());
  ASSERT_TRUE(engine->Recommend(with_explain).ok());
  ASSERT_TRUE(engine->Recommend(relaxed).ok());
  EXPECT_EQ(engine->cache_stats().hits, 5u);
}

TEST_F(EngineCacheTest, ZeroCapacityDisablesCache) {
  EngineConfig config;
  config.response_cache_capacity = 0;
  auto engine = MakeEngine(config);
  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  ASSERT_TRUE(engine->Recommend(request).ok());
  ASSERT_TRUE(engine->Recommend(request).ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  EXPECT_EQ(engine->cache_stats().misses, 0u);
  EXPECT_EQ(engine->cache_size(), 0u);
}

TEST_F(EngineCacheTest, OverrideRequestsBypassCache) {
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.8))
          .ok());
  auto engine = MakeEngine();
  SetItemProfiles(engine.get());

  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  request.emotion_override = sums_.snapshot();
  ASSERT_TRUE(engine->Recommend(request).ok());
  ASSERT_TRUE(engine->Recommend(request).ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  EXPECT_EQ(engine->cache_stats().misses, 0u);
  EXPECT_EQ(engine->cache_size(), 0u);
}

TEST_F(EngineCacheTest, MatrixMutationWithoutRefitInvalidates) {
  // Index-free recommenders serve from the live matrix (e.g. the seen
  // filter), so a mutation after Fit must stop cached entries from
  // matching even before anyone refits. (Indexed KNN components
  // instead hard-fail on post-Fit mutation — covered in
  // similarity_index_test.cc — so this engine uses the lazy path.)
  auto engine = std::make_unique<RecsysEngine>(EngineConfig{});
  engine->AddComponent(std::make_unique<UserKnnRecommender>(
                           KnnConfig{.use_index = false}),
                       0.6);
  engine->AddComponent(std::make_unique<PopularityRecommender>(), 0.4);
  engine->set_sum_service(&sums_);
  ASSERT_TRUE(engine->Fit(matrix_).ok());
  RecommendRequest request;
  request.user = 0;
  request.k = 5;
  const auto before = engine->Recommend(request);
  ASSERT_TRUE(before.ok());
  const ItemId top = before.value().items.front().item;

  matrix_.Add(0, top, 1.0);  // user 0 just saw the top item
  const auto after = engine->Recommend(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  EXPECT_EQ(engine->cache_stats().stale_evictions, 1u);
  // The recomputed response excludes the now-seen item.
  for (const auto& item : after.value().items) {
    EXPECT_NE(item.item, top);
  }
}

TEST_F(EngineCacheTest, RefitClearsCache) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  ASSERT_TRUE(engine->Recommend(request).ok());
  EXPECT_EQ(engine->cache_size(), 1u);

  matrix_.Add(0, 7, 2.0);  // matrix changed...
  ASSERT_TRUE(engine->Fit(matrix_).ok());  // ...and the stack refitted
  EXPECT_EQ(engine->cache_size(), 0u);
  const auto refreshed = engine->Recommend(request);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);
}

TEST_F(EngineCacheTest, LruEvictsBeyondCapacity) {
  EngineConfig config;
  config.response_cache_capacity = 4;
  auto engine = MakeEngine(config);
  for (UserId u = 0; u < 8; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  EXPECT_EQ(engine->cache_size(), 4u);
  EXPECT_EQ(engine->cache_stats().capacity_evictions, 4u);

  // The most recent four (users 4..7) still hit; the oldest are gone.
  RecommendRequest request;
  request.k = 3;
  request.user = 7;
  ASSERT_TRUE(engine->Recommend(request).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  request.user = 0;
  ASSERT_TRUE(engine->Recommend(request).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);  // miss: evicted
}

// ---- frequency-aware tiering ----------------------------------------------

TEST_F(EngineCacheTest, FrequencyAdmissionProtectsHotSetFromOneHitWonders) {
  EngineConfig config;
  config.response_cache_capacity = 2;
  auto engine = MakeEngine(config);

  // Users 0 and 1 are hot: five accesses each.
  for (int round = 0; round < 5; ++round) {
    for (UserId u = 0; u < 2; ++u) {
      RecommendRequest request;
      request.user = u;
      request.k = 3;
      ASSERT_TRUE(engine->Recommend(request).ok());
    }
  }
  EXPECT_DOUBLE_EQ(engine->user_frequency(0), 5.0);
  EXPECT_DOUBLE_EQ(engine->user_frequency(1), 5.0);
  const uint64_t hot_hits = engine->cache_stats().hits;

  // A parade of one-hit wonders. Under plain LRU each would evict a
  // hot entry; frequency admission refuses them (1 access < 5).
  for (UserId u = 10; u < 16; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  EXPECT_EQ(engine->cache_stats().admission_rejections, 6u);
  EXPECT_EQ(engine->cache_stats().capacity_evictions, 0u);
  EXPECT_EQ(engine->cache_size(), 2u);

  // The hot set is intact: both users still hit.
  for (UserId u = 0; u < 2; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  EXPECT_EQ(engine->cache_stats().hits, hot_hits + 2);
}

TEST_F(EngineCacheTest, AdmissionRejectionNeverChangesServedBytes) {
  // Rejected-from-cache responses are still full computes: the
  // admission policy controls memoization only, never bytes.
  EngineConfig tiered;
  tiered.response_cache_capacity = 2;
  auto engine = MakeEngine(tiered);
  EngineConfig uncached;
  uncached.response_cache_capacity = 0;
  auto reference = MakeEngine(uncached);

  for (int round = 0; round < 3; ++round) {
    RecommendRequest request;
    request.user = 0;
    request.k = 4;
    ASSERT_TRUE(engine->Recommend(request).ok());
    request.user = 1;
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  for (UserId u = 5; u < 9; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 4;
    const auto got = engine->Recommend(request);
    const auto want = reference->Recommend(request);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectSameItems(got.value(), want.value());
    EXPECT_FALSE(got.value().degraded);
  }
  EXPECT_GT(engine->cache_stats().admission_rejections, 0u);
}

TEST_F(EngineCacheTest, FrequencyDecayRunsOnTheLookupCadence) {
  // Decay runs on every kCacheDecayInterval-th cacheable lookup.
  static_assert(kCacheDecayFactor == 0.5);
  constexpr double kEpoch = static_cast<double>(kCacheDecayInterval);
  EngineConfig config;
  config.response_cache_capacity = 8;
  auto engine = MakeEngine(config);

  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  for (uint64_t i = 0; i + 1 < kCacheDecayInterval; ++i) {
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  EXPECT_EQ(engine->user_frequency_stats().decay_epochs, 0u);
  EXPECT_DOUBLE_EQ(engine->user_frequency(0), kEpoch - 1.0);
  ASSERT_TRUE(engine->Recommend(request).ok());
  // kCacheDecayInterval touches then one decay epoch: N * 0.5.
  EXPECT_EQ(engine->user_frequency_stats().decay_epochs, 1u);
  EXPECT_DOUBLE_EQ(engine->user_frequency(0), kEpoch * 0.5);

  for (uint64_t i = 0; i < kCacheDecayInterval; ++i) {
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  EXPECT_EQ(engine->user_frequency_stats().decay_epochs, 2u);
  // (N * 0.5 + N) * 0.5
  EXPECT_DOUBLE_EQ(engine->user_frequency(0), (kEpoch * 0.5 + kEpoch) * 0.5);
}

// ---- popularity fallback tier ---------------------------------------------

TEST_F(EngineCacheTest, FallbackServesDegradedPopularityRanking) {
  auto engine = MakeEngine();
  SetItemProfiles(engine.get());

  RecommendRequest request;
  request.user = 0;
  request.k = 4;
  BatchPin pin;
  const auto fallback = engine->RecommendFallback(request, &pin);
  ASSERT_TRUE(fallback.ok());
  EXPECT_TRUE(fallback.value().degraded);
  EXPECT_FALSE(fallback.value().explained);
  EXPECT_FALSE(fallback.value().emotion_applied);
  EXPECT_EQ(pin.matrix_version, matrix_.version());
  ASSERT_FALSE(fallback.value().items.empty());
  // Ranked best-first with ties broken by ascending item id — the
  // popularity contract.
  for (size_t i = 1; i < fallback.value().items.size(); ++i) {
    const auto& prev = fallback.value().items[i - 1];
    const auto& cur = fallback.value().items[i];
    EXPECT_TRUE(prev.score > cur.score ||
                (prev.score == cur.score && prev.item < cur.item));
  }

  // Deterministic: a second engine over the same matrix produces the
  // same degraded bytes.
  auto reference = MakeEngine();
  const auto again = reference->RecommendFallback(request);
  ASSERT_TRUE(again.ok());
  ExpectSameItems(fallback.value(), again.value());
  EXPECT_TRUE(again.value().degraded);

  // The full path is NOT the fallback path: full responses are never
  // flagged degraded, and the fallback never touches the cache.
  EXPECT_EQ(engine->cache_size(), 0u);
  const auto full = engine->Recommend(request);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.value().degraded);
}

TEST_F(EngineCacheTest, FallbackHonorsExclusionsAndValidation) {
  auto engine = MakeEngine();

  RecommendRequest request;
  request.user = 0;
  request.k = 50;
  request.exclude_seen = ExcludeSeen::kNo;
  const auto all = engine->RecommendFallback(request);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().items.size(), 1u);
  const ItemId banned = all.value().items[0].item;

  request.exclude_items.insert(banned);
  const auto filtered = engine->RecommendFallback(request);
  ASSERT_TRUE(filtered.ok());
  for (const auto& item : filtered.value().items) {
    EXPECT_NE(item.item, banned);
  }

  RecommendRequest invalid;
  invalid.user = 0;
  invalid.k = 0;
  EXPECT_FALSE(engine->RecommendFallback(invalid).ok());
}

// ---- concurrent serve-while-update ----------------------------------------

TEST_F(EngineCacheTest, PinnedSnapshotServesStableRankingsUnderUpdates) {
  // Readers serving against a pinned snapshot must observe rankings
  // identical to the pinned version no matter how many SumUpdates land
  // concurrently. Run under TSAN to certify the data-race freedom.
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.5))
          .ok());
  auto engine = MakeEngine();
  SetItemProfiles(engine.get());

  const sum::SumSnapshotPtr pinned = sums_.snapshot();
  RecommendRequest pinned_request;
  pinned_request.user = 0;
  pinned_request.k = 4;
  pinned_request.exclude_seen = ExcludeSeen::kNo;
  pinned_request.emotion_override = pinned;
  const auto expected = engine->Recommend(pinned_request);
  ASSERT_TRUE(expected.ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto response = engine->Recommend(pinned_request);
        if (!response.ok() ||
            response.value().items.size() !=
                expected.value().items.size()) {
          mismatch.store(true);
          return;
        }
        for (size_t i = 0; i < response.value().items.size(); ++i) {
          if (response.value().items[i].item !=
                  expected.value().items[i].item ||
              response.value().items[i].score !=
                  expected.value().items[i].score) {
            mismatch.store(true);
            return;
          }
        }
      }
    });
  }
  // A live reader exercises the service-pinning + cache path under
  // concurrent writes (responses must stay well-formed).
  std::thread live_reader([&] {
    RecommendRequest live = pinned_request;
    live.emotion_override = nullptr;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto response = engine->Recommend(live);
      if (!response.ok()) {
        mismatch.store(true);
        return;
      }
    }
  });

  // The writer mutates user 0's emotional context the whole time.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(sums_
                    .Apply(sum::SumUpdate(0).SetSensibility(
                        Enthusiastic(), (i % 10) / 10.0))
                    .ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  live_reader.join();
  EXPECT_FALSE(mismatch.load());

  // The pinned view itself never moved.
  EXPECT_EQ(pinned->UserVersion(0), 1u);
  EXPECT_EQ(sums_.UserVersion(0), 501u);
}

TEST_F(EngineCacheTest, StageLatencyCountersAccumulate) {
  auto engine = MakeEngine();
  const Profiler& profiler = engine->profiler();
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageCandidateGen).count, 0u);

  for (UserId u = 0; u < 3; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    ASSERT_TRUE(engine->Recommend(request).ok());
  }
  const ProfilerItemSnapshot candidate_gen =
      L2Item(profiler, ProfilerItem::kStageCandidateGen);
  EXPECT_EQ(candidate_gen.count, 3u);
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageRerank).count, 3u);
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageCacheLookup).count, 3u);
  EXPECT_GE(candidate_gen.total_seconds, candidate_gen.max_seconds);
  EXPECT_GT(candidate_gen.max_seconds, 0.0);

  // A cache hit probes the cache but recomputes nothing.
  RecommendRequest repeat;
  repeat.user = 0;
  repeat.k = 3;
  ASSERT_TRUE(engine->Recommend(repeat).ok());
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageCacheLookup).count, 4u);
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageCandidateGen).count, 3u);
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageRerank).count, 3u);
}

TEST_F(EngineCacheTest, StageHistogramTotalsMatchStageCounters) {
  // The latency histograms record exactly once per stage execution, so
  // their totals must equal the existing counters — on the computed
  // path and on cache hits (which probe the cache but skip the
  // compute stages).
  auto engine = MakeEngine();
  for (UserId u = 0; u < 5; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    ASSERT_TRUE(engine->Recommend(request).ok());
    ASSERT_TRUE(engine->Recommend(request).ok());  // cache hit
  }
  const Profiler& profiler = engine->profiler();
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageCandidateGen).count, 5u);
  EXPECT_EQ(L2Item(profiler, ProfilerItem::kStageCacheLookup).count, 10u);
  for (const ProfilerItem item :
       {ProfilerItem::kStageCandidateGen, ProfilerItem::kStageRerank,
        ProfilerItem::kStageCacheLookup}) {
    const ProfilerItemSnapshot stage = L2Item(profiler, item);
    EXPECT_EQ(stage.histogram.total(), stage.count) << stage.name;
    EXPECT_LE(stage.p50_seconds, stage.p95_seconds) << stage.name;
    EXPECT_LE(stage.p95_seconds, stage.p99_seconds) << stage.name;
    EXPECT_GT(stage.p50_seconds, 0.0) << stage.name;
    // The max counter cannot sit below the histogram's p99 by more
    // than one bucket width (both saw the same samples).
    EXPECT_LE(stage.p99_seconds,
              std::max(stage.max_seconds * 1.34, 1e-7 * 1.34))
        << stage.name;
  }
}

TEST_F(EngineCacheTest, RecommendBatchReportsItsPin) {
  auto engine = MakeEngine();
  std::vector<RecommendRequest> requests;
  for (UserId u = 0; u < 4; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    requests.push_back(std::move(request));
  }
  BatchPin pin;
  const auto responses = engine->RecommendBatch(requests, &pin);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(pin.fit_epoch, 1u);
  EXPECT_EQ(pin.matrix_version, matrix_.version());
  EXPECT_EQ(pin.sum_version, sums_.version());

  // The caller-thread micro-batch path is byte-identical at the same
  // pin.
  BatchPin staged_pin;
  const auto staged_responses =
      engine->RecommendMicroBatch(requests, &staged_pin);
  EXPECT_EQ(staged_pin.fit_epoch, pin.fit_epoch);
  EXPECT_EQ(staged_pin.matrix_version, pin.matrix_version);
  EXPECT_EQ(staged_pin.sum_version, pin.sum_version);
  ASSERT_EQ(staged_responses.size(), responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok());
    ASSERT_TRUE(staged_responses[i].ok());
    ExpectSameItems(responses[i].value(), staged_responses[i].value());
  }
}

TEST_F(EngineCacheTest, EmptyBatchesPinWithoutSpawningThePool) {
  // Both batch entry points pin through one shared helper: an empty
  // batch still reports the engine's current consistency point, and the
  // parallel path must not create its worker pool for it.
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.5))
          .ok());
  EngineConfig config;
  config.batch_threads = 4;
  auto engine = MakeEngine(config);
  const size_t threads_before = ProcessThreadCount();

  BatchPin batch_pin;
  EXPECT_TRUE(engine->RecommendBatch({}, &batch_pin).empty());
  EXPECT_EQ(ProcessThreadCount(), threads_before);  // no pool spawned
  BatchPin staged_pin;
  EXPECT_TRUE(engine->RecommendMicroBatch({}, &staged_pin).empty());

  for (const BatchPin& pin : {batch_pin, staged_pin}) {
    EXPECT_EQ(pin.fit_epoch, 1u);
    EXPECT_EQ(pin.matrix_version, matrix_.version());
    EXPECT_EQ(pin.sum_version, sums_.version());
  }
  EXPECT_GT(staged_pin.sum_version, 0u);

  // A non-empty batch does spawn the pool (the probe is live). At
  // least: a runtime may add helper threads of its own when the first
  // thread starts (TSan's background thread does), so only the lower
  // bound is the engine's.
  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  ASSERT_TRUE(engine->RecommendBatch({request})[0].ok());
  EXPECT_GE(ProcessThreadCount(), threads_before + 4);
}

TEST_F(EngineCacheTest, RecommendBatchPinsOneSnapshotForTheWholeBatch) {
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.5))
          .ok());
  EngineConfig config;
  config.batch_threads = 4;
  auto engine = MakeEngine(config);
  SetItemProfiles(engine.get());

  // The same request repeated across one batch: because the whole
  // batch serves against one pinned snapshot, the copies must come
  // back identical even while updates to that user land concurrently.
  // (Per-request pinning would let later copies observe newer
  // context.)
  std::vector<RecommendRequest> requests;
  for (int i = 0; i < 8; ++i) {
    RecommendRequest request;
    request.user = 0;
    request.k = 4;
    request.exclude_seen = ExcludeSeen::kNo;
    requests.push_back(std::move(request));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(sums_
                      .Apply(sum::SumUpdate(0).SetSensibility(
                          Enthusiastic(), (i++ % 10) / 10.0))
                      .ok());
    }
  });
  for (int round = 0; round < 50; ++round) {
    const auto results = engine->RecommendBatch(requests);
    ASSERT_TRUE(results.front().ok());
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok());
      ExpectSameItems(results.front().value(), result.value());
    }
  }
  stop.store(true);
  writer.join();
}

TEST_F(EngineCacheTest, RecommendBatchWhileUpdatesLand) {
  ASSERT_TRUE(
      sums_.Apply(sum::SumUpdate(0).SetSensibility(Enthusiastic(), 0.5))
          .ok());
  EngineConfig config;
  config.batch_threads = 4;
  auto engine = MakeEngine(config);
  SetItemProfiles(engine.get());

  std::vector<RecommendRequest> requests;
  for (UserId u = 0; u < 10; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 3;
    requests.push_back(std::move(request));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(sums_
                      .Apply(sum::SumUpdate(i % 10).Reward(
                          Enthusiastic(), 0.05))
                      .ok());
      ++i;
    }
  });
  for (int round = 0; round < 50; ++round) {
    const auto results = engine->RecommendBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok());
    }
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace spa::recsys
