#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/profiler.h"
#include "common/rng.h"
#include "eit/emotion.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/recsys_test_util.h"
#include "sum/sum_service.h"

/// The micro-batch serving path (`RecsysEngine::RecommendMicroBatch`:
/// one lock hold and one pinned snapshot, then admit → candidate-gen →
/// blend → rerank → explain request by request on the calling thread).
/// The load-bearing claim tested here is **bitwise parity**: at the
/// same `BatchPin`, the micro-batch path must
/// reproduce per-request serving (`RecommendBatch`) byte-for-byte —
/// every score, every breakdown field, every error — for every request
/// shape the serving API admits (explain, exclusions, allowlists,
/// overrides, duplicates, invalid requests). The TSAN stress case runs under TSAN in CI
/// (StagePipelineTest is in the TSAN job's ctest regex).

namespace spa::recsys {
namespace {

constexpr size_t kUsers = 60;
constexpr size_t kItems = 40;

/// Engine + matrix + SUM context with deterministic contents.
struct Stack {
  Stack() : catalog(sum::AttributeCatalog::EmagisterDefault()),
            sums(&catalog),
            matrix(4) {
    Rng rng(7, /*stream=*/1);
    for (size_t u = 0; u < kUsers; ++u) {
      const auto base =
          static_cast<ItemId>((u % 2 == 0) ? 0 : kItems / 2);
      for (int j = 0; j < 6; ++j) {
        const auto item = static_cast<ItemId>(
            base +
            rng.UniformInt(0, static_cast<int64_t>(kItems) / 2 - 1));
        matrix.Add(static_cast<UserId>(u), item, rng.Uniform(0.2, 3.0));
      }
    }
    std::vector<sum::SumUpdate> bootstrap;
    for (size_t u = 0; u < kUsers; ++u) {
      sum::SumUpdate update(static_cast<sum::UserId>(u));
      for (eit::EmotionalAttribute attr :
           eit::AllEmotionalAttributes()) {
        if (rng.Bernoulli(0.4)) {
          update.SetSensibility(catalog.EmotionalId(attr),
                                rng.Uniform(0.2, 1.0));
        }
      }
      bootstrap.push_back(std::move(update));
    }
    EXPECT_TRUE(sums.ApplyAll(bootstrap).ok());
  }

  std::unique_ptr<RecsysEngine> MakeEngine(size_t cache_capacity) {
    EngineConfig config;
    config.response_cache_capacity = cache_capacity;
    config.interaction_shards = matrix.shard_count();
    auto engine = std::make_unique<RecsysEngine>(config);
    engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine->AddComponent(std::make_unique<ItemKnnRecommender>(), 0.4);
    Rng rng(7, /*stream=*/3);
    for (size_t i = 0; i < kItems; ++i) {
      EmotionProfile profile{};
      for (double& p : profile) p = rng.Uniform();
      engine->SetItemEmotionProfile(static_cast<ItemId>(i), profile);
    }
    engine->set_sum_service(&sums);
    EXPECT_TRUE(engine->Fit(&matrix).ok());
    return engine;
  }

  sum::AttributeCatalog catalog;
  sum::SumService sums;
  InteractionMatrix matrix;
};

/// Every request shape the serving API admits, plus invalid ones.
std::vector<RecommendRequest> MakeRequestMix(
    const sum::SumService& sums) {
  std::vector<RecommendRequest> requests;
  for (size_t u = 0; u < 20; ++u) {
    RecommendRequest request;
    request.user = static_cast<UserId>(u * 3 % kUsers);
    request.k = 1 + u % 7;
    request.explain = (u % 2 == 0);
    if (u % 3 == 0) {
      request.exclude_items = {static_cast<ItemId>(u % kItems),
                               static_cast<ItemId>((u + 5) % kItems)};
    }
    if (u % 5 == 0) {
      request.candidate_items.emplace();
      for (ItemId item = 0; item < static_cast<ItemId>(kItems);
           item += 2) {
        request.candidate_items->insert(item);
      }
    }
    if (u % 7 == 0) {
      request.emotion_override = sums.snapshot();  // bypasses cache
    }
    requests.push_back(std::move(request));
  }
  // Duplicates: the second copy may hit the cache entry the first one
  // filled; bytes must not change.
  requests.push_back(requests.front());
  requests.push_back(requests[4]);
  // Invalid: k == 0 and an empty allowlist fail validation on both
  // paths with the same verdict.
  RecommendRequest bad_k;
  bad_k.user = 1;
  bad_k.k = 0;
  requests.push_back(bad_k);
  RecommendRequest empty_allowlist;
  empty_allowlist.user = 2;
  empty_allowlist.candidate_items.emplace();
  requests.push_back(empty_allowlist);
  return requests;
}

void ExpectBitwiseEqual(const RecommendResponse& a,
                        const RecommendResponse& b,
                        const std::string& context) {
  EXPECT_EQ(a.user, b.user) << context;
  EXPECT_EQ(a.emotion_applied, b.emotion_applied) << context;
  EXPECT_EQ(a.explained, b.explained) << context;
  ASSERT_EQ(a.items.size(), b.items.size()) << context;
  for (size_t i = 0; i < a.items.size(); ++i) {
    const RecommendedItem& x = a.items[i];
    const RecommendedItem& y = b.items[i];
    EXPECT_EQ(x.item, y.item) << context << " rank " << i;
    EXPECT_EQ(x.score, y.score) << context << " rank " << i;  // bitwise
  }
  ASSERT_EQ(a.breakdowns.size(), b.breakdowns.size()) << context;
  for (size_t i = 0; i < a.breakdowns.size(); ++i) {
    const ScoreBreakdown& x = a.breakdowns[i];
    const ScoreBreakdown& y = b.breakdowns[i];
    EXPECT_EQ(x.base, y.base) << context;
    EXPECT_EQ(x.base_share, y.base_share) << context;
    EXPECT_EQ(x.emotional_alignment, y.emotional_alignment) << context;
    EXPECT_EQ(x.emotion_delta, y.emotion_delta) << context;
    ASSERT_EQ(x.components.size(), y.components.size()) << context;
    for (size_t c = 0; c < x.components.size(); ++c) {
      EXPECT_EQ(x.components[c].component, y.components[c].component)
          << context;
      EXPECT_EQ(x.components[c].contribution,
                y.components[c].contribution)
          << context;
    }
  }
}

void ExpectSameResults(
    const std::vector<spa::Result<RecommendResponse>>& staged,
    const std::vector<spa::Result<RecommendResponse>>& reference,
    const std::string& context) {
  ASSERT_EQ(staged.size(), reference.size()) << context;
  for (size_t i = 0; i < staged.size(); ++i) {
    const std::string at = context + " request " + std::to_string(i);
    ASSERT_EQ(staged[i].ok(), reference[i].ok()) << at;
    if (!staged[i].ok()) continue;
    ExpectBitwiseEqual(staged[i].value(), reference[i].value(), at);
  }
}

class StagePipelineTest : public ::testing::Test {
 protected:
  Stack stack_;
};

TEST_F(StagePipelineTest, StagedMatchesBatchBitwiseOnColdEngines) {
  // Two identically-fitted engines, both computing from scratch: the
  // caller-thread micro-batch must reproduce the parallel batch
  // byte-for-byte, same pins, same errors.
  auto staged_engine = stack_.MakeEngine(/*cache_capacity=*/0);
  auto batch_engine = stack_.MakeEngine(/*cache_capacity=*/0);
  const auto requests = MakeRequestMix(stack_.sums);

  BatchPin staged_pin, batch_pin;
  const auto staged =
      staged_engine->RecommendMicroBatch(requests, &staged_pin);
  const auto batched = batch_engine->RecommendBatch(requests, &batch_pin);
  ExpectSameResults(staged, batched, "cold");
  EXPECT_EQ(staged_pin.fit_epoch, batch_pin.fit_epoch);
  EXPECT_EQ(staged_pin.matrix_version, batch_pin.matrix_version);
  EXPECT_EQ(staged_pin.sum_version, batch_pin.sum_version);
}

TEST_F(StagePipelineTest, StagedMatchesBatchThroughCacheAndUpdates) {
  // One engine, served in alternating micro-batch/parallel rounds across
  // a live-update boundary: cache hits, recomputes and re-stamped
  // entries must all produce identical bytes on both paths.
  auto engine = stack_.MakeEngine(/*cache_capacity=*/256);
  const auto requests = MakeRequestMix(stack_.sums);

  const auto round1_staged = engine->RecommendMicroBatch(requests);
  const auto round1_batch = engine->RecommendBatch(requests);
  ExpectSameResults(round1_staged, round1_batch, "warm");
  EXPECT_GT(engine->cache_stats().hits, 0u);

  std::vector<Interaction> batch = {{2, 1, 1.0}, {5, 7, 0.5},
                                    {2, 3, 2.0}};
  ASSERT_TRUE(engine->ApplyInteractions(batch).ok());

  const auto round2_staged = engine->RecommendMicroBatch(requests);
  const auto round2_batch = engine->RecommendBatch(requests);
  ExpectSameResults(round2_staged, round2_batch, "post-update");
}

TEST_F(StagePipelineTest, StagedBatchRecordsLeveledProfilerItems) {
  auto engine = stack_.MakeEngine(/*cache_capacity=*/0);
  std::vector<RecommendRequest> requests;
  for (size_t u = 0; u < 8; ++u) {
    RecommendRequest request;
    request.user = static_cast<UserId>(u);
    request.k = 3;
    requests.push_back(request);
  }
  (void)engine->RecommendMicroBatch(requests);

  const ProfilerSnapshot snap =
      engine->profiler().Snapshot(ProfilerLevel::kL3);
  for (const ProfilerItemSnapshot& s : snap.items) {
    switch (s.item) {
      case ProfilerItem::kBatchServe:
        EXPECT_EQ(s.count, 1u);
        break;
      case ProfilerItem::kRequestServe:
        // Each request of the micro-batch is one per-request serve.
        EXPECT_EQ(s.count, requests.size());
        break;
      case ProfilerItem::kStageCandidateGen:
      case ProfilerItem::kStageBlend:
      case ProfilerItem::kStageRerank:
      case ProfilerItem::kStageExplain:
        EXPECT_EQ(s.count, requests.size()) << s.name;
        // One histogram recording per stage execution, exactly.
        EXPECT_EQ(s.histogram.total(), s.count) << s.name;
        break;
      case ProfilerItem::kCandidateComponent:
        // Two components per request.
        EXPECT_EQ(s.count, 2 * requests.size());
        break;
      default:
        break;
    }
  }
  // The L2 export carries the same per-stage counts.
  EXPECT_EQ(
      L2Item(engine->profiler(), ProfilerItem::kStageCandidateGen).count,
      requests.size());
  EXPECT_EQ(L2Item(engine->profiler(), ProfilerItem::kStageRerank).count,
            requests.size());
}

TEST_F(StagePipelineTest, MicroBatchDuplicateHitsTheEntryItsFirstCopyFilled) {
  // Requests are served in order, so a repeated request finds the
  // cache entry its first copy inserted: only the counters show it.
  auto engine = stack_.MakeEngine(/*cache_capacity=*/16);
  RecommendRequest request;
  request.user = 3;
  request.k = 4;
  request.explain = true;
  const auto results = engine->RecommendMicroBatch({request, request});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  ExpectBitwiseEqual(results[0].value(), results[1].value(), "duplicate");
  EXPECT_EQ(engine->cache_stats().misses, 1u);
  EXPECT_EQ(engine->cache_stats().hits, 1u);
}

TEST_F(StagePipelineTest, TsanStressStagedServeWhileUpdating) {
  // Micro-batches racing live updates and SUM publishes: each one
  // holds the shared serve lock for the whole batch while the profiler
  // records from every thread. Run under TSAN in CI.
  auto engine = stack_.MakeEngine(/*cache_capacity=*/64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &stop, t] {
      std::vector<RecommendRequest> requests;
      for (size_t u = 0; u < 6; ++u) {
        RecommendRequest request;
        request.user =
            static_cast<UserId>((t * 11 + u * 5) % kUsers);
        request.k = 4;
        request.explain = (u % 2 == 0);
        requests.push_back(request);
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const auto results = engine->RecommendMicroBatch(requests);
        for (const auto& result : results) {
          EXPECT_TRUE(result.ok());
        }
      }
    });
  }
  std::thread writer([&engine, &stop] {
    Rng rng(13);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Interaction> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(
            {static_cast<UserId>(rng.UniformInt(0, kUsers - 1)),
             static_cast<ItemId>(rng.UniformInt(0, kItems - 1)),
             rng.Uniform(0.2, 2.0)});
      }
      EXPECT_TRUE(engine->ApplyInteractions(batch).ok());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  writer.join();
  // Quiescent now: every stage histogram agrees with its counter.
  for (const ProfilerItem item :
       {ProfilerItem::kStageCandidateGen, ProfilerItem::kStageRerank,
        ProfilerItem::kStageCacheLookup}) {
    const ProfilerItemSnapshot stage = L2Item(engine->profiler(), item);
    EXPECT_EQ(stage.histogram.total(), stage.count) << stage.name;
  }
}

}  // namespace
}  // namespace spa::recsys
