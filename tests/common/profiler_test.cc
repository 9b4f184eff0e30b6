#include "common/profiler.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace spa {
namespace {

TEST(ProfilerTest, ItemNamesAndLevelsAreStable) {
  EXPECT_STREQ(ProfilerItemName(ProfilerItem::kRequestServe),
               "request.serve");
  EXPECT_STREQ(ProfilerItemName(ProfilerItem::kStageCandidateGen),
               "stage.candidate_gen");
  EXPECT_STREQ(ProfilerItemName(ProfilerItem::kRerankSort),
               "rerank.sort");
  EXPECT_EQ(ProfilerItemLevel(ProfilerItem::kBatchServe),
            ProfilerLevel::kL1);
  EXPECT_EQ(ProfilerItemLevel(ProfilerItem::kStageBlend),
            ProfilerLevel::kL2);
  EXPECT_EQ(ProfilerItemLevel(ProfilerItem::kApplyItemShardGroup),
            ProfilerLevel::kL3);
}

TEST(ProfilerTest, RecordAccumulatesCountTotalAndMax) {
  Profiler profiler;
  profiler.Record(ProfilerItem::kRequestServe, 0.010);
  profiler.Record(ProfilerItem::kRequestServe, 0.030);
  profiler.Record(ProfilerItem::kRequestServe, 0.020);
  const ProfilerSnapshot snap = profiler.Snapshot(ProfilerLevel::kL1);
  ASSERT_FALSE(snap.items.empty());
  const ProfilerItemSnapshot& s = snap.items.front();
  EXPECT_EQ(s.item, ProfilerItem::kRequestServe);
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.total_seconds, 0.060, 1e-6);
  EXPECT_NEAR(s.max_seconds, 0.030, 1e-6);
  EXPECT_GT(s.p50_seconds, 0.0);
  EXPECT_LE(s.p50_seconds, s.p95_seconds);
  EXPECT_LE(s.p95_seconds, s.p99_seconds);
}

TEST(ProfilerTest, SnapshotFiltersByMaxLevel) {
  Profiler profiler;
  const auto level_of = [](const ProfilerSnapshot& snap) {
    int max_level = 0;
    for (const ProfilerItemSnapshot& s : snap.items) {
      max_level = std::max(max_level, s.level);
    }
    return max_level;
  };
  const ProfilerSnapshot l1 = profiler.Snapshot(ProfilerLevel::kL1);
  const ProfilerSnapshot l2 = profiler.Snapshot(ProfilerLevel::kL2);
  const ProfilerSnapshot l3 = profiler.Snapshot(ProfilerLevel::kL3);
  EXPECT_EQ(level_of(l1), 1);
  EXPECT_EQ(level_of(l2), 2);
  EXPECT_EQ(level_of(l3), 3);
  EXPECT_LT(l1.items.size(), l2.items.size());
  EXPECT_LT(l2.items.size(), l3.items.size());
  EXPECT_EQ(l3.items.size(), kProfilerItemCount);
}

TEST(ProfilerTest, HistogramTotalMatchesCountAtEveryLevel) {
  Profiler profiler;
  const std::vector<std::pair<ProfilerItem, size_t>> plan = {
      {ProfilerItem::kRequestServe, 7},
      {ProfilerItem::kBatchServe, 2},
      {ProfilerItem::kStageCandidateGen, 7},
      {ProfilerItem::kStageExplain, 7},
      {ProfilerItem::kCandidateComponent, 14},
      {ProfilerItem::kApplyUserShardGroup, 3},
  };
  for (const auto& [item, n] : plan) {
    for (size_t i = 0; i < n; ++i) {
      profiler.Record(item, 1e-5 * static_cast<double>(i + 1));
    }
  }
  // On a quiescent profiler every item's histogram total equals its
  // counter, cumulative and per-epoch alike.
  for (const bool current_epoch : {false, true}) {
    const ProfilerSnapshot snap =
        profiler.Snapshot(ProfilerLevel::kL3, current_epoch);
    ASSERT_EQ(snap.items.size(), kProfilerItemCount);
    for (const ProfilerItemSnapshot& s : snap.items) {
      EXPECT_EQ(s.histogram.total(), s.count) << s.name;
    }
  }
}

TEST(ProfilerTest, EpochRolloverResetsEpochBankOnly) {
  Profiler profiler;
  profiler.Record(ProfilerItem::kStageBlend, 0.002);
  profiler.Record(ProfilerItem::kStageBlend, 0.004);
  EXPECT_EQ(profiler.epochs(), 0u);

  const auto blend_item = [](const ProfilerSnapshot& snap) {
    for (const ProfilerItemSnapshot& s : snap.items) {
      if (s.item == ProfilerItem::kStageBlend) return s;
    }
    return ProfilerItemSnapshot{};
  };
  const ProfilerItemSnapshot before_epoch = blend_item(
      profiler.Snapshot(ProfilerLevel::kL2, /*current_epoch=*/true));
  EXPECT_EQ(before_epoch.count, 2u);

  profiler.AdvanceEpoch();
  EXPECT_EQ(profiler.epochs(), 1u);

  const ProfilerItemSnapshot epoch = blend_item(
      profiler.Snapshot(ProfilerLevel::kL2, /*current_epoch=*/true));
  EXPECT_EQ(epoch.count, 0u);
  EXPECT_EQ(epoch.total_seconds, 0.0);
  EXPECT_EQ(epoch.max_seconds, 0.0);
  EXPECT_EQ(epoch.histogram.total(), 0u);

  const ProfilerItemSnapshot cumulative =
      blend_item(profiler.Snapshot(ProfilerLevel::kL2));
  EXPECT_EQ(cumulative.count, 2u);
  EXPECT_NEAR(cumulative.total_seconds, 0.006, 1e-6);

  // The next epoch accumulates fresh.
  profiler.Record(ProfilerItem::kStageBlend, 0.001);
  const ProfilerItemSnapshot next = blend_item(
      profiler.Snapshot(ProfilerLevel::kL2, /*current_epoch=*/true));
  EXPECT_EQ(next.count, 1u);
  EXPECT_EQ(blend_item(profiler.Snapshot(ProfilerLevel::kL2)).count, 3u);
}

TEST(ProfilerTest, ExportJsonCarriesLeveledItems) {
  Profiler profiler;
  profiler.Record(ProfilerItem::kRequestServe, 0.001);
  profiler.AdvanceEpoch();
  const std::string l2 = profiler.ExportJson(ProfilerLevel::kL2);
  EXPECT_NE(l2.find("\"level\": 2"), std::string::npos);  // export depth
  EXPECT_NE(l2.find("\"epochs\": 1"), std::string::npos);
  EXPECT_NE(l2.find("\"request.serve\""), std::string::npos);
  EXPECT_NE(l2.find("\"stage.blend\""), std::string::npos);
  EXPECT_EQ(l2.find("\"rerank.sort\""), std::string::npos);  // L3 item
  const std::string l3 =
      profiler.ExportItemsJson(ProfilerLevel::kL3, /*indent=*/0);
  EXPECT_NE(l3.find("\"rerank.sort\""), std::string::npos);
  EXPECT_NE(l3.find("\"apply.user_shard_group\""), std::string::npos);
}

TEST(ProfilerTest, ConcurrentRecordingLosesNothing) {
  Profiler profiler;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profiler] {
      for (size_t i = 0; i < kPerThread; ++i) {
        profiler.Record(ProfilerItem::kStageRerank,
                        1e-6 * static_cast<double>(i % 100 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const ProfilerItemSnapshot& s :
       profiler.Snapshot(ProfilerLevel::kL2).items) {
    if (s.item != ProfilerItem::kStageRerank) continue;
    EXPECT_EQ(s.count, kThreads * kPerThread);
    EXPECT_EQ(s.histogram.total(), kThreads * kPerThread);
  }
}

}  // namespace
}  // namespace spa
