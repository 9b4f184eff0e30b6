#include <memory>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"
#include "recsys/similarity_index.h"

namespace spa::recsys {
namespace {

/// A noisy two-community matrix large enough that top-N truncation and
/// min-similarity filtering both bite.
InteractionMatrix MakeNoisyMatrix(uint64_t seed, size_t users = 60,
                                  size_t items = 30) {
  Rng rng(seed);
  InteractionMatrix m;
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    const auto base =
        static_cast<ItemId>((u % 2 == 0) ? 0 : items / 2);
    for (int j = 0; j < 6; ++j) {
      const auto item = static_cast<ItemId>(
          base + rng.UniformInt(0, static_cast<int64_t>(items) / 2 - 1));
      m.Add(u, item, rng.Uniform(0.2, 3.0));
    }
  }
  return m;
}

void ExpectSameScored(const std::vector<Scored>& lazy,
                      const std::vector<Scored>& indexed) {
  ASSERT_EQ(lazy.size(), indexed.size());
  for (size_t i = 0; i < lazy.size(); ++i) {
    EXPECT_EQ(lazy[i].item, indexed[i].item) << "rank " << i;
    // Exact (bitwise) parity: both paths run the same float ops in the
    // same order.
    EXPECT_EQ(lazy[i].score, indexed[i].score) << "rank " << i;
  }
}

TEST(SimilarityIndexTest, UserIndexMatchesLiveSimilarities) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender reference(KnnConfig{.use_index = false});
  ASSERT_TRUE(reference.Fit(m).ok());
  const auto index = BuildUserSimilarityIndex(m);

  const auto row = index.NeighborsOf(0);
  ASSERT_EQ(row.size(), 4u);  // the other community-0 users
  double prev = 2.0;
  for (const auto& neighbor : row) {
    EXPECT_GE(neighbor.id, 1);
    EXPECT_LE(neighbor.id, 4);
    EXPECT_EQ(neighbor.similarity,
              reference.Similarity(0, neighbor.id));
    EXPECT_LE(neighbor.similarity, prev);  // sorted desc
    prev = neighbor.similarity;
  }
  EXPECT_TRUE(index.NeighborsOf(999).empty());  // unknown user
}

TEST(SimilarityIndexTest, TopNTruncatesAndMinSimilarityFilters) {
  const InteractionMatrix m = MakeNoisyMatrix(3);
  SimilarityIndexConfig config;
  config.top_n = 3;
  const auto truncated = BuildUserSimilarityIndex(m, config);
  for (UserId u : m.users()) {
    EXPECT_LE(truncated.NeighborsOf(u).size(), 3u);
  }

  SimilarityIndexConfig strict;
  strict.top_n = 100;
  strict.min_similarity = 0.9;
  const auto filtered = BuildUserSimilarityIndex(m, strict);
  for (UserId u : m.users()) {
    for (const auto& neighbor : filtered.NeighborsOf(u)) {
      EXPECT_GE(neighbor.similarity, 0.9);
    }
  }
}

TEST(SimilarityIndexTest, ParallelBuildIsDeterministic) {
  const InteractionMatrix m = MakeNoisyMatrix(11, /*users=*/120);
  SimilarityIndexConfig serial;
  serial.build_threads = 1;
  SimilarityIndexConfig parallel;
  parallel.build_threads = 4;

  const auto user_serial = BuildUserSimilarityIndex(m, serial);
  const auto user_parallel = BuildUserSimilarityIndex(m, parallel);
  EXPECT_EQ(user_parallel.stats().build_threads, 4u);
  for (UserId u : m.users()) {
    const auto a = user_serial.NeighborsOf(u);
    const auto b = user_parallel.NeighborsOf(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].similarity, b[i].similarity);
    }
  }

  const auto item_serial = BuildItemSimilarityIndex(m, serial);
  const auto item_parallel = BuildItemSimilarityIndex(m, parallel);
  for (ItemId i : m.items()) {
    const auto a = item_serial.NeighborsOf(i);
    const auto b = item_parallel.NeighborsOf(i);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].similarity, b[j].similarity);
    }
  }
}

TEST(SimilarityIndexTest, CancelledNormsYieldZeroSimilarityNotNaN) {
  // Incremental norm maintenance can round a fully-cancelled norm to a
  // tiny negative value; SparseCosine must clamp it to "no signal"
  // instead of emitting NaN.
  InteractionMatrix m;
  m.Add(1, 10, 1.0);
  m.Add(1, 11, 1e-9);
  m.Add(1, 10, -1.0);
  m.Add(1, 11, -1e-9);
  m.Add(2, 10, 1.0);
  m.Add(2, 11, 1.0);
  EXPECT_LE(m.UserNormSquared(1), 1e-12);  // cancelled (maybe negative)
  UserKnnRecommender rec(KnnConfig{.use_index = false});
  ASSERT_TRUE(rec.Fit(m).ok());
  EXPECT_EQ(rec.Similarity(1, 2), 0.0);
  const auto index = BuildUserSimilarityIndex(m);
  for (const auto& neighbor : index.NeighborsOf(2)) {
    EXPECT_FALSE(std::isnan(neighbor.similarity));
  }
}

TEST(SimilarityIndexTest, StatsReportBuildCostAndVersionStamp) {
  const InteractionMatrix m = MakeNoisyMatrix(5);
  const auto index = BuildItemSimilarityIndex(m);
  const SimilarityIndexStats& stats = index.stats();
  EXPECT_EQ(stats.rows, m.item_count());
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GE(stats.build_seconds, 0.0);
  EXPECT_GE(stats.build_threads, 1u);
  EXPECT_EQ(stats.matrix_version, m.version());
  EXPECT_EQ(index.built_version(), m.version());
}

/// Parity harness: every user served by the lazy and the indexed
/// recommender under the same config must rank identically.
template <typename Rec>
void ExpectIndexedLazyParity(const InteractionMatrix& m,
                             KnnConfig config, size_t k) {
  config.use_index = false;
  Rec lazy(config);
  ASSERT_TRUE(lazy.Fit(m).ok());
  config.use_index = true;
  Rec indexed(config);
  ASSERT_TRUE(indexed.Fit(m).ok());
  for (UserId u : m.users()) {
    CandidateQuery query;
    query.user = u;
    query.k = k;
    ExpectSameScored(lazy.RecommendCandidates(query),
                     indexed.RecommendCandidates(query));
  }
}

TEST(KnnIndexParityTest, UserKnnMatchesLazyAcrossConfigSweep) {
  const InteractionMatrix m = MakeNoisyMatrix(17);
  for (const size_t neighbors : {1u, 2u, 5u, 40u}) {
    for (const double min_similarity : {1e-9, 1e-6, 0.25, 0.6}) {
      KnnConfig config;
      config.neighbors = neighbors;
      config.min_similarity = min_similarity;
      ExpectIndexedLazyParity<UserKnnRecommender>(m, config, 8);
    }
  }
}

TEST(KnnIndexParityTest, ItemKnnMatchesLazyAcrossConfigSweep) {
  const InteractionMatrix m = MakeNoisyMatrix(23);
  for (const size_t neighbors : {1u, 2u, 5u, 40u}) {
    for (const double min_similarity : {1e-9, 1e-6, 0.25, 0.6}) {
      KnnConfig config;
      config.neighbors = neighbors;
      config.min_similarity = min_similarity;
      ExpectIndexedLazyParity<ItemKnnRecommender>(m, config, 8);
    }
  }
}

TEST(KnnIndexParityTest, ParityHoldsUnderQueryPolicies) {
  const InteractionMatrix m = MakeNoisyMatrix(29);
  KnnConfig config;
  config.neighbors = 5;
  KnnConfig lazy_config = config;
  lazy_config.use_index = false;

  UserKnnRecommender user_lazy(lazy_config), user_indexed(config);
  ItemKnnRecommender item_lazy(lazy_config), item_indexed(config);
  const std::vector<Recommender*> recommenders = {
      &user_lazy, &user_indexed, &item_lazy, &item_indexed};
  for (Recommender* rec : recommenders) {
    ASSERT_TRUE(rec->Fit(m).ok());
  }

  const std::unordered_set<ItemId> denied = {1, 4, 17};
  const std::unordered_set<ItemId> allowed = {0, 2, 3, 5, 8, 13, 21};
  std::vector<CandidateQuery> queries;
  for (UserId u : m.users()) {
    CandidateQuery relaxed;
    relaxed.user = u;
    relaxed.k = 10;
    relaxed.exclude_seen = ExcludeSeen::kNo;
    queries.push_back(relaxed);
    CandidateQuery denylisted;
    denylisted.user = u;
    denylisted.k = 10;
    denylisted.exclude_items = &denied;
    queries.push_back(denylisted);
    CandidateQuery allowlisted;
    allowlisted.user = u;
    allowlisted.k = 10;
    allowlisted.candidate_items = &allowed;
    queries.push_back(allowlisted);
  }
  for (const CandidateQuery& query : queries) {
    ExpectSameScored(user_lazy.RecommendCandidates(query),
                     user_indexed.RecommendCandidates(query));
    ExpectSameScored(item_lazy.RecommendCandidates(query),
                     item_indexed.RecommendCandidates(query));
  }
}

TEST(KnnIndexParityTest, UnknownUserStillGetsNothing) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender user_rec;  // indexed by default
  ItemKnnRecommender item_rec;
  ASSERT_TRUE(user_rec.Fit(m).ok());
  ASSERT_TRUE(item_rec.Fit(m).ok());
  EXPECT_TRUE(RecommendTopK(user_rec, 999, 5).empty());
  EXPECT_TRUE(RecommendTopK(item_rec, 999, 5).empty());
}

TEST(SimilarityIndexDeathTest, UserKnnRejectsStaleIndex) {
  InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  ASSERT_FALSE(RecommendTopK(rec, 0, 3).empty());  // fresh: serves
  m.Add(0, 7, 1.0);  // mutation after Fit
  EXPECT_DEATH(RecommendTopK(rec, 0, 3), "stale UserKNN");
  // An incremental Refresh picks the mutation up and serving resumes
  // (a refit would too; Refresh is the cheap live-update path).
  RefreshOutcome outcome;
  ASSERT_TRUE(rec.Refresh(&outcome).ok());
  EXPECT_FALSE(RecommendTopK(rec, 0, 3).empty());
}

TEST(SimilarityIndexDeathTest, ItemKnnRejectsStaleIndex) {
  InteractionMatrix m = MakeTwoCommunityMatrix();
  ItemKnnRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  m.Add(5, 2, 1.0);
  EXPECT_DEATH(RecommendTopK(rec, 5, 3), "stale ItemKNN");
}

}  // namespace
}  // namespace spa::recsys
