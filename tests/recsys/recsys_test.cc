#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "recsys/content_based.h"
#include "recsys/emotion_aware.h"
#include "recsys/hybrid.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"

namespace spa::recsys {
namespace {

TEST(InteractionMatrixTest, AddAndQuery) {
  InteractionMatrix m;
  m.Add(1, 10, 2.0);
  m.Add(1, 10, 1.0);  // accumulates
  m.Add(1, 11, 1.0);
  m.Add(2, 10, 1.0);
  EXPECT_EQ(m.user_count(), 2u);
  EXPECT_EQ(m.item_count(), 2u);
  EXPECT_EQ(m.interaction_count(), 4u);
  EXPECT_TRUE(m.Seen(1, 10));
  EXPECT_FALSE(m.Seen(2, 11));
  ASSERT_EQ(m.ItemsOf(1).size(), 2u);
  EXPECT_DOUBLE_EQ(m.ItemsOf(1)[0].second, 3.0);  // accumulated
  EXPECT_EQ(m.UsersOf(10).size(), 2u);
  EXPECT_DOUBLE_EQ(m.UserNormSquared(1), 9.0 + 1.0);
  EXPECT_DOUBLE_EQ(m.ItemNormSquared(11), 1.0);
  EXPECT_TRUE(m.ItemsOf(99).empty());
}

TEST(SortAndTruncateTest, OrdersByScoreThenItem) {
  std::vector<Scored> v = {{3, 1.0}, {1, 2.0}, {2, 2.0}, {4, 0.5}};
  SortAndTruncate(&v, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].item, 1);  // tie broken by item id
  EXPECT_EQ(v[1].item, 2);
  EXPECT_EQ(v[2].item, 3);
}

TEST(PopularityTest, RanksGlobalFavorites) {
  InteractionMatrix m;
  m.Add(1, 100, 1.0);
  m.Add(2, 100, 1.0);
  m.Add(3, 100, 1.0);
  m.Add(1, 200, 1.0);
  m.Add(2, 300, 1.0);
  PopularityRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  const auto recs = RecommendTopK(rec, 3, 2);
  ASSERT_FALSE(recs.empty());
  // User 3 has seen 100 already -> 200/300 recommended.
  for (const Scored& s : recs) {
    EXPECT_NE(s.item, 100);
  }
}

TEST(UserKnnTest, SimilarityWithinCommunityHigher) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  EXPECT_GT(rec.Similarity(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(rec.Similarity(0, 5), 0.0);
}

TEST(UserKnnTest, RecommendsWithinCommunity) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  const auto recs = RecommendTopK(rec, 0, 3);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].item, 4);  // the one community item user 0 misses
}

TEST(ItemKnnTest, SimilarityAndRecommendation) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  ItemKnnRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  EXPECT_GT(rec.Similarity(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(rec.Similarity(0, 5), 0.0);
  const auto recs = RecommendTopK(rec, 5, 3);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].item, 9);
}

TEST(KnnTest, UnknownUserGetsNothing) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender user_rec;
  ItemKnnRecommender item_rec;
  ASSERT_TRUE(user_rec.Fit(m).ok());
  ASSERT_TRUE(item_rec.Fit(m).ok());
  EXPECT_TRUE(RecommendTopK(user_rec, 999, 5).empty());
  EXPECT_TRUE(RecommendTopK(item_rec, 999, 5).empty());
}

TEST(ContentBasedTest, RequiresFeaturesBeforeFit) {
  InteractionMatrix m;
  m.Add(1, 1, 1.0);
  ContentBasedRecommender rec;
  EXPECT_EQ(rec.Fit(m).code(), StatusCode::kFailedPrecondition);
}

TEST(ContentBasedTest, RecommendsSimilarContent) {
  InteractionMatrix m;
  m.Add(1, 0, 1.0);  // user 1 likes item 0 (topic A)
  ContentBasedRecommender rec;
  rec.SetItemFeatures(0, ml::SparseVector({{0, 1.0}}));        // topic A
  rec.SetItemFeatures(1, ml::SparseVector({{0, 1.0}}));        // topic A
  rec.SetItemFeatures(2, ml::SparseVector({{1, 1.0}}));        // topic B
  rec.SetItemFeatures(3, ml::SparseVector({{0, 0.7}, {1, 0.7}}));
  ASSERT_TRUE(rec.Fit(m).ok());
  const auto recs = RecommendTopK(rec, 1, 3);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].item, 1);            // same topic ranks first
  EXPECT_EQ(recs.back().item, 2);        // disjoint topic ranks last
  EXPECT_GT(recs[0].score, recs[1].score);
}

TEST(ContentBasedTest, ProfileIsWeightedCentroid) {
  InteractionMatrix m;
  m.Add(1, 0, 3.0);
  m.Add(1, 2, 1.0);
  ContentBasedRecommender rec;
  rec.SetItemFeatures(0, ml::SparseVector({{0, 1.0}}));
  rec.SetItemFeatures(2, ml::SparseVector({{1, 1.0}}));
  ASSERT_TRUE(rec.Fit(m).ok());
  const auto profile = rec.ProfileOf(1);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_DOUBLE_EQ(profile[0], 0.75);
  EXPECT_DOUBLE_EQ(profile[1], 0.25);
}

TEST(HybridTest, RequiresComponents) {
  InteractionMatrix m;
  m.Add(1, 1, 1.0);
  HybridRecommender rec;
  EXPECT_EQ(rec.Fit(m).code(), StatusCode::kFailedPrecondition);
}

TEST(PopularityTest, IncludeSeenPolicyReturnsSeenItems) {
  InteractionMatrix m;
  m.Add(1, 100, 5.0);
  m.Add(2, 100, 1.0);
  m.Add(2, 200, 1.0);
  PopularityRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  CandidateQuery query;
  query.user = 1;
  query.k = 5;
  query.exclude_seen = ExcludeSeen::kNo;
  const auto recs = rec.RecommendCandidates(query);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].item, 100);  // seen but admitted by policy
}

TEST(CandidateQueryTest, ExclusionAndAllowlistCompose) {
  InteractionMatrix m;
  m.Add(1, 10, 1.0);
  const std::unordered_set<ItemId> denied = {11};
  const std::unordered_set<ItemId> allowed = {10, 11, 12};
  CandidateQuery query;
  query.user = 1;
  query.k = 5;
  query.exclude_items = &denied;
  query.candidate_items = &allowed;
  EXPECT_FALSE(query.Admits(&m, 10));  // seen
  EXPECT_FALSE(query.Admits(&m, 11));  // denied
  EXPECT_TRUE(query.Admits(&m, 12));
  EXPECT_FALSE(query.Admits(&m, 13));  // outside allowlist
  query.exclude_seen = ExcludeSeen::kNo;
  EXPECT_TRUE(query.Admits(&m, 10));
}

TEST(HybridTest, ComponentContributesExactlyItsTopComponentDepth) {
  // More candidates than the blend depth: the hybrid blends only the
  // component's top kComponentDepth, in the component's order.
  InteractionMatrix m;
  const size_t items = kComponentDepth + 20;
  for (size_t i = 0; i < items; ++i) {
    m.Add(1, static_cast<ItemId>(i), 1.0 + static_cast<double>(i));
  }
  HybridRecommender rec;
  rec.AddComponent(std::make_unique<PopularityRecommender>(), 1.0);
  PopularityRecommender pop;
  ASSERT_TRUE(rec.Fit(m).ok());
  ASSERT_TRUE(pop.Fit(m).ok());
  CandidateQuery query;
  query.user = 1;
  query.k = items;
  query.exclude_seen = ExcludeSeen::kNo;
  ASSERT_EQ(pop.RecommendCandidates(query).size(), items);
  const auto recs = rec.RecommendCandidates(query);
  query.k = kComponentDepth;
  const auto top = pop.RecommendCandidates(query);
  ASSERT_EQ(recs.size(), kComponentDepth);
  for (size_t i = 0; i < kComponentDepth; ++i) {
    EXPECT_EQ(recs[i].item, top[i].item) << "rank " << i;
  }
}

TEST(HybridTest, ShortComponentListKeepsWeakestCandidateRanked) {
  // A component that returns fewer candidates than the blend depth
  // must not zero out its weakest pick: returned items always outrank
  // items the component did not return at all.
  InteractionMatrix m;
  m.Add(1, 10, 3.0);
  m.Add(1, 11, 2.0);
  m.Add(1, 12, 1.0);
  m.Add(2, 99, 1.0);
  HybridRecommender rec;
  rec.AddComponent(std::make_unique<PopularityRecommender>(), 1.0);
  ASSERT_TRUE(rec.Fit(m).ok());
  const auto recs = RecommendTopK(rec, 2, 10);  // 3 candidates < depth 100
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].item, 10);
  EXPECT_EQ(recs[1].item, 11);
  EXPECT_EQ(recs[2].item, 12);
  // The weakest returned candidate keeps a strictly positive score.
  EXPECT_GT(recs[2].score, 0.0);
  EXPECT_GT(recs[0].score, recs[1].score);
  EXPECT_GT(recs[1].score, recs[2].score);
}

TEST(HybridTest, BlendFetchedIntoExposesContributions) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  HybridRecommender rec;
  rec.AddComponent(std::make_unique<UserKnnRecommender>(), 0.5);
  rec.AddComponent(std::make_unique<PopularityRecommender>(), 0.5);
  ASSERT_TRUE(rec.Fit(m).ok());
  CandidateQuery query;
  query.user = 0;
  query.k = 5;
  std::vector<std::vector<Scored>> fetched;
  rec.FetchComponentCandidatesInto(query, &fetched);
  std::vector<HybridRecommender::Blended> blended;
  std::vector<HybridRecommender::Blended> plain;
  std::vector<double> contributions;
  rec.BlendFetchedInto(fetched, &contributions, &blended);
  rec.BlendFetchedInto(fetched, /*contributions=*/nullptr, &plain);
  ASSERT_FALSE(blended.empty());
  ASSERT_EQ(blended.size(), plain.size());
  // One row of two component shares per blended candidate.
  ASSERT_EQ(contributions.size(), 2 * blended.size());
  for (size_t i = 0; i < blended.size(); ++i) {
    const auto& b = blended[i];
    // Tracking changes neither the order nor a score bit.
    EXPECT_EQ(b.item, plain[i].item);
    EXPECT_EQ(b.score, plain[i].score);
    EXPECT_EQ(b.slot, plain[i].slot);
    ASSERT_LT(b.slot, blended.size());
    const double sum =
        contributions[2 * b.slot] + contributions[2 * b.slot + 1];
    EXPECT_NEAR(sum, b.score, 1e-12);
  }
}

TEST(HybridTest, BlendsComponents) {
  const InteractionMatrix m = MakeTwoCommunityMatrix();
  HybridRecommender rec;
  rec.AddComponent(std::make_unique<UserKnnRecommender>(), 0.5);
  rec.AddComponent(std::make_unique<PopularityRecommender>(), 0.5);
  ASSERT_TRUE(rec.Fit(m).ok());
  EXPECT_EQ(rec.component_count(), 2u);
  const auto recs = RecommendTopK(rec, 0, 5);
  ASSERT_FALSE(recs.empty());
  // Item 4 is both popular-unseen and community-endorsed.
  EXPECT_EQ(recs[0].item, 4);
}

class EmotionRerankTest : public ::testing::Test {
 protected:
  EmotionRerankTest()
      : catalog_(sum::AttributeCatalog::EmagisterDefault()),
        model_(1, &catalog_) {}

  sum::AttributeCatalog catalog_;
  sum::SmartUserModel model_;
};

TEST_F(EmotionRerankTest, PositiveValenceActivates) {
  EmotionAwareReranker reranker;
  EmotionProfile enthusiastic_profile{};
  enthusiastic_profile[static_cast<size_t>(
      eit::EmotionalAttribute::kEnthusiastic)] = 1.0;
  reranker.SetItemProfile(10, enthusiastic_profile);

  model_.set_sensibility(
      catalog_.EmotionalId(eit::EmotionalAttribute::kEnthusiastic),
      0.9);
  EXPECT_GT(reranker.Alignment(model_, 10), 0.5);
}

TEST_F(EmotionRerankTest, NegativeValenceInhibits) {
  EmotionAwareReranker reranker;
  EmotionProfile scary_profile{};
  scary_profile[static_cast<size_t>(
      eit::EmotionalAttribute::kFrightened)] = 1.0;
  reranker.SetItemProfile(11, scary_profile);

  model_.set_sensibility(
      catalog_.EmotionalId(eit::EmotionalAttribute::kFrightened), 0.9);
  EXPECT_LT(reranker.Alignment(model_, 11), -0.5);
}

TEST_F(EmotionRerankTest, UnknownItemNeutral) {
  EmotionAwareReranker reranker;
  EXPECT_DOUBLE_EQ(reranker.Alignment(model_, 999), 0.0);
}

TEST_F(EmotionRerankTest, RerankPromotesAlignedItems) {
  EmotionAwareReranker reranker({0.6, 0.2});
  EmotionProfile aligned{};
  aligned[static_cast<size_t>(
      eit::EmotionalAttribute::kMotivated)] = 1.0;
  EmotionProfile inhibiting{};
  inhibiting[static_cast<size_t>(
      eit::EmotionalAttribute::kApathetic)] = 1.0;
  reranker.SetItemProfile(1, aligned);
  reranker.SetItemProfile(2, inhibiting);

  model_.set_sensibility(
      catalog_.EmotionalId(eit::EmotionalAttribute::kMotivated), 0.9);
  model_.set_sensibility(
      catalog_.EmotionalId(eit::EmotionalAttribute::kApathetic), 0.9);

  // Item 2 has a better base score, but emotional context flips it.
  std::vector<Scored> base = {{2, 1.0}, {1, 0.9}};
  const auto reranked = reranker.Rerank(model_, base);
  ASSERT_EQ(reranked.size(), 2u);
  EXPECT_EQ(reranked[0].item, 1);
}

TEST_F(EmotionRerankTest, NoSensibilityLeavesOrderIntact) {
  EmotionAwareReranker reranker;
  EmotionProfile profile{};
  profile.fill(1.0);
  reranker.SetItemProfile(1, profile);
  reranker.SetItemProfile(2, profile);
  std::vector<Scored> base = {{2, 1.0}, {1, 0.5}};
  const auto reranked = reranker.Rerank(model_, base);
  EXPECT_EQ(reranked[0].item, 2);
}

}  // namespace
}  // namespace spa::recsys
