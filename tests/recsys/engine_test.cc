#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/kernels.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/request.h"
#include "recsys/recsys_test_util.h"
#include "sum/sum_service.h"

namespace spa::recsys {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : matrix_(MakeTwoCommunityMatrix()),
        catalog_(sum::AttributeCatalog::EmagisterDefault()),
        sums_(&catalog_) {}

  /// Engine over the two-community matrix: UserKNN + Popularity.
  std::unique_ptr<RecsysEngine> MakeEngine(EngineConfig config = {}) {
    auto engine = std::make_unique<RecsysEngine>(config);
    engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine->AddComponent(std::make_unique<PopularityRecommender>(),
                         0.4);
    engine->set_sum_service(&sums_);
    EXPECT_TRUE(engine->Fit(matrix_).ok());
    return engine;
  }

  /// Publishes one sensibility through the service.
  void SetSensibility(sum::UserId user, eit::EmotionalAttribute attr,
                      double sensibility) {
    ASSERT_TRUE(sums_
                    .Apply(sum::SumUpdate(user).SetSensibility(
                        catalog_.EmotionalId(attr), sensibility))
                    .ok());
  }

  InteractionMatrix matrix_;
  sum::AttributeCatalog catalog_;
  sum::SumService sums_;
};

TEST(RequestValidationTest, RejectsZeroK) {
  RecommendRequest request;
  request.k = 0;
  EXPECT_EQ(ValidateRequest(request).code(),
            StatusCode::kInvalidArgument);
}

TEST(RequestValidationTest, RejectsEmptyAllowlist) {
  RecommendRequest request;
  request.candidate_items.emplace();
  EXPECT_EQ(ValidateRequest(request).code(),
            StatusCode::kInvalidArgument);
}

TEST(RequestValidationTest, FullyExcludedAllowlistIsValid) {
  // Server-side exclusion merging (seen items the sparse matrix
  // missed) can legitimately cover the whole allowlist; that must
  // serve an empty response, not reject the request.
  RecommendRequest request;
  request.candidate_items = std::unordered_set<ItemId>{1, 2};
  request.exclude_items = {1, 2};
  EXPECT_TRUE(ValidateRequest(request).ok());
}

TEST(RequestValidationTest, AcceptsTypicalRequest) {
  RecommendRequest request;
  request.user = 3;
  request.k = 10;
  request.candidate_items = std::unordered_set<ItemId>{1, 2};
  request.exclude_items = {2};
  EXPECT_TRUE(ValidateRequest(request).ok());
}

TEST_F(EngineTest, RequiresFitBeforeServing) {
  RecsysEngine engine;
  engine.AddComponent(std::make_unique<PopularityRecommender>(), 1.0);
  RecommendRequest request;
  request.user = 0;
  EXPECT_EQ(engine.Recommend(request).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, InvalidRequestRejected) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.k = 0;
  EXPECT_EQ(engine->Recommend(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, RecommendsCommunityItemFirst) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  const auto response = engine->Recommend(request);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response.value().items.empty());
  // Item 4 is the one community item user 0 misses.
  EXPECT_EQ(response.value().items.front().item, 4);
  EXPECT_LE(response.value().items.size(), 3u);
}

TEST_F(EngineTest, ExcludeSeenPolicyIsPerRequest) {
  auto engine = MakeEngine();
  RecommendRequest exclude;
  exclude.user = 0;
  exclude.k = 10;
  exclude.exclude_seen = ExcludeSeen::kYes;
  const auto strict = engine->Recommend(exclude);
  ASSERT_TRUE(strict.ok());
  for (const auto& item : strict.value().items) {
    EXPECT_FALSE(matrix_.Seen(0, item.item)) << "item " << item.item;
  }

  RecommendRequest include = exclude;
  include.exclude_seen = ExcludeSeen::kNo;
  const auto relaxed = engine->Recommend(include);
  ASSERT_TRUE(relaxed.ok());
  bool any_seen = false;
  for (const auto& item : relaxed.value().items) {
    if (matrix_.Seen(0, item.item)) any_seen = true;
  }
  EXPECT_TRUE(any_seen);
  EXPECT_GT(relaxed.value().items.size(),
            strict.value().items.size());
}

TEST_F(EngineTest, ExplicitExclusionsOverrideRanking) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 5;
  const auto baseline = engine->Recommend(request);
  ASSERT_TRUE(baseline.ok());
  const ItemId top = baseline.value().items.front().item;

  request.exclude_items = {top};
  const auto filtered = engine->Recommend(request);
  ASSERT_TRUE(filtered.ok());
  for (const auto& item : filtered.value().items) {
    EXPECT_NE(item.item, top);
  }
}

TEST_F(EngineTest, AllowlistRestrictsCandidatePool) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 5;
  request.k = 10;
  request.candidate_items = std::unordered_set<ItemId>{9, 0};
  const auto response = engine->Recommend(request);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response.value().items.empty());
  for (const auto& item : response.value().items) {
    EXPECT_TRUE(item.item == 9 || item.item == 0);
  }
}

TEST_F(EngineTest, FullyExcludedAllowlistServesEmptyResponse) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 5;
  request.candidate_items = std::unordered_set<ItemId>{4};
  request.exclude_items = {4};
  const auto response = engine->Recommend(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().items.empty());
}

TEST_F(EngineTest, ExplainBreakdownIsConsistent) {
  // Give user 0 emotional context and the items resonance profiles so
  // the emotional stage runs.
  SetSensibility(0, eit::EmotionalAttribute::kEnthusiastic, 0.9);
  auto engine = MakeEngine();
  for (ItemId item = 0; item < 10; ++item) {
    EmotionProfile profile{};
    profile[static_cast<size_t>(
        eit::EmotionalAttribute::kEnthusiastic)] =
        static_cast<double>(item) / 10.0;
    engine->SetItemEmotionProfile(item, profile);
  }

  RecommendRequest request;
  request.user = 0;
  request.k = 5;
  request.explain = true;
  const auto response = engine->Recommend(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().explained);
  EXPECT_TRUE(response.value().emotion_applied);
  ASSERT_FALSE(response.value().items.empty());
  ASSERT_EQ(response.value().breakdowns.size(),
            response.value().items.size());
  for (size_t i = 0; i < response.value().items.size(); ++i) {
    const RecommendedItem& item = response.value().items[i];
    const ScoreBreakdown& breakdown = response.value().breakdowns[i];
    // Final score decomposes into base share + emotional delta.
    EXPECT_NEAR(breakdown.base_share + breakdown.emotion_delta,
                item.score, 1e-12);
    // Component contributions sum to the blended base score.
    ASSERT_EQ(breakdown.components.size(), 2u);
    double component_sum = 0.0;
    for (const auto& c : breakdown.components) {
      component_sum += c.contribution;
    }
    EXPECT_NEAR(component_sum, breakdown.base, 1e-12);
    EXPECT_GE(breakdown.emotional_alignment, -1.0);
    EXPECT_LE(breakdown.emotional_alignment, 1.0);
  }
}

TEST_F(EngineTest, ExplainOffLeavesBreakdownEmpty) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;
  const auto response = engine->Recommend(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().explained);
  EXPECT_FALSE(response.value().items.empty());
  EXPECT_TRUE(response.value().breakdowns.empty());
}

TEST_F(EngineTest, EmotionOverrideReplacesStoreLookup) {
  auto engine = MakeEngine();
  EmotionProfile enthusiastic_profile{};
  enthusiastic_profile[static_cast<size_t>(
      eit::EmotionalAttribute::kEnthusiastic)] = 1.0;
  engine->SetItemEmotionProfile(9, enthusiastic_profile);

  // User 5 has no SUM in the store: no emotional stage.
  RecommendRequest request;
  request.user = 5;
  request.k = 5;
  const auto plain = engine->Recommend(request);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().emotion_applied);

  // The same request with a what-if snapshot gets the emotional stage:
  // a separate service holds the hypothetical profile for user 5, and
  // the request pins its snapshot.
  sum::SumService whatif(&catalog_);
  ASSERT_TRUE(whatif
                  .Apply(sum::SumUpdate(5).SetSensibility(
                      catalog_.EmotionalId(
                          eit::EmotionalAttribute::kEnthusiastic),
                      0.9))
                  .ok());
  request.emotion_override = whatif.snapshot();
  const auto adjusted = engine->Recommend(request);
  ASSERT_TRUE(adjusted.ok());
  EXPECT_TRUE(adjusted.value().emotion_applied);
  // Item 9 resonates with the snapshot's dominant attribute.
  EXPECT_EQ(adjusted.value().items.front().item, 9);
}

TEST_F(EngineTest, BatchMatchesSequentialExactly) {
  SetSensibility(0, eit::EmotionalAttribute::kMotivated, 0.8);
  const auto with_profiles = [this](EngineConfig config) {
    auto engine = MakeEngine(config);
    for (ItemId item = 0; item < 10; ++item) {
      EmotionProfile profile{};
      profile[static_cast<size_t>(eit::EmotionalAttribute::kMotivated)] =
          0.1 * static_cast<double>(item);
      engine->SetItemEmotionProfile(item, profile);
    }
    return engine;
  };

  // A mixed batch: every user, varying k, some relaxed policies, some
  // with explanations.
  std::vector<RecommendRequest> requests;
  for (UserId u = 0; u < 10; ++u) {
    RecommendRequest request;
    request.user = u;
    request.k = 1 + static_cast<size_t>(u % 5);
    request.exclude_seen =
        (u % 3 == 0) ? ExcludeSeen::kNo : ExcludeSeen::kYes;
    request.explain = (u % 2 == 0);
    requests.push_back(std::move(request));
  }

  auto reference = with_profiles({});
  std::vector<spa::Result<RecommendResponse>> sequential;
  for (const auto& request : requests) {
    sequential.push_back(reference->Recommend(request));
  }

  // Each pool size serves the batch cold on its own engine, so every
  // response is computed on the pool, not copied out of a cache the
  // sequential pass filled.
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    EngineConfig config;
    config.batch_threads = threads;
    auto engine = with_profiles(config);
    const auto batched = engine->RecommendBatch(requests);
    EXPECT_EQ(engine->cache_stats().hits, 0u);

    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched[i].ok(), sequential[i].ok()) << "request " << i;
      const auto& lhs = sequential[i].value().items;
      const auto& rhs = batched[i].value().items;
      ASSERT_EQ(lhs.size(), rhs.size()) << "request " << i;
      for (size_t j = 0; j < lhs.size(); ++j) {
        EXPECT_EQ(lhs[j].item, rhs[j].item) << "request " << i;
        // Bitwise-identical scores: same computation, same order.
        EXPECT_EQ(lhs[j].score, rhs[j].score) << "request " << i;
      }
    }
  }
}

TEST_F(EngineTest, BatchReportsPerRequestErrors) {
  EngineConfig config;
  config.batch_threads = 2;
  auto engine = MakeEngine(config);
  std::vector<RecommendRequest> requests(3);
  requests[0].user = 0;
  requests[1].user = 1;
  requests[1].k = 0;  // invalid
  requests[2].user = 2;
  const auto results = engine->RecommendBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok());
}

TEST_F(EngineTest, TieBreakIsDeterministic) {
  // All items equally popular: ranking must fall back to ascending id.
  InteractionMatrix flat;
  for (UserId u = 0; u < 4; ++u) {
    for (ItemId i = 0; i < 6; ++i) flat.Add(u, i, 1.0);
  }
  RecsysEngine engine;
  engine.AddComponent(std::make_unique<PopularityRecommender>(), 1.0);
  ASSERT_TRUE(engine.Fit(flat).ok());
  RecommendRequest request;
  request.user = 99;  // unknown user: nothing seen
  request.k = 6;
  const auto response = engine.Recommend(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().items.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(response.value().items[i].item,
              static_cast<ItemId>(i));
  }
}

TEST_F(EngineTest, RerankOverfetchWidensEmotionReach) {
  // The emotional stage sees the top k * kRerankOverfetch base
  // candidates: an aligned item ranked inside that window by base score
  // can enter the top k; one ranked just beyond it cannot.
  InteractionMatrix ranked;  // item i has 10 - i interactions
  for (UserId u = 1; u <= 10; ++u) {
    for (ItemId i = 0; i + u <= 10; ++i) ranked.Add(u, i, 1.0);
  }
  SetSensibility(0, eit::EmotionalAttribute::kEnthusiastic, 0.9);
  constexpr size_t kK = 2;
  constexpr auto kWindow = static_cast<ItemId>(kK * kRerankOverfetch);
  static_assert(kWindow < 10, "the aligned items must exist");
  EmotionProfile profile{};
  profile[static_cast<size_t>(
      eit::EmotionalAttribute::kEnthusiastic)] = 1.0;

  const auto top_k_with_aligned = [&](ItemId aligned) {
    EngineConfig config;
    config.rerank.beta = 0.6;
    RecsysEngine engine(config);
    engine.AddComponent(std::make_unique<PopularityRecommender>(), 1.0);
    engine.set_sum_service(&sums_);
    engine.SetItemEmotionProfile(aligned, profile);
    EXPECT_TRUE(engine.Fit(ranked).ok());
    RecommendRequest request;
    request.user = 0;  // has a SUM model, has seen nothing
    request.k = kK;
    const auto response = engine.Recommend(request);
    EXPECT_TRUE(response.ok());
    EXPECT_TRUE(response.value().emotion_applied);
    std::vector<ItemId> items;
    for (const auto& item : response.value().items) {
      items.push_back(item.item);
    }
    return items;
  };
  // Item ids equal base ranks. The last item inside the window is
  // lifted to the top; the first one beyond it never reaches the
  // re-ranker, so the top k stays in base order.
  EXPECT_EQ(top_k_with_aligned(kWindow - 1),
            (std::vector<ItemId>{kWindow - 1, 0}));
  EXPECT_EQ(top_k_with_aligned(kWindow), (std::vector<ItemId>{0, 1}));
}

TEST_F(EngineTest, HugeKSaturatesTheOverfetchInsteadOfWrapping) {
  // k * kRerankOverfetch overflows size_t for this k; unsaturated it
  // wraps to 2 and the response shrinks to two items.
  constexpr size_t kHugeK = 0x5555555555555556ULL;
  static_assert(kHugeK * kRerankOverfetch < 1000, "product must wrap");
  SetSensibility(0, eit::EmotionalAttribute::kEnthusiastic, 0.9);
  auto engine = MakeEngine();
  EmotionProfile profile{};
  profile[static_cast<size_t>(
      eit::EmotionalAttribute::kEnthusiastic)] = 1.0;
  engine->SetItemEmotionProfile(9, profile);

  // User 0 has a SUM model (emotional stage on); user 1 has none.
  for (const UserId user : {UserId{0}, UserId{1}}) {
    RecommendRequest request;
    request.user = user;
    request.k = 1000;
    const auto bounded = engine->Recommend(request);
    request.k = kHugeK;
    const auto huge = engine->Recommend(request);
    ASSERT_TRUE(bounded.ok());
    ASSERT_TRUE(huge.ok());
    EXPECT_EQ(huge.value().emotion_applied, user == 0);
    EXPECT_EQ(bounded.value().emotion_applied, user == 0);
    ASSERT_GT(bounded.value().items.size(), 2u) << "user " << user;
    ASSERT_EQ(huge.value().items.size(), bounded.value().items.size())
        << "user " << user;
    for (size_t i = 0; i < huge.value().items.size(); ++i) {
      EXPECT_EQ(huge.value().items[i].item, bounded.value().items[i].item);
      EXPECT_EQ(huge.value().items[i].score, bounded.value().items[i].score);
    }
  }
}

TEST_F(EngineTest, ExplainLeavesItemsAndScoresBitwiseUnchanged) {
  // The explanation breakdown rides on the serving blend: asking for
  // it must not move an item or flip a score bit, with or without the
  // emotional stage, under either kernel backend.
  // Uneven weights on top of the two communities, so normalized
  // contributions are not round numbers and blended items collect
  // products from both components.
  for (UserId u = 0; u < 30; ++u) {
    for (ItemId i = 0; i < 30; ++i) {
      if ((u * 5 + i * 3) % 7 < 2) {
        const double weight =
            1.0 + 0.37 * static_cast<double>((u * 11 + i * 13) % 9);
        matrix_.Add(u, i, weight);
      }
    }
  }
  const UserId users = static_cast<UserId>(matrix_.user_count());
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SupportsAvx2()) backends.push_back(kernels::Backend::kAvx2);
  for (const bool with_sum : {false, true}) {
    if (with_sum) {
      for (UserId u = 0; u < users; ++u) {
        SetSensibility(u, eit::EmotionalAttribute::kEnthusiastic,
                       0.3 + 0.02 * static_cast<double>(u));
      }
    }
    EngineConfig config;
    config.response_cache_capacity = 0;
    auto engine = MakeEngine(config);
    for (ItemId item = 0; item < 30; ++item) {
      EmotionProfile profile{};
      profile[static_cast<size_t>(
          eit::EmotionalAttribute::kEnthusiastic)] =
          static_cast<double>((item * 7) % 30) / 30.0;
      engine->SetItemEmotionProfile(item, profile);
    }
    for (const kernels::Backend backend : backends) {
      kernels::SetBackend(backend);
      for (UserId u = 0; u < users; ++u) {
        RecommendRequest request;
        request.user = u;
        request.k = 10;
        request.exclude_seen = ExcludeSeen::kNo;
        const auto plain = engine->Recommend(request);
        request.explain = true;
        const auto explained = engine->Recommend(request);
        ASSERT_TRUE(plain.ok());
        ASSERT_TRUE(explained.ok());
        EXPECT_TRUE(explained.value().explained);
        EXPECT_EQ(plain.value().emotion_applied, with_sum) << "user " << u;
        EXPECT_EQ(explained.value().emotion_applied, with_sum);
        const auto& lhs = plain.value().items;
        const auto& rhs = explained.value().items;
        ASSERT_FALSE(lhs.empty()) << "user " << u;
        ASSERT_EQ(lhs.size(), rhs.size()) << "user " << u;
        for (size_t i = 0; i < lhs.size(); ++i) {
          EXPECT_EQ(lhs[i].item, rhs[i].item) << "user " << u;
          EXPECT_EQ(std::bit_cast<uint64_t>(lhs[i].score),
                    std::bit_cast<uint64_t>(rhs[i].score))
              << "user " << u << " rank " << i;
        }
      }
    }
  }
  kernels::SetBackend(kernels::Backend::kAuto);
}

}  // namespace
}  // namespace spa::recsys
