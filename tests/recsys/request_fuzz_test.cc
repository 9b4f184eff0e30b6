// Robustness of RecommendRequest validation and serving, the engine's
// untrusted input: huge k, huge allow and deny lists, unknown users and
// items, and NaN or infinite emotion values (in the SUM a request pins
// and in item emotion profiles) must come back as a Status, never a
// crash (the suite runs under ASan/UBSan in CI). Accepted requests must
// honour the request's policy, and a cached response must equal its
// recomputation bytewise.

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/request.h"
#include "sum/sum_service.h"

namespace spa::recsys {
namespace {

constexpr size_t kUsers = 40;
constexpr size_t kItems = 60;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// An emotion value drawn from what a hostile writer may hand over.
double EmotionValue(Rng* rng) {
  static constexpr double kOdd[] = {kNaN, -kNaN, kInf, -kInf, -1.0,
                                    2.0,  0.0,   1.0,  1e308, -0.0};
  if (rng->Bernoulli(0.5)) {
    return kOdd[rng->UniformInt(0, std::size(kOdd) - 1)];
  }
  return rng->Uniform(0.0, 1.0);
}

/// Emotional context with hostile values for the users of the matrix.
void PublishHostileModels(Rng* rng, const sum::AttributeCatalog& catalog,
                          sum::SumService* sums) {
  std::vector<sum::SumUpdate> updates;
  for (UserId user = 0; user < static_cast<UserId>(kUsers); ++user) {
    sum::SumUpdate update(user);
    for (const eit::EmotionalAttribute attr : eit::AllEmotionalAttributes()) {
      const sum::AttributeId id = catalog.EmotionalId(attr);
      switch (rng->UniformInt(0, 4)) {
        case 0:
          update.SetSensibility(id, EmotionValue(rng));
          break;
        case 1:
          update.SetValue(id, EmotionValue(rng));
          break;
        case 2:  // reinforcement magnitudes are validated (>= 0)
          update.SetSensibility(id, EmotionValue(rng))
              .Reward(id, rng->Uniform(0.0, 2.0));
          break;
        case 3:
          update.SetSensibility(id, EmotionValue(rng))
              .Punish(id, rng->Uniform(0.0, 2.0));
          break;
        default:
          break;
      }
    }
    updates.push_back(std::move(update));
  }
  ASSERT_TRUE(sums->ApplyAll(updates).ok());
}

/// An id from the catalogue, just outside it, or at the type's limits.
template <typename Id>
Id HostileId(Rng* rng, size_t known) {
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return std::numeric_limits<Id>::max();
    case 1:
      return std::numeric_limits<Id>::min();
    case 2:
      return static_cast<Id>(-1);
    case 3:
      return static_cast<Id>(known +
                             static_cast<size_t>(rng->UniformInt(0, 9)));
    default:
      return static_cast<Id>(
          rng->UniformInt(0, static_cast<int64_t>(known) - 1));
  }
}

size_t HostileK(Rng* rng) {
  static constexpr size_t kOdd[] = {
      0, 1, SIZE_MAX, SIZE_MAX / 2, SIZE_MAX / 3 + 1, size_t{1} << 40,
      kItems, kItems + 1};
  if (rng->Bernoulli(0.5)) {
    return kOdd[rng->UniformInt(0, std::size(kOdd) - 1)];
  }
  return static_cast<size_t>(rng->UniformInt(1, 30));
}

std::unordered_set<ItemId> HostileItemSet(Rng* rng) {
  std::unordered_set<ItemId> items;
  const size_t size = rng->Bernoulli(0.1)
                          ? static_cast<size_t>(rng->UniformInt(5000, 20000))
                          : static_cast<size_t>(rng->UniformInt(0, 12));
  for (size_t i = 0; i < size; ++i) {
    items.insert(HostileId<ItemId>(rng, kItems));
  }
  return items;
}

class RequestFuzzSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  RequestFuzzSweep()
      : catalog_(sum::AttributeCatalog::EmagisterDefault()),
        sums_(&catalog_),
        hostile_sums_(&catalog_),
        rng_(GetParam(), 1) {
    for (size_t i = 0; i < kUsers * 5; ++i) {
      matrix_.Add(static_cast<UserId>(
                      rng_.UniformInt(0, static_cast<int64_t>(kUsers) - 1)),
                  static_cast<ItemId>(
                      rng_.UniformInt(0, static_cast<int64_t>(kItems) - 1)),
                  rng_.Uniform(0.2, 3.0));
    }
    EngineConfig config;
    config.response_cache_capacity = 256;
    config.batch_threads = 2;
    engine_ = std::make_unique<RecsysEngine>(config);
    engine_->AddComponent(std::make_unique<UserKnnRecommender>(), 0.4);
    engine_->AddComponent(std::make_unique<ItemKnnRecommender>(), 0.4);
    engine_->AddComponent(std::make_unique<PopularityRecommender>(), 0.2);
    for (ItemId item = 0; item < static_cast<ItemId>(kItems); ++item) {
      EmotionProfile profile{};
      for (double& p : profile) p = EmotionValue(&rng_);
      engine_->SetItemEmotionProfile(item, profile);
    }
    PublishHostileModels(&rng_, catalog_, &sums_);
    PublishHostileModels(&rng_, catalog_, &hostile_sums_);
    engine_->set_sum_service(&sums_);
    EXPECT_TRUE(engine_->Fit(&matrix_).ok());
  }

  RecommendRequest HostileRequest() {
    RecommendRequest request;
    request.user = HostileId<UserId>(&rng_, kUsers);
    request.k = HostileK(&rng_);
    request.exclude_seen =
        rng_.Bernoulli(0.5) ? ExcludeSeen::kYes : ExcludeSeen::kNo;
    request.exclude_items = HostileItemSet(&rng_);
    if (rng_.Bernoulli(0.4)) request.candidate_items = HostileItemSet(&rng_);
    if (rng_.Bernoulli(0.3)) {
      request.emotion_override = hostile_sums_.snapshot();
    }
    request.explain = rng_.Bernoulli(0.3);
    return request;
  }

  sum::AttributeCatalog catalog_;
  sum::SumService sums_;
  sum::SumService hostile_sums_;
  InteractionMatrix matrix_;
  std::unique_ptr<RecsysEngine> engine_;
  Rng rng_;
};

/// The invalid requests ValidateRequest names, and nothing else.
bool ExpectedInvalid(const RecommendRequest& request) {
  return request.k == 0 || (request.candidate_items.has_value() &&
                            request.candidate_items->empty());
}

/// What any accepted response owes its request.
void ExpectHonoursRequest(const RecommendRequest& request,
                          const RecommendResponse& response,
                          const InteractionMatrix& matrix, bool degraded) {
  EXPECT_EQ(response.user, request.user);
  EXPECT_EQ(response.degraded, degraded);
  EXPECT_LE(response.items.size(), request.k);
  EXPECT_LE(response.items.size(), matrix.item_count());
  EXPECT_EQ(response.breakdowns.size(),
            response.explained ? response.items.size() : 0u);
  std::unordered_set<ItemId> returned;
  for (const RecommendedItem& item : response.items) {
    EXPECT_TRUE(returned.insert(item.item).second) << "duplicate item";
    EXPECT_FALSE(std::isnan(item.score)) << "item " << item.item;
    EXPECT_FALSE(request.exclude_items.contains(item.item));
    if (request.candidate_items.has_value()) {
      EXPECT_TRUE(request.candidate_items->contains(item.item));
    }
    if (request.exclude_seen == ExcludeSeen::kYes) {
      EXPECT_FALSE(matrix.Seen(request.user, item.item));
    }
  }
}

void ExpectSameBytes(const RecommendResponse& a, const RecommendResponse& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].item, b.items[i].item);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.items[i].score),
              std::bit_cast<uint64_t>(b.items[i].score));
  }
  EXPECT_EQ(a.emotion_applied, b.emotion_applied);
  EXPECT_EQ(a.explained, b.explained);
}

TEST_P(RequestFuzzSweep, SingleServesReturnAStatusAndHonourTheRequest) {
  size_t emotional = 0;  // served through the hostile emotion values
  for (int i = 0; i < 150; ++i) {
    const RecommendRequest request = HostileRequest();
    const auto first = engine_->Recommend(request);
    if (ExpectedInvalid(request)) {
      ASSERT_FALSE(first.ok());
      EXPECT_EQ(first.status().code(), spa::StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ExpectHonoursRequest(request, first.value(), matrix_, /*degraded=*/false);
    if (first.value().emotion_applied) ++emotional;
    // The second serve is a cache hit unless the request bypasses the
    // cache; either way it must be the same bytes.
    const auto second = engine_->Recommend(request);
    ASSERT_TRUE(second.ok());
    ExpectSameBytes(first.value(), second.value());

    const auto fallback = engine_->RecommendFallback(request);
    ASSERT_TRUE(fallback.ok());
    ExpectHonoursRequest(request, fallback.value(), matrix_, /*degraded=*/true);
  }
  EXPECT_GT(emotional, 0u);
}

TEST_P(RequestFuzzSweep, BatchesMatchSingleServes) {
  std::vector<RecommendRequest> requests;
  for (int i = 0; i < 40; ++i) requests.push_back(HostileRequest());
  const auto batch = engine_->RecommendBatch(requests);
  const auto micro = engine_->RecommendMicroBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  ASSERT_EQ(micro.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto single = engine_->Recommend(requests[i]);
    ASSERT_EQ(batch[i].ok(), single.ok());
    ASSERT_EQ(micro[i].ok(), single.ok());
    EXPECT_EQ(single.ok(), !ExpectedInvalid(requests[i]));
    if (!single.ok()) continue;
    ExpectSameBytes(batch[i].value(), single.value());
    ExpectSameBytes(micro[i].value(), single.value());
  }
}

TEST_P(RequestFuzzSweep, LiveUpdatesBetweenHostileRequestsKeepServing) {
  for (int round = 0; round < 20; ++round) {
    std::vector<Interaction> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back({HostileId<UserId>(&rng_, kUsers),
                       HostileId<ItemId>(&rng_, kItems),
                       rng_.Uniform(0.2, 3.0)});
    }
    ASSERT_TRUE(engine_->ApplyInteractions(batch).ok());
    for (int i = 0; i < 10; ++i) {
      const RecommendRequest request = HostileRequest();
      const auto response = engine_->Recommend(request);
      ASSERT_EQ(response.ok(), !ExpectedInvalid(request));
      if (response.ok()) {
        ExpectHonoursRequest(request, response.value(), matrix_,
                             /*degraded=*/false);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestFuzzSweep,
                         ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace spa::recsys
