#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sum/sum_service.h"
#include "sum/sum_store.h"
#include "sum/sum_update.h"

namespace spa::sum {
namespace {

class SumServiceTest : public ::testing::Test {
 protected:
  SumServiceTest()
      : catalog_(AttributeCatalog::EmagisterDefault()),
        service_(&catalog_) {}

  AttributeId Emo(eit::EmotionalAttribute attr) const {
    return catalog_.EmotionalId(attr);
  }

  AttributeCatalog catalog_;
  SumService service_;
};

TEST_F(SumServiceTest, StartsEmptyAtVersionZero) {
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_EQ(service_.size(), 0u);
  EXPECT_EQ(service_.UserVersion(1), 0u);
  EXPECT_FALSE(service_.snapshot()->Get(1).ok());
}

TEST_F(SumServiceTest, EmptyUpdateTouchesUserIntoExistence) {
  ASSERT_TRUE(service_.Apply(SumUpdate(7)).ok());
  EXPECT_EQ(service_.version(), 1u);
  EXPECT_EQ(service_.UserVersion(7), 1u);
  ASSERT_TRUE(service_.snapshot()->Get(7).ok());
  EXPECT_EQ(service_.snapshot()->Get(7).value()->user(), 7);
}

TEST_F(SumServiceTest, OpsApplyInOrder) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kHopeful);
  ASSERT_TRUE(service_
                  .Apply(SumUpdate(1)
                             .SetSensibility(attr, 0.5)
                             .ValueFromSensibility(attr)
                             .AddEvidence(attr, 2.0))
                  .ok());
  const SumSnapshotPtr snapshot = service_.snapshot();
  const SmartUserModel& model = *snapshot->Get(1).value();
  EXPECT_DOUBLE_EQ(model.sensibility(attr), 0.5);
  EXPECT_DOUBLE_EQ(model.value(attr), 0.5);
  EXPECT_DOUBLE_EQ(model.evidence(attr), 2.0);
}

TEST_F(SumServiceTest, RewardPunishDecayMatchReinforcementUpdater) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kLively);
  // Reference trajectory applied directly to a scratch model.
  SmartUserModel reference(1, &catalog_);
  const ReinforcementUpdater updater(
      service_.reinforcement().config());
  updater.Reward(&reference, attr, 1.0);
  updater.Punish(&reference, attr, 0.5);
  updater.Decay(&reference, AttributeKind::kEmotional);

  ASSERT_TRUE(service_.Apply(SumUpdate(1).Reward(attr, 1.0)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(1).Punish(attr, 0.5)).ok());
  ASSERT_TRUE(
      service_.Apply(SumUpdate(1).Decay(AttributeKind::kEmotional))
          .ok());
  EXPECT_DOUBLE_EQ(
      service_.snapshot()->Get(1).value()->sensibility(attr),
      reference.sensibility(attr));
}

TEST_F(SumServiceTest, VersionsAreMonotonicAndPerUser) {
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());
  EXPECT_EQ(service_.version(), 2u);
  EXPECT_EQ(service_.UserVersion(1), 1u);
  EXPECT_EQ(service_.UserVersion(2), 2u);

  // Updating user 1 bumps user 1 only; user 2 keeps its version.
  ASSERT_TRUE(
      service_
          .Apply(SumUpdate(1).SetSensibility(
              Emo(eit::EmotionalAttribute::kShy), 0.3))
          .ok());
  EXPECT_EQ(service_.version(), 3u);
  EXPECT_EQ(service_.UserVersion(1), 3u);
  EXPECT_EQ(service_.UserVersion(2), 2u);
}

TEST_F(SumServiceTest, ApplyAllIsOneVersionBump) {
  std::vector<SumUpdate> batch;
  for (UserId u = 0; u < 10; ++u) {
    batch.push_back(SumUpdate(u).SetSensibility(
        Emo(eit::EmotionalAttribute::kMotivated), 0.1 * (u + 1)));
  }
  ASSERT_TRUE(service_.ApplyAll(batch).ok());
  EXPECT_EQ(service_.version(), 1u);
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_EQ(service_.UserVersion(u), 1u);
  }
  EXPECT_EQ(service_.size(), 10u);
}

TEST_F(SumServiceTest, RejectsOutOfCatalogAttribute) {
  const auto status = service_.Apply(
      SumUpdate(1).SetValue(static_cast<AttributeId>(catalog_.size()),
                            0.5));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Nothing was published.
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_EQ(service_.size(), 0u);
}

TEST_F(SumServiceTest, RejectsNegativeOrNaNReinforcementMagnitude) {
  // Reward/Punish require a magnitude >= 0; the service is where a
  // writer's value is checked, so a bad one is a Status, not an abort.
  const AttributeId motivated = Emo(eit::EmotionalAttribute::kMotivated);
  for (const double magnitude :
       {-0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(service_.Apply(SumUpdate(1).Reward(motivated, magnitude)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service_.Apply(SumUpdate(1).Punish(motivated, magnitude)).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_TRUE(service_.Apply(SumUpdate(1).Reward(motivated, 0.0)).ok());
}

TEST_F(SumServiceTest, ApplyAllIsAtomicOnInvalidBatch) {
  std::vector<SumUpdate> batch;
  batch.push_back(SumUpdate(1).SetValue(0, 0.5));
  batch.push_back(SumUpdate(2).SetValue(-3, 0.5));  // invalid
  EXPECT_FALSE(service_.ApplyAll(batch).ok());
  EXPECT_EQ(service_.version(), 0u);
  EXPECT_FALSE(service_.snapshot()->Contains(1));
}

TEST_F(SumServiceTest, SnapshotsAreImmutableViews) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kEnthusiastic);
  ASSERT_TRUE(
      service_.Apply(SumUpdate(5).SetSensibility(attr, 0.2)).ok());
  const SumSnapshotPtr pinned = service_.snapshot();

  ASSERT_TRUE(
      service_.Apply(SumUpdate(5).SetSensibility(attr, 0.9)).ok());
  // The pinned snapshot still reads the old world; the fresh one reads
  // the new one.
  EXPECT_DOUBLE_EQ(pinned->Get(5).value()->sensibility(attr), 0.2);
  EXPECT_DOUBLE_EQ(
      service_.snapshot()->Get(5).value()->sensibility(attr), 0.9);
  EXPECT_LT(pinned->version(), service_.version());
}

TEST_F(SumServiceTest, SnapshotSharesUntouchedModels) {
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());
  const SumSnapshotPtr before = service_.snapshot();
  ASSERT_TRUE(
      service_
          .Apply(SumUpdate(1).SetSensibility(
              Emo(eit::EmotionalAttribute::kShy), 0.4))
          .ok());
  const SumSnapshotPtr after = service_.snapshot();
  // Copy-on-write: user 2's model object is shared between snapshots,
  // user 1's was cloned.
  EXPECT_EQ(before->Get(2).value(), after->Get(2).value());
  EXPECT_NE(before->Get(1).value(), after->Get(1).value());
}

TEST_F(SumServiceTest, DecayAllDecaysEveryUserOnce) {
  SumServiceConfig config;
  config.reinforcement.decay_rate = 0.5;
  SumService service(&catalog_, config);
  const AttributeId attr = Emo(eit::EmotionalAttribute::kLively);
  ASSERT_TRUE(
      service.Apply(SumUpdate(1).SetSensibility(attr, 0.8)).ok());
  ASSERT_TRUE(
      service.Apply(SumUpdate(2).SetSensibility(attr, 0.4)).ok());
  const uint64_t before = service.version();
  ASSERT_TRUE(service.DecayAll(AttributeKind::kEmotional).ok());
  EXPECT_EQ(service.version(), before + 1);  // one batched publish
  EXPECT_NEAR(service.snapshot()->Get(1).value()->sensibility(attr),
              0.4, 1e-12);
  EXPECT_NEAR(service.snapshot()->Get(2).value()->sensibility(attr),
              0.2, 1e-12);
}

TEST_F(SumServiceTest, ForEachVisitsCreationOrder) {
  ASSERT_TRUE(service_.Apply(SumUpdate(3)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(1)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());
  std::vector<UserId> seen;
  service_.snapshot()->ForEach(
      [&seen](const SmartUserModel& m) { seen.push_back(m.user()); });
  EXPECT_EQ(seen, (std::vector<UserId>{3, 1, 2}));
}

TEST_F(SumServiceTest, ResetFromStorePublishesWholesale) {
  SumStore store(&catalog_);
  const AttributeId attr = Emo(eit::EmotionalAttribute::kHopeful);
  store.GetOrCreate(10)->set_sensibility(attr, 0.7);
  store.GetOrCreate(11);

  ASSERT_TRUE(service_.Apply(SumUpdate(99)).ok());  // pre-existing state
  service_.Reset(store);
  EXPECT_EQ(service_.size(), 2u);
  EXPECT_FALSE(service_.snapshot()->Contains(99));
  EXPECT_DOUBLE_EQ(
      service_.snapshot()->Get(10).value()->sensibility(attr), 0.7);
  EXPECT_EQ(service_.version(), 2u);  // strictly after the old head
}

TEST_F(SumServiceTest, CsvRoundTripThroughServiceAndStore) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kStimulated);
  ASSERT_TRUE(
      service_.Apply(SumUpdate(1).SetSensibility(attr, 1.0 / 3.0)).ok());
  ASSERT_TRUE(service_.Apply(SumUpdate(2)).ok());  // untouched model

  const auto restored = SumStore::FromCsv(service_.ToCsv(), &catalog_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->Get(1).value()->sensibility(attr), 1.0 / 3.0);

  SumService reloaded(&catalog_);
  reloaded.Reset(*restored);
  EXPECT_EQ(reloaded.size(), 2u);
}

TEST_F(SumServiceTest, FromModelCapturesNonDefaultState) {
  SmartUserModel scratch(42, &catalog_);
  const AttributeId attr = Emo(eit::EmotionalAttribute::kEmpathic);
  scratch.set_sensibility(attr, 0.6);
  scratch.set_value(attr, 0.25);
  scratch.add_evidence(attr, 1.5);

  ASSERT_TRUE(service_.Apply(SumUpdate::FromModel(scratch)).ok());
  const SmartUserModel& loaded = *service_.snapshot()->Get(42).value();
  EXPECT_DOUBLE_EQ(loaded.sensibility(attr), 0.6);
  EXPECT_DOUBLE_EQ(loaded.value(attr), 0.25);
  EXPECT_DOUBLE_EQ(loaded.evidence(attr), 1.5);
}

// Concurrency: readers pin snapshots while writers publish. Run under
// TSAN to prove the read/write split is race-free; the invariants
// below hold in any interleaving.
TEST_F(SumServiceTest, ConcurrentReadersSeeConsistentVersions) {
  const AttributeId attr = Emo(eit::EmotionalAttribute::kMotivated);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_seen{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SumSnapshotPtr snapshot = service_.snapshot();
        // Global version never goes backwards for a given reader.
        ASSERT_GE(snapshot->version(), last);
        last = snapshot->version();
        // Per-user version never exceeds the snapshot's global one.
        ASSERT_LE(snapshot->UserVersion(1), snapshot->version());
        const auto model = snapshot->Get(1);
        if (model.ok()) {
          const double w = model.value()->sensibility(attr);
          ASSERT_GE(w, 0.0);
          ASSERT_LE(w, 1.0);
        }
        uint64_t prev = max_seen.load(std::memory_order_relaxed);
        while (last > prev &&
               !max_seen.compare_exchange_weak(prev, last)) {
        }
      }
    });
  }

  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        service_
            .Apply(SumUpdate(1).Reward(attr, 0.05).Punish(attr, 0.02))
            .ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(service_.version(), 300u);
  EXPECT_LE(max_seen.load(), 300u);
}

}  // namespace
}  // namespace spa::sum
