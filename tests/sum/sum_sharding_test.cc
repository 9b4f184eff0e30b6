// Randomized differential tests of the copy-on-write SumSnapshot: a
// SumService and a test-local reference — one plain map of models
// (SumStore) plus a user -> version map — are driven through identical
// op sequences and must stay observation-equivalent at every step:
// same global version, same per-user versions, same user creation
// order, byte-identical CSV serialization. The batches create users,
// repeat users, and pick users whose hashes share a radix group or a
// leaf, so every copy-on-write path of the table is exercised.

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/hash.h"
#include "gtest/gtest.h"
#include "sum/reward_punish.h"
#include "sum/sum_service.h"
#include "sum/sum_store.h"
#include "sum/sum_update.h"

namespace spa::sum {
namespace {

/// The single-map semantics the service must reproduce.
class ReferenceSum {
 public:
  explicit ReferenceSum(const AttributeCatalog* catalog)
      : store_(catalog) {}

  void ApplyAll(const std::vector<SumUpdate>& updates) {
    if (updates.empty()) return;
    ++version_;
    for (const SumUpdate& update : updates) {
      SmartUserModel* model = store_.GetOrCreate(update.user());
      for (const SumOp& op : update.ops()) ApplyOp(op, model);
      versions_[update.user()] = version_;
    }
  }

  void Reset(const SumStore& store) {
    store_ = store;
    ++version_;
    versions_.clear();
    for (const UserId user : store.users()) versions_[user] = version_;
  }

  uint64_t version() const { return version_; }
  uint64_t UserVersion(UserId user) const {
    const auto it = versions_.find(user);
    return it == versions_.end() ? 0 : it->second;
  }
  const SumStore& store() const { return store_; }

 private:
  void ApplyOp(const SumOp& op, SmartUserModel* model) const {
    switch (op.kind) {
      case SumOp::Kind::kSetValue:
        model->set_value(op.attribute, op.amount);
        break;
      case SumOp::Kind::kSetSensibility:
        model->set_sensibility(op.attribute, op.amount);
        break;
      case SumOp::Kind::kAddEvidence:
        model->add_evidence(op.attribute, op.amount);
        break;
      case SumOp::Kind::kReward:
        updater_.Reward(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kPunish:
        updater_.Punish(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kValueFromSensibility:
        model->set_value(op.attribute, model->sensibility(op.attribute));
        break;
      case SumOp::Kind::kDecay:
        updater_.Decay(model, op.decay_kind);
        break;
    }
  }

  SumStore store_;
  std::map<UserId, uint64_t> versions_;
  uint64_t version_ = 0;
  ReinforcementUpdater updater_;
};

/// Users whose hashes share the top `bits` bits with `anchor`'s: 6 bits
/// is one radix group, 12 bits one leaf.
std::vector<UserId> UsersSharingPrefix(UserId anchor, int bits,
                                       size_t count) {
  const auto prefix = [bits](UserId user) {
    return SplitMix64(static_cast<uint64_t>(user)) >> (64 - bits);
  };
  std::vector<UserId> users = {anchor};
  for (UserId user = anchor + 1; users.size() < count; ++user) {
    if (prefix(user) == prefix(anchor)) users.push_back(user);
  }
  return users;
}

class ShardedSumParityTest : public ::testing::Test {
 protected:
  ShardedSumParityTest()
      : catalog_(AttributeCatalog::EmagisterDefault()),
        service_(&catalog_),
        reference_(&catalog_) {
    // A user pool mixing unrelated ids with ids that share a leaf and
    // ids that share only a group.
    for (UserId user = 1; user <= 24; ++user) pool_.push_back(user);
    for (const UserId user : UsersSharingPrefix(1000, 12, 6)) {
      pool_.push_back(user);
    }
    for (const UserId user : UsersSharingPrefix(5000, 6, 8)) {
      pool_.push_back(user);
    }
  }

  AttributeId Emo(size_t i) const {
    const auto& ids = catalog_.ids_of(AttributeKind::kEmotional);
    return ids[i % ids.size()];
  }

  UserId RandomUser(std::mt19937_64& rng) const {
    return pool_[rng() % pool_.size()];
  }

  /// A random update of `user`: one to three ops of every kind, or none
  /// (a touch).
  SumUpdate RandomUpdate(std::mt19937_64& rng, UserId user) const {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    SumUpdate update(user);
    const size_t ops = rng() % 4;
    for (size_t i = 0; i < ops; ++i) {
      const AttributeId attr =
          rng() % 3 == 0
              ? static_cast<AttributeId>(rng() % catalog_.size())
              : Emo(static_cast<size_t>(rng() % 7));
      switch (rng() % 7) {
        case 0: update.SetValue(attr, unit(rng)); break;
        case 1: update.SetSensibility(attr, unit(rng)); break;
        case 2: update.AddEvidence(attr, unit(rng)); break;
        case 3: update.Reward(attr, unit(rng)); break;
        case 4: update.Punish(attr, unit(rng)); break;
        case 5: update.ValueFromSensibility(attr); break;
        default: update.Decay(AttributeKind::kEmotional); break;
      }
    }
    return update;
  }

  void ApplyBoth(const std::vector<SumUpdate>& updates) {
    uint64_t published = 0;
    ASSERT_TRUE(service_.ApplyAll(updates, &published).ok());
    reference_.ApplyAll(updates);
    EXPECT_EQ(published, reference_.version());
  }

  /// Every observable surface must match the reference.
  void ExpectEquivalent() {
    EXPECT_EQ(service_.version(), reference_.version());
    EXPECT_EQ(service_.size(), reference_.store().size());
    const SumSnapshotPtr snap = service_.snapshot();
    EXPECT_EQ(snap->version(), reference_.version());
    EXPECT_EQ(snap->size(), reference_.store().size());
    EXPECT_EQ(snap->users(), reference_.store().users());
    for (const UserId user : pool_) {
      EXPECT_EQ(snap->UserVersion(user), reference_.UserVersion(user))
          << "user " << user;
      EXPECT_EQ(snap->Contains(user), reference_.UserVersion(user) > 0)
          << "user " << user;
    }
    EXPECT_EQ(snap->ToCsv(), reference_.store().ToCsv());
  }

  AttributeCatalog catalog_;
  SumService service_;
  ReferenceSum reference_;
  std::vector<UserId> pool_;
};

TEST_F(ShardedSumParityTest, RandomizedApplySequencesAreEquivalent) {
  std::mt19937_64 rng(20070415);
  for (int step = 0; step < 400; ++step) {
    const SumUpdate update = RandomUpdate(rng, RandomUser(rng));
    ASSERT_TRUE(service_.Apply(update).ok());
    reference_.ApplyAll({update});
    if (step % 25 == 0) ExpectEquivalent();
  }
  ExpectEquivalent();
}

TEST_F(ShardedSumParityTest, BatchedApplyAllIsEquivalent) {
  std::mt19937_64 rng(8675309);
  for (int batch = 0; batch < 60; ++batch) {
    std::vector<SumUpdate> updates;
    const size_t n = rng() % 16;  // includes empty batches
    for (size_t i = 0; i < n; ++i) {
      updates.push_back(RandomUpdate(rng, RandomUser(rng)));
    }
    // A pinned snapshot is frozen: later publishes never show in it.
    const SumSnapshotPtr pinned = service_.snapshot();
    const std::string pinned_csv = reference_.store().ToCsv();
    ApplyBoth(updates);
    ExpectEquivalent();
    EXPECT_EQ(pinned->ToCsv(), pinned_csv);
  }
}

TEST_F(ShardedSumParityTest, ApplyAllBumpsVersionOnceEverywhere) {
  // Users created by one batch, some sharing a leaf, rank in batch
  // order; a repeated user keeps its first position.
  std::vector<SumUpdate> updates;
  for (const UserId user : UsersSharingPrefix(7, 12, 5)) {
    updates.emplace_back(user);
  }
  updates.emplace_back(3);
  updates.push_back(SumUpdate(7).SetSensibility(Emo(0), 0.5));
  ApplyBoth(updates);
  EXPECT_EQ(service_.version(), 1u);
  EXPECT_EQ(service_.size(), 6u);
  for (const SumUpdate& update : updates) {
    EXPECT_EQ(service_.UserVersion(update.user()), 1u);
  }
  ExpectEquivalent();
}

TEST_F(ShardedSumParityTest, DecayAllIsEquivalent) {
  std::mt19937_64 rng(424242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 60; ++i) {
    const AttributeId attr = Emo(static_cast<size_t>(rng() % 7));
    ApplyBoth({SumUpdate(RandomUser(rng))
                   .SetSensibility(attr, unit(rng))
                   .ValueFromSensibility(attr)
                   .AddEvidence(attr, unit(rng))});
  }
  ASSERT_TRUE(service_.DecayAll(AttributeKind::kEmotional).ok());
  std::vector<SumUpdate> decay;
  for (const UserId user : reference_.store().users()) {
    decay.push_back(SumUpdate(user).Decay(AttributeKind::kEmotional));
  }
  reference_.ApplyAll(decay);
  ExpectEquivalent();
}

TEST_F(ShardedSumParityTest, ResetFromStoreIsEquivalent) {
  std::mt19937_64 rng(1337);
  for (int i = 0; i < 50; ++i) {
    ApplyBoth({RandomUpdate(rng, RandomUser(rng))});
  }
  // Round-trip the state through a store, then keep applying: users
  // created after a Reset rank after the restored ones.
  auto store = SumStore::FromCsv(service_.ToCsv(), &catalog_);
  ASSERT_TRUE(store.ok());
  service_.Reset(store.value());
  reference_.Reset(store.value());
  ExpectEquivalent();
  ApplyBoth({SumUpdate(999999), RandomUpdate(rng, RandomUser(rng))});
  ExpectEquivalent();
}

}  // namespace
}  // namespace spa::sum
