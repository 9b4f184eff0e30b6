#include "sum/sum_service.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace spa::sum {

// ---- SumSnapshot -----------------------------------------------------------

namespace {

uint64_t HashOf(UserId user) {
  return SplitMix64(static_cast<uint64_t>(user));
}

// The radix path: the hash's top six bits pick the group, the next six
// the leaf.
size_t GroupOf(uint64_t hash) { return static_cast<size_t>(hash >> 58); }
size_t LeafOf(uint64_t hash) {
  return static_cast<size_t>(hash >> 52) & 63;
}

// First entry of a user-sorted leaf whose user is not below `user`.
template <typename Leaf>
auto LowerBound(Leaf& leaf, UserId user) {
  return std::lower_bound(
      leaf.begin(), leaf.end(), user,
      [](const auto& entry, UserId key) { return entry.user < key; });
}

}  // namespace

SumSnapshot::SumSnapshot(const AttributeCatalog* catalog)
    : catalog_(catalog) {
  SPA_CHECK(catalog != nullptr);
}

const SumSnapshot::Entry* SumSnapshot::FindEntry(UserId user) const {
  const uint64_t hash = HashOf(user);
  const auto& group = top_[GroupOf(hash)];
  if (group == nullptr) return nullptr;
  const auto& leaf = (*group)[LeafOf(hash)];
  if (leaf == nullptr) return nullptr;
  const auto it = LowerBound(*leaf, user);
  return it != leaf->end() && it->user == user ? &*it : nullptr;
}

SumSnapshot::Leaf* SumSnapshot::MutableLeaf(uint64_t hash,
                                            EditCursor* cursor) {
  const size_t group = GroupOf(hash);
  const size_t leaf = LeafOf(hash);
  if (group != cursor->group) {
    const auto& shared = top_[group];
    cursor->group_copy = shared != nullptr
                             ? std::make_shared<Group>(*shared)
                             : std::make_shared<Group>();
    top_[group] = cursor->group_copy;
    cursor->group = group;
    cursor->leaf = kFanout;
  }
  if (leaf != cursor->leaf) {
    const auto& shared = (*cursor->group_copy)[leaf];
    cursor->leaf_copy = shared != nullptr ? std::make_shared<Leaf>(*shared)
                                          : std::make_shared<Leaf>();
    (*cursor->group_copy)[leaf] = cursor->leaf_copy;
    cursor->leaf = leaf;
  }
  return cursor->leaf_copy.get();
}

std::vector<const SumSnapshot::Entry*>
SumSnapshot::EntriesInCreationOrder() const {
  std::vector<const Entry*> entries;
  entries.reserve(size_);
  for (const auto& group : top_) {
    if (group == nullptr) continue;
    for (const auto& leaf : *group) {
      if (leaf == nullptr) continue;
      for (const Entry& entry : *leaf) entries.push_back(&entry);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry* a, const Entry* b) {
              return a->created < b->created;
            });
  return entries;
}

uint64_t SumSnapshot::UserVersion(UserId user) const {
  const Entry* entry = FindEntry(user);
  return entry == nullptr ? 0 : entry->version;
}

spa::Result<const SmartUserModel*> SumSnapshot::Get(UserId user) const {
  const Entry* entry = FindEntry(user);
  if (entry == nullptr) {
    return spa::Status::NotFound(
        spa::StrFormat("no SUM for user %lld",
                       static_cast<long long>(user)));
  }
  return entry->model.get();
}

const SmartUserModel* SumSnapshot::GetOrNull(UserId user) const {
  const Entry* entry = FindEntry(user);
  return entry == nullptr ? nullptr : entry->model.get();
}

bool SumSnapshot::Contains(UserId user) const {
  return FindEntry(user) != nullptr;
}

std::vector<UserId> SumSnapshot::users() const {
  std::vector<UserId> users;
  users.reserve(size_);
  for (const Entry* entry : EntriesInCreationOrder()) {
    users.push_back(entry->user);
  }
  return users;
}

void SumSnapshot::ForEach(
    const std::function<void(const SmartUserModel&)>& fn) const {
  for (const Entry* entry : EntriesInCreationOrder()) fn(*entry->model);
}

std::string SumSnapshot::ToCsv() const {
  std::ostringstream out;
  spa::CsvWriter writer(&out);
  internal::WriteSumCsvHeader(&writer);
  ForEach([&](const SmartUserModel& model) {
    internal::WriteModelCsvRows(*catalog_, model, &writer);
  });
  return out.str();
}

// ---- SumService ------------------------------------------------------------

SumService::SumService(const AttributeCatalog* catalog,
                       SumServiceConfig config)
    : catalog_(catalog), updater_(config.reinforcement) {
  SPA_CHECK(catalog != nullptr);
  head_ = SumSnapshotPtr(new SumSnapshot(catalog));
}

SumSnapshotPtr SumService::snapshot() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return head_;
}

void SumService::Publish(SumSnapshotPtr next) {
  const uint64_t version = next->version_;
  const size_t size = next->size();
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    head_.swap(next);
  }
  // `next` now holds the old head and is released after the lock, so
  // tearing down a snapshot no reader pins never stalls snapshot().
  // Mirrors are updated after the head so a reader that observes the
  // new counters can also pin the new snapshot. Writers serialize
  // under write_mutex_, so both stay monotonic.
  version_.store(version, std::memory_order_release);
  size_.store(size, std::memory_order_release);
}

spa::Status SumService::Validate(const SumUpdate& update) const {
  for (const SumOp& op : update.ops()) {
    if (op.kind == SumOp::Kind::kDecay) continue;
    if (op.attribute < 0 ||
        static_cast<size_t>(op.attribute) >= catalog_->size()) {
      return spa::Status::InvalidArgument(spa::StrFormat(
          "update for user %lld references attribute %d outside the "
          "catalog (%zu attributes)",
          static_cast<long long>(update.user()), op.attribute,
          catalog_->size()));
    }
    // Amounts are stored (set/evidence) or scale a reinforcement step;
    // a NaN would pass the model's clamps and an infinity would poison
    // evidence and reinforcement, so neither is accepted.
    if (!std::isfinite(op.amount)) {
      return spa::Status::InvalidArgument(spa::StrFormat(
          "update for user %lld has non-finite amount %g for attribute %d",
          static_cast<long long>(update.user()), op.amount, op.attribute));
    }
    const bool reinforcement =
        op.kind == SumOp::Kind::kReward || op.kind == SumOp::Kind::kPunish;
    if (reinforcement && op.amount < 0.0) {
      return spa::Status::InvalidArgument(spa::StrFormat(
          "update for user %lld has reinforcement magnitude %g; it must "
          "be >= 0",
          static_cast<long long>(update.user()), op.amount));
    }
  }
  return spa::Status::OK();
}

namespace {

void ApplyOps(const ReinforcementUpdater& updater, const SumUpdate& update,
              SmartUserModel* model) {
  for (const SumOp& op : update.ops()) {
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
        updater.Reward(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kPunish:
        updater.Punish(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kValueFromSensibility:
        model->set_value(op.attribute, model->sensibility(op.attribute));
        break;
      case SumOp::Kind::kDecay:
        updater.Decay(model, op.decay_kind);
        break;
    }
  }
}

}  // namespace

spa::Status SumService::Apply(const SumUpdate& update) {
  return Commit({&update, 1}, nullptr);
}

spa::Status SumService::ApplyAll(const std::vector<SumUpdate>& updates,
                                 uint64_t* published_version) {
  return Commit(updates, published_version);
}

spa::Status SumService::Commit(std::span<const SumUpdate> updates,
                               uint64_t* published_version) {
  if (updates.empty()) {
    if (published_version != nullptr) *published_version = version();
    return spa::Status::OK();
  }
  for (const SumUpdate& update : updates) {
    SPA_RETURN_IF_ERROR(Validate(update));
  }

  std::lock_guard<std::mutex> writer(write_mutex_);
  // Copy-on-write publish: the new snapshot starts as a copy of the
  // head's 64 group pointers; below, each touched user's group and leaf
  // are copied and the user's model is cloned, and everything else
  // stays shared with the head.
  auto next = std::make_shared<SumSnapshot>(*snapshot());
  const uint64_t version = next->version_ + 1;

  // Visit the batch in hash order, ties in batch order: each user's
  // updates are then adjacent and apply in submission order, and the
  // radix paths arrive in the ascending order MutableLeaf needs.
  struct Touch {
    uint64_t hash;
    size_t index;
  };
  std::vector<Touch> touches;
  touches.reserve(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    touches.push_back({HashOf(updates[i].user()), i});
  }
  std::sort(touches.begin(), touches.end(),
            [](const Touch& a, const Touch& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.index < b.index;
            });

  SumSnapshot::EditCursor cursor;
  for (size_t run = 0; run < touches.size();) {
    // SplitMix64 is a bijection, so one hash is one user.
    const uint64_t hash = touches[run].hash;
    const UserId user = updates[touches[run].index].user();
    SumSnapshot::Leaf& leaf = *next->MutableLeaf(hash, &cursor);
    auto it = LowerBound(leaf, user);
    std::shared_ptr<SmartUserModel> model;
    if (it != leaf.end() && it->user == user) {
      model = std::make_shared<SmartUserModel>(*it->model);
    } else {
      model = std::make_shared<SmartUserModel>(user, catalog_);
      // The user's first update in the batch fixes its creation rank.
      it = leaf.insert(it, {user, nullptr, 0,
                            next->next_created_ + touches[run].index});
      ++next->size_;
    }
    for (; run < touches.size() && touches[run].hash == hash; ++run) {
      ApplyOps(updater_, updates[touches[run].index], model.get());
    }
    it->model = std::move(model);
    it->version = version;
  }
  next->next_created_ += updates.size();
  next->version_ = version;
  Publish(std::move(next));
  if (published_version != nullptr) *published_version = version;
  return spa::Status::OK();
}

spa::Status SumService::DecayAll(AttributeKind kind) {
  const SumSnapshotPtr current = snapshot();
  if (current->size() == 0) return spa::Status::OK();
  std::vector<SumUpdate> updates;
  updates.reserve(current->size());
  for (UserId user : current->users()) {
    updates.push_back(SumUpdate(user).Decay(kind));
  }
  return ApplyAll(updates);
}

void SumService::Reset(const SumStore& store) {
  std::lock_guard<std::mutex> writer(write_mutex_);
  auto next = std::shared_ptr<SumSnapshot>(new SumSnapshot(catalog_));
  const uint64_t version = snapshot()->version() + 1;
  // Creation rank = position in the store's creation order; insertion
  // runs in hash order so each leaf is built once.
  struct Row {
    uint64_t hash;
    const SmartUserModel* model;
    uint64_t created;
  };
  std::vector<Row> rows;
  rows.reserve(store.size());
  store.ForEach([&](const SmartUserModel& model) {
    rows.push_back({HashOf(model.user()), &model, rows.size()});
  });
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.hash < b.hash; });
  SumSnapshot::EditCursor cursor;
  for (const Row& row : rows) {
    SumSnapshot::Leaf& leaf = *next->MutableLeaf(row.hash, &cursor);
    leaf.insert(LowerBound(leaf, row.model->user()),
                {row.model->user(),
                 std::make_shared<SmartUserModel>(*row.model), version,
                 row.created});
  }
  next->size_ = rows.size();
  next->next_created_ = rows.size();
  next->version_ = version;
  Publish(std::move(next));
}

}  // namespace spa::sum
