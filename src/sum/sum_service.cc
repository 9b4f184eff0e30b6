#include "sum/sum_service.h"

#include <bit>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace spa::sum {

// ---- SumSnapshot -----------------------------------------------------------

SumSnapshot::SumSnapshot(const AttributeCatalog* catalog,
                         size_t shard_count)
    : catalog_(catalog),
      order_(std::make_shared<const std::vector<UserId>>()) {
  SPA_CHECK(catalog != nullptr);
  SPA_CHECK(shard_count > 0 && std::has_single_bit(shard_count));
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_shared<const Shard>());
  }
  shard_mask_ = shard_count - 1;
}

size_t SumSnapshot::ShardIndexOf(UserId user) const {
  return static_cast<size_t>(
      SplitMix64(static_cast<uint64_t>(user)) & shard_mask_);
}

const SumSnapshot::Entry* SumSnapshot::FindEntry(UserId user) const {
  const auto& models = shards_[ShardIndexOf(user)]->models;
  const auto it = models.find(user);
  return it == models.end() ? nullptr : &it->second;
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

void SumSnapshot::ForEach(
    const std::function<void(const SmartUserModel&)>& fn) const {
  for (UserId user : *order_) {
    const Entry* entry = FindEntry(user);
    SPA_CHECK(entry != nullptr);
    fn(*entry->model);
  }
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

namespace {

size_t ResolveShardCount(size_t requested) {
  return std::bit_ceil(requested == 0 ? size_t{1} : requested);
}

}  // namespace

SumService::SumService(const AttributeCatalog* catalog,
                       SumServiceConfig config)
    : catalog_(catalog),
      updater_(config.reinforcement),
      shard_count_(ResolveShardCount(config.user_shards)) {
  SPA_CHECK(catalog != nullptr);
  head_ = SumSnapshotPtr(new SumSnapshot(catalog, shard_count_));
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
  return ApplyAll({update});
}

spa::Status SumService::ApplyAll(const std::vector<SumUpdate>& updates,
                                 uint64_t* published_version) {
  if (updates.empty()) {
    if (published_version != nullptr) *published_version = version();
    return spa::Status::OK();
  }
  for (const SumUpdate& update : updates) {
    SPA_RETURN_IF_ERROR(Validate(update));
  }

  std::lock_guard<std::mutex> writer(write_mutex_);
  // Copy-on-write publish at shard granularity: the new snapshot
  // shares every shard pointer (and the creation-order vector) with
  // the head; only shards the batch touches are cloned below, and only
  // touched users' models inside them.
  auto next = std::shared_ptr<SumSnapshot>(new SumSnapshot(*snapshot()));
  const uint64_t version = next->version_ + 1;

  // Mutable clones of the shards this batch touches, made at most once
  // per shard per publish.
  std::vector<std::shared_ptr<SumSnapshot::Shard>> cloned(
      next->shards_.size());
  const auto mutable_shard = [&](size_t index) -> SumSnapshot::Shard* {
    auto& slot = cloned[index];
    if (slot == nullptr) {
      slot = std::make_shared<SumSnapshot::Shard>(*next->shards_[index]);
      next->shards_[index] = slot;
    }
    return slot.get();
  };
  // Creation order is cloned lazily: a batch that only touches
  // existing users shares the previous snapshot's vector.
  std::shared_ptr<std::vector<UserId>> new_order;

  std::unordered_map<UserId, std::shared_ptr<SmartUserModel>> touched;
  for (const SumUpdate& update : updates) {
    auto& clone = touched[update.user()];
    if (clone == nullptr) {
      const SumSnapshot::Entry* entry = next->FindEntry(update.user());
      if (entry != nullptr) {
        clone = std::make_shared<SmartUserModel>(*entry->model);
      } else {
        clone = std::make_shared<SmartUserModel>(update.user(), catalog_);
        if (new_order == nullptr) {
          new_order =
              std::make_shared<std::vector<UserId>>(*next->order_);
        }
        new_order->push_back(update.user());
      }
    }
    ApplyOps(updater_, update, clone.get());
  }
  for (auto& [user, clone] : touched) {
    mutable_shard(next->ShardIndexOf(user))->models[user] = {
        std::move(clone), version};
  }
  if (new_order != nullptr) next->order_ = std::move(new_order);
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
  auto next = std::shared_ptr<SumSnapshot>(
      new SumSnapshot(catalog_, shard_count_));
  const uint64_t version = snapshot()->version() + 1;
  std::vector<std::shared_ptr<SumSnapshot::Shard>> fresh(shard_count_);
  auto order = std::make_shared<std::vector<UserId>>();
  store.ForEach([&](const SmartUserModel& model) {
    const size_t index = next->ShardIndexOf(model.user());
    if (fresh[index] == nullptr) {
      fresh[index] = std::make_shared<SumSnapshot::Shard>();
      next->shards_[index] = fresh[index];
    }
    fresh[index]->models[model.user()] = {
        std::make_shared<SmartUserModel>(model), version};
    order->push_back(model.user());
  });
  next->order_ = std::move(order);
  next->version_ = version;
  Publish(std::move(next));
}

}  // namespace spa::sum
