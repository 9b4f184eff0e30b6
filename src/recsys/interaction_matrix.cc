#include "recsys/interaction_matrix.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/check.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/thread_pool.h"

namespace spa::recsys {

namespace {

template <typename Id>
void SortUnique(std::vector<Id>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

ShardedInteractionMatrix::ShardedInteractionMatrix(size_t shards)
    : global_(std::make_unique<Global>()) {
  SPA_CHECK_MSG(shards > 0, "interaction matrix needs >= 1 shard");
  user_shards_.reserve(shards);
  item_shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    user_shards_.push_back(std::make_unique<UserShard>());
    item_shards_.push_back(std::make_unique<ItemShard>());
  }
}

size_t ShardedInteractionMatrix::UserShardIndex(UserId user) const {
  return user_shards_.size() == 1
             ? 0
             : SplitMix64(static_cast<uint64_t>(user)) %
                   user_shards_.size();
}

size_t ShardedInteractionMatrix::ItemShardIndex(ItemId item) const {
  return item_shards_.size() == 1
             ? 0
             : SplitMix64(static_cast<uint64_t>(item)) %
                   item_shards_.size();
}

template <typename Id>
void ShardedInteractionMatrix::DirtyRows<Id>::Touch(Id id,
                                                   uint64_t stamp) {
  // max, not assignment: Add draws its stamp before the shard locks,
  // so a concurrent Add can reach the lock with a *newer* stamp first —
  // overwriting would roll the row back to "clean before version N"
  // and a later TouchedSince(N-1) would silently skip it.
  uint64_t& row_stamp = touched[id];
  row_stamp = std::max(row_stamp, stamp);
  last_touched = std::max(last_touched, stamp);
  ++version;
  journal_dropped = std::max(journal_dropped, journal[journal_next].first);
  journal[journal_next] = {stamp, id};
  journal_next = (journal_next + 1) % kTouchJournalCapacity;
}

template <typename Id>
void ShardedInteractionMatrix::DirtyRows<Id>::CollectSince(
    uint64_t since, std::vector<Id>* out) const {
  if (last_touched <= since) return;
  // A row's stamp is the max over its touches, so "stamp > since" iff
  // some touch after `since` — and all of those are still journaled
  // when nothing newer than `since` was ever dropped.
  if (journal_dropped <= since) {
    for (const auto& [stamp, id] : journal) {
      if (stamp > since) out->push_back(id);
    }
    return;
  }
  for (const auto& [id, stamp] : touched) {
    if (stamp > since) out->push_back(id);
  }
}

uint64_t ShardedInteractionMatrix::Add(UserId user, ItemId item,
                                       double weight) {
  UserShard& us = *user_shards_[UserShardIndex(user)];
  ItemShard& is = *item_shards_[ItemShardIndex(item)];
  const uint64_t stamp =
      global_->version.fetch_add(1, std::memory_order_relaxed) + 1;

  std::scoped_lock lock(us.mu, is.mu);

  auto [uit, user_new] = us.rows.try_emplace(user);
  double old_weight = 0.0;
  bool accumulated = false;
  for (auto& [existing_item, w] : uit->second) {
    if (existing_item == item) {
      old_weight = w;
      w += weight;
      accumulated = true;
      break;
    }
  }
  if (!accumulated) uit->second.emplace_back(item, weight);

  // Both sides of the cell move from old_weight to new_weight.
  const double new_weight = old_weight + weight;
  const double norm_delta =
      new_weight * new_weight - old_weight * old_weight;
  us.norm_sq[user] += norm_delta;
  is.norm_sq[item] += norm_delta;

  auto [iit, item_new] = is.postings.try_emplace(item);
  if (accumulated) {
    for (auto& [existing_user, w] : iit->second) {
      if (existing_user == user) {
        w += weight;
        break;
      }
    }
  } else {
    iit->second.emplace_back(user, weight);
  }

  us.dirty.Touch(user, stamp);
  is.dirty.Touch(item, stamp);

  if (user_new || item_new) {
    std::lock_guard<std::mutex> order_lock(global_->order_mu);
    if (user_new) global_->user_order.push_back(user);
    if (item_new) global_->item_order.push_back(item);
  }
  global_->interactions.fetch_add(1, std::memory_order_relaxed);
  return stamp;
}

void ShardedInteractionMatrix::ApplyBatch(
    const std::vector<Interaction>& batch, ThreadPool* pool,
    ShardGroupTiming* timing) {
  if (timing != nullptr) {
    timing->user_shard_seconds.assign(user_shards_.size(), 0.0);
    timing->item_shard_seconds.assign(item_shards_.size(), 0.0);
    timing->user_shard_ops.assign(user_shards_.size(), 0);
    timing->item_shard_ops.assign(item_shards_.size(), 0);
  }
  if (batch.empty()) return;
  const size_t n = batch.size();
  const uint64_t v0 = global_->version.load(std::memory_order_relaxed);

  // Phase 0 (sequential): fix the registration order of brand-new
  // users/items exactly as a sequential Add loop would (first
  // occurrence in batch order) and bucket op indices per shard. Reads
  // the shard maps without locks — the exclusive-access precondition.
  std::vector<std::vector<size_t>> user_ops(user_shards_.size());
  std::vector<std::vector<size_t>> item_ops(item_shards_.size());
  {
    std::unordered_set<UserId> new_users;
    std::unordered_set<ItemId> new_items;
    for (size_t i = 0; i < n; ++i) {
      const Interaction& op = batch[i];
      const size_t us_idx = UserShardIndex(op.user);
      const size_t is_idx = ItemShardIndex(op.item);
      user_ops[us_idx].push_back(i);
      item_ops[is_idx].push_back(i);
      if (!user_shards_[us_idx]->rows.contains(op.user) &&
          new_users.insert(op.user).second) {
        global_->user_order.push_back(op.user);
      }
      if (!item_shards_[is_idx]->postings.contains(op.item) &&
          new_items.insert(op.item).second) {
        global_->item_order.push_back(op.item);
      }
    }
  }
  if (timing != nullptr) {
    for (size_t s = 0; s < user_ops.size(); ++s) {
      timing->user_shard_ops[s] = user_ops[s].size();
    }
    for (size_t s = 0; s < item_ops.size(); ++s) {
      timing->item_shard_ops[s] = item_ops[s].size();
    }
  }

  // Cell transitions, computed by the user phase (which owns the cell
  // history) and consumed by the item phase: the norm delta of op i
  // and whether it created its (user, item) cell.
  std::vector<double> norm_delta(n, 0.0);
  std::vector<char> cell_new(n, 0);

  // Phase U: each user shard replays its ops in batch order. One task
  // owns one shard, so within a row every accumulate/append — and
  // every floating-point addition into its norm — happens in exactly
  // the sequential order, and so does every journal append.
  const auto user_phase = [&](size_t s) {
    const auto start = std::chrono::steady_clock::now();
    UserShard& us = *user_shards_[s];
    for (const size_t i : user_ops[s]) {
      const Interaction& op = batch[i];
      const uint64_t stamp = v0 + static_cast<uint64_t>(i) + 1;
      auto [uit, user_new] = us.rows.try_emplace(op.user);
      (void)user_new;  // registration already done in phase 0
      double old_weight = 0.0;
      bool accumulated = false;
      for (auto& [existing_item, w] : uit->second) {
        if (existing_item == op.item) {
          old_weight = w;
          w += op.weight;
          accumulated = true;
          break;
        }
      }
      if (!accumulated) uit->second.emplace_back(op.item, op.weight);
      const double new_weight = old_weight + op.weight;
      norm_delta[i] = new_weight * new_weight - old_weight * old_weight;
      cell_new[i] = accumulated ? 0 : 1;
      us.norm_sq[op.user] += norm_delta[i];
      us.dirty.Touch(op.user, stamp);
    }
    if (timing != nullptr) {
      timing->user_shard_seconds[s] = SecondsSince(start);
    }
  };

  // Phase I: mirror the cells into the item shards, again per-shard in
  // batch order, applying the norm deltas the user phase computed.
  const auto item_phase = [&](size_t s) {
    const auto start = std::chrono::steady_clock::now();
    ItemShard& is = *item_shards_[s];
    for (const size_t i : item_ops[s]) {
      const Interaction& op = batch[i];
      const uint64_t stamp = v0 + static_cast<uint64_t>(i) + 1;
      auto [iit, item_new] = is.postings.try_emplace(op.item);
      (void)item_new;
      if (cell_new[i]) {
        iit->second.emplace_back(op.user, op.weight);
      } else {
        for (auto& [existing_user, w] : iit->second) {
          if (existing_user == op.user) {
            w += op.weight;
            break;
          }
        }
      }
      is.norm_sq[op.item] += norm_delta[i];
      is.dirty.Touch(op.item, stamp);
    }
    if (timing != nullptr) {
      timing->item_shard_seconds[s] = SecondsSince(start);
    }
  };

  const auto run = [&](size_t groups,
                       const std::function<void(size_t)>& fn) {
    if (pool != nullptr) {
      ParallelFor(pool, groups, fn);
    } else {
      for (size_t g = 0; g < groups; ++g) fn(g);
    }
  };
  run(user_shards_.size(), user_phase);  // barrier: item phase reads
  run(item_shards_.size(), item_phase);  // norm_delta / cell_new

  global_->version.store(v0 + n, std::memory_order_relaxed);
  global_->interactions.fetch_add(n, std::memory_order_relaxed);
}

const std::vector<std::pair<ItemId, double>>&
ShardedInteractionMatrix::ItemsOf(UserId user) const {
  static const std::vector<std::pair<ItemId, double>> kEmpty;
  const UserShard& shard = *user_shards_[UserShardIndex(user)];
  const auto it = shard.rows.find(user);
  return it == shard.rows.end() ? kEmpty : it->second;
}

const std::vector<std::pair<UserId, double>>&
ShardedInteractionMatrix::UsersOf(ItemId item) const {
  static const std::vector<std::pair<UserId, double>> kEmpty;
  const ItemShard& shard = *item_shards_[ItemShardIndex(item)];
  const auto it = shard.postings.find(item);
  return it == shard.postings.end() ? kEmpty : it->second;
}

bool ShardedInteractionMatrix::Seen(UserId user, ItemId item) const {
  for (const auto& [existing, w] : ItemsOf(user)) {
    if (existing == item) return true;
  }
  return false;
}

double ShardedInteractionMatrix::UserNormSquared(UserId user) const {
  const UserShard& shard = *user_shards_[UserShardIndex(user)];
  const auto it = shard.norm_sq.find(user);
  return it == shard.norm_sq.end() ? 0.0 : it->second;
}

double ShardedInteractionMatrix::ItemNormSquared(ItemId item) const {
  const ItemShard& shard = *item_shards_[ItemShardIndex(item)];
  const auto it = shard.norm_sq.find(item);
  return it == shard.norm_sq.end() ? 0.0 : it->second;
}

uint64_t ShardedInteractionMatrix::user_shard_version(
    size_t shard) const {
  SPA_CHECK(shard < user_shards_.size());
  return user_shards_[shard]->dirty.version;
}

uint64_t ShardedInteractionMatrix::item_shard_version(
    size_t shard) const {
  SPA_CHECK(shard < item_shards_.size());
  return item_shards_[shard]->dirty.version;
}

std::vector<UserId> ShardedInteractionMatrix::UsersTouchedSince(
    uint64_t since) const {
  std::vector<UserId> out;
  for (const auto& shard : user_shards_) {
    shard->dirty.CollectSince(since, &out);
  }
  SortUnique(&out);
  return out;
}

std::vector<ItemId> ShardedInteractionMatrix::ItemsTouchedSince(
    uint64_t since) const {
  std::vector<ItemId> out;
  for (const auto& shard : item_shards_) {
    shard->dirty.CollectSince(since, &out);
  }
  SortUnique(&out);
  return out;
}

}  // namespace spa::recsys
