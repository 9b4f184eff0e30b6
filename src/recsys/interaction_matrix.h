#ifndef SPA_RECSYS_INTERACTION_MATRIX_H_
#define SPA_RECSYS_INTERACTION_MATRIX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lifelog/event.h"

namespace spa {
class ThreadPool;
}

/// \file
/// User-item interaction store backing the collaborative-filtering
/// stack. Weights encode interaction strength (view < click <
/// info-request < enrolment).
///
/// The store is sharded for live-update serving at scale: user rows
/// live in N user-hash shards and item postings in N item-hash shards,
/// each shard with its own mutation lock, mutation counter, norm maps
/// and dirty-row stamps. The read API (`ItemsOf`/`UsersOf`/`Seen`,
/// counts, norms, `users()`/`items()`) is unchanged from the unsharded
/// store, and the stored data is bit-for-bit identical for every shard
/// count — per-row vectors keep global insertion order, so every
/// similarity the index layer computes is shard-count-invariant.
///
/// Thread-safety contract:
///  * concurrent `Add`s are safe (per-shard locking; registration
///    order of brand-new users/items is then timing-dependent, so
///    deterministic pipelines apply batches from one thread);
///  * `ApplyBatch` applies a whole batch with shard-group parallelism
///    while staying byte-identical to a sequential `Add` loop — it
///    requires exclusive access (no concurrent readers or writers);
///  * reads are lock-free and must not race writes — serving layers
///    coordinate, e.g. `RecsysEngine::ApplyInteractions` takes the
///    engine's writer lock while requests hold the reader side.

namespace spa::recsys {

using UserId = lifelog::UserId;
using ItemId = lifelog::ItemId;

/// One weighted user-item interaction (also the unit of the engine's
/// live-update batches).
struct Interaction {
  UserId user = 0;
  ItemId item = lifelog::kNoItem;
  double weight = 1.0;
};

/// \brief Bidirectional sparse interaction store, sharded by user/item
/// hash.
class ShardedInteractionMatrix {
 public:
  /// `shards` user shards and `shards` item shards; 1 (the default)
  /// reproduces the unsharded layout bit-for-bit.
  explicit ShardedInteractionMatrix(size_t shards = 1);

  /// Movable (the platform rebuilds its store in place), not copyable
  /// (shards own locks; serving layers borrow by reference).
  ShardedInteractionMatrix(ShardedInteractionMatrix&&) = default;
  ShardedInteractionMatrix& operator=(ShardedInteractionMatrix&&) =
      default;
  ShardedInteractionMatrix(const ShardedInteractionMatrix&) = delete;
  ShardedInteractionMatrix& operator=(const ShardedInteractionMatrix&) =
      delete;

  /// Adds (accumulates) one interaction; routes the user row and the
  /// item postings to their shards and stamps both rows dirty. Returns
  /// the stamp: the global version this mutation produced.
  uint64_t Add(UserId user, ItemId item, double weight = 1.0);

  /// What one `ApplyBatch` spent per shard group, indexed by shard
  /// (0.0 and 0 ops for shards the batch never touched) — the
  /// engine's L3 profiler items.
  struct ShardGroupTiming {
    std::vector<double> user_shard_seconds;
    std::vector<double> item_shard_seconds;
    std::vector<size_t> user_shard_ops;
    std::vector<size_t> item_shard_ops;
  };

  /// Applies a whole interaction batch, byte-identical to a
  /// sequential `Add` loop over it (identical rows, postings, norms,
  /// stamps, versions and registration order — the determinism tests
  /// pin this), but with the per-shard work running in parallel on
  /// `pool`: a sequential routing pass fixes registration order and
  /// buckets ops per shard, then every user shard replays its ops in
  /// batch order (shard groups in parallel), then every item shard
  /// does the same against the cell transitions the user phase
  /// computed. Requires exclusive access to the matrix — callers hold
  /// their writer lock (per-shard mutexes are NOT taken; there is
  /// nothing to order when each shard is owned by exactly one task).
  /// `pool` may be null (runs the same phases sequentially).
  void ApplyBatch(const std::vector<Interaction>& batch, ThreadPool* pool,
                  ShardGroupTiming* timing = nullptr);

  /// Items of one user as (item, weight), unordered.
  const std::vector<std::pair<ItemId, double>>& ItemsOf(UserId user) const;

  /// Users of one item as (user, weight), unordered.
  const std::vector<std::pair<UserId, double>>& UsersOf(ItemId item) const;

  bool Seen(UserId user, ItemId item) const;

  size_t user_count() const { return global_->user_order.size(); }
  size_t item_count() const { return global_->item_order.size(); }
  size_t interaction_count() const {
    return global_->interactions.load(std::memory_order_relaxed);
  }

  /// Monotonic mutation counter: bumped by every Add (equals the sum
  /// of all shard versions). Serving layers key caches and similarity
  /// indexes on it.
  uint64_t version() const {
    return global_->version.load(std::memory_order_relaxed);
  }

  const std::vector<UserId>& users() const { return global_->user_order; }
  const std::vector<ItemId>& items() const { return global_->item_order; }

  /// Squared L2 norm of a user's interaction vector. O(1): maintained
  /// incrementally by Add (norms sit on every cosine-similarity path,
  /// both lazy and index-build).
  double UserNormSquared(UserId user) const;
  /// Squared L2 norm of an item's interaction vector. O(1).
  double ItemNormSquared(ItemId item) const;

  // ---- sharding introspection & dirty-row tracking -----------------------

  /// Recent touches each shard journals for TouchedSince (a fixed
  /// constant: a live-update refresh asks about the last batch, which
  /// rarely touches more rows of one shard).
  static constexpr size_t kTouchJournalCapacity = 256;

  size_t shard_count() const { return user_shards_.size(); }
  /// Mutations routed to one user/item shard (all shards sum to
  /// `version()`).
  uint64_t user_shard_version(size_t shard) const;
  uint64_t item_shard_version(size_t shard) const;

  /// Users whose rows mutated after global version `since`, ascending
  /// and distinct. Shards untouched since `since` are skipped; a shard
  /// whose journal still covers `since` reads only its journal, so a
  /// refresh after a small batch costs O(batch), not O(rows). Older
  /// cursors fall back to scanning the shard's per-row stamps.
  std::vector<UserId> UsersTouchedSince(uint64_t since) const;
  /// Items whose postings mutated after global version `since`,
  /// ascending and distinct (same journal/scan rule).
  std::vector<ItemId> ItemsTouchedSince(uint64_t since) const;

 private:
  /// One shard's dirty-row bookkeeping: the exact per-row stamps, plus
  /// a bounded journal of recent touches that lets TouchedSince cost
  /// O(recent touches) instead of O(rows in the shard).
  template <typename Id>
  struct DirtyRows {
    /// Global version stamp of each row's last mutation.
    std::unordered_map<Id, uint64_t> touched;
    uint64_t version = 0;       ///< mutations routed to this shard
    uint64_t last_touched = 0;  ///< global version of the latest one
    /// Ring of the last kTouchJournalCapacity (stamp, row) touches, in
    /// arrival order. Slots not yet written hold stamp 0, which no
    /// cursor counts as a touch.
    std::vector<std::pair<uint64_t, Id>> journal =
        std::vector<std::pair<uint64_t, Id>>(kTouchJournalCapacity);
    size_t journal_next = 0;  ///< slot the next append overwrites
    /// Highest stamp ever overwritten in the ring. Every touch stamped
    /// above it is still journaled, so the journal alone answers
    /// `since >= journal_dropped` exactly — also when concurrent Adds
    /// append their stamps out of order.
    uint64_t journal_dropped = 0;

    /// Records one mutation of `id` at global version `stamp`.
    void Touch(Id id, uint64_t stamp);
    /// Appends the rows touched after `since` (unsorted, may repeat).
    void CollectSince(uint64_t since, std::vector<Id>* out) const;
  };
  struct UserShard {
    std::unordered_map<UserId, std::vector<std::pair<ItemId, double>>>
        rows;
    std::unordered_map<UserId, double> norm_sq;
    DirtyRows<UserId> dirty;
    std::mutex mu;
  };
  struct ItemShard {
    std::unordered_map<ItemId, std::vector<std::pair<UserId, double>>>
        postings;
    std::unordered_map<ItemId, double> norm_sq;
    DirtyRows<ItemId> dirty;
    std::mutex mu;
  };
  /// State shared across shards. Counters are atomic so shard-parallel
  /// writers do not race; the mutex guards the registration-order
  /// vectors.
  struct Global {
    std::vector<UserId> user_order;
    std::vector<ItemId> item_order;
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> interactions{0};
    std::mutex order_mu;
  };

  size_t UserShardIndex(UserId user) const;
  size_t ItemShardIndex(ItemId item) const;

  std::vector<std::unique_ptr<UserShard>> user_shards_;
  std::vector<std::unique_ptr<ItemShard>> item_shards_;
  std::unique_ptr<Global> global_;
};

/// Every consumer of the store compiled against this name before the
/// sharding refactor; the alias keeps that API surface stable.
using InteractionMatrix = ShardedInteractionMatrix;

}  // namespace spa::recsys

#endif  // SPA_RECSYS_INTERACTION_MATRIX_H_
