#ifndef SPA_SUM_SUM_SERVICE_H_
#define SPA_SUM_SUM_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sum/reward_punish.h"
#include "sum/sum_store.h"
#include "sum/sum_update.h"
#include "sum/user_model.h"

/// \file
/// Versioned emotional-context service: the read/write split over the
/// Smart User Models. The paper's SUM is a *living* profile — the
/// Attributes Manager keeps re-weighting sensibilities while the
/// serving engine reads them — so the store can no longer be a bare
/// mutable map shared by raw pointer. `SumService` owns the state
/// behind a mutation API (`Apply` / `ApplyAll`, taking `SumUpdate`s)
/// and publishes immutable `SumSnapshot` handles that readers pin for
/// the duration of a request:
///
///  * every publish bumps a global monotonic version and stamps each
///    touched user with it (per-user versions), which is the
///    invalidation signal the engine's response cache keys on;
///  * snapshots are copy-on-write at *user-shard* granularity: users
///    hash onto a fixed power-of-two number of sub-maps
///    (`SumServiceConfig::user_shards`), and a publish clones only the
///    shards its batch touches — a single-user `Apply` copies one
///    shard's map of `users/S` entries plus that user's model, not the
///    world. Untouched shards (and the creation-order vector, when no
///    new user appears) are shared with the previous snapshot by
///    `shared_ptr`;
///  * readers holding a snapshot observe a frozen, consistent view no
///    matter how many updates land concurrently — update-while-serve
///    is safe by construction.

namespace spa::sum {

/// \brief An immutable, cheaply shareable view of every SUM.
///
/// Obtained from `SumService::snapshot()`; hold the `SumSnapshotPtr`
/// for as long as the view must stay stable (typically one request).
class SumSnapshot {
 public:
  /// Global version at publish time (0 = empty initial snapshot).
  uint64_t version() const { return version_; }

  /// Version of the publish that last touched `user` (0 when the user
  /// has no model in this snapshot).
  uint64_t UserVersion(UserId user) const;

  /// The user's model; NotFound when absent.
  spa::Result<const SmartUserModel*> Get(UserId user) const;

  /// The user's model, or nullptr when absent. Alloc-free — the serve
  /// admission path probes every request's user here, and model-less
  /// (cold) users are the common case, so this must not pay `Get`'s
  /// formatted NotFound status.
  const SmartUserModel* GetOrNull(UserId user) const;

  bool Contains(UserId user) const;
  size_t size() const { return order_->size(); }

  /// Users in creation order.
  const std::vector<UserId>& users() const { return *order_; }

  void ForEach(
      const std::function<void(const SmartUserModel&)>& fn) const;

  const AttributeCatalog& catalog() const { return *catalog_; }

  /// Number of copy-on-write user shards (a power of two).
  size_t shard_count() const { return shards_.size(); }

  /// Serializes the snapshot in the SumStore CSV schema.
  std::string ToCsv() const;

 private:
  friend class SumService;

  struct Entry {
    std::shared_ptr<const SmartUserModel> model;
    uint64_t version = 0;
  };

  /// One copy-on-write sub-map. Immutable once published; a publish
  /// that touches a user clones that user's shard and shares the rest.
  struct Shard {
    std::unordered_map<UserId, Entry> models;
  };

  SumSnapshot(const AttributeCatalog* catalog, size_t shard_count);

  size_t ShardIndexOf(UserId user) const;
  const Entry* FindEntry(UserId user) const;

  const AttributeCatalog* catalog_;
  std::vector<std::shared_ptr<const Shard>> shards_;
  /// Shared across publishes; copied only when a batch creates users.
  std::shared_ptr<const std::vector<UserId>> order_;
  uint64_t version_ = 0;
  uint64_t shard_mask_ = 0;
};

/// Shared handle to a pinned snapshot.
using SumSnapshotPtr = std::shared_ptr<const SumSnapshot>;

struct SumServiceConfig {
  /// Parameters of the kReward / kPunish / kDecay ops.
  ReinforcementConfig reinforcement;
  /// Copy-on-write user shards per snapshot; rounded up to a power of
  /// two (minimum 1). More shards make single-user publishes cheaper
  /// (one shard copy of ~users/S entries) at the cost of a slightly
  /// larger per-publish fixed overhead (the shard-pointer vector).
  size_t user_shards = 32;
};

/// \brief Owner of the live SUM state behind the mutation API.
///
/// Thread-safe: any number of threads may call `snapshot()` while
/// writers `Apply` updates; writers are serialized internally.
class SumService {
 public:
  explicit SumService(const AttributeCatalog* catalog,
                      SumServiceConfig config = {});

  /// Pins the current published snapshot (one shared_ptr copy).
  SumSnapshotPtr snapshot() const;

  /// Global monotonic version (bumped once per publish). Reads an
  /// atomic counter maintained alongside the head — no snapshot pin.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  /// Per-user version (0 = user absent).
  uint64_t UserVersion(UserId user) const {
    return snapshot()->UserVersion(user);
  }
  /// User count of the published snapshot (atomic; no snapshot pin).
  size_t size() const { return size_.load(std::memory_order_acquire); }
  const AttributeCatalog& catalog() const { return *catalog_; }

  /// Applies one update atomically and publishes a new snapshot.
  /// Creates the user's model when absent (even with no ops). Errors:
  /// InvalidArgument (op references an attribute outside the catalog);
  /// on error nothing is published.
  spa::Status Apply(const SumUpdate& update);

  /// Applies a batch atomically under a single version bump (one
  /// publish; clones only the touched shards — the cheap path for bulk
  /// maintenance). All-or-nothing: any invalid update rejects the
  /// whole batch. `published_version` (optional) receives the version
  /// this call published — read it from here, not from `version()`
  /// afterwards: with concurrent writers another publish may land in
  /// between, and callers that pin versions (the streaming writer
  /// lane) need the version of *their* publish. An empty batch
  /// publishes nothing and reports the current head version.
  spa::Status ApplyAll(const std::vector<SumUpdate>& updates,
                       uint64_t* published_version = nullptr);

  /// One decay round over every user's attributes of `kind` (periodic
  /// forgetting), as a single batched publish.
  spa::Status DecayAll(AttributeKind kind);

  /// Replaces the whole state from a deserialized store (one publish;
  /// every user stamped with the new version).
  void Reset(const SumStore& store);

  /// Serializes the current snapshot as CSV (SumStore schema).
  std::string ToCsv() const { return snapshot()->ToCsv(); }

  const ReinforcementUpdater& reinforcement() const { return updater_; }

 private:
  spa::Status Validate(const SumUpdate& update) const;
  void Publish(SumSnapshotPtr next);

  const AttributeCatalog* catalog_;
  ReinforcementUpdater updater_;
  size_t shard_count_;

  /// Serializes writers (Apply/ApplyAll/Reset).
  std::mutex write_mutex_;
  /// The published head. Pinning a snapshot copies it under
  /// `head_mutex_` (one refcount increment); `Publish` swaps it under
  /// the same mutex.
  mutable std::mutex head_mutex_;
  SumSnapshotPtr head_;
  /// Mirrors of the head's version/size so hot-path reads (cache keys,
  /// router pins, empty-batch ApplyAll) skip the snapshot pin.
  std::atomic<uint64_t> version_{0};
  std::atomic<size_t> size_{0};
};

}  // namespace spa::sum

#endif  // SPA_SUM_SUM_SERVICE_H_
