#ifndef SPA_SUM_SUM_SERVICE_H_
#define SPA_SUM_SUM_SERVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
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
///  * snapshots are copy-on-write over a fixed two-level radix table:
///    `SplitMix64(user)` picks one of 64 groups, then one of 64 leaves
///    in that group, and a leaf is a flat vector of the users that
///    hash there, sorted by user id. A publish copies the 64-pointer
///    top, and for each touched user one group, one leaf and that
///    user's model; everything else is shared with the previous
///    snapshot by `shared_ptr`. A single-user publish therefore costs
///    the same at a thousand users as at a hundred thousand (about 24
///    users per leaf at 100k), and creating a user costs no more than
///    updating one: each entry carries a creation sequence number, and
///    creation order is recovered by sorting on demand;
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
  size_t size() const { return size_; }

  /// Users in creation order. Sorted on demand (O(n log n)); meant for
  /// serialization and maintenance sweeps, not the serve path.
  std::vector<UserId> users() const;

  /// Visits every model in creation order (sorted on demand, like
  /// `users()`).
  void ForEach(
      const std::function<void(const SmartUserModel&)>& fn) const;

  const AttributeCatalog& catalog() const { return *catalog_; }

  /// Serializes the snapshot in the SumStore CSV schema.
  std::string ToCsv() const;

 private:
  friend class SumService;

  /// Radix fan-out of each table level (64 groups x 64 leaves).
  static constexpr size_t kFanout = 64;

  struct Entry {
    UserId user = 0;
    std::shared_ptr<const SmartUserModel> model;
    /// Version of the publish that last touched the user.
    uint64_t version = 0;
    /// Creation sequence number: ascending in creation order.
    uint64_t created = 0;
  };
  /// The users whose hash lands here, sorted by user id. Immutable once
  /// published; a publish that touches one of them copies the leaf.
  using Leaf = std::vector<Entry>;
  /// A null slot is an empty leaf (or, at the top, an empty group).
  using Group = std::array<std::shared_ptr<const Leaf>, kFanout>;

  /// Where a copy-on-write edit of an unpublished snapshot stands: the
  /// group and leaf it copied last.
  struct EditCursor {
    size_t group = kFanout;
    size_t leaf = kFanout;
    std::shared_ptr<Group> group_copy;
    std::shared_ptr<Leaf> leaf_copy;
  };

  explicit SumSnapshot(const AttributeCatalog* catalog);

  const Entry* FindEntry(UserId user) const;
  /// The writable leaf `hash` maps to in this unpublished snapshot.
  /// Callers visit hashes in ascending order through one `cursor`, so
  /// each touched group and leaf is copied exactly once.
  Leaf* MutableLeaf(uint64_t hash, EditCursor* cursor);
  /// Every entry, in creation order.
  std::vector<const Entry*> EntriesInCreationOrder() const;

  const AttributeCatalog* catalog_;
  std::array<std::shared_ptr<const Group>, kFanout> top_;
  uint64_t version_ = 0;
  size_t size_ = 0;
  /// Sequence base of the next publish: a user created by the update at
  /// batch position i gets `next_created_ + i`.
  uint64_t next_created_ = 0;
};

/// Shared handle to a pinned snapshot.
using SumSnapshotPtr = std::shared_ptr<const SumSnapshot>;

struct SumServiceConfig {
  /// Parameters of the kReward / kPunish / kDecay ops.
  ReinforcementConfig reinforcement;
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
  /// InvalidArgument (op references an attribute outside the catalog,
  /// or a reward/punish magnitude is negative or NaN); on error
  /// nothing is published.
  spa::Status Apply(const SumUpdate& update);

  /// Applies a batch atomically under a single version bump (one
  /// publish; copies only the touched leaves — the cheap path for bulk
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
  /// `Apply` and `ApplyAll` share this body; a span lets a single
  /// update publish without being copied into a vector.
  spa::Status Commit(std::span<const SumUpdate> updates,
                     uint64_t* published_version);
  void Publish(SumSnapshotPtr next);

  const AttributeCatalog* catalog_;
  ReinforcementUpdater updater_;

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
