#ifndef SPA_RECSYS_ROUTER_OWNERSHIP_DIRECTORY_H_
#define SPA_RECSYS_ROUTER_OWNERSHIP_DIRECTORY_H_

#include <cstdint>
#include <vector>

#include "recsys/interaction_matrix.h"

/// \file
/// The "who owns user X" component of the router tier. Users are first
/// folded onto a fixed ring of *virtual shards* (`SplitMix64(user) %
/// kVirtualShards` — the same mix every other shard route in the
/// codebase uses, so the mapping is identical across processes and
/// platforms; see the golden-value contract in
/// `tests/common/hash_test.cc`), and each virtual shard is assigned to
/// one of the workers `0..workers-1` by rendezvous (highest-random-
/// weight) hashing.
///
/// The owner table is computed once, at construction, and never
/// changes: it is a pure function of (shard, worker count), so every
/// instance built for the same worker count computes the same table
/// with no state to replicate. Rendezvous hashing (rather than
/// `shard % workers`) keeps the assignment a stable wire format should
/// membership ever become elastic: a worker joining would win only
/// about 1/(N+1) of the ring and no unrelated shard would move.
///
/// The directory is arithmetic only: it knows nothing about matrices
/// or engines. Immutable after construction, so thread-safe without a
/// lock.

namespace spa::recsys {

/// Identity of one worker node: its index in `0..workers-1`.
using WorkerId = uint32_t;

/// Virtual shards on the ring. The table is one WorkerId per shard, so
/// there is no reason to be stingy: more shards = smoother balance.
inline constexpr size_t kVirtualShards = 128;

/// \brief Fixed user -> worker resolution.
class OwnershipDirectory {
 public:
  /// Assigns every virtual shard to one of `workers` members
  /// (>= 1, SPA_CHECK).
  explicit OwnershipDirectory(size_t workers);

  OwnershipDirectory(const OwnershipDirectory&) = delete;
  OwnershipDirectory& operator=(const OwnershipDirectory&) = delete;

  /// The virtual shard `user` folds onto. Pure arithmetic; identical
  /// across every directory.
  uint32_t ShardOf(UserId user) const;

  /// The worker owning `user`.
  WorkerId OwnerOf(UserId user) const;

  /// The worker owning a virtual shard.
  WorkerId OwnerOfShard(uint32_t shard) const;

  /// Shards owned by `worker`, ascending (empty for non-members).
  std::vector<uint32_t> ShardsOwnedBy(WorkerId worker) const;

  /// The rendezvous weight of (shard, worker) — exposed so tests can
  /// pin the assignment arithmetic itself, not just its consequences.
  static uint64_t RendezvousWeight(uint32_t shard, WorkerId worker);

 private:
  /// Owner of `shard` among `0..workers-1`: the member with the highest
  /// rendezvous weight, smaller id on ties. Pure function.
  static WorkerId WinnerOf(uint32_t shard, size_t workers);

  std::vector<WorkerId> owner_of_;  ///< shard -> worker
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_ROUTER_OWNERSHIP_DIRECTORY_H_
