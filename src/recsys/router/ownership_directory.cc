#include "recsys/router/ownership_directory.h"

#include "common/check.h"
#include "common/hash.h"

namespace spa::recsys {

OwnershipDirectory::OwnershipDirectory(size_t workers) {
  SPA_CHECK_MSG(workers >= 1, "ownership directory needs >= 1 worker");
  owner_of_.resize(kVirtualShards);
  for (uint32_t shard = 0; shard < kVirtualShards; ++shard) {
    owner_of_[shard] = WinnerOf(shard, workers);
  }
}

uint64_t OwnershipDirectory::RendezvousWeight(uint32_t shard,
                                              WorkerId worker) {
  // Decorrelate both coordinates before combining: shard and worker
  // ids are small sequential integers, and a single mix of (shard ^
  // worker) would make weight collisions structural.
  return SplitMix64(SplitMix64(shard) ^
                    SplitMix64(0x9e3779b97f4a7c15ULL +
                               static_cast<uint64_t>(worker)));
}

WorkerId OwnershipDirectory::WinnerOf(uint32_t shard, size_t workers) {
  WorkerId best = 0;
  uint64_t best_weight = RendezvousWeight(shard, 0);
  for (WorkerId w = 1; w < workers; ++w) {
    const uint64_t weight = RendezvousWeight(shard, w);
    // Strict > with ascending iteration = smaller id wins ties.
    if (weight > best_weight) {
      best = w;
      best_weight = weight;
    }
  }
  return best;
}

uint32_t OwnershipDirectory::ShardOf(UserId user) const {
  return static_cast<uint32_t>(SplitMix64(static_cast<uint64_t>(user)) %
                               kVirtualShards);
}

WorkerId OwnershipDirectory::OwnerOf(UserId user) const {
  return owner_of_[ShardOf(user)];
}

WorkerId OwnershipDirectory::OwnerOfShard(uint32_t shard) const {
  SPA_CHECK_MSG(shard < kVirtualShards, "shard outside the directory ring");
  return owner_of_[shard];
}

std::vector<uint32_t> OwnershipDirectory::ShardsOwnedBy(
    WorkerId worker) const {
  std::vector<uint32_t> owned;
  for (uint32_t shard = 0; shard < kVirtualShards; ++shard) {
    if (owner_of_[shard] == worker) owned.push_back(shard);
  }
  return owned;
}

}  // namespace spa::recsys
