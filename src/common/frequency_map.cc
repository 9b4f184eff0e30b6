#include "common/frequency_map.h"

#include "common/hash.h"

namespace spa {

FrequencyMap::FrequencyMap(FrequencyMapConfig config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  shards_ = std::make_unique<Shard[]>(config_.shards);
}

FrequencyMap::Shard& FrequencyMap::ShardOf(uint64_t key) const {
  return shards_[SplitMix64(key) % config_.shards];
}

void FrequencyMap::Touch(uint64_t key, double amount) {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.counts[key] += amount;
  ++shard.touches;
}

double FrequencyMap::Count(uint64_t key) const {
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.counts.find(key);
  return it == shard.counts.end() ? 0.0 : it->second;
}

void FrequencyMap::Decay() {
  for (size_t s = 0; s < config_.shards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.counts.begin(); it != shard.counts.end();) {
      it->second *= config_.decay_factor;
      if (it->second < config_.min_count) {
        it = shard.counts.erase(it);
      } else {
        ++it;
      }
    }
  }
  decay_epochs_.fetch_add(1, std::memory_order_relaxed);
}

size_t FrequencyMap::size() const {
  size_t total = 0;
  for (size_t s = 0; s < config_.shards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.counts.size();
  }
  return total;
}

FrequencyMapStats FrequencyMap::stats() const {
  FrequencyMapStats stats;
  for (size_t s = 0; s < config_.shards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.touches += shard.touches;
    stats.entries += shard.counts.size();
  }
  stats.decay_epochs = decay_epochs_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace spa
