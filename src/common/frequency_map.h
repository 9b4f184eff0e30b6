#ifndef SPA_COMMON_FREQUENCY_MAP_H_
#define SPA_COMMON_FREQUENCY_MAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

/// \file
/// A sharded access-frequency counter for cache tiering: the CPU-side
/// analogue of the GPU frequency hashmaps sampling caches use. Callers
/// `Touch` a key per access and read back decayed counts; the serving
/// cache admits/retains by comparing the counts, so one-hit wonders
/// cannot evict the hot set under power-law traffic.
///
/// Counts age by periodic multiplicative `Decay()` (one *epoch*):
/// every count is multiplied by `decay_factor` and entries that fall
/// below `min_count` are erased, so the map tracks *recent* frequency
/// in O(live keys) memory instead of an unbounded all-time histogram.
///
/// ## Determinism
///
/// A count is a pure fold of the key's Touch amounts and the decay
/// epochs interleaved with them, independent of the shard count (each
/// key lives in exactly one shard) and of which threads touched it —
/// for the integral amounts the serving layer uses, floating-point
/// accumulation is exact, so any interleaving sums to the same value.
/// The property tests in `tests/common/frequency_map_test.cc` pin this
/// against a naive single-map reference.
///
/// Thread-safe: keys hash to one of `shards` sub-maps, each behind its
/// own mutex, so concurrent touches to different keys rarely contend.
/// `Decay`/`size`/`stats` sweep the shards one at a time (no global
/// lock; a concurrent Touch lands either before or after the sweep
/// reaches its shard).

namespace spa {

/// \brief Tunables of one frequency map.
struct FrequencyMapConfig {
  /// Sub-map count (>= 1). Purely a contention knob: counts are
  /// shard-count-invariant.
  size_t shards = 16;
  /// Multiplier applied to every count by one Decay() epoch.
  double decay_factor = 0.5;
  /// Counts strictly below this after a decay are erased.
  double min_count = 0.5;
};

/// \brief Cumulative counters (sizes are live values, not cumulative).
struct FrequencyMapStats {
  uint64_t touches = 0;       ///< Touch() calls
  uint64_t decay_epochs = 0;  ///< Decay() sweeps completed
  size_t entries = 0;         ///< live keys across all shards
};

/// \brief Sharded decayed access-frequency counter over uint64 keys.
class FrequencyMap {
 public:
  explicit FrequencyMap(FrequencyMapConfig config = {});

  /// Adds `amount` to `key`'s count (default: one access).
  void Touch(uint64_t key, double amount = 1.0);

  /// The key's current (decayed) count; 0 for untracked keys.
  double Count(uint64_t key) const;

  /// One aging epoch: multiplies every count by `decay_factor` and
  /// erases entries that fell below `min_count`.
  void Decay();

  /// Completed Decay() epochs.
  uint64_t decay_epochs() const {
    return decay_epochs_.load(std::memory_order_relaxed);
  }

  /// Live keys across all shards.
  size_t size() const;

  FrequencyMapStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, double> counts;
    uint64_t touches = 0;
  };

  Shard& ShardOf(uint64_t key) const;

  FrequencyMapConfig config_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> decay_epochs_{0};
};

}  // namespace spa

#endif  // SPA_COMMON_FREQUENCY_MAP_H_
