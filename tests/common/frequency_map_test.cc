#include "common/frequency_map.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

// Property tests for the cache-tiering frequency map: randomized
// access streams replayed against a naive single-map reference must
// agree on every count and the live-key count — at every shard count
// and across interleaved decay epochs. The concurrent suite runs under
// TSAN in CI (FrequencyMapTest is in the TSAN ctest regex).

namespace spa {
namespace {

/// The naive reference: one std::map, the same arithmetic.
class NaiveFrequency {
 public:
  explicit NaiveFrequency(double decay_factor, double min_count)
      : decay_factor_(decay_factor), min_count_(min_count) {}

  void Touch(uint64_t key, double amount) { counts_[key] += amount; }

  void Decay() {
    for (auto it = counts_.begin(); it != counts_.end();) {
      it->second *= decay_factor_;
      if (it->second < min_count_) {
        it = counts_.erase(it);
      } else {
        ++it;
      }
    }
  }

  double Count(uint64_t key) const {
    const auto it = counts_.find(key);
    return it == counts_.end() ? 0.0 : it->second;
  }

  size_t size() const { return counts_.size(); }

 private:
  double decay_factor_;
  double min_count_;
  std::map<uint64_t, double> counts_;
};

TEST(FrequencyMapTest, RandomStreamsMatchNaiveReferenceAtEveryShardCount) {
  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    for (uint32_t seed = 0; seed < 8; ++seed) {
      FrequencyMapConfig config;
      config.shards = shards;
      config.decay_factor = 0.5;
      config.min_count = 0.5;
      FrequencyMap map(config);
      NaiveFrequency naive(config.decay_factor, config.min_count);

      std::mt19937 rng(1234 + seed);
      // Zipf-ish key universe: small ids are hot.
      std::geometric_distribution<uint64_t> key_dist(0.05);
      std::uniform_int_distribution<int> op_dist(0, 99);
      uint64_t decays = 0;
      std::set<uint64_t> touched;
      for (int step = 0; step < 5000; ++step) {
        const int op = op_dist(rng);
        if (op < 90) {
          // Integral amounts: FP accumulation is exact, so the sharded
          // map and the naive fold agree bitwise.
          const uint64_t key = key_dist(rng);
          const double amount = 1.0 + static_cast<double>(op % 3);
          map.Touch(key, amount);
          naive.Touch(key, amount);
          touched.insert(key);
        } else if (op < 95) {
          map.Decay();
          naive.Decay();
          ++decays;
        } else {
          // Spot-check a random key mid-stream.
          const uint64_t key = key_dist(rng);
          ASSERT_DOUBLE_EQ(map.Count(key), naive.Count(key))
              << "shards=" << shards << " seed=" << seed
              << " step=" << step;
        }
      }

      EXPECT_EQ(map.size(), naive.size())
          << "shards=" << shards << " seed=" << seed;
      EXPECT_EQ(map.decay_epochs(), decays);
      // Every key ever touched agrees exactly, surviving or evicted.
      for (const uint64_t key : touched) {
        EXPECT_DOUBLE_EQ(map.Count(key), naive.Count(key))
            << "shards=" << shards << " seed=" << seed << " key=" << key;
      }
    }
  }
}

TEST(FrequencyMapTest, DecayHalvesCountsAndEvictsBelowMinCount) {
  FrequencyMapConfig config;
  config.shards = 4;
  config.decay_factor = 0.5;
  config.min_count = 0.5;
  FrequencyMap map(config);
  map.Touch(1, 4.0);  // survives two decays: 4 -> 2 -> 1
  map.Touch(2, 1.0);  // gone after one: 0.5 < min? no: 0.5 >= 0.5 stays
  ASSERT_EQ(map.size(), 2u);

  map.Decay();
  EXPECT_DOUBLE_EQ(map.Count(1), 2.0);
  EXPECT_DOUBLE_EQ(map.Count(2), 0.5);  // == min_count: retained
  EXPECT_EQ(map.size(), 2u);

  map.Decay();
  EXPECT_DOUBLE_EQ(map.Count(1), 1.0);
  EXPECT_DOUBLE_EQ(map.Count(2), 0.0);  // 0.25 < min_count: erased
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.decay_epochs(), 2u);
}

TEST(FrequencyMapTest, StatsCountTouchesEpochsAndEntries) {
  FrequencyMap map(FrequencyMapConfig{/*shards=*/2, 0.5, 0.5});
  map.Touch(1);
  map.Touch(1);
  map.Touch(2);
  map.Decay();
  const FrequencyMapStats stats = map.stats();
  EXPECT_EQ(stats.touches, 3u);
  EXPECT_EQ(stats.decay_epochs, 1u);
  EXPECT_EQ(stats.entries, 2u);  // 1.0 and 0.5 both survive at 0.5
}

// TSAN target: concurrent touches on a shared hot set, racing Decay
// and read sweeps. Integral touch totals are order-independent, so
// the final counts are exact despite the concurrency.
TEST(FrequencyMapTest, TsanConcurrentTouchDecayAndSweep) {
  FrequencyMapConfig config;
  config.shards = 8;
  config.decay_factor = 0.5;
  config.min_count = 0.25;
  FrequencyMap map(config);

  constexpr int kThreads = 4;
  constexpr int kTouchesPerThread = 2000;
  constexpr uint64_t kKeys = 64;
  std::atomic<bool> stop{false};

  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)map.size();
      for (uint64_t key = 0; key < kKeys; ++key) (void)map.Count(key);
      (void)map.stats();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> touchers;
  touchers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    touchers.emplace_back([&, t] {
      std::mt19937 rng(77 + t);
      std::uniform_int_distribution<uint64_t> key_dist(0, kKeys - 1);
      for (int i = 0; i < kTouchesPerThread; ++i) {
        map.Touch(key_dist(rng));
      }
    });
  }
  for (std::thread& t : touchers) t.join();
  // One quiescent decay epoch while the sweeper still reads.
  map.Decay();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();

  // Conservation: total decayed mass == (all touches) * decay_factor,
  // since every count was above min_count before the single decay.
  double total = 0.0;
  for (uint64_t key = 0; key < kKeys; ++key) total += map.Count(key);
  EXPECT_EQ(map.size(), kKeys);
  EXPECT_DOUBLE_EQ(total, kThreads * kTouchesPerThread * 0.5);
  EXPECT_EQ(map.stats().touches,
            static_cast<uint64_t>(kThreads) * kTouchesPerThread);
}

}  // namespace
}  // namespace spa
