// Bitwise parity tests of the SIMD scoring kernels: every kernel must
// produce byte-identical results under the scalar reference and the
// AVX2 backend, for randomized inputs including the awkward shapes
// (empty, singleton, lengths straddling the 4-lane width, unaligned
// buffers). This is the contract that lets the engine's differential
// parity gates hold on machines with and without AVX2.

#include "recsys/kernels.h"

#include <cmath>
#include <cstring>
#include <random>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "recsys/similarity_index.h"

namespace spa::recsys::kernels {
namespace {

/// Runs `fn` under the scalar backend, then (when the CPU supports
/// it) under AVX2, returning whether AVX2 ran. Restores kAuto.
template <typename Fn>
bool RunBothBackends(const Fn& fn) {
  SetBackend(Backend::kScalar);
  fn(Backend::kScalar);
  bool ran_avx2 = false;
  if (SupportsAvx2()) {
    SetBackend(Backend::kAvx2);
    fn(Backend::kAvx2);
    ran_avx2 = true;
  }
  SetBackend(Backend::kAuto);
  return ran_avx2;
}

std::vector<double> RandomDoubles(std::mt19937_64* rng, size_t n) {
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<double> out(n);
  for (double& v : out) v = dist(*rng);
  return out;
}

TEST(KernelBackendTest, ActiveBackendNeverReportsAuto) {
  EXPECT_NE(ActiveBackend(), Backend::kAuto);
  SetBackend(Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  SetBackend(Backend::kAuto);
}

TEST(KernelParityTest, DotMatchesBitwiseAcrossBackends) {
  std::mt19937_64 rng(101);
  // Lengths around the 4-lane boundaries plus larger odd sizes.
  for (const size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64,
                         65, 251, 1024, 1027}) {
    const std::vector<double> x = RandomDoubles(&rng, n);
    const std::vector<double> y = RandomDoubles(&rng, n);
    double results[2] = {0.0, 0.0};
    const bool both = RunBothBackends([&](Backend backend) {
      results[backend == Backend::kAvx2 ? 1 : 0] =
          Dot(x.data(), y.data(), n);
    });
    if (!both) GTEST_SKIP() << "CPU lacks AVX2; scalar-only host";
    EXPECT_EQ(std::memcmp(&results[0], &results[1], sizeof(double)), 0)
        << "n=" << n;
  }
}

TEST(KernelParityTest, DotMatchesOnUnalignedSlices) {
  std::mt19937_64 rng(202);
  const std::vector<double> x = RandomDoubles(&rng, 130);
  const std::vector<double> y = RandomDoubles(&rng, 130);
  for (size_t offset = 0; offset < 4; ++offset) {
    for (const size_t n : {1, 5, 33, 100}) {
      double results[2] = {0.0, 0.0};
      const bool both = RunBothBackends([&](Backend backend) {
        results[backend == Backend::kAvx2 ? 1 : 0] =
            Dot(x.data() + offset, y.data() + offset + 1, n);
      });
      if (!both) GTEST_SKIP() << "CPU lacks AVX2; scalar-only host";
      EXPECT_EQ(std::memcmp(&results[0], &results[1], sizeof(double)),
                0)
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST(KernelParityTest, ScaleGatherMatchesBitwiseForStrides) {
  std::mt19937_64 rng(303);
  for (const size_t stride : {1, 2, 3}) {
    for (const size_t n : {0, 1, 3, 4, 5, 17, 64, 129}) {
      const std::vector<double> base = RandomDoubles(&rng, n * stride + 1);
      const double scale = 1.7320508075688772;
      std::vector<double> out_scalar(n, 0.0), out_avx2(n, 0.0);
      const bool both = RunBothBackends([&](Backend backend) {
        ScaleGather(base.data(), stride, n, scale,
                    backend == Backend::kAvx2 ? out_avx2.data()
                                              : out_scalar.data());
      });
      if (!both) GTEST_SKIP() << "CPU lacks AVX2; scalar-only host";
      // Empty vectors may hand memcmp null pointers, which is UB even
      // for a zero length; the empty case only checks ScaleGather runs.
      if (n == 0) continue;
      ASSERT_EQ(std::memcmp(out_scalar.data(), out_avx2.data(),
                            n * sizeof(double)),
                0)
          << "stride=" << stride << " n=" << n;
    }
  }
}

TEST(KernelParityTest, NormalizedContributionMatchesBitwise) {
  std::mt19937_64 rng(404);
  for (const size_t n : {0, 1, 2, 4, 5, 31, 100}) {
    const std::vector<double> base = RandomDoubles(&rng, 2 * n + 1);
    double lo = 1e300, hi = -1e300;
    for (size_t i = 0; i < n; ++i) {
      lo = std::min(lo, base[2 * i]);
      hi = std::max(hi, base[2 * i]);
    }
    for (const double span : {n > 0 ? hi - lo : 0.0, 0.0}) {
      const double floor = 1.0 / static_cast<double>(n + 1);
      std::vector<double> out_scalar(n, 0.0), out_avx2(n, 0.0);
      const bool both = RunBothBackends([&](Backend backend) {
        NormalizedContribution(base.data(), 2, n, lo, span, floor, 0.75,
                               backend == Backend::kAvx2
                                   ? out_avx2.data()
                                   : out_scalar.data());
      });
      if (!both) GTEST_SKIP() << "CPU lacks AVX2; scalar-only host";
      // Empty vectors may hand memcmp null pointers, which is UB even
      // for a zero length; the empty case only checks ScaleGather runs.
      if (n == 0) continue;
      ASSERT_EQ(std::memcmp(out_scalar.data(), out_avx2.data(),
                            n * sizeof(double)),
                0)
          << "n=" << n << " span=" << span;
    }
  }
}

TEST(KernelParityTest, SparseCosineMatchesBitwiseAcrossBackends) {
  std::mt19937_64 rng(505);
  std::uniform_int_distribution<int> key_dist(0, 60);
  std::uniform_real_distribution<double> w_dist(-1.0, 1.0);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::pair<ItemId, double>> a, b;
    const size_t na = rng() % 20;
    const size_t nb = rng() % 20;
    for (size_t i = 0; i < na; ++i) a.push_back({key_dist(rng), w_dist(rng)});
    for (size_t i = 0; i < nb; ++i) b.push_back({key_dist(rng), w_dist(rng)});
    double norm_a = 0.0, norm_b = 0.0;
    for (const auto& [k, w] : a) norm_a += w * w;
    for (const auto& [k, w] : b) norm_b += w * w;
    double results[2] = {0.0, 0.0};
    const bool both = RunBothBackends([&](Backend backend) {
      results[backend == Backend::kAvx2 ? 1 : 0] =
          SparseCosine(a, b, norm_a, norm_b);
    });
    if (!both) GTEST_SKIP() << "CPU lacks AVX2; scalar-only host";
    EXPECT_EQ(std::memcmp(&results[0], &results[1], sizeof(double)), 0)
        << "round " << round;
  }
}

TEST(SparseCosineJoinerTest, ReuseMatchesOneShotCalls) {
  std::mt19937_64 rng(606);
  std::uniform_int_distribution<int> key_dist(0, 40);
  std::uniform_real_distribution<double> w_dist(-1.0, 1.0);
  std::vector<std::pair<ItemId, double>> row;
  for (int i = 0; i < 12; ++i) row.push_back({key_dist(rng), w_dist(rng)});
  double norm_row = 0.0;
  for (const auto& [k, w] : row) norm_row += w * w;

  SparseCosineJoiner<ItemId> joiner;
  joiner.SetLeft(row);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::pair<ItemId, double>> other;
    const size_t n = rng() % 25;
    for (size_t i = 0; i < n; ++i) {
      other.push_back({key_dist(rng), w_dist(rng)});
    }
    double norm_other = 0.0;
    for (const auto& [k, w] : other) norm_other += w * w;
    const double reused = joiner.Against(other, norm_row, norm_other);
    const double one_shot = SparseCosine(row, other, norm_row, norm_other);
    EXPECT_EQ(std::memcmp(&reused, &one_shot, sizeof(double)), 0)
        << "round " << round;
  }
}

TEST(SparseCosineJoinerTest, DuplicateLeftKeysKeepFirstOccurrence) {
  // The one-shot path's `emplace` kept the first occurrence of a
  // duplicated key; the joiner must preserve that.
  const std::vector<std::pair<ItemId, double>> left = {
      {3, 0.5}, {3, 99.0}, {7, 1.0}};
  const std::vector<std::pair<ItemId, double>> right = {{3, 2.0}, {7, 4.0}};
  const double expect = (0.5 * 2.0 + 1.0 * 4.0) /
                        (std::sqrt(0.5 * 0.5 + 99.0 * 99.0 + 1.0) *
                         std::sqrt(2.0 * 2.0 + 4.0 * 4.0));
  SparseCosineJoiner<ItemId> joiner;
  joiner.SetLeft(left);
  const double norm_left = 0.5 * 0.5 + 99.0 * 99.0 + 1.0;
  const double got = joiner.Against(right, norm_left, 20.0);
  EXPECT_DOUBLE_EQ(got, expect);
}

TEST(SparseCosineJoinerTest, NonPositiveNormsShortCircuitToZero) {
  const std::vector<std::pair<ItemId, double>> v = {{1, 1.0}};
  SparseCosineJoiner<ItemId> joiner;
  joiner.SetLeft(v);
  EXPECT_EQ(joiner.Against(v, 0.0, 1.0), 0.0);
  EXPECT_EQ(joiner.Against(v, 1.0, -1e-18), 0.0);
}

TEST(ScoreAccumulatorTest, MatchesUnorderedMapSumsAndFirstTouchOrder) {
  std::mt19937_64 rng(707);
  std::uniform_int_distribution<ItemId> item_dist(0, 99);
  std::uniform_real_distribution<double> w_dist(-2.0, 2.0);
  ScoreAccumulator acc;
  for (int round = 0; round < 20; ++round) {
    acc.Begin(8);
    std::unordered_map<ItemId, double> reference;
    std::vector<ItemId> first_touch;
    const size_t adds = rng() % 500;
    for (size_t i = 0; i < adds; ++i) {
      const ItemId item = item_dist(rng);
      const double delta = w_dist(rng);
      const size_t slot = acc.Add(item, delta);
      auto [it, inserted] = reference.emplace(item, 0.0);
      if (inserted) first_touch.push_back(item);
      it->second += delta;
      ASSERT_LT(slot, first_touch.size());
      EXPECT_EQ(first_touch[slot], item) << "round " << round;
    }
    ASSERT_EQ(acc.size(), reference.size()) << "round " << round;
    for (size_t i = 0; i < acc.size(); ++i) {
      EXPECT_EQ(acc.item(i), first_touch[i]) << "round " << round;
      const double expect = reference.at(acc.item(i));
      const double got = acc.score(i);
      EXPECT_EQ(std::memcmp(&got, &expect, sizeof(double)), 0)
          << "round " << round << " slot " << i;
    }
  }
}

TEST(ScoreAccumulatorTest, GrowthPreservesSumsBitwise) {
  // Start tiny and force several growths mid-accumulation; sums and
  // first-touch order must be unaffected (the map reference never
  // rehashes values, only buckets).
  ScoreAccumulator acc;
  acc.Begin(1);
  std::unordered_map<ItemId, double> reference;
  std::vector<ItemId> first_touch;
  std::mt19937_64 rng(808);
  std::uniform_real_distribution<double> w_dist(-1.0, 1.0);
  for (ItemId item = 0; item < 3000; ++item) {
    const double delta = w_dist(rng);
    // Items arrive in id order, so each one's slot is its id.
    ASSERT_EQ(acc.Add(item, delta), static_cast<size_t>(item));
    reference.emplace(item, 0.0);
    first_touch.push_back(item);
    reference[item] += delta;
    if (item % 7 == 0) {
      // Revisit an earlier slot.
      ASSERT_EQ(acc.Add(item / 2, 0.25), static_cast<size_t>(item / 2));
      reference[item / 2] += 0.25;
    }
  }
  ASSERT_EQ(acc.size(), reference.size());
  for (size_t i = 0; i < acc.size(); ++i) {
    EXPECT_EQ(acc.item(i), first_touch[i]);
    const double expect = reference.at(acc.item(i));
    const double got = acc.score(i);
    ASSERT_EQ(std::memcmp(&got, &expect, sizeof(double)), 0)
        << "slot " << i;
  }
}

TEST(ScoreAccumulatorTest, BeginDropsPriorItems) {
  ScoreAccumulator acc;
  acc.Begin(4);
  acc.Add(1, 1.0);
  acc.Add(2, 2.0);
  ASSERT_EQ(acc.size(), 2u);
  acc.Begin(4);
  EXPECT_EQ(acc.size(), 0u);
  acc.Add(2, 5.0);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc.item(0), 2);
  EXPECT_EQ(acc.score(0), 5.0);
  // Growth right after a reset must not resurrect stale items.
  acc.Begin(4096);
  EXPECT_EQ(acc.size(), 0u);
}

}  // namespace
}  // namespace spa::recsys::kernels
