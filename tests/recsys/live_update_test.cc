#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/content_based.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"
#include "recsys/similarity_index.h"

/// The live-update stack: sharded interaction store, incremental
/// similarity-index refresh, and the engine's ApplyInteractions write
/// path. The load-bearing claims tested here:
///
///  * shard count never changes stored data or rankings (bit-for-bit),
///  * an incremental Refresh is bitwise-identical to a full rebuild /
///    full refit, for random update streams across shard counts and
///    full-rebuild thresholds,
///  * ApplyInteractions invalidates exactly the affected users' cache
///    entries, and
///  * serve-while-ApplyInteractions is race-free (LiveUpdateEngineTest
///    runs under TSAN in CI).

namespace spa::recsys {
namespace {

/// Random two-community matrix (same shape the serving bench uses).
InteractionMatrix MakeRandomMatrix(uint64_t seed, size_t users,
                                   size_t items, size_t shards) {
  Rng rng(seed);
  InteractionMatrix m(shards);
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    const auto base =
        static_cast<ItemId>((u % 2 == 0) ? 0 : items / 2);
    for (int j = 0; j < 6; ++j) {
      const auto item = static_cast<ItemId>(
          base + rng.UniformInt(0, static_cast<int64_t>(items) / 2 - 1));
      m.Add(u, item, rng.Uniform(0.2, 3.0));
    }
  }
  return m;
}

/// One random interaction batch, applied nowhere (the caller decides).
std::vector<Interaction> MakeBatch(Rng* rng, size_t batch_size,
                                   size_t users, size_t items) {
  std::vector<Interaction> batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    batch.push_back(
        {static_cast<UserId>(
             rng->UniformInt(0, static_cast<int64_t>(users) - 1)),
         static_cast<ItemId>(
             rng->UniformInt(0, static_cast<int64_t>(items) - 1)),
         rng->Uniform(0.2, 3.0)});
  }
  return batch;
}

template <typename Id>
void ExpectSameIndex(const SimilarityIndex<Id>& a,
                     const SimilarityIndex<Id>& b,
                     const std::vector<Id>& row_ids) {
  for (const Id id : row_ids) {
    const auto ra = a.NeighborsOf(id);
    const auto rb = b.NeighborsOf(id);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << id;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id) << "row " << id << " rank " << i;
      EXPECT_EQ(ra[i].similarity, rb[i].similarity)  // bitwise
          << "row " << id << " rank " << i;
    }
  }
}

// ---- sharded store ---------------------------------------------------------

TEST(ShardedMatrixTest, ShardCountIsContentInvariant) {
  // The same Add stream into 1, 3 and 8 shards must store bit-for-bit
  // identical data: row order, posting order, weights, norms, counts.
  std::vector<InteractionMatrix> matrices;
  matrices.emplace_back(1);
  matrices.emplace_back(3);
  matrices.emplace_back(8);
  for (InteractionMatrix& m : matrices) {
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
      m.Add(static_cast<UserId>(rng.UniformInt(0, 39)),
            static_cast<ItemId>(rng.UniformInt(0, 19)),
            rng.Uniform(0.1, 2.0));
    }
  }
  const InteractionMatrix& reference = matrices[0];
  EXPECT_EQ(reference.shard_count(), 1u);
  EXPECT_EQ(matrices[2].shard_count(), 8u);
  for (const InteractionMatrix& m : matrices) {
    EXPECT_EQ(m.users(), reference.users());
    EXPECT_EQ(m.items(), reference.items());
    EXPECT_EQ(m.version(), reference.version());
    EXPECT_EQ(m.interaction_count(), reference.interaction_count());
    EXPECT_EQ(m.user_count(), reference.user_count());
    EXPECT_EQ(m.item_count(), reference.item_count());
    for (UserId u : reference.users()) {
      EXPECT_EQ(m.ItemsOf(u), reference.ItemsOf(u)) << "user " << u;
      EXPECT_EQ(m.UserNormSquared(u), reference.UserNormSquared(u));
    }
    for (ItemId i : reference.items()) {
      EXPECT_EQ(m.UsersOf(i), reference.UsersOf(i)) << "item " << i;
      EXPECT_EQ(m.ItemNormSquared(i), reference.ItemNormSquared(i));
    }
  }
}

TEST(ShardedMatrixTest, ShardVersionsSumToGlobalVersion) {
  const InteractionMatrix m = MakeRandomMatrix(11, 30, 20, 4);
  uint64_t user_side = 0, item_side = 0;
  for (size_t s = 0; s < m.shard_count(); ++s) {
    user_side += m.user_shard_version(s);
    item_side += m.item_shard_version(s);
  }
  EXPECT_EQ(user_side, m.version());
  EXPECT_EQ(item_side, m.version());
  EXPECT_GT(m.version(), 0u);
}

TEST(ShardedMatrixTest, TouchedSinceReportsExactlyTheDirtyRows) {
  InteractionMatrix m = MakeRandomMatrix(13, 30, 20, 4);
  const uint64_t checkpoint = m.version();
  EXPECT_TRUE(m.UsersTouchedSince(checkpoint).empty());
  EXPECT_TRUE(m.ItemsTouchedSince(checkpoint).empty());

  m.Add(5, 17, 1.0);
  m.Add(22, 17, 0.5);
  m.Add(5, 3, 2.0);
  EXPECT_EQ(m.UsersTouchedSince(checkpoint),
            (std::vector<UserId>{5, 22}));
  EXPECT_EQ(m.ItemsTouchedSince(checkpoint),
            (std::vector<ItemId>{3, 17}));
  // From the beginning of time, everything is dirty.
  EXPECT_EQ(m.UsersTouchedSince(0).size(), m.user_count());
  EXPECT_EQ(m.ItemsTouchedSince(0).size(), m.item_count());
}

/// Brute-force TouchedSince for every cursor in [from, version]: sweeps
/// the cursor downward, growing the expected set from each row's last
/// stamp, and compares it with `touched_since(cursor)`.
template <typename Id, typename TouchedSince>
void ExpectTouchedSinceSweep(
    uint64_t version, uint64_t from,
    const std::unordered_map<Id, uint64_t>& last_stamp,
    const TouchedSince& touched_since) {
  std::vector<std::pair<uint64_t, Id>> by_stamp;
  for (const auto& [id, stamp] : last_stamp) by_stamp.emplace_back(stamp, id);
  std::sort(by_stamp.rbegin(), by_stamp.rend());  // newest first
  std::vector<Id> expected;
  size_t next = 0;
  for (uint64_t since = version + 1; since-- > from;) {
    while (next < by_stamp.size() && by_stamp[next].first > since) {
      const Id id = by_stamp[next++].second;
      expected.insert(
          std::upper_bound(expected.begin(), expected.end(), id), id);
    }
    ASSERT_EQ(touched_since(since), expected) << "since " << since;
  }
}

/// Both TouchedSince views against the reference, cursors [from,
/// version()].
void ExpectTouchedSinceMatchesReference(
    const InteractionMatrix& m,
    const std::unordered_map<UserId, uint64_t>& user_stamp,
    const std::unordered_map<ItemId, uint64_t>& item_stamp,
    uint64_t from = 0) {
  ExpectTouchedSinceSweep(m.version(), from, user_stamp, [&](uint64_t v) {
    return m.UsersTouchedSince(v);
  });
  ExpectTouchedSinceSweep(m.version(), from, item_stamp, [&](uint64_t v) {
    return m.ItemsTouchedSince(v);
  });
}

/// True when some user shard and some item shard saw more touches
/// than a journal holds, so old cursors must take the full stamp scan.
bool SomeJournalsOverflowed(const InteractionMatrix& m) {
  bool user_side = false, item_side = false;
  for (size_t s = 0; s < m.shard_count(); ++s) {
    user_side |= m.user_shard_version(s) >
                 InteractionMatrix::kTouchJournalCapacity;
    item_side |= m.item_shard_version(s) >
                 InteractionMatrix::kTouchJournalCapacity;
  }
  return user_side && item_side;
}

TEST(ShardedMatrixTest, JournaledTouchedSinceMatchesBruteForce) {
  // Add runs and ApplyBatch batches (pooled and not) interleave until
  // a user and an item journal have overflowed, plus two more rounds:
  // recent cursors then read the journal and old ones fall back to the
  // stamp scan — both must equal the brute-force reference at every
  // cursor. Few distinct rows keep every shard count's stream short.
  ThreadPool pool(2);
  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    InteractionMatrix m(shards);
    std::unordered_map<UserId, uint64_t> user_stamp;
    std::unordered_map<ItemId, uint64_t> item_stamp;
    Rng rng(131 + shards);
    for (int round = 0, extra = 0; extra < 2; ++round) {
      const auto batch = MakeBatch(
          &rng, static_cast<size_t>(rng.UniformInt(1, 100)), 40, 20);
      if (round % 2 == 0) {
        for (const Interaction& x : batch) {
          const uint64_t stamp = m.Add(x.user, x.item, x.weight);
          user_stamp[x.user] = stamp;
          item_stamp[x.item] = stamp;
        }
      } else {
        const uint64_t v0 = m.version();
        m.ApplyBatch(batch, round % 4 == 1 ? &pool : nullptr);
        for (size_t i = 0; i < batch.size(); ++i) {
          user_stamp[batch[i].user] = v0 + i + 1;
          item_stamp[batch[i].item] = v0 + i + 1;
        }
      }
      if (SomeJournalsOverflowed(m)) ++extra;
    }
    ExpectTouchedSinceMatchesReference(m, user_stamp, item_stamp);
  }
}

TEST(ShardedMatrixTest, JournalStaysExactUnderConcurrentAdds) {
  // Concurrent Adds draw stamps before taking the shard locks, so the
  // journal receives them out of order, and an overwritten slot can
  // hold an older stamp than one overwritten before it. Every Add
  // touches a fresh user and a fresh item, so a dropped touch is its
  // row's only one: judging coverage by the last overwritten stamp
  // instead of the highest would lose rows. Each round races 4
  // threads on one shard (maximal contention), joins them, and checks
  // every cursor from just below the journal's edge up.
  constexpr int kThreads = 4;
  constexpr int kAddsPerRound = 40;
  constexpr int kRounds = 24;
  InteractionMatrix m(1);
  std::unordered_map<UserId, uint64_t> user_stamp;
  std::unordered_map<ItemId, uint64_t> item_stamp;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<std::pair<int, uint64_t>>> logs(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kAddsPerRound; ++i) {
          const int row = (round * kThreads + t) * kAddsPerRound + i;
          logs[t].emplace_back(row,
                               m.Add(row, static_cast<ItemId>(row), 1.0));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    for (const auto& log : logs) {
      for (const auto& [row, stamp] : log) {
        user_stamp[row] = stamp;
        item_stamp[static_cast<ItemId>(row)] = stamp;
      }
    }
    const uint64_t edge = InteractionMatrix::kTouchJournalCapacity + 32;
    ExpectTouchedSinceMatchesReference(
        m, user_stamp, item_stamp,
        m.version() < edge ? 0 : m.version() - edge);
  }
  ASSERT_EQ(m.version(), uint64_t{kThreads} * kAddsPerRound * kRounds);
  EXPECT_TRUE(SomeJournalsOverflowed(m));
}

TEST(ShardedMatrixTest, CopyIsIdenticalAndIndependent) {
  // The router hands every replica a copy of one replayed matrix. A
  // copy must answer every read as its source does (TouchedSince from
  // the journals and from the stamp scan included), stay identical
  // under the same batches, and share nothing with its source. One
  // shard overflows its journals; eight shards do not.
  ThreadPool pool(2);
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(shards);
    InteractionMatrix source = MakeRandomMatrix(29, 60, 30, shards);
    InteractionMatrix replay = MakeRandomMatrix(29, 60, 30, shards);
    InteractionMatrix copy(source);
    ExpectIdenticalMatrices(source, copy);

    Rng rng(37 + shards);
    for (int round = 0; round < 3; ++round) {
      // Brand-new users and items plus a repeated cell.
      auto batch = MakeBatch(&rng, 20, 64, 34);
      batch.push_back(batch.front());
      source.ApplyBatch(batch, &pool);
      replay.ApplyBatch(batch, &pool);
      copy.ApplyBatch(batch, &pool);
      ExpectIdenticalMatrices(source, copy);
    }

    // An existing cell, then a brand-new user and item, on the copy.
    const UserId user = source.users().front();
    copy.Add(user, source.ItemsOf(user).front().first, 1.5);
    copy.Add(1000, 1000, 2.0);
    ExpectIdenticalMatrices(source, replay);
    EXPECT_EQ(copy.version(), source.version() + 2);
    EXPECT_EQ(copy.user_count(), source.user_count() + 1);
    EXPECT_NE(copy.UserNormSquared(user), source.UserNormSquared(user));
    EXPECT_EQ(copy.UsersTouchedSince(source.version()),
              (std::vector<UserId>{user, 1000}));
    EXPECT_TRUE(source.UsersTouchedSince(source.version()).empty());
  }
}

TEST(ShardedMatrixTest, MoveAssignPreservesContent) {
  // core::Spa rebuilds its store in place via move assignment.
  InteractionMatrix a = MakeRandomMatrix(17, 20, 10, 2);
  const size_t interactions = a.interaction_count();
  InteractionMatrix b;
  b = std::move(a);
  EXPECT_EQ(b.interaction_count(), interactions);
  EXPECT_EQ(b.shard_count(), 2u);
  EXPECT_FALSE(b.ItemsOf(b.users().front()).empty());
}

// ---- incremental index refresh ---------------------------------------------

/// Applies random update rounds and checks after each that the
/// refreshed index equals a from-scratch rebuild, bitwise, for every
/// row. Sweeps shard counts and full-rebuild thresholds (0 forces the
/// fallback path, 1.0 forces the incremental path).
TEST(IndexRefreshTest, UserIndexRefreshMatchesFullRebuild) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    for (const double threshold : {0.0, 0.3, 1.0}) {
      InteractionMatrix m = MakeRandomMatrix(23, 60, 30, shards);
      SimilarityIndexConfig config;
      config.top_n = 5;
      config.full_rebuild_fraction = threshold;
      auto index = BuildUserSimilarityIndex(m, config);
      Rng rng(29);
      for (int round = 0; round < 4; ++round) {
        for (const Interaction& x : MakeBatch(&rng, 8, 60, 30)) {
          m.Add(x.user, x.item, x.weight);
        }
        const auto report = RefreshUserSimilarityIndex(&index, m);
        ASSERT_TRUE(report.refreshed);
        EXPECT_EQ(index.built_version(), m.version());
        const auto reference = BuildUserSimilarityIndex(m, config);
        ExpectSameIndex(index, reference, m.users());
        if (threshold == 0.0) {
          EXPECT_TRUE(report.full_rebuild);
        }
        if (threshold == 1.0) {
          EXPECT_FALSE(report.full_rebuild);
          EXPECT_GT(report.rows.size(), 0u);
          EXPECT_GE(report.rows.size(), report.dirty_rows);
        }
      }
    }
  }
}

TEST(IndexRefreshTest, ItemIndexRefreshMatchesFullRebuild) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    for (const double threshold : {0.0, 0.3, 1.0}) {
      InteractionMatrix m = MakeRandomMatrix(31, 60, 30, shards);
      SimilarityIndexConfig config;
      config.top_n = 5;
      config.full_rebuild_fraction = threshold;
      auto index = BuildItemSimilarityIndex(m, config);
      Rng rng(37);
      for (int round = 0; round < 4; ++round) {
        for (const Interaction& x : MakeBatch(&rng, 8, 60, 30)) {
          m.Add(x.user, x.item, x.weight);
        }
        const auto report = RefreshItemSimilarityIndex(&index, m);
        ASSERT_TRUE(report.refreshed);
        EXPECT_EQ(index.built_version(), m.version());
        const auto reference = BuildItemSimilarityIndex(m, config);
        ExpectSameIndex(index, reference, m.items());
      }
    }
  }
}

TEST(IndexRefreshTest, CleanIndexRefreshIsANoOp) {
  const InteractionMatrix m = MakeRandomMatrix(41, 40, 20, 2);
  auto index = BuildUserSimilarityIndex(m);
  const auto report = RefreshUserSimilarityIndex(&index, m);
  EXPECT_FALSE(report.refreshed);
  EXPECT_EQ(index.stats().refreshes, 0u);
}

TEST(IndexRefreshTest, NewUsersAndItemsEnterTheIndex) {
  InteractionMatrix m = MakeRandomMatrix(43, 40, 20, 2);
  SimilarityIndexConfig config;
  config.full_rebuild_fraction = 1.0;  // force the incremental path
  auto user_index = BuildUserSimilarityIndex(m, config);
  auto item_index = BuildItemSimilarityIndex(m, config);

  // A brand-new user interacts with a brand-new item and an old one.
  m.Add(999, 777, 1.0);
  m.Add(999, 3, 2.0);
  ASSERT_TRUE(RefreshUserSimilarityIndex(&user_index, m).refreshed);
  ASSERT_TRUE(RefreshItemSimilarityIndex(&item_index, m).refreshed);

  ExpectSameIndex(user_index, BuildUserSimilarityIndex(m, config),
                  m.users());
  ExpectSameIndex(item_index, BuildItemSimilarityIndex(m, config),
                  m.items());
  EXPECT_FALSE(user_index.NeighborsOf(999).empty());
}

TEST(IndexRefreshTest, StatsAccumulateAcrossRefreshes) {
  InteractionMatrix m = MakeRandomMatrix(47, 40, 20, 2);
  SimilarityIndexConfig config;
  config.full_rebuild_fraction = 1.0;
  auto index = BuildUserSimilarityIndex(m, config);
  EXPECT_EQ(index.stats().refreshes, 0u);
  m.Add(1, 2, 1.0);
  (void)RefreshUserSimilarityIndex(&index, m);
  m.Add(3, 4, 1.0);
  (void)RefreshUserSimilarityIndex(&index, m);
  EXPECT_EQ(index.stats().refreshes, 2u);
  EXPECT_EQ(index.stats().full_rebuild_refreshes, 0u);
  EXPECT_GT(index.stats().rows_refreshed_total, 0u);
  EXPECT_GT(index.stats().last_refresh_rows, 0u);
  EXPECT_EQ(index.stats().matrix_version, m.version());
  EXPECT_GT(index.stats().entries, 0u);
  EXPECT_GT(index.stats().memory_bytes, 0u);
}

// ---- recommender-level refresh ---------------------------------------------

TEST(KnnRefreshTest, RefreshRestoresServingAfterMutation) {
  InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender user_rec;  // indexed by default
  ItemKnnRecommender item_rec;
  ASSERT_TRUE(user_rec.Fit(m).ok());
  ASSERT_TRUE(item_rec.Fit(m).ok());

  m.Add(0, 7, 1.0);  // mutation after Fit: serving would SPA_CHECK

  RefreshOutcome user_outcome;
  ASSERT_TRUE(user_rec.Refresh(&user_outcome).ok());
  EXPECT_TRUE(user_outcome.refreshed_index);
  RefreshOutcome item_outcome;
  ASSERT_TRUE(item_rec.Refresh(&item_outcome).ok());
  EXPECT_TRUE(item_outcome.refreshed_index);

  // Serving resumes and matches freshly fitted recommenders bitwise.
  UserKnnRecommender user_refit;
  ItemKnnRecommender item_refit;
  ASSERT_TRUE(user_refit.Fit(m).ok());
  ASSERT_TRUE(item_refit.Fit(m).ok());
  for (UserId u : m.users()) {
    const auto refreshed_u = RecommendTopK(user_rec, u, 5);
    const auto refit_u = RecommendTopK(user_refit, u, 5);
    ASSERT_EQ(refreshed_u.size(), refit_u.size());
    for (size_t i = 0; i < refreshed_u.size(); ++i) {
      EXPECT_EQ(refreshed_u[i].item, refit_u[i].item);
      EXPECT_EQ(refreshed_u[i].score, refit_u[i].score);
    }
    const auto refreshed_i = RecommendTopK(item_rec, u, 5);
    const auto refit_i = RecommendTopK(item_refit, u, 5);
    ASSERT_EQ(refreshed_i.size(), refit_i.size());
    for (size_t i = 0; i < refreshed_i.size(); ++i) {
      EXPECT_EQ(refreshed_i[i].item, refit_i[i].item);
      EXPECT_EQ(refreshed_i[i].score, refit_i[i].score);
    }
  }
}

TEST(KnnRefreshTest, UserKnnReportsReverseNeighborsAsAffected) {
  // Two communities share no items: an update to user 0 can only
  // affect community-0 rows.
  InteractionMatrix m = MakeTwoCommunityMatrix();
  KnnConfig config;
  config.refresh_full_rebuild_fraction = 1.0;
  UserKnnRecommender rec(config);
  ASSERT_TRUE(rec.Fit(m).ok());
  m.Add(0, 2, 1.0);
  RefreshOutcome outcome;
  ASSERT_TRUE(rec.Refresh(&outcome).ok());
  EXPECT_FALSE(outcome.all_users);
  EXPECT_FALSE(outcome.affected_users.empty());
  for (const UserId u : outcome.affected_users) {
    EXPECT_LT(u, 5) << "community-1 user reported affected";
  }
}

TEST(KnnRefreshTest, LazyKnnCannotBoundTheAffectedSet) {
  InteractionMatrix m = MakeTwoCommunityMatrix();
  UserKnnRecommender rec(KnnConfig{.use_index = false});
  ASSERT_TRUE(rec.Fit(m).ok());
  m.Add(0, 2, 1.0);
  RefreshOutcome outcome;
  ASSERT_TRUE(rec.Refresh(&outcome).ok());
  EXPECT_TRUE(outcome.all_users);
  EXPECT_FALSE(outcome.refreshed_index);
}

/// The whole popularity ranking, item and score per rank.
std::vector<Scored> FullRanking(const PopularityRecommender& rec) {
  CandidateQuery query;
  query.k = SIZE_MAX;
  query.exclude_seen = ExcludeSeen::kNo;
  return rec.RecommendCandidates(query);
}

/// The first rank at which two rankings differ in item or (bitwise)
/// score — a rank only one of them has counts — or SIZE_MAX when they
/// are equal.
size_t FirstDifference(const std::vector<Scored>& a,
                       const std::vector<Scored>& b) {
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size() || a[i].item != b[i].item ||
        a[i].score != b[i].score) {
      return i;
    }
  }
  return SIZE_MAX;
}

TEST(PopularityRefreshTest, RefreshMatchesRefitBitwise) {
  InteractionMatrix m = MakeRandomMatrix(53, 30, 15, 2);
  PopularityRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  const std::vector<Scored> before = FullRanking(rec);
  Rng rng(59);
  for (const Interaction& x : MakeBatch(&rng, 10, 30, 15)) {
    m.Add(x.user, x.item, x.weight);
  }
  RefreshOutcome outcome;
  ASSERT_TRUE(rec.Refresh(&outcome).ok());
  // Popularity names no users; it reports the first rank it changed.
  EXPECT_FALSE(outcome.all_users);
  EXPECT_TRUE(outcome.affected_users.empty());
  EXPECT_EQ(outcome.unchanged_prefix,
            FirstDifference(before, FullRanking(rec)));
  EXPECT_GT(outcome.rows_refreshed, 0u);

  PopularityRecommender refit;
  ASSERT_TRUE(refit.Fit(m).ok());
  CandidateQuery query;
  query.user = 0;
  query.k = 15;
  query.exclude_seen = ExcludeSeen::kNo;
  const auto a = rec.RecommendCandidates(query);
  const auto b = refit.RecommendCandidates(query);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(PopularityRefreshTest, CleanRefreshIsANoOp) {
  // Mirrors IndexRefreshTest.CleanIndexRefreshIsANoOp: nothing moved,
  // so nothing is refreshed and no user is reported affected.
  const InteractionMatrix m = MakeRandomMatrix(71, 30, 15, 2);
  PopularityRecommender rec;
  ASSERT_TRUE(rec.Fit(m).ok());
  RefreshOutcome outcome;
  ASSERT_TRUE(rec.Refresh(&outcome).ok());
  EXPECT_FALSE(outcome.all_users);
  EXPECT_EQ(outcome.rows_refreshed, 0u);
  EXPECT_TRUE(outcome.affected_users.empty());
  EXPECT_EQ(outcome.unchanged_prefix, SIZE_MAX);
}

/// Fitted items of the popularity differential tests live at
/// [kItemBase, kItemBase + items); brand-new items are drawn below and
/// above that range, so a forced tie can fall on either side of the
/// item-id order.
constexpr ItemId kItemBase = 500;

InteractionMatrix MakeOffsetItemMatrix(uint64_t seed, size_t users,
                                       size_t items) {
  Rng rng(seed);
  InteractionMatrix m(4);
  for (const Interaction& x : MakeBatch(&rng, users * 6, users, items)) {
    m.Add(x.user, x.item + kItemBase, x.weight);
  }
  return m;
}

/// Brand-new item ids handed out below and above the fitted range.
struct NewItemIds {
  ItemId below = kItemBase - 1;
  ItemId above;
};

/// One batch for the popularity differential tests: random cells over
/// fitted items plus four brand-new items whose totals force ties —
/// one equal to some item's current total from each side of the id
/// range, and a below/above pair with equal totals — so the item-id
/// tie-break decides positions.
std::vector<Interaction> MakeTieForcingBatch(Rng* rng,
                                             const InteractionMatrix& m,
                                             size_t users, size_t items,
                                             NewItemIds* ids) {
  std::vector<Interaction> batch = MakeBatch(
      rng, static_cast<size_t>(rng->UniformInt(1, 6)), users, items);
  for (Interaction& x : batch) x.item += kItemBase;
  const auto user = [&] {
    return static_cast<UserId>(
        rng->UniformInt(0, static_cast<int64_t>(users) - 1));
  };
  const auto some_total = [&] {
    const ItemId item = m.items()[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(m.item_count()) - 1))];
    double total = 0.0;
    for (const auto& [u, w] : m.UsersOf(item)) total += w;
    return total;
  };
  batch.push_back({user(), ids->below--, some_total()});
  batch.push_back({user(), ids->above++, some_total()});
  const double shared = rng->Uniform(0.2, 3.0);
  batch.push_back({user(), ids->below--, shared});
  batch.push_back({user(), ids->above++, shared});
  return batch;
}

/// Every position of the two full rankings, item and bitwise score;
/// returns the number of adjacent equal-score pairs seen.
size_t ExpectSameFullRanking(const std::vector<Scored>& a,
                             const std::vector<Scored>& b) {
  size_t ties = 0;
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "position " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "position " << i;  // bitwise
    if (i > 0 && a[i].score == a[i - 1].score) ++ties;
  }
  return ties;
}

TEST(PopularityRefreshTest, IncrementalRerankMatchesRefitOverRandomBatches) {
  // The incremental re-rank merges only the dirty items back; after
  // every batch the whole ranking must equal a fresh Fit's.
  InteractionMatrix m = MakeOffsetItemMatrix(73, 40, 30);
  PopularityRecommender live;
  ASSERT_TRUE(live.Fit(m).ok());
  Rng rng(79);
  NewItemIds new_items{.above = kItemBase + 30};
  size_t ties = 0;
  for (int round = 0; round < 60; ++round) {
    const auto batch = MakeTieForcingBatch(&rng, m, 40, 30, &new_items);
    const std::vector<Scored> before = FullRanking(live);
    if (round % 2 == 0) {
      m.ApplyBatch(batch, nullptr);
    } else {
      for (const Interaction& x : batch) m.Add(x.user, x.item, x.weight);
    }
    RefreshOutcome outcome;
    ASSERT_TRUE(live.Refresh(&outcome).ok());
    EXPECT_FALSE(outcome.all_users);
    EXPECT_EQ(outcome.unchanged_prefix,
              FirstDifference(before, FullRanking(live)))
        << "round " << round;
    PopularityRecommender refit;
    ASSERT_TRUE(refit.Fit(m).ok());
    CandidateQuery query;
    query.k = m.item_count();
    query.exclude_seen = ExcludeSeen::kNo;
    const auto a = live.RecommendCandidates(query);
    ASSERT_EQ(a.size(), m.item_count());
    ties += ExpectSameFullRanking(a, refit.RecommendCandidates(query));
  }
  EXPECT_GE(ties, 60u);  // the tie-break really decided positions
}

// ---- engine ApplyInteractions ----------------------------------------------

std::unique_ptr<RecsysEngine> MakeKnnEngine(
    size_t cache_capacity, double full_rebuild_fraction = 0.25) {
  EngineConfig config;
  config.response_cache_capacity = cache_capacity;
  KnnConfig knn;
  knn.refresh_full_rebuild_fraction = full_rebuild_fraction;
  auto engine = std::make_unique<RecsysEngine>(config);
  engine->AddComponent(std::make_unique<UserKnnRecommender>(knn), 0.6);
  engine->AddComponent(std::make_unique<ItemKnnRecommender>(knn), 0.4);
  return engine;
}

void ExpectSameResponses(const RecommendResponse& a,
                         const RecommendResponse& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].item, b.items[i].item);
    EXPECT_EQ(a.items[i].score, b.items[i].score);  // bitwise
  }
}

TEST(LiveUpdateEngineTest, ApplyInteractionsMatchesFullRefit) {
  // The tentpole claim end to end: after every live batch, the
  // incrementally maintained engine ranks bitwise-identically to an
  // engine fully refitted on the same matrix.
  InteractionMatrix matrix = MakeRandomMatrix(61, 60, 30, 4);
  auto live = MakeKnnEngine(/*cache_capacity=*/128);
  ASSERT_TRUE(live->Fit(&matrix).ok());
  auto refit = MakeKnnEngine(/*cache_capacity=*/0);
  Rng rng(67);
  for (int round = 0; round < 3; ++round) {
    const auto batch = MakeBatch(&rng, 12, 60, 30);
    const auto report = live->ApplyInteractions(batch);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().interactions, batch.size());
    ASSERT_TRUE(refit->Fit(matrix).ok());
    for (UserId u : matrix.users()) {
      RecommendRequest request;
      request.user = u;
      request.k = 8;
      const auto a = live->Recommend(request);
      const auto b = refit->Recommend(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectSameResponses(a.value(), b.value());
    }
  }
  EXPECT_EQ(live->live_update_stats().batches, 3u);
  EXPECT_GT(live->live_update_stats().rows_refreshed, 0u);
}

std::vector<Scored> AsScored(const RecommendResponse& response) {
  std::vector<Scored> out;
  for (const RecommendedItem& item : response.items) {
    out.push_back({item.item, item.score});
  }
  return out;
}

TEST(LiveUpdateEngineTest, FallbackTierMatchesRefitAfterEveryApply) {
  // The degrade tier re-ranks incrementally too; after every batch its
  // whole ranking must equal a freshly fitted engine's.
  InteractionMatrix matrix = MakeOffsetItemMatrix(83, 40, 30);
  auto live = MakeKnnEngine(/*cache_capacity=*/64);
  ASSERT_TRUE(live->Fit(&matrix).ok());
  Rng rng(89);
  NewItemIds new_items{.above = kItemBase + 30};
  size_t ties = 0;
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(live->ApplyInteractions(
                        MakeTieForcingBatch(&rng, matrix, 40, 30,
                                            &new_items))
                    .ok());
    auto refit = MakeKnnEngine(/*cache_capacity=*/0);
    ASSERT_TRUE(refit->Fit(matrix).ok());
    for (const ExcludeSeen exclude : {ExcludeSeen::kNo, ExcludeSeen::kYes}) {
      RecommendRequest request;
      request.user = static_cast<UserId>(round % 40);
      request.k = matrix.item_count();
      request.exclude_seen = exclude;
      const auto a = live->RecommendFallback(request);
      const auto b = refit->RecommendFallback(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ties += ExpectSameFullRanking(AsScored(a.value()), AsScored(b.value()));
    }
  }
  EXPECT_GE(ties, 50u);
}

TEST(LiveUpdateEngineTest, ShardCountDoesNotChangeRankings) {
  // N=1 vs N=8: identical adds, identical live-update batches,
  // identical rankings throughout.
  InteractionMatrix m1 = MakeRandomMatrix(71, 60, 30, 1);
  InteractionMatrix m8 = MakeRandomMatrix(71, 60, 30, 8);
  auto e1 = MakeKnnEngine(64);
  auto e8 = MakeKnnEngine(64);
  ASSERT_TRUE(e1->Fit(&m1).ok());
  ASSERT_TRUE(e8->Fit(&m8).ok());

  auto expect_identical = [&] {
    for (UserId u : m1.users()) {
      RecommendRequest request;
      request.user = u;
      request.k = 8;
      const auto a = e1->Recommend(request);
      const auto b = e8->Recommend(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectSameResponses(a.value(), b.value());
    }
  };
  expect_identical();

  Rng rng(73);
  const auto batch = MakeBatch(&rng, 16, 60, 30);
  ASSERT_TRUE(e1->ApplyInteractions(batch).ok());
  ASSERT_TRUE(e8->ApplyInteractions(batch).ok());
  EXPECT_EQ(m1.version(), m8.version());
  expect_identical();
}

TEST(LiveUpdateEngineTest, OnlyAffectedUsersCacheEntriesAreDropped) {
  // Two communities share no items, so a batch touching community 0
  // must leave community-1 entries hot. (KNN-only stack: on a
  // ten-item catalogue every popularity candidate walk reaches the
  // ranks a batch moves, so a popularity component would drop them.)
  InteractionMatrix matrix = MakeTwoCommunityMatrix();
  // Force the incremental path: the 10-user fixture trips the default
  // full-rebuild threshold, and a full rebuild honestly reports every
  // user as potentially affected.
  auto engine = MakeKnnEngine(/*cache_capacity=*/64,
                              /*full_rebuild_fraction=*/1.0);
  ASSERT_TRUE(engine->Fit(&matrix).ok());

  RecommendRequest community0;
  community0.user = 1;
  community0.k = 3;
  RecommendRequest community1;
  community1.user = 6;
  community1.k = 3;
  ASSERT_TRUE(engine->Recommend(community0).ok());
  ASSERT_TRUE(engine->Recommend(community1).ok());
  EXPECT_EQ(engine->cache_size(), 2u);

  const auto report =
      engine->ApplyInteractions({{/*user=*/0, /*item=*/2, 1.0}});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().invalidated_all);
  EXPECT_GT(report.value().affected_users, 0u);
  EXPECT_EQ(report.value().cache_entries_invalidated, 1u);

  // Community 1 still hits; community 0 recomputes.
  ASSERT_TRUE(engine->Recommend(community1).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  ASSERT_TRUE(engine->Recommend(community0).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
}

TEST(LiveUpdateEngineTest, OutOfBandStaleEntriesAreNotResurrected) {
  // A no-op-Refresh stack (content-based serves per-user state from
  // the live matrix). An entry staled by an out-of-band matrix
  // mutation must stay stale through a later ApplyInteractions that
  // does not mention its user — re-stamping it would resurrect a
  // pre-mutation response as a cache hit.
  InteractionMatrix matrix = MakeTwoCommunityMatrix();
  auto content = std::make_unique<ContentBasedRecommender>();
  for (ItemId item = 0; item < 12; ++item) {
    content->SetItemFeatures(
        item, ml::SparseVector({{item % 3, 1.0}, {3 + item % 2, 0.5}}));
  }
  EngineConfig config;
  config.response_cache_capacity = 16;
  auto engine = std::make_unique<RecsysEngine>(config);
  engine->AddComponent(std::move(content), 1.0);
  ASSERT_TRUE(engine->Fit(&matrix).ok());

  RecommendRequest for_user0;
  for_user0.user = 0;
  for_user0.k = 3;
  ASSERT_TRUE(engine->Recommend(for_user0).ok());  // cached

  matrix.Add(0, 10, 3.0);  // out-of-band: user 0's profile changed
  const auto report = engine->ApplyInteractions({{/*user=*/6, 5, 1.0}});
  ASSERT_TRUE(report.ok());

  ASSERT_TRUE(engine->Recommend(for_user0).ok());
  EXPECT_EQ(engine->cache_stats().hits, 0u);  // recomputed, not served
}

std::unique_ptr<RecsysEngine> MakeKnnPopularityEngine(size_t cache_capacity) {
  EngineConfig config;
  config.response_cache_capacity = cache_capacity;
  KnnConfig knn;
  knn.refresh_full_rebuild_fraction = 1.0;  // incremental: users named
  auto engine = std::make_unique<RecsysEngine>(config);
  engine->AddComponent(std::make_unique<ItemKnnRecommender>(knn), 0.6);
  engine->AddComponent(std::make_unique<PopularityRecommender>(), 0.4);
  return engine;
}

TEST(LiveUpdateEngineTest, SurvivingEntriesMatchColdReserveOverRandomBatches) {
  // ItemKNN + popularity: an apply keeps the entries of users ItemKNN
  // does not name whose popularity walk ends before the first rank the
  // batch moved. Random batches hit top-ranked, tail and brand-new
  // items; after every apply each request — survivors served from the
  // cache, the rest recomputed — must equal a cold serve on a
  // cache-less twin that applied the same batches.
  constexpr size_t kUsers = 120;
  constexpr size_t kItems = 400;
  InteractionMatrix matrix = MakeRandomMatrix(97, kUsers, kItems, 4);
  InteractionMatrix reference_matrix = MakeRandomMatrix(97, kUsers, kItems, 4);
  auto live = MakeKnnPopularityEngine(/*cache_capacity=*/4096);
  auto reference = MakeKnnPopularityEngine(/*cache_capacity=*/0);
  ASSERT_TRUE(live->Fit(&matrix).ok());
  ASSERT_TRUE(reference->Fit(&reference_matrix).ok());

  Rng rng(101);
  // The live popularity ranking, which places the batches' items.
  const auto popularity_ranking = [&live] {
    RecommendRequest all;
    all.k = SIZE_MAX;
    all.exclude_seen = ExcludeSeen::kNo;
    return live->RecommendFallback(all).value().items;
  };
  // The tail band the light touches below hit: just past
  // kComponentDepth, where each walk's seen items and deny list decide
  // whether it reaches a change.
  const auto tail_rank = [&rng] {
    return kComponentDepth - 5 + static_cast<size_t>(rng.UniformInt(0, 30));
  };
  const std::vector<RecommendedItem> initial = popularity_ranking();
  // One request per user (distinct cache keys): plain, seen items
  // kept, a deny list of top items, or an allow list of top and tail
  // items (short enough that every allowed item shows in the response).
  std::vector<RecommendRequest> requests;
  for (UserId u = 0; u < static_cast<UserId>(kUsers); u += 2) {
    RecommendRequest request;
    request.user = u;
    request.k = static_cast<size_t>(rng.UniformInt(3, 10));
    switch (u % 8) {
      case 2:
        request.exclude_seen = ExcludeSeen::kNo;
        break;
      case 4:
        for (int i = 0; i < 5; ++i) {  // skipped ranks lengthen the walk
          request.exclude_items.insert(
              initial[static_cast<size_t>(rng.UniformInt(0, 29))].item);
        }
        break;
      case 6:
        request.candidate_items.emplace();
        for (int i = 0; i < 3; ++i) {
          request.candidate_items->insert(
              initial[static_cast<size_t>(rng.UniformInt(0, 9))].item);
          request.candidate_items->insert(initial[tail_rank()].item);
        }
        break;
      default:
        break;
    }
    requests.push_back(std::move(request));
  }

  ItemId next_new_item = static_cast<ItemId>(kItems) + 1000;
  size_t survived = 0;
  for (int round = 0; round < 60; ++round) {
    for (const RecommendRequest& request : requests) {
      ASSERT_TRUE(live->Recommend(request).ok());
    }
    const size_t cached = live->cache_size();

    const std::vector<RecommendedItem> ranked = popularity_ranking();
    ASSERT_GT(ranked.size(), 200u);
    std::vector<Interaction> batch;
    const int size = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < size; ++i) {
      Interaction x;
      x.user = static_cast<UserId>(
          rng.UniformInt(0, static_cast<int64_t>(kUsers) - 1));
      switch (round % 3) {
        case 0:  // top-ranked: the move reaches every walk
          x.item = ranked[static_cast<size_t>(rng.UniformInt(0, 9))].item;
          x.weight = rng.Uniform(0.2, 3.0);
          break;
        case 1:  // tail: a light touch barely moves the item
          x.item = ranked[tail_rank()].item;
          x.weight = rng.Uniform(0.01, 0.05);
          break;
        default:  // brand-new: lands anywhere by its weight
          x.item = next_new_item++;
          x.weight = rng.Uniform(0.01, 6.0);
          break;
      }
      batch.push_back(x);
    }
    const auto report = live->ApplyInteractions(batch);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(reference->ApplyInteractions(batch).ok());
    ASSERT_GE(cached, report.value().cache_entries_invalidated);
    const size_t kept = cached - report.value().cache_entries_invalidated;
    survived += kept;

    const uint64_t hits_before = live->cache_stats().hits;
    for (const RecommendRequest& request : requests) {
      const auto a = live->Recommend(request);
      const auto b = reference->Recommend(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      SCOPED_TRACE(testing::Message() << "round " << round << " user "
                                      << request.user);
      ExpectSameResponses(a.value(), b.value());
    }
    // Every kept and every re-warmed entry was served from the cache.
    EXPECT_EQ(live->cache_stats().hits - hits_before,
              kept + report.value().entries_rewarmed)
        << "round " << round;
  }
  EXPECT_GT(survived, 0u);
}

TEST(LiveUpdateEngineTest, RewarmedEntriesMatchColdReserveAfterApply) {
  // A hot user (frequency >= kRewarmMinFrequency) whose cache entry
  // is invalidated by ApplyInteractions is re-served into the cache
  // before the writer returns. The re-warmed entry must be a cache
  // HIT whose bytes equal a cold re-serve at the post-apply state —
  // re-warming is a latency optimisation, never a staleness hazard.
  InteractionMatrix matrix = MakeTwoCommunityMatrix();
  InteractionMatrix reference_matrix = MakeTwoCommunityMatrix();
  auto engine = MakeKnnEngine(/*cache_capacity=*/64,
                              /*full_rebuild_fraction=*/1.0);
  ASSERT_TRUE(engine->Fit(&matrix).ok());
  // Cache-less reference replaying the same Fit + Apply: every serve
  // is a cold compute at the current state.
  auto reference = MakeKnnEngine(/*cache_capacity=*/0,
                                 /*full_rebuild_fraction=*/1.0);
  ASSERT_TRUE(reference->Fit(&reference_matrix).ok());

  RecommendRequest hot;
  hot.user = 1;
  hot.k = 3;
  RecommendRequest cold;
  cold.user = 3;
  cold.k = 3;
  // Two serves push user 1 to frequency 2.0 (== kRewarmMinFrequency);
  // user 3's single serve stays below it.
  ASSERT_TRUE(engine->Recommend(hot).ok());
  ASSERT_TRUE(engine->Recommend(hot).ok());
  ASSERT_TRUE(engine->Recommend(cold).ok());
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  EXPECT_EQ(engine->user_frequency(1), 2.0);
  EXPECT_EQ(engine->user_frequency(3), 1.0);

  // Touches community 0: both cached entries invalidate, but only the
  // hot user is re-warmed.
  const std::vector<Interaction> batch = {{/*user=*/0, /*item=*/2, 1.0}};
  const auto report = engine->ApplyInteractions(batch);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(reference->ApplyInteractions(batch).ok());
  EXPECT_EQ(report.value().cache_entries_invalidated, 2u);
  EXPECT_EQ(report.value().users_rewarmed, 1u);
  EXPECT_EQ(report.value().entries_rewarmed, 1u);
  EXPECT_GE(report.value().rewarm_seconds, 0.0);

  // The hot user hits on the re-warmed entry; bytes match the cold
  // reference at the post-apply version. The cold user misses.
  const auto warmed = engine->Recommend(hot);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(engine->cache_stats().hits, 2u);
  const auto recomputed = reference->Recommend(hot);
  ASSERT_TRUE(recomputed.ok());
  ExpectSameResponses(warmed.value(), recomputed.value());
  EXPECT_FALSE(warmed.value().degraded);

  ASSERT_TRUE(engine->Recommend(cold).ok());
  EXPECT_EQ(engine->cache_stats().hits, 2u);  // miss: not re-warmed

  EXPECT_EQ(engine->live_update_stats().users_rewarmed, 1u);
  EXPECT_EQ(engine->live_update_stats().entries_rewarmed, 1u);
}

TEST(LiveUpdateEngineTest, RewarmHonorsLimitAndPrefersHigherFrequency) {
  // kRewarmLimit caps writer-lane work; candidates are taken in
  // (frequency desc, user asc) order so the hottest users win. The
  // twelve-item popularity ranking is shorter than every entry's
  // candidate walk, so one apply that moves it invalidates every
  // cached entry.
  constexpr UserId kUsers = static_cast<UserId>(kRewarmLimit) + 1;
  EngineConfig config;
  config.response_cache_capacity = 2 * (kRewarmLimit + 1);
  auto engine = std::make_unique<RecsysEngine>(config);
  engine->AddComponent(std::make_unique<PopularityRecommender>(), 1.0);
  InteractionMatrix matrix;
  for (UserId u = 0; u < kUsers; ++u) {
    matrix.Add(u, u % 7, 1.0);
    matrix.Add(u, 7 + u % 5, 1.0);
  }
  ASSERT_TRUE(engine->Fit(&matrix).ok());

  // Every user is eligible (frequency >= kRewarmMinFrequency). User 0,
  // the coldest, also has the lowest id: a user-only order would keep
  // it, the frequency order must not.
  const auto serve = [&engine](UserId user) {
    RecommendRequest request;
    request.user = user;
    request.k = 3;
    ASSERT_TRUE(engine->Recommend(request).ok());
  };
  for (int i = 0; i < 2; ++i) serve(0);
  for (UserId u = 1; u < kUsers; ++u) {
    for (int i = 0; i < 3; ++i) serve(u);
  }
  EXPECT_EQ(engine->user_frequency(0), kRewarmMinFrequency);
  EXPECT_EQ(engine->user_frequency(kUsers - 1), 3.0);
  const uint64_t hits_before = engine->cache_stats().hits;

  const auto report = engine->ApplyInteractions({{/*user=*/0, 2, 1.0}});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().cache_entries_invalidated,
            static_cast<size_t>(kUsers));
  EXPECT_EQ(report.value().users_rewarmed, kRewarmLimit);
  EXPECT_EQ(report.value().entries_rewarmed, kRewarmLimit);

  for (UserId u = 1; u < kUsers; ++u) serve(u);
  EXPECT_EQ(engine->cache_stats().hits,
            hits_before + kRewarmLimit);  // all re-warmed
  serve(0);
  EXPECT_EQ(engine->cache_stats().hits,
            hits_before + kRewarmLimit);  // shed by the limit
}

TEST(LiveUpdateEngineTest, ConstFitRejectsApplyInteractions) {
  InteractionMatrix matrix = MakeTwoCommunityMatrix();
  auto engine = MakeKnnEngine(0);
  ASSERT_TRUE(engine->Fit(matrix).ok());  // const overload: read-only
  const auto result = engine->ApplyInteractions({{0, 2, 1.0}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), spa::StatusCode::kFailedPrecondition);
}

TEST(LiveUpdateEngineTest, ServeWhileApplyInteractionsIsSafe) {
  // Concurrent Recommend / RecommendBatch against a stream of live
  // update batches: every response must stay well-formed. Run under
  // TSAN in CI to certify data-race freedom of the reader/writer
  // locking.
  InteractionMatrix matrix = MakeRandomMatrix(79, 40, 20, 4);
  EngineConfig config;
  config.response_cache_capacity = 64;
  config.batch_threads = 2;
  auto engine = std::make_unique<RecsysEngine>(config);
  engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
  engine->AddComponent(std::make_unique<ItemKnnRecommender>(), 0.4);
  ASSERT_TRUE(engine->Fit(&matrix).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failure{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        RecommendRequest request;
        request.user = static_cast<UserId>((t * 13 + i++) % 40);
        request.k = 5;
        if (!engine->Recommend(request).ok()) {
          failure.store(true);
          return;
        }
      }
    });
  }
  std::thread batch_reader([&] {
    std::vector<RecommendRequest> requests;
    for (UserId u = 0; u < 8; ++u) {
      RecommendRequest request;
      request.user = u;
      request.k = 5;
      requests.push_back(std::move(request));
    }
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& result : engine->RecommendBatch(requests)) {
        if (!result.ok()) {
          failure.store(true);
          return;
        }
      }
    }
  });

  Rng rng(83);
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(
        engine->ApplyInteractions(MakeBatch(&rng, 4, 40, 20)).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  batch_reader.join();
  EXPECT_FALSE(failure.load());
  EXPECT_EQ(engine->live_update_stats().batches, 30u);
}

// ---- ApplyInteractions determinism contract --------------------------------
//
// ApplyInteractions applies shard groups sequentially *on purpose*:
// registration order of brand-new users/items must be deterministic so
// shard counts and scheduling never change stored bytes or rankings.
// These tests pin that contract so the planned parallelization of
// shard-group application has a regression gate: whatever executes the
// batch must preserve (a) bit-identical stored bytes for any shard
// count given the same op order, (b) op-order-invariant row contents
// for row-disjoint batches, and (c) first-appearance registration
// order.

/// Canonical comparison: identical *content* with rows and postings
/// sorted — what op-order shuffles must preserve (registration and
/// in-row order legitimately follow op order).
void ExpectSameCanonicalContent(const InteractionMatrix& a,
                                const InteractionMatrix& b) {
  EXPECT_EQ(a.interaction_count(), b.interaction_count());
  EXPECT_EQ(a.version(), b.version());
  auto sorted_ids = [](auto ids) {
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  ASSERT_EQ(sorted_ids(a.users()), sorted_ids(b.users()));
  ASSERT_EQ(sorted_ids(a.items()), sorted_ids(b.items()));
  auto sorted_row = [](std::vector<std::pair<ItemId, double>> row) {
    std::sort(row.begin(), row.end());
    return row;
  };
  for (const UserId user : a.users()) {
    const auto ra = sorted_row(a.ItemsOf(user));
    const auto rb = sorted_row(b.ItemsOf(user));
    ASSERT_EQ(ra.size(), rb.size()) << "user " << user;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].first, rb[i].first) << "user " << user;
      EXPECT_EQ(ra[i].second, rb[i].second) << "user " << user;
    }
    EXPECT_EQ(a.UserNormSquared(user), b.UserNormSquared(user))
        << "user " << user;
  }
  for (const ItemId item : a.items()) {
    EXPECT_EQ(a.ItemNormSquared(item), b.ItemNormSquared(item))
        << "item " << item;
  }
}

TEST(ApplyDeterminismTest, SameBatchesSameBytesForEveryShardCount) {
  // Identical base stream + identical ApplyInteractions batches into
  // 1/2/3/8 shards: every stored byte (row order, posting order,
  // weights, norms, registration order, version) must match.
  std::vector<size_t> shard_counts = {1, 2, 3, 8};
  std::vector<InteractionMatrix> matrices;
  std::vector<std::unique_ptr<RecsysEngine>> engines;
  for (const size_t shards : shard_counts) {
    matrices.push_back(MakeRandomMatrix(91, 60, 30, shards));
  }
  for (size_t i = 0; i < matrices.size(); ++i) {
    engines.push_back(MakeKnnEngine(/*cache_capacity=*/64));
    ASSERT_TRUE(engines[i]->Fit(&matrices[i]).ok());
  }
  Rng rng(97);
  for (int round = 0; round < 3; ++round) {
    // The batch deliberately contains brand-new users and items (ids
    // beyond the fitted range) plus repeated (user, item) cells.
    auto batch = MakeBatch(&rng, 14, 64, 34);
    batch.push_back(batch.front());  // guaranteed duplicate cell
    for (auto& engine : engines) {
      ASSERT_TRUE(engine->ApplyInteractions(batch).ok());
    }
    for (size_t i = 1; i < matrices.size(); ++i) {
      ExpectSameMatrixBytes(matrices[0], matrices[i]);
    }
  }
}

TEST(ApplyDeterminismTest, ApplyBatchMatchesSequentialAddBitwise) {
  // ApplyBatch (the parallel shard-group path ApplyInteractions uses)
  // must store exactly the bytes of a sequential Add loop over the
  // same batch — every row, posting, weight, norm, stamp, version and
  // registration entry — for any shard count, with or without a pool.
  ThreadPool pool(4);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3},
                              size_t{8}}) {
    InteractionMatrix sequential = MakeRandomMatrix(53, 40, 24, shards);
    InteractionMatrix pooled = MakeRandomMatrix(53, 40, 24, shards);
    InteractionMatrix poolless = MakeRandomMatrix(53, 40, 24, shards);
    Rng rng(71);
    for (int round = 0; round < 3; ++round) {
      // New users/items beyond the fitted range plus a duplicate cell.
      auto batch = MakeBatch(&rng, 20, 48, 30);
      batch.push_back(batch.front());
      for (const Interaction& x : batch) {
        sequential.Add(x.user, x.item, x.weight);
      }
      InteractionMatrix::ShardGroupTiming timing;
      pooled.ApplyBatch(batch, &pool, &timing);
      poolless.ApplyBatch(batch, /*pool=*/nullptr);
      ExpectSameMatrixBytes(sequential, pooled);
      ExpectSameMatrixBytes(sequential, poolless);
      // Timing covers every shard group, and the batch's ops are fully
      // accounted for across each side's groups.
      ASSERT_EQ(timing.user_shard_seconds.size(), shards);
      ASSERT_EQ(timing.item_shard_seconds.size(), shards);
      size_t user_ops = 0, item_ops = 0;
      for (const size_t n : timing.user_shard_ops) user_ops += n;
      for (const size_t n : timing.item_shard_ops) item_ops += n;
      EXPECT_EQ(user_ops, batch.size());
      EXPECT_EQ(item_ops, batch.size());
    }
  }
}

TEST(ApplyDeterminismTest, RowDisjointBatchIsOrderInvariant) {
  // A batch touching every user row and item posting at most once is
  // fully op-order-invariant: any shuffle stores the same content
  // (weights and norms bitwise) and serves the same rankings. (With
  // repeated rows per batch, in-row FP accumulation order is the op
  // order by design — that is why the sequential contract pins op
  // order, not an arbitrary schedule.)
  std::vector<Interaction> batch;
  Rng rng(101);
  for (int i = 0; i < 12; ++i) {
    // Distinct users 0..11 (half existing, half new), distinct items.
    batch.push_back({static_cast<UserId>(i % 2 == 0 ? i : 60 + i),
                     static_cast<ItemId>(i % 3 == 0 ? i : 30 + i),
                     rng.Uniform(0.2, 3.0)});
  }
  auto run_shuffled = [&](uint64_t shuffle_seed) {
    auto shuffled = batch;
    Rng shuffle_rng(shuffle_seed);
    shuffle_rng.Shuffle(&shuffled);
    auto matrix = std::make_unique<InteractionMatrix>(
        MakeRandomMatrix(91, 60, 30, 3));
    auto engine = MakeKnnEngine(/*cache_capacity=*/64);
    EXPECT_TRUE(engine->Fit(matrix.get()).ok());
    EXPECT_TRUE(engine->ApplyInteractions(shuffled).ok());
    return std::make_pair(std::move(matrix), std::move(engine));
  };
  auto [m0, e0] = run_shuffled(1);
  for (uint64_t shuffle_seed = 2; shuffle_seed <= 5; ++shuffle_seed) {
    auto [m1, e1] = run_shuffled(shuffle_seed);
    ExpectSameCanonicalContent(*m0, *m1);
    for (UserId u : m0->users()) {
      RecommendRequest request;
      request.user = u;
      request.k = 8;
      const auto a = e0->Recommend(request);
      const auto b = e1->Recommend(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectSameResponses(a.value(), b.value());
    }
  }
}

TEST(ApplyDeterminismTest, RegistrationOrderFollowsBatchOrder) {
  // New users/items register in first-appearance order of the batch —
  // the property that forces sequential application today and that a
  // parallelized ApplyInteractions must reproduce.
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    InteractionMatrix matrix = MakeRandomMatrix(91, 20, 10, shards);
    auto engine = MakeKnnEngine(/*cache_capacity=*/0);
    ASSERT_TRUE(engine->Fit(&matrix).ok());
    const size_t users_before = matrix.user_count();
    const size_t items_before = matrix.item_count();
    const std::vector<Interaction> batch = {
        {static_cast<UserId>(105), static_cast<ItemId>(53), 1.0},
        {static_cast<UserId>(101), static_cast<ItemId>(57), 1.0},
        {static_cast<UserId>(105), static_cast<ItemId>(51), 1.0},
        {static_cast<UserId>(103), static_cast<ItemId>(53), 1.0},
    };
    ASSERT_TRUE(engine->ApplyInteractions(batch).ok());
    const std::vector<UserId> expected_users = {105, 101, 103};
    const std::vector<ItemId> expected_items = {53, 57, 51};
    ASSERT_EQ(matrix.user_count(), users_before + 3);
    ASSERT_EQ(matrix.item_count(), items_before + 3);
    for (size_t i = 0; i < expected_users.size(); ++i) {
      EXPECT_EQ(matrix.users()[users_before + i], expected_users[i])
          << "shards=" << shards;
    }
    for (size_t i = 0; i < expected_items.size(); ++i) {
      EXPECT_EQ(matrix.items()[items_before + i], expected_items[i])
          << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace spa::recsys
