#ifndef SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_
#define SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "common/profiler.h"
#include "gtest/gtest.h"
#include "recsys/interaction_matrix.h"
#include "recsys/recommender.h"

/// Shared fixtures for the recsys test suites.

namespace spa::recsys {

/// Top-k excluding seen items through the CandidateQuery API (what the
/// since-removed Recommend(user, k) shim used to spell).
inline std::vector<Scored> RecommendTopK(const Recommender& rec,
                                         UserId user, size_t k) {
  CandidateQuery query;
  query.user = user;
  query.k = k;
  query.exclude_seen = ExcludeSeen::kYes;
  return rec.RecommendCandidates(query);
}

/// Users 0-4 like items 0-4; users 5-9 like items 5-9; user 0 has not
/// seen item 4 yet, user 5 has not seen item 9.
inline InteractionMatrix MakeTwoCommunityMatrix() {
  InteractionMatrix m;
  for (UserId u = 0; u < 5; ++u) {
    for (ItemId i = 0; i < 5; ++i) {
      if (u == 0 && i == 4) continue;
      m.Add(u, i, 1.0);
    }
  }
  for (UserId u = 5; u < 10; ++u) {
    for (ItemId i = 5; i < 10; ++i) {
      if (u == 5 && i == 9) continue;
      m.Add(u, i, 1.0);
    }
  }
  return m;
}

/// Strict comparison: identical stored bytes including row order and
/// registration order (the shard-count invariance contract).
inline void ExpectSameMatrixBytes(const InteractionMatrix& a,
                                  const InteractionMatrix& b) {
  ASSERT_EQ(a.user_count(), b.user_count());
  ASSERT_EQ(a.item_count(), b.item_count());
  EXPECT_EQ(a.interaction_count(), b.interaction_count());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.users(), b.users());  // registration order
  EXPECT_EQ(a.items(), b.items());
  for (const UserId user : a.users()) {
    const auto& ra = a.ItemsOf(user);
    const auto& rb = b.ItemsOf(user);
    ASSERT_EQ(ra.size(), rb.size()) << "user " << user;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].first, rb[i].first) << "user " << user;
      EXPECT_EQ(ra[i].second, rb[i].second) << "user " << user;
    }
    EXPECT_EQ(a.UserNormSquared(user), b.UserNormSquared(user))
        << "user " << user;
  }
  for (const ItemId item : a.items()) {
    const auto& pa = a.UsersOf(item);
    const auto& pb = b.UsersOf(item);
    ASSERT_EQ(pa.size(), pb.size()) << "item " << item;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first) << "item " << item;
      EXPECT_EQ(pa[i].second, pb[i].second) << "item " << item;
    }
    EXPECT_EQ(a.ItemNormSquared(item), b.ItemNormSquared(item))
        << "item " << item;
  }
}

/// Full identity, for matrices of one shard count: the stored bytes
/// above plus per-shard versions and the dirty-row answers at cursor 0
/// and at version - 3 (the stamp scan or the touch journals, depending
/// on how full each shard's journal is) — everything a copy or a
/// replica bootstrap must reproduce.
inline void ExpectIdenticalMatrices(const InteractionMatrix& a,
                                    const InteractionMatrix& b) {
  ExpectSameMatrixBytes(a, b);
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_EQ(a.user_shard_version(s), b.user_shard_version(s))
        << "shard " << s;
    EXPECT_EQ(a.item_shard_version(s), b.item_shard_version(s))
        << "shard " << s;
  }
  const uint64_t recent = a.version() < 3 ? 0 : a.version() - 3;
  for (const uint64_t since : {uint64_t{0}, recent}) {
    EXPECT_EQ(a.UsersTouchedSince(since), b.UsersTouchedSince(since))
        << "since " << since;
    EXPECT_EQ(a.ItemsTouchedSince(since), b.ItemsTouchedSince(since))
        << "since " << since;
  }
}

/// The cumulative L2 snapshot of one profiler item (zeroed when the
/// profiler does not export it at L2).
inline ProfilerItemSnapshot L2Item(const Profiler& profiler,
                                   ProfilerItem item) {
  for (const ProfilerItemSnapshot& s :
       profiler.Snapshot(ProfilerLevel::kL2).items) {
    if (s.item == item) return s;
  }
  return {};
}

}  // namespace spa::recsys

#endif  // SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_
