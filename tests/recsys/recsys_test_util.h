#ifndef SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_
#define SPA_TESTS_RECSYS_RECSYS_TEST_UTIL_H_

#include "common/profiler.h"
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
