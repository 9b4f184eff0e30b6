#ifndef SPA_RECSYS_POPULARITY_H_
#define SPA_RECSYS_POPULARITY_H_

#include <cstdint>
#include <unordered_map>

#include "recsys/recommender.h"

/// \file
/// Non-personalized popularity baseline: the weakest comparator every
/// personalization claim must beat.

namespace spa::recsys {

/// \brief Ranks items by total interaction weight.
class PopularityRecommender : public Recommender {
 public:
  spa::Status Fit(const InteractionMatrix& matrix) override;
  /// Recomputes the totals of items whose postings mutated since the
  /// last Fit/Refresh (each re-summed exactly as Fit would) and merges
  /// just those items back into the ranking at their new totals, so
  /// the cost is O(dirty items · log catalog) plus one block move, and
  /// the ranking stays bitwise-identical to a refit. Popularity is
  /// non-personalized, so it names no affected users: it reports in
  /// `unchanged_prefix` the first rank whose item or total changed —
  /// the lower of the re-totalled items' old ranks and the ranks they
  /// land at. Ranks before it are untouched, so a response whose
  /// candidates never reach it cannot change. A clean refresh, or one
  /// whose totals re-sum to the same values, reports nothing.
  spa::Status Refresh(RefreshOutcome* outcome) override;
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override;
  std::string name() const override { return "Popularity"; }

 private:
  /// Builds `ranked_` from `total_` in matrix item order (Fit only).
  void Rank();
  /// Drops the entries at `stale` (positions in `ranked_`) and merges
  /// `moved` back in, keeping `ranked_` sorted by RanksBefore. Returns
  /// the length of the prefix it left untouched (SIZE_MAX when `moved`
  /// is empty).
  size_t Rerank(std::vector<size_t> stale, std::vector<Scored> moved);

  const InteractionMatrix* matrix_ = nullptr;
  std::unordered_map<ItemId, double> total_;  // interaction weight sums
  std::vector<Scored> ranked_;  // all items by popularity
  /// Matrix version the totals match (dirty-item cursor for Refresh).
  uint64_t synced_version_ = 0;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_POPULARITY_H_
