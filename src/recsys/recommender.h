#ifndef SPA_RECSYS_RECOMMENDER_H_
#define SPA_RECSYS_RECOMMENDER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "recsys/interaction_matrix.h"

/// \file
/// Common recommender interface for the Burke-taxonomy baselines the
/// paper positions itself against (collaborative, content-based,
/// hybrid) and for SPA's emotion-aware layer on top.
///
/// Candidate generation is driven by a `CandidateQuery`: the user and
/// cutoff plus an explicit exclusion policy. Whether already-seen items
/// are filtered is a *request* decision (`ExcludeSeen`), not something
/// each recommender hard-wires; the query can additionally carry an
/// explicit denylist (items known to be seen outside the sparse
/// interaction matrix) and an allowlist restricting the candidate pool.

namespace spa::recsys {

/// A scored candidate item.
struct Scored {
  ItemId item = lifelog::kNoItem;
  double score = 0.0;
};

/// Policy: filter items the user already interacted with?
enum class ExcludeSeen { kYes, kNo };

/// \brief Candidate-generation parameters shared by every recommender.
///
/// The referenced sets (if any) are borrowed and must outlive the call.
struct CandidateQuery {
  UserId user = 0;
  size_t k = 0;
  ExcludeSeen exclude_seen = ExcludeSeen::kYes;
  /// Items never to return, regardless of `exclude_seen` (e.g. items the
  /// caller knows were seen but that a sparse matrix missed).
  const std::unordered_set<ItemId>* exclude_items = nullptr;
  /// When non-null, only these items may be returned.
  const std::unordered_set<ItemId>* candidate_items = nullptr;

  /// True when `item` may be recommended under this query's policy.
  /// `matrix` may be null (no seen-filtering possible then).
  bool Admits(const InteractionMatrix* matrix, ItemId item) const;
};

/// \brief What one Recommender::Refresh call did — the serving layer
/// aggregates these to decide which cached responses to drop.
struct RefreshOutcome {
  /// The component keeps a fit-time index and brought it in sync.
  bool refreshed_index = false;
  /// The refresh fell back to rebuilding every row.
  bool full_rebuild = false;
  /// Index rows rebuilt (or totals recomputed) by this refresh.
  size_t rows_refreshed = 0;
  double seconds = 0.0;
  /// Users whose rankings may have changed beyond the updated users
  /// themselves (reverse neighbors, holders of re-scored items).
  /// Ignored when `all_users` is set. May contain duplicates.
  std::vector<UserId> affected_users;
  /// Set when the component cannot bound the affected user set — the
  /// serving layer must treat every user as potentially changed.
  bool all_users = false;
  /// Ranks [0, unchanged_prefix) of the component's non-personalized
  /// ranking kept their items and scores through this refresh; SIZE_MAX
  /// when no such ranking changed. A response whose candidate walk
  /// stays inside that prefix cannot have changed (popularity reports
  /// this in place of naming users; see PopularityRecommender).
  size_t unchanged_prefix = SIZE_MAX;
};

/// \brief Interface: fit on interactions, produce ranked suggestions.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Fits internal structures; the matrix must outlive the recommender.
  virtual spa::Status Fit(const InteractionMatrix& matrix) = 0;

  /// Brings fitted state in sync with the (mutated) interaction matrix
  /// without a full refit — the live-update path. Implementations must
  /// leave serving bitwise-identical to a fresh Fit on the same matrix
  /// and report which users' rankings may have changed. The
  /// conservative base default assumes any user could be affected;
  /// components that serve purely from the live matrix (per-user
  /// state only, nothing fitted) should override with a no-op, and
  /// components with fitted structures should repair them
  /// incrementally.
  virtual spa::Status Refresh(RefreshOutcome* outcome) {
    outcome->all_users = true;
    return spa::Status::OK();
  }

  /// Top-k items under the query's candidate policy, highest score
  /// first (ties broken by ascending item id), written into `*out`
  /// (replacing its contents) so a pooled caller reuses the vector's
  /// capacity across requests. Accumulating components score on the
  /// thread-local `kernels::ScoreWorkspace`, so a warm call does not
  /// touch the heap.
  virtual void RecommendCandidatesInto(const CandidateQuery& query,
                                       std::vector<Scored>* out) const = 0;

  /// RecommendCandidatesInto into a fresh vector.
  std::vector<Scored> RecommendCandidates(
      const CandidateQuery& query) const {
    std::vector<Scored> out;
    RecommendCandidatesInto(query, &out);
    return out;
  }

  virtual std::string name() const = 0;
};

/// The ranking order every component emits: score descending, ties by
/// ascending item id. A strict total order over distinct items, so a
/// sorted sequence of them is unique. A lambda object, not a function,
/// so every sort and search that takes it inlines the comparison.
inline constexpr auto RanksBefore = [](const Scored& a, const Scored& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
};

/// Sorts candidates by RanksBefore and truncates to k.
void SortAndTruncate(std::vector<Scored>* candidates, size_t k);

}  // namespace spa::recsys

#endif  // SPA_RECSYS_RECOMMENDER_H_
