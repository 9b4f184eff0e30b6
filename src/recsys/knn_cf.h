#ifndef SPA_RECSYS_KNN_CF_H_
#define SPA_RECSYS_KNN_CF_H_

#include <cstdint>
#include <memory>

#include "recsys/recommender.h"
#include "recsys/similarity_index.h"

/// \file
/// Neighborhood collaborative filtering: the canonical memory-based
/// recommenders of the survey literature the paper cites ([1], [2]).
/// Both variants use cosine similarity over interaction weights.
///
/// Neighborhoods are query-independent: the top-k most similar
/// users/items above `min_similarity`, regardless of which candidates
/// a particular request admits (exclusions are applied when scores are
/// accumulated). With `use_index` (the default) they are precomputed
/// once at `Fit` into a `SimilarityIndex` and serving is a sorted
/// adjacency walk; with `use_index=false` the same neighborhoods are
/// recomputed per request — kept as the exact-parity reference path
/// (both paths produce bitwise-identical rankings).
///
/// An indexed recommender hard-fails (`SPA_CHECK`) when the fitted
/// matrix was mutated after `Fit` and not brought back in sync:
/// serving a stale neighbor graph is a silent-corruption bug. Unlike
/// the original contract (refit or die), `Refresh()` now repairs the
/// index incrementally — only the rows a mutation could have changed
/// are rebuilt — and serving resumes with rankings bitwise-identical
/// to a full refit.

namespace spa::recsys {

struct KnnConfig {
  size_t neighbors = 20;     ///< k in k-nearest-neighbors
  double min_similarity = 1e-6;
  /// Precompute the truncated neighbor index at Fit (false = lazy
  /// per-request similarity recomputation, the parity reference).
  bool use_index = true;
  /// Incremental Refresh() falls back to a full index rebuild when
  /// the affected rows exceed this fraction of all rows.
  double refresh_full_rebuild_fraction = 0.25;
};

/// \brief User-based CF: score(u, i) = sum over similar users v of
/// sim(u, v) * weight(v, i).
class UserKnnRecommender : public Recommender {
 public:
  explicit UserKnnRecommender(KnnConfig config = {});

  spa::Status Fit(const InteractionMatrix& matrix) override;
  /// Rebuilds only the user rows affected by post-Fit matrix
  /// mutations; affected users = the rebuilt rows (a user's scores
  /// read its own neighbor row plus live neighbor vectors, and any
  /// row referencing a mutated vector is in the rebuilt set). Lazy
  /// (index-free) instances serve live similarities, so every user is
  /// reported affected.
  spa::Status Refresh(RefreshOutcome* outcome) override;
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override;
  std::string name() const override { return "UserKNN"; }

  /// Cosine similarity between two users (exposed for tests; always
  /// computed live against the current matrix).
  double Similarity(UserId a, UserId b) const;

 private:
  KnnConfig config_;
  const InteractionMatrix* matrix_ = nullptr;
  std::unique_ptr<SimilarityIndex<UserId>> index_;
};

/// \brief Item-based CF: score(u, i) = sum over items j the user has,
/// of sim(i, j) * weight(u, j).
class ItemKnnRecommender : public Recommender {
 public:
  explicit ItemKnnRecommender(KnnConfig config = {});

  spa::Status Fit(const InteractionMatrix& matrix) override;
  /// Rebuilds only the item rows affected by post-Fit matrix
  /// mutations; affected users = everyone holding a rebuilt item
  /// (their scores sum over their own items' neighbor rows).
  spa::Status Refresh(RefreshOutcome* outcome) override;
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override;
  std::string name() const override { return "ItemKNN"; }

  double Similarity(ItemId a, ItemId b) const;

 private:
  KnnConfig config_;
  const InteractionMatrix* matrix_ = nullptr;
  std::unique_ptr<SimilarityIndex<ItemId>> index_;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_KNN_CF_H_
