#ifndef SPA_RECSYS_CONTENT_BASED_H_
#define SPA_RECSYS_CONTENT_BASED_H_

#include <unordered_map>

#include "ml/sparse.h"
#include "recsys/recommender.h"

/// \file
/// Content-based recommender: a user profile is the weighted centroid of
/// the attribute vectors of the items they interacted with; candidates
/// are ranked by cosine to the profile.

namespace spa::recsys {

/// \brief Content-based recommender over item attribute vectors.
class ContentBasedRecommender : public Recommender {
 public:
  /// Registers the attribute vector of an item (call before Fit).
  void SetItemFeatures(ItemId item, ml::SparseVector features);

  spa::Status Fit(const InteractionMatrix& matrix) override;
  /// No-op: profiles are derived from the live matrix per request and
  /// depend only on the queried user's own row (item features are
  /// static), so an interaction update affects nobody beyond the
  /// updated users themselves.
  spa::Status Refresh(RefreshOutcome* outcome) override {
    (void)outcome;
    return spa::Status::OK();
  }
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override;
  std::string name() const override { return "ContentBased"; }

  /// The profile vector of a user (dense, feature-space sized).
  std::vector<double> ProfileOf(UserId user) const;

 private:
  const InteractionMatrix* matrix_ = nullptr;
  std::unordered_map<ItemId, ml::SparseVector> item_features_;
  int32_t dims_ = 0;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_CONTENT_BASED_H_
