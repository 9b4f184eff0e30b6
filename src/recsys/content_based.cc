#include "recsys/content_based.h"

#include <cmath>

namespace spa::recsys {

void ContentBasedRecommender::SetItemFeatures(ItemId item,
                                              ml::SparseVector features) {
  for (size_t i = 0; i < features.nnz(); ++i) {
    dims_ = std::max(dims_, features.index(i) + 1);
  }
  item_features_[item] = std::move(features);
}

spa::Status ContentBasedRecommender::Fit(const InteractionMatrix& matrix) {
  if (item_features_.empty()) {
    return spa::Status::FailedPrecondition(
        "no item features registered before Fit");
  }
  matrix_ = &matrix;
  return spa::Status::OK();
}

std::vector<double> ContentBasedRecommender::ProfileOf(
    UserId user) const {
  std::vector<double> profile(static_cast<size_t>(dims_), 0.0);
  double total_weight = 0.0;
  for (const auto& [item, weight] : matrix_->ItemsOf(user)) {
    const auto it = item_features_.find(item);
    if (it == item_features_.end()) continue;
    it->second.AxpyInto(weight, &profile);
    total_weight += weight;
  }
  if (total_weight > 0.0) ml::Scale(1.0 / total_weight, &profile);
  return profile;
}

void ContentBasedRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  const std::vector<double> profile = ProfileOf(query.user);
  const double profile_norm = std::sqrt(ml::L2NormSquared(profile));
  if (profile_norm == 0.0) return;

  for (const auto& [item, features] : item_features_) {
    if (!query.Admits(matrix_, item)) continue;
    const double norm = std::sqrt(features.L2NormSquared());
    if (norm == 0.0) continue;
    const double score =
        features.Dot(profile) / (norm * profile_norm);
    out->push_back({item, score});
  }
  SortAndTruncate(out, query.k);
}

}  // namespace spa::recsys
