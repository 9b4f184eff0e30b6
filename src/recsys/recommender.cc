#include "recsys/recommender.h"

#include <algorithm>

namespace spa::recsys {

bool CandidateQuery::Admits(const InteractionMatrix* matrix,
                            ItemId item) const {
  if (candidate_items != nullptr && !candidate_items->contains(item)) {
    return false;
  }
  if (exclude_items != nullptr && exclude_items->contains(item)) {
    return false;
  }
  if (exclude_seen == ExcludeSeen::kYes && matrix != nullptr &&
      matrix->Seen(user, item)) {
    return false;
  }
  return true;
}

void SortAndTruncate(std::vector<Scored>* candidates, size_t k) {
  std::sort(candidates->begin(), candidates->end(), RanksBefore);
  if (candidates->size() > k) candidates->resize(k);
}

}  // namespace spa::recsys
