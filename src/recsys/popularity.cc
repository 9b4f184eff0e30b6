#include "recsys/popularity.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"

namespace spa::recsys {

spa::Status PopularityRecommender::Fit(const InteractionMatrix& matrix) {
  matrix_ = &matrix;
  total_.clear();
  total_.reserve(matrix.item_count());
  for (ItemId item : matrix.items()) {
    double total = 0.0;
    for (const auto& [user, w] : matrix.UsersOf(item)) total += w;
    total_[item] = total;
  }
  synced_version_ = matrix.version();
  Rank();
  return spa::Status::OK();
}

spa::Status PopularityRecommender::Refresh(RefreshOutcome* outcome) {
  if (matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "Popularity not fitted; nothing to refresh");
  }
  if (matrix_->version() == synced_version_) return spa::Status::OK();
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ItemId> dirty =
      matrix_->ItemsTouchedSince(synced_version_);
  // ranked_ is sorted under a strict total order, so a dirty item's
  // entry sits exactly at lower_bound of its *old* total. Brand-new
  // items have no entry yet, and an item whose total re-sums to the
  // same value keeps its entry where it is.
  std::vector<size_t> stale;
  std::vector<Scored> moved;
  stale.reserve(dirty.size());
  moved.reserve(dirty.size());
  for (const ItemId item : dirty) {
    double total = 0.0;
    for (const auto& [user, w] : matrix_->UsersOf(item)) total += w;
    const auto [it, inserted] = total_.try_emplace(item, total);
    if (!inserted) {
      if (it->second == total) continue;
      stale.push_back(static_cast<size_t>(
          std::lower_bound(ranked_.begin(), ranked_.end(),
                           Scored{item, it->second}, RanksBefore) -
          ranked_.begin()));
      it->second = total;
    }
    moved.push_back({item, total});
  }
  synced_version_ = matrix_->version();
  outcome->unchanged_prefix = std::min(
      outcome->unchanged_prefix, Rerank(std::move(stale), std::move(moved)));
  outcome->rows_refreshed += dirty.size();
  outcome->seconds += SecondsSince(start);
  return spa::Status::OK();
}

void PopularityRecommender::Rank() {
  ranked_.clear();
  ranked_.reserve(matrix_->item_count());
  for (ItemId item : matrix_->items()) {
    ranked_.push_back({item, total_.at(item)});
  }
  SortAndTruncate(&ranked_, ranked_.size());
}

size_t PopularityRecommender::Rerank(std::vector<size_t> stale,
                                     std::vector<Scored> moved) {
  if (moved.empty()) return SIZE_MAX;  // every stale entry is also moved
  // 1. Close the stale entries' gaps, one block move per gap.
  std::sort(stale.begin(), stale.end());
  const size_t first_stale = stale.empty() ? SIZE_MAX : stale.front();
  auto write = ranked_.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(first_stale, ranked_.size()));
  for (size_t s = 0; s < stale.size(); ++s) {
    const auto from = ranked_.begin() +
                      static_cast<std::ptrdiff_t>(stale[s] + 1);
    const auto to = s + 1 < stale.size()
                        ? ranked_.begin() +
                              static_cast<std::ptrdiff_t>(stale[s + 1])
                        : ranked_.end();
    write = std::move(from, to, write);
  }
  ranked_.erase(write, ranked_.end());
  // 2. Merge the re-totalled entries back from the back: each lands at
  // its upper_bound among the kept entries, which shift right as one
  // block. The order is total, so this is the sequence Rank() sorts.
  std::sort(moved.begin(), moved.end(), RanksBefore);
  const size_t kept = ranked_.size();
  ranked_.resize(kept + moved.size());
  auto kept_end = ranked_.begin() + static_cast<std::ptrdiff_t>(kept);
  auto out = ranked_.end();
  for (auto m = moved.rbegin(); m != moved.rend(); ++m) {
    const auto at =
        std::upper_bound(ranked_.begin(), kept_end, *m, RanksBefore);
    out = std::move_backward(at, kept_end, out);
    kept_end = at;
    *--out = *m;
  }
  // Ranks before the first stale entry and before the first landing
  // (the last one placed) hold the same items at the same totals.
  return std::min(first_stale,
                  static_cast<size_t>(out - ranked_.begin()));
}

void PopularityRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  for (const Scored& candidate : ranked_) {
    if (out->size() >= query.k) break;
    if (query.Admits(matrix_, candidate.item)) out->push_back(candidate);
  }
}

}  // namespace spa::recsys
