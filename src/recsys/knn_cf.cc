#include "recsys/knn_cf.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "recsys/kernels.h"

namespace spa::recsys {

namespace {

// The ScaleGather kernels below walk the `double` member of 16-byte
// (id, weight) records at stride 2 — pin the layouts they assume.
static_assert(sizeof(std::pair<ItemId, double>) == 2 * sizeof(double));
static_assert(sizeof(std::pair<UserId, double>) == 2 * sizeof(double));
static_assert(sizeof(SimilarityIndex<ItemId>::Neighbor) ==
              2 * sizeof(double));

SimilarityIndexConfig IndexConfigFrom(const KnnConfig& config) {
  SimilarityIndexConfig out;
  out.top_n = config.neighbors;
  out.min_similarity = config.min_similarity;
  out.full_rebuild_fraction = config.refresh_full_rebuild_fraction;
  return out;
}

}  // namespace

UserKnnRecommender::UserKnnRecommender(KnnConfig config)
    : config_(config) {}

spa::Status UserKnnRecommender::Fit(const InteractionMatrix& matrix) {
  matrix_ = &matrix;
  index_.reset();
  if (config_.use_index) {
    index_ = std::make_unique<SimilarityIndex<UserId>>(
        BuildUserSimilarityIndex(matrix, IndexConfigFrom(config_)));
  }
  return spa::Status::OK();
}

spa::Status UserKnnRecommender::Refresh(RefreshOutcome* outcome) {
  if (matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "UserKNN not fitted; nothing to refresh");
  }
  if (index_ == nullptr) {
    // Lazy mode recomputes similarities from the live matrix: any
    // user sharing an item with an updated user re-ranks differently,
    // and without an index there is no cheap way to bound that set.
    outcome->all_users = true;
    return spa::Status::OK();
  }
  auto report = RefreshUserSimilarityIndex(index_.get(), *matrix_);
  outcome->refreshed_index = true;
  outcome->full_rebuild = report.full_rebuild;
  outcome->rows_refreshed =
      report.full_rebuild ? index_->stats().rows : report.rows.size();
  outcome->seconds = report.seconds;
  outcome->all_users = report.full_rebuild;
  if (!report.full_rebuild) {
    outcome->affected_users.insert(outcome->affected_users.end(),
                                   report.rows.begin(),
                                   report.rows.end());
  }
  return spa::Status::OK();
}

double UserKnnRecommender::Similarity(UserId a, UserId b) const {
  return SparseCosine(matrix_->ItemsOf(a), matrix_->ItemsOf(b),
                      matrix_->UserNormSquared(a),
                      matrix_->UserNormSquared(b));
}

void UserKnnRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  const UserId user = query.user;

  // Score through the thread's workspace: neighbor weights are gathered
  // and scaled by the kernel, then folded into the epoch-cleared
  // accumulator. Admission is checked once per distinct item at
  // harvest — filtering other items never changes an admitted item's
  // += sequence, so the scores are bitwise-identical to the old
  // filter-then-accumulate map.
  kernels::ScoreWorkspace& ws = kernels::ThreadLocalWorkspace();
  kernels::ScoreAccumulator& acc = ws.acc;
  acc.Begin(/*expected_items=*/64);
  auto accumulate = [&](UserId other, double sim) {
    const auto& items = matrix_->ItemsOf(other);
    const size_t n = items.size();
    if (n == 0) return;
    double* products = ws.EnsureProducts(n);
    kernels::ScaleGather(&items[0].second, 2, n, sim, products);
    for (size_t i = 0; i < n; ++i) acc.Add(items[i].first, products[i]);
  };

  if (config_.use_index) {
    SPA_CHECK_MSG(
        index_->built_version() == matrix_->version(),
        "stale UserKNN similarity index: the InteractionMatrix was "
        "mutated after Fit; Refresh() or refit before serving");
    for (const auto& neighbor : index_->NeighborsOf(user)) {
      accumulate(neighbor.id, neighbor.similarity);
    }
  } else {
    // Candidate neighbors: users sharing at least one item.
    const auto& own_items = matrix_->ItemsOf(user);
    std::unordered_map<UserId, double> similarity;
    for (const auto& [item, w] : own_items) {
      for (const auto& [other, w2] : matrix_->UsersOf(item)) {
        if (other != user) similarity.emplace(other, 0.0);
      }
    }
    for (auto& [other, sim] : similarity) {
      sim = Similarity(user, other);
    }

    // Keep the top-k neighbors.
    std::vector<std::pair<UserId, double>> neighbors(similarity.begin(),
                                                     similarity.end());
    std::sort(neighbors.begin(), neighbors.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (neighbors.size() > config_.neighbors) {
      neighbors.resize(config_.neighbors);
    }
    for (const auto& [other, sim] : neighbors) {
      if (sim < config_.min_similarity) continue;
      accumulate(other, sim);
    }
  }

  const size_t scored = acc.size();
  out->reserve(scored);
  for (size_t i = 0; i < scored; ++i) {
    if (query.Admits(matrix_, acc.item(i))) {
      out->push_back({acc.item(i), acc.score(i)});
    }
  }
  SortAndTruncate(out, query.k);
}

ItemKnnRecommender::ItemKnnRecommender(KnnConfig config)
    : config_(config) {}

spa::Status ItemKnnRecommender::Fit(const InteractionMatrix& matrix) {
  matrix_ = &matrix;
  index_.reset();
  if (config_.use_index) {
    index_ = std::make_unique<SimilarityIndex<ItemId>>(
        BuildItemSimilarityIndex(matrix, IndexConfigFrom(config_)));
  }
  return spa::Status::OK();
}

spa::Status ItemKnnRecommender::Refresh(RefreshOutcome* outcome) {
  if (matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "ItemKNN not fitted; nothing to refresh");
  }
  if (index_ == nullptr) {
    outcome->all_users = true;
    return spa::Status::OK();
  }
  auto report = RefreshItemSimilarityIndex(index_.get(), *matrix_);
  outcome->refreshed_index = true;
  outcome->full_rebuild = report.full_rebuild;
  outcome->rows_refreshed =
      report.full_rebuild ? index_->stats().rows : report.rows.size();
  outcome->seconds = report.seconds;
  outcome->all_users = report.full_rebuild;
  if (!report.full_rebuild) {
    // A user's ItemKNN scores sum over the neighbor rows of their own
    // items: everyone holding a rebuilt item row may re-rank.
    for (const ItemId item : report.rows) {
      for (const auto& [user, w] : matrix_->UsersOf(item)) {
        outcome->affected_users.push_back(user);
      }
    }
  }
  return spa::Status::OK();
}

double ItemKnnRecommender::Similarity(ItemId a, ItemId b) const {
  return SparseCosine(matrix_->UsersOf(a), matrix_->UsersOf(b),
                      matrix_->ItemNormSquared(a),
                      matrix_->ItemNormSquared(b));
}

void ItemKnnRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  out->clear();
  if (matrix_ == nullptr) return;
  const UserId user = query.user;
  const auto& own_items = matrix_->ItemsOf(user);

  // Same workspace discipline as UserKNN: kernel-scaled similarity
  // walks into the thread's accumulator, admission hoisted to harvest.
  kernels::ScoreWorkspace& ws = kernels::ThreadLocalWorkspace();
  kernels::ScoreAccumulator& acc = ws.acc;
  acc.Begin(/*expected_items=*/64);
  if (config_.use_index) {
    SPA_CHECK_MSG(
        index_->built_version() == matrix_->version(),
        "stale ItemKNN similarity index: the InteractionMatrix was "
        "mutated after Fit; Refresh() or refit before serving");
    for (const auto& [item, weight] : own_items) {
      const auto& neighbors = index_->NeighborsOf(item);
      const size_t n = neighbors.size();
      if (n == 0) continue;
      double* products = ws.EnsureProducts(n);
      kernels::ScaleGather(&neighbors[0].similarity, 2, n, weight,
                           products);
      for (size_t i = 0; i < n; ++i) {
        acc.Add(neighbors[i].id, products[i]);
      }
    }
  } else {
    for (const auto& [item, weight] : own_items) {
      // The neighborhood of `item`, query-independent — identical to
      // what the index stores for this row.
      std::unordered_set<ItemId> candidates;
      for (const auto& [other_user, w2] : matrix_->UsersOf(item)) {
        for (const auto& [candidate, w3] :
             matrix_->ItemsOf(other_user)) {
          if (candidate != item) candidates.insert(candidate);
        }
      }
      std::vector<std::pair<ItemId, double>> sims;
      sims.reserve(candidates.size());
      for (const ItemId candidate : candidates) {
        const double sim = Similarity(item, candidate);
        if (sim >= config_.min_similarity) {
          sims.emplace_back(candidate, sim);
        }
      }
      std::sort(sims.begin(), sims.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      if (sims.size() > config_.neighbors) {
        sims.resize(config_.neighbors);
      }
      const size_t n = sims.size();
      if (n == 0) continue;
      double* products = ws.EnsureProducts(n);
      kernels::ScaleGather(&sims[0].second, 2, n, weight, products);
      for (size_t i = 0; i < n; ++i) {
        acc.Add(sims[i].first, products[i]);
      }
    }
  }

  const size_t scored = acc.size();
  out->reserve(scored);
  for (size_t i = 0; i < scored; ++i) {
    if (query.Admits(matrix_, acc.item(i))) {
      out->push_back({acc.item(i), acc.score(i)});
    }
  }
  SortAndTruncate(out, query.k);
}

}  // namespace spa::recsys
