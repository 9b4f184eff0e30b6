#include "recsys/hybrid.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/clock.h"
#include "recsys/kernels.h"

namespace spa::recsys {

// The blend kernel walks Scored::score at stride 2 doubles.
static_assert(sizeof(Scored) == 2 * sizeof(double));

void HybridRecommender::AddComponent(
    std::unique_ptr<Recommender> component, double weight) {
  SPA_CHECK(component != nullptr);
  SPA_CHECK(weight >= 0.0);
  components_.push_back({std::move(component), weight});
}

spa::Status HybridRecommender::Fit(const InteractionMatrix& matrix) {
  if (components_.empty()) {
    return spa::Status::FailedPrecondition("hybrid has no components");
  }
  for (Component& c : components_) {
    SPA_RETURN_IF_ERROR(c.recommender->Fit(matrix));
  }
  return spa::Status::OK();
}

spa::Status HybridRecommender::Refresh(RefreshOutcome* outcome) {
  if (components_.empty()) {
    return spa::Status::FailedPrecondition("hybrid has no components");
  }
  for (Component& c : components_) {
    RefreshOutcome o;
    SPA_RETURN_IF_ERROR(c.recommender->Refresh(&o));
    outcome->refreshed_index |= o.refreshed_index;
    outcome->full_rebuild |= o.full_rebuild;
    outcome->rows_refreshed += o.rows_refreshed;
    outcome->seconds += o.seconds;
    outcome->unchanged_prefix =
        std::min(outcome->unchanged_prefix, o.unchanged_prefix);
    outcome->all_users |= o.all_users;
    if (!outcome->all_users) {
      outcome->affected_users.insert(outcome->affected_users.end(),
                                     o.affected_users.begin(),
                                     o.affected_users.end());
    }
  }
  if (outcome->all_users) outcome->affected_users.clear();
  return spa::Status::OK();
}

void HybridRecommender::FetchComponentCandidatesInto(
    const CandidateQuery& query,
    std::vector<std::vector<Scored>>* fetched,
    std::vector<double>* component_seconds) const {
  fetched->resize(components_.size());  // keeps inner capacities warm
  if (component_seconds != nullptr) {
    component_seconds->clear();
    component_seconds->reserve(components_.size());
  }
  for (size_t ci = 0; ci < components_.size(); ++ci) {
    CandidateQuery sub = query;
    sub.k = kComponentDepth;
    const auto start = std::chrono::steady_clock::now();
    components_[ci].recommender->RecommendCandidatesInto(sub,
                                                         &(*fetched)[ci]);
    if (component_seconds != nullptr) {
      component_seconds->push_back(SecondsSince(start));
    }
  }
}

void HybridRecommender::BlendFetchedInto(
    const std::vector<std::vector<Scored>>& fetched,
    std::vector<double>* contributions,
    std::vector<Blended>* blended) const {
  SPA_CHECK(fetched.size() == components_.size());
  const size_t width = components_.size();
  if (contributions != nullptr) contributions->clear();
  // Normalize-and-weigh each component list with the kernel and fold
  // it into the accumulator, whose first-touch slots are the blended
  // order before the sort. Contribution tracking records the same
  // kernel products per (slot, component), so it changes no score.
  kernels::ScoreWorkspace& ws = kernels::ThreadLocalWorkspace();
  kernels::ScoreAccumulator& acc = ws.acc;
  acc.Begin(/*expected_items=*/64);
  for (size_t ci = 0; ci < components_.size(); ++ci) {
    const Component& c = components_[ci];
    const std::vector<Scored>& scored = fetched[ci];
    if (scored.empty()) continue;
    // Min-max normalize this component's scores to [0,1].
    double lo = scored.back().score;
    double hi = scored.front().score;
    for (const Scored& s : scored) {
      lo = std::min(lo, s.score);
      hi = std::max(hi, s.score);
    }
    const double span = hi - lo;
    // Items the component did not return contribute 0, so a returned
    // candidate must contribute strictly more than 0 or its ranking
    // information is lost when the list is shorter than the blend
    // depth: affinely map [0,1] onto [floor, 1] with floor = 1/(n+1).
    const double floor = 1.0 / static_cast<double>(scored.size() + 1);
    const size_t n = scored.size();
    double* products = ws.EnsureProducts(n);
    kernels::NormalizedContribution(&scored[0].score, 2, n, lo, span,
                                    floor, c.weight, products);
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = acc.Add(scored[i].item, products[i]);
      if (contributions == nullptr) continue;
      // Slots are dense in first-touch order: a new one is the next row.
      if (contributions->size() == slot * width) {
        contributions->resize((slot + 1) * width, 0.0);
      }
      (*contributions)[slot * width + ci] += products[i];
    }
  }
  const size_t count = acc.size();
  blended->resize(count);
  for (size_t i = 0; i < count; ++i) {
    (*blended)[i] = {acc.item(i), acc.score(i), i};
  }
  std::sort(blended->begin(), blended->end(),
            [](const Blended& a, const Blended& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
}

void HybridRecommender::RecommendCandidatesInto(
    const CandidateQuery& query, std::vector<Scored>* out) const {
  std::vector<std::vector<Scored>> fetched;
  std::vector<Blended> blended;
  FetchComponentCandidatesInto(query, &fetched);
  BlendFetchedInto(fetched, /*contributions=*/nullptr, &blended);
  out->clear();
  out->reserve(std::min(query.k, blended.size()));
  for (const Blended& b : blended) {
    if (out->size() >= query.k) break;
    out->push_back({b.item, b.score});
  }
}

}  // namespace spa::recsys
