#ifndef SPA_RECSYS_HYBRID_H_
#define SPA_RECSYS_HYBRID_H_

#include <memory>
#include <string>

#include "recsys/recommender.h"

/// \file
/// Weighted hybrid recommender (Burke's taxonomy, [2]): combines the
/// min-max-normalized scores of several base recommenders.

namespace spa::recsys {

/// Candidates requested from each component before blending.
inline constexpr size_t kComponentDepth = 100;

/// \brief Weighted-combination hybrid.
class HybridRecommender : public Recommender {
 public:
  /// Adds a component with its blending weight (weights need not sum
  /// to 1; they are used as given).
  void AddComponent(std::unique_ptr<Recommender> component,
                    double weight);

  spa::Status Fit(const InteractionMatrix& matrix) override;
  /// Refreshes every component and merges their outcomes (union of
  /// affected users, OR of the all-users/full-rebuild flags, minimum
  /// of the unchanged ranking prefixes, summed costs).
  spa::Status Refresh(RefreshOutcome* outcome) override;
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override;
  std::string name() const override { return "WeightedHybrid"; }

  /// One blended candidate. `slot` is its first-touch position in the
  /// blend: row `slot` of the contribution buffer holds its
  /// per-component shares when tracking was requested.
  struct Blended {
    ItemId item = lifelog::kNoItem;
    double score = 0.0;
    size_t slot = 0;
  };

  /// Stage half 1: every component's candidates for the query (at
  /// `kComponentDepth`, not query.k), indexed like components. The
  /// only half that reads the interaction matrix. `*fetched` is
  /// resized to the component count and each inner vector is refilled
  /// in place, so a pooled caller's capacities persist across
  /// requests. When `component_seconds` is non-null it receives one
  /// wall-clock duration per component (the engine's L3 profiler
  /// items).
  void FetchComponentCandidatesInto(
      const CandidateQuery& query,
      std::vector<std::vector<Scored>>* fetched,
      std::vector<double>* component_seconds = nullptr) const;

  /// Stage half 2: min-max-normalizes each component's fetched list
  /// (floor = 1/(n+1), see the implementation comment), accumulates
  /// the weighted blend on the thread-local workspace through the
  /// normalize/weigh kernel, and writes it to `*blended` sorted by
  /// (score desc, item asc), untruncated. When `contributions` is
  /// non-null it is refilled with `component_count()` weighted shares
  /// per blended candidate (row `Blended::slot`; a row sums to that
  /// candidate's score) — the engine's explanation path. It is the same
  /// kernel product the score accumulates, so scores and order are
  /// bitwise the same either way, and the buffer only grows, so a
  /// recycled one costs no allocation. Pure — touches no fitted state
  /// beyond component weights, so it may run outside the serve lock
  /// against pinned fetch results.
  void BlendFetchedInto(const std::vector<std::vector<Scored>>& fetched,
                        std::vector<double>* contributions,
                        std::vector<Blended>* blended) const;

  size_t component_count() const { return components_.size(); }
  const Recommender& component(size_t i) const {
    return *components_[i].recommender;
  }
  std::string component_name(size_t i) const {
    return components_[i].recommender->name();
  }
  double component_weight(size_t i) const {
    return components_[i].weight;
  }

 private:
  struct Component {
    std::unique_ptr<Recommender> recommender;
    double weight;
  };
  std::vector<Component> components_;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_HYBRID_H_
