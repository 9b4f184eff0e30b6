#ifndef SPA_RECSYS_EMOTION_AWARE_H_
#define SPA_RECSYS_EMOTION_AWARE_H_

#include <array>
#include <unordered_map>
#include <utility>

#include "eit/emotion.h"
#include "recsys/recommender.h"
#include "sum/user_model.h"

/// \file
/// The emotion-aware advice stage (§3 stage 2): recommendations are
/// adjusted by "activation or inhibition of excitatory attributes from
/// each domain of interaction according to the emotional information".
/// Items carry an emotional-resonance profile (how strongly the item's
/// presentation resonates with each of the ten attributes); a user's
/// positively-valenced dominant sensibilities *activate* matching items
/// while negatively-valenced ones *inhibit* them.

namespace spa::recsys {

/// Per-item resonance with the ten emotional attributes, each in [0,1].
using EmotionProfile = std::array<double, eit::kNumEmotionalAttributes>;

struct EmotionRerankConfig {
  /// Strength of the emotional adjustment relative to base scores.
  double beta = 0.5;
  /// Sensibility threshold below which an attribute is ignored.
  double sensibility_threshold = 0.2;
};

/// \brief Re-ranks base recommendations using SUM emotional context.
class EmotionAwareReranker {
 public:
  explicit EmotionAwareReranker(EmotionRerankConfig config = {});

  /// Registers the emotional profile of an item.
  void SetItemProfile(ItemId item, const EmotionProfile& profile);

  /// Emotional alignment of (user, item): sum over dominant attributes
  /// of sensibility * valence_sign * resonance, normalized to [-1, 1];
  /// 0 when a NaN sensibility or resonance makes it undefined.
  double Alignment(const sum::SmartUserModel& model, ItemId item) const;

  /// Re-scores candidates: score' = (1-beta) * normalized_base +
  /// beta * alignment; candidates are re-sorted.
  std::vector<Scored> Rerank(const sum::SmartUserModel& model,
                             std::vector<Scored> candidates) const;

  // The pieces of Rerank's formula, exposed so serving paths that need
  // per-item breakdowns (the engine's explain mode) share one
  // definition of the blend instead of re-implementing it.

  /// Min-max bounds (lo, hi) of the candidate scores ({0,0} if empty).
  static std::pair<double, double> ScoreBounds(
      const std::vector<Scored>& candidates);
  /// Base score normalized against [lo, hi] (1.0 when the span is 0).
  static double NormalizedBase(double score, double lo, double hi);
  /// The blend: (1-beta) * normalized_base + beta * alignment.
  double BlendScore(double normalized_base, double alignment) const;

  const EmotionRerankConfig& config() const { return config_; }

 private:
  EmotionRerankConfig config_;
  std::unordered_map<ItemId, EmotionProfile> profiles_;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_EMOTION_AWARE_H_
