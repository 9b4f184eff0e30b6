#include "recsys/emotion_aware.h"

#include <algorithm>
#include <cmath>

namespace spa::recsys {

EmotionAwareReranker::EmotionAwareReranker(EmotionRerankConfig config)
    : config_(config) {}

void EmotionAwareReranker::SetItemProfile(ItemId item,
                                          const EmotionProfile& profile) {
  profiles_[item] = profile;
}

double EmotionAwareReranker::Alignment(const sum::SmartUserModel& model,
                                       ItemId item) const {
  const auto it = profiles_.find(item);
  if (it == profiles_.end()) return 0.0;
  const EmotionProfile& resonance = it->second;

  double signal = 0.0;
  double weight_total = 0.0;
  for (eit::EmotionalAttribute attr : eit::AllEmotionalAttributes()) {
    const size_t i = static_cast<size_t>(attr);
    const double sens =
        model.sensibility(model.catalog().EmotionalId(attr));
    if (sens < config_.sensibility_threshold) continue;
    // Activation for positive valence, inhibition for negative.
    signal += eit::ValenceSign(attr) * sens * resonance[i];
    weight_total += sens;
  }
  if (weight_total == 0.0) return 0.0;
  const double alignment = signal / weight_total;
  // A NaN sensibility or resonance carries no signal; letting it through
  // would make every score it touches unordered.
  if (std::isnan(alignment)) return 0.0;
  return std::clamp(alignment, -1.0, 1.0);
}

std::pair<double, double> EmotionAwareReranker::ScoreBounds(
    const std::vector<Scored>& candidates) {
  if (candidates.empty()) return {0.0, 0.0};
  double lo = candidates.front().score;
  double hi = candidates.front().score;
  for (const Scored& s : candidates) {
    lo = std::min(lo, s.score);
    hi = std::max(hi, s.score);
  }
  return {lo, hi};
}

double EmotionAwareReranker::NormalizedBase(double score, double lo,
                                            double hi) {
  const double span = hi - lo;
  return span > 0.0 ? (score - lo) / span : 1.0;
}

double EmotionAwareReranker::BlendScore(double normalized_base,
                                        double alignment) const {
  return (1.0 - config_.beta) * normalized_base +
         config_.beta * alignment;
}

std::vector<Scored> EmotionAwareReranker::Rerank(
    const sum::SmartUserModel& model,
    std::vector<Scored> candidates) const {
  if (candidates.empty()) return candidates;
  // Min-max normalize base scores so beta blends comparable scales.
  const auto [lo, hi] = ScoreBounds(candidates);
  for (Scored& s : candidates) {
    const double base = NormalizedBase(s.score, lo, hi);
    const double alignment = Alignment(model, s.item);
    s.score = BlendScore(base, alignment);
  }
  SortAndTruncate(&candidates, candidates.size());
  return candidates;
}

}  // namespace spa::recsys
