#ifndef SPA_RECSYS_REQUEST_H_
#define SPA_RECSYS_REQUEST_H_

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "recsys/recommender.h"
#include "sum/sum_service.h"

/// \file
/// Request/response value types of the serving API. A recommendation
/// call is a rich contextual request (Santana & Domingues 2020; Zheng
/// 2017) — the user plus cutoff, an explicit candidate policy, an
/// optional emotional-context override, and an `explain` flag — not a
/// bare `(user, k)` pair. Responses carry scored items and, for
/// explained requests, one score breakdown per item.

namespace spa::recsys {

/// \brief One recommendation request.
struct RecommendRequest {
  UserId user = 0;
  /// Number of items wanted.
  size_t k = 10;

  /// Whether items the user already interacted with are filtered.
  ExcludeSeen exclude_seen = ExcludeSeen::kYes;
  /// Items never to return — e.g. interactions the caller knows about
  /// that a sparse interaction matrix missed, or business blocklists.
  std::unordered_set<ItemId> exclude_items;
  /// When set, only these items may be recommended (campaign slates,
  /// category pages). Must be non-empty when present.
  std::optional<std::unordered_set<ItemId>> candidate_items;

  /// When set, the emotion-aware stage resolves `user` in this pinned
  /// snapshot instead of the engine's live SumService view (what-if
  /// serving, group aggregation, A/B overrides, replaying a frozen
  /// version). The handle keeps the snapshot alive for the call;
  /// overridden requests bypass the engine's response cache.
  sum::SumSnapshotPtr emotion_override;

  /// Fill per-item score breakdowns in the response.
  bool explain = false;
};

/// Validates field invariants (k > 0; candidate_items, when present,
/// non-empty). An allowlist fully covered by `exclude_items` is valid
/// and simply yields an empty response — the serving layer merges
/// server-side seen-item exclusions into requests, so that state is
/// reachable from a correct call.
spa::Status ValidateRequest(const RecommendRequest& request);

/// One hybrid component's share of an item's blended base score.
struct ComponentContribution {
  std::string component;
  double weight = 0.0;        ///< the component's blend weight
  double contribution = 0.0;  ///< weight * normalized component score
};

/// \brief Why an item scored what it scored.
struct ScoreBreakdown {
  /// Blended hybrid score before emotional adjustment.
  double base = 0.0;
  /// Base score's share of the final score ((1-beta) * normalized base
  /// when the emotional stage ran, otherwise == score).
  double base_share = 0.0;
  /// Emotional alignment in [-1, 1] (0 when the stage did not run).
  double emotional_alignment = 0.0;
  /// beta * alignment — the emotional delta added to the final score.
  double emotion_delta = 0.0;
  /// Per-component share of `base`, in component order.
  std::vector<ComponentContribution> components;
};

/// \brief One recommended item.
struct RecommendedItem {
  ItemId item = lifelog::kNoItem;
  double score = 0.0;
};

/// \brief The engine's answer to one request.
struct RecommendResponse {
  UserId user = 0;
  /// Ranked best-first; ties broken by ascending item id.
  std::vector<RecommendedItem> items;
  /// `breakdowns[i]` explains `items[i]`; filled only when `explained`,
  /// empty otherwise, so unexplained responses carry no breakdown
  /// storage.
  std::vector<ScoreBreakdown> breakdowns;
  /// True when breakdowns were filled.
  bool explained = false;
  /// True when the emotion-aware stage adjusted the ranking.
  bool emotion_applied = false;
  /// True when this response was served from the popularity-only
  /// fallback tier under deadline pressure instead of the full stack.
  /// Degraded responses are the only responses allowed to differ from
  /// synchronous full serving at the same pin; they instead match the
  /// engine's `RecommendFallback` at their pinned matrix version
  /// (see docs/ARCHITECTURE.md, "Degraded serving contract").
  bool degraded = false;

  /// Convenience view as the classic (item, score) list.
  std::vector<Scored> AsScored() const;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_REQUEST_H_
