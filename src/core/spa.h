#ifndef SPA_CORE_SPA_H_
#define SPA_CORE_SPA_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "agents/attributes_agent.h"
#include "agents/messaging_agent.h"
#include "agents/preprocessor_agent.h"
#include "agents/runtime.h"
#include "core/config.h"
#include "core/smart_component.h"
#include "eit/gradual_eit.h"
#include "recsys/content_based.h"
#include "recsys/emotion_aware.h"
#include "recsys/engine.h"
#include "recsys/request.h"
#include "recsys/router/serving_router.h"
#include "recsys/serving_pipeline.h"

/// \file
/// The SPA platform facade: wires the five Fig. 3 components together —
/// LifeLogs Pre-processor Agent, Smart Component, Attributes Manager
/// Agent, Messaging Agent — over the shared stores (LifeLog, SUM) and
/// the Gradual EIT engine, and exposes the paper's two §5.4 functions:
///
///  * the *recommendation function* — "send in an individualized manner
///    the action with most probabilities of execution by the user"
///    (`RecommendCourses` + `MessageFor`), and
///  * the *selection function* — "choose the user with greater
///    propensity to follow a course" (`SelectTopProspects`).

namespace spa::core {

/// \brief The assembled platform.
class Spa {
 public:
  explicit Spa(SpaConfig config = {});

  // ---- component access -------------------------------------------------
  const lifelog::ActionCatalog& action_catalog() const { return actions_; }
  const sum::AttributeCatalog& attribute_catalog() const { return attrs_; }
  lifelog::FeatureSpace* feature_space() { return &space_; }
  lifelog::LifeLogStore* lifelog() { return &logs_; }
  /// The versioned SUM layer: writes go through Apply(SumUpdate),
  /// reads pin sum_snapshot().
  sum::SumService* sum_service() { return &sum_service_; }
  /// Pins the current immutable view of every SUM.
  sum::SumSnapshotPtr sum_snapshot() const {
    return sum_service_.snapshot();
  }
  const eit::GradualEit& gradual_eit() const { return *eit_; }
  agents::AgentRuntime* runtime() { return &runtime_; }
  agents::MessagingAgent* messaging() { return messaging_; }
  agents::AttributesManagerAgent* attributes_manager() {
    return attributes_agent_;
  }
  const agents::PreprocessorAgent* preprocessor() const {
    return preprocessor_;
  }
  SmartComponent* smart_component() { return &smart_; }
  spa::SimClock* clock() { return &clock_; }
  const SpaConfig& config() const { return config_; }

  // ---- ingestion ---------------------------------------------------------
  /// Feeds raw WebLog lines through the pre-processor agent family and
  /// drains the mailbox. Returns the number of envelopes delivered.
  size_t IngestLogLines(std::vector<std::string> lines);

  /// Directly records an already-clean event (bypasses parsing) and
  /// updates the interaction matrix for the recommenders.
  void RecordEvent(const lifelog::Event& event);

  // ---- Gradual EIT (initialization stage) --------------------------------
  /// Next EIT question to embed in a push/newsletter for this user.
  spa::Result<int32_t> NextEitQuestion(sum::UserId user);

  /// Records the user's answer; activates impacted emotional attributes
  /// through the Attributes Manager.
  spa::Status RecordEitAnswer(sum::UserId user, int32_t question_id,
                              size_t option);

  /// EIT progress scores for a user.
  eit::EitScores EitScoresFor(sum::UserId user) const;

  // ---- update stage -------------------------------------------------------
  /// Reports the outcome of a contact argued on `argued_attribute`
  /// (reward on success, punish on ignore) via the Attributes Manager.
  void ObserveInteraction(sum::UserId user, lifelog::ItemId item,
                          sum::AttributeId argued_attribute, bool positive,
                          double magnitude = 1.0);

  /// Periodic maintenance (sensibility decay, agent ticks); advances the
  /// simulated clock by `advance`.
  void Tick(spa::TimeMicros advance = spa::kMicrosPerDay);

  // ---- advice stage -------------------------------------------------------
  /// Registers course content features / emotional profiles (from the
  /// course catalog) for the content-based and emotion-aware layers.
  void SetItemFeatures(lifelog::ItemId item, ml::SparseVector features);
  void SetItemEmotionProfile(lifelog::ItemId item,
                             const recsys::EmotionProfile& profile);

  /// Rebuilds the serving engine (recommender stack) from the current
  /// interactions.
  spa::Status RefreshRecommenders();

  /// The serving engine behind the advice stage (null until the first
  /// successful RefreshRecommenders / Recommend call).
  recsys::RecsysEngine* engine() { return engine_.get(); }

  /// Serves one recommendation request through the engine. The request
  /// is augmented with exclusions for items the user touched in the
  /// LifeLog that the sparse interaction matrix missed (zero-weight
  /// interactions), so seen items cannot leak back. Refreshes the
  /// engine first when interactions changed.
  spa::Result<recsys::RecommendResponse> Recommend(
      recsys::RecommendRequest request);

  /// Serves a batch of requests in parallel over the engine's thread
  /// pool; results align with `requests` by index and match sequential
  /// Recommend calls exactly.
  std::vector<spa::Result<recsys::RecommendResponse>> RecommendBatch(
      std::vector<recsys::RecommendRequest> requests);

  /// Builds an async streaming pipeline over the serving engine and
  /// the platform's SUM service (refreshing the recommender stack
  /// first when interactions changed): callers Submit requests /
  /// interaction batches / SUM publishes and collect tickets instead
  /// of blocking on a closed batch.
  ///
  /// Lifetime: the pipeline borrows the engine, so while the returned
  /// handle is alive `RefreshRecommenders` *refuses to run* (a lazily
  /// triggered refresh surfaces as FailedPrecondition from
  /// Recommend/RecommendBatch rather than replacing an engine whose
  /// workers are mid-serve). Destroy the pipeline before mutating the
  /// platform in ways that require a stack rebuild.
  ///
  /// Caveats vs. the synchronous facade path: the pipeline's fast
  /// path skips the sparse-seen-item merge (zero-weight LifeLog
  /// events) — callers that need it put those items in
  /// `exclude_items` — and `SubmitInteractions` is a *serving-layer*
  /// live update: it reaches the engine's matrix but not the LifeLog,
  /// so events that must survive the next stack rebuild go through
  /// `Record` as well.
  spa::Result<std::shared_ptr<recsys::ServingPipeline>>
  MakeServingPipeline(recsys::PipelineConfig config = {});

  /// Builds a router-tier serving deployment: `config.workers` worker
  /// nodes (each a full serving replica — own matrix, engine, indexes,
  /// response cache and streaming queue) behind a `ServingRouter` that
  /// resolves request ownership through an `OwnershipDirectory` and
  /// shares the platform's SUM service across all nodes.
  ///
  /// The worker replicas bootstrap from the LifeLog's current
  /// interactions with the same weighting `RefreshRecommenders` uses,
  /// and — unless the caller installs its own `stack_builder` — each
  /// node assembles the platform's standard stack (item-KNN +
  /// popularity + content-based when item features exist, plus the
  /// registered emotion profiles). `config.engine.rerank` and
  /// `.emotion_enabled` are stamped from the platform config so routed
  /// rankings match the facade's.
  ///
  /// Unlike MakeServingPipeline, the router borrows nothing from the
  /// platform's own engine (its nodes are self-contained replicas), so
  /// it does not block `RefreshRecommenders`; like the pipeline,
  /// `SubmitInteractions` is a serving-layer update that does not
  /// reach the LifeLog.
  spa::Result<std::unique_ptr<recsys::ServingRouter>> MakeServingRouter(
      recsys::RouterConfig config = {});

  /// Top-k course suggestions; emotion-aware re-ranking applied when a
  /// SUM exists and emotional features are enabled. (Compatibility
  /// wrapper over Recommend().)
  std::vector<recsys::Scored> RecommendCourses(sum::UserId user, size_t k);

  /// Composes the individualized message for (user, course) (§5.3).
  agents::ComposedMessage MessageFor(
      sum::UserId user, lifelog::ItemId course,
      const std::vector<sum::AttributeId>& product_attributes);

  // ---- Smart Component ----------------------------------------------------
  /// Trains the propensity model from labeled examples (features are
  /// assembled from the current stores).
  spa::Status TrainPropensity(
      const std::vector<PropensityExample>& examples);

  /// Current feature snapshot of a user (empty vector if no SUM).
  ml::SparseVector SnapshotFeatures(sum::UserId user) const;

  /// Trains from contact-time snapshots (the leak-free campaign path).
  spa::Status TrainPropensityOnSnapshots(
      const std::vector<ml::SparseVector>& features,
      const std::vector<ml::Label>& labels);

  /// Scores a snapshot with the trained model.
  spa::Result<double> ScoreSnapshot(
      const ml::SparseVector& features) const;

  /// Calibrated propensity of a single user.
  spa::Result<double> Propensity(sum::UserId user) const;

  /// The selection function: top-k users by propensity.
  spa::Result<std::vector<std::pair<sum::UserId, double>>>
  SelectTopProspects(const std::vector<sum::UserId>& candidates,
                     size_t k) const;

 private:
  SpaConfig config_;
  spa::SimClock clock_;
  lifelog::ActionCatalog actions_;
  sum::AttributeCatalog attrs_;
  lifelog::FeatureSpace space_;
  lifelog::LifeLogStore logs_;
  sum::SumService sum_service_;
  eit::QuestionBank bank_;
  std::unique_ptr<eit::GradualEit> eit_;
  std::unordered_map<sum::UserId, eit::UserEitState> eit_states_;
  agents::AgentRuntime runtime_;
  agents::PreprocessorAgent* preprocessor_ = nullptr;      // owned by runtime
  agents::AttributesManagerAgent* attributes_agent_ = nullptr;
  agents::MessagingAgent* messaging_ = nullptr;
  SmartComponent smart_;
  recsys::InteractionMatrix interactions_;
  std::unordered_map<lifelog::ItemId, ml::SparseVector> item_features_;
  std::unordered_map<lifelog::ItemId, recsys::EmotionProfile>
      emotion_profiles_;
  std::unique_ptr<recsys::RecsysEngine> engine_;
  /// Live streaming pipeline handed out by MakeServingPipeline (if
  /// any). While it is alive the engine must not be replaced.
  std::weak_ptr<recsys::ServingPipeline> serving_pipeline_;
  bool recommenders_ready_ = false;

  /// Per-user cache of SparseSeenFor results; cleared whenever the
  /// interaction matrix is rebuilt.
  std::unordered_map<sum::UserId, std::unordered_set<lifelog::ItemId>>
      sparse_seen_;

  eit::UserEitState& EitStateFor(sum::UserId user);

  /// The LifeLog's interactions as an ordered batch (the weighting
  /// RefreshRecommenders feeds its matrix with) — the bootstrap log
  /// the router replays into its replicas' matrix.
  std::vector<recsys::Interaction> CollectInteractions() const;

  /// Items the user touched per the LifeLog that never entered the
  /// (sparse) interaction matrix — zero-weight interactions the seen
  /// filter would otherwise miss. Cached per user: serving must not
  /// rescan the whole LifeLog history on every request.
  const std::unordered_set<lifelog::ItemId>& SparseSeenFor(
      sum::UserId user);
};

}  // namespace spa::core

#endif  // SPA_CORE_SPA_H_
