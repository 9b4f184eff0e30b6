#include "core/spa.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"

namespace spa::core {

namespace {

/// Simulation epoch: 2006-01-01 (the business case ran to March 2006).
constexpr spa::TimeMicros kSimEpoch =
    int64_t{13149} * spa::kMicrosPerDay;

/// Interaction strength per action category (enrolment weighs most).
double InteractionWeight(lifelog::ActionType type, double value) {
  using lifelog::ActionType;
  switch (type) {
    case ActionType::kPageView:
      return 0.2;
    case ActionType::kClick:
      return 0.5;
    case ActionType::kSearch:
      return 0.3;
    case ActionType::kEmailOpen:
      return 0.3;
    case ActionType::kEmailClick:
      return 0.6;
    case ActionType::kInfoRequest:
      return 1.5;
    case ActionType::kEnrollment:
      return 3.0;
    case ActionType::kRating:
      return value / 5.0 * 2.0;
    case ActionType::kOpinion:
      return 1.0;
    case ActionType::kEitAnswer:
      return 0.0;
  }
  return 0.0;
}

}  // namespace

Spa::Spa(SpaConfig config)
    : config_(config),
      clock_(kSimEpoch),
      actions_(lifelog::ActionCatalog::Standard()),
      attrs_(sum::AttributeCatalog::EmagisterDefault()),
      sum_service_(&attrs_,
                   sum::SumServiceConfig{config.reinforcement}),
      bank_(eit::QuestionBank::Generate(config.eit_questions_per_section,
                                        config.seed)),
      eit_(std::make_unique<eit::GradualEit>(&bank_)),
      runtime_(&clock_),
      smart_(&actions_, &attrs_, &space_, config) {
  auto preprocessor = std::make_unique<agents::PreprocessorAgent>(
      &actions_, &logs_, config.preprocessor);
  preprocessor_ = preprocessor.get();
  SPA_CHECK(runtime_.Register(std::move(preprocessor)).ok());

  auto attributes_agent = std::make_unique<agents::AttributesManagerAgent>(
      &sum_service_, agents::AttributesAgentConfig{});
  attributes_agent_ = attributes_agent.get();
  SPA_CHECK(runtime_.Register(std::move(attributes_agent)).ok());

  auto messaging = std::make_unique<agents::MessagingAgent>(
      &sum_service_, config.messaging);
  messaging_ = messaging.get();
  SPA_CHECK(runtime_.Register(std::move(messaging)).ok());
  InstallDefaultTemplates(attrs_, messaging_);
}

size_t Spa::IngestLogLines(std::vector<std::string> lines) {
  agents::RawLogBatch batch;
  batch.lines = std::move(lines);
  runtime_.Inject("preproc-0", std::move(batch));
  const size_t delivered = runtime_.RunUntilIdle();
  recommenders_ready_ = false;  // interactions changed
  return delivered;
}

void Spa::RecordEvent(const lifelog::Event& event) {
  logs_.Append(event);
  recommenders_ready_ = false;
}

eit::UserEitState& Spa::EitStateFor(sum::UserId user) {
  auto it = eit_states_.find(user);
  if (it == eit_states_.end()) {
    it = eit_states_.emplace(user, eit::UserEitState(bank_.size())).first;
  }
  return it->second;
}

spa::Result<int32_t> Spa::NextEitQuestion(sum::UserId user) {
  return eit_->NextQuestionFor(EitStateFor(user));
}

spa::Status Spa::RecordEitAnswer(sum::UserId user, int32_t question_id,
                                 size_t option) {
  eit::UserEitState& state = EitStateFor(user);
  SPA_ASSIGN_OR_RETURN(eit::GradualEit::AnswerOutcome outcome,
                       eit_->RecordAnswer(&state, question_id, option));

  // Log the answer as a LifeLog event.
  const auto& codes =
      actions_.CodesFor(lifelog::ActionType::kEitAnswer);
  lifelog::Event event;
  event.user = user;
  event.time = clock_.now();
  event.action_code =
      codes[static_cast<size_t>(question_id) % codes.size()];
  event.value = outcome.consensus_score;
  logs_.Append(event);

  // Route the activations to the Attributes Manager.
  agents::EitAnswerObserved observed;
  observed.user = user;
  observed.question_id = question_id;
  observed.activations = std::move(outcome.activations);
  runtime_.Inject("attributes-manager", std::move(observed));
  runtime_.RunUntilIdle();
  return spa::Status::OK();
}

eit::EitScores Spa::EitScoresFor(sum::UserId user) const {
  const auto it = eit_states_.find(user);
  if (it == eit_states_.end()) {
    return eit::EitScores{};
  }
  return eit_->ScoresFor(it->second);
}

void Spa::ObserveInteraction(sum::UserId user, lifelog::ItemId item,
                             sum::AttributeId argued_attribute,
                             bool positive, double magnitude) {
  agents::InteractionObserved observed;
  observed.user = user;
  observed.item = item;
  observed.argued_attribute = argued_attribute;
  observed.positive = positive;
  observed.magnitude = magnitude;
  runtime_.Inject("attributes-manager", std::move(observed));
  runtime_.RunUntilIdle();
}

void Spa::Tick(spa::TimeMicros advance) {
  clock_.Advance(advance);
  runtime_.TickAll();
}

void Spa::SetItemFeatures(lifelog::ItemId item,
                          ml::SparseVector features) {
  item_features_[item] = std::move(features);
  recommenders_ready_ = false;
}

void Spa::SetItemEmotionProfile(lifelog::ItemId item,
                                const recsys::EmotionProfile& profile) {
  emotion_profiles_[item] = profile;
  if (engine_ != nullptr) engine_->SetItemEmotionProfile(item, profile);
}

spa::Status Spa::RefreshRecommenders() {
  if (!serving_pipeline_.expired()) {
    // Rebuilding replaces engine_ while the pipeline's drain workers
    // may be inside it — refuse loudly instead of a use-after-free.
    return spa::Status::FailedPrecondition(
        "a streaming pipeline is serving from the current engine; "
        "destroy it before refreshing the recommender stack");
  }
  // Rebuild the interaction matrix from the LifeLog (single source of
  // truth for what users touched). Shard count comes from the engine
  // config; any count stores bit-for-bit identical data.
  interactions_ =
      recsys::InteractionMatrix(config_.engine.interaction_shards);
  // Same ordered log the router tier bootstraps worker replicas from
  // (identical Add order => bitwise-identical matrices).
  for (const recsys::Interaction& it : CollectInteractions()) {
    interactions_.Add(it.user, it.item, it.weight);
  }

  if (interactions_.interaction_count() == 0) {
    return spa::Status::FailedPrecondition(
        "no item interactions recorded yet");
  }

  recsys::EngineConfig engine_config = config_.engine;
  engine_config.rerank = config_.rerank;
  engine_config.emotion_enabled = config_.include_emotional_features;
  engine_ = std::make_unique<recsys::RecsysEngine>(engine_config);
  engine_->AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                        0.45);
  engine_->AddComponent(
      std::make_unique<recsys::PopularityRecommender>(), 0.10);
  if (!item_features_.empty()) {
    auto content = std::make_unique<recsys::ContentBasedRecommender>();
    for (const auto& [item, features] : item_features_) {
      content->SetItemFeatures(item, features);
    }
    engine_->AddComponent(std::move(content), 0.45);
  }
  for (const auto& [item, profile] : emotion_profiles_) {
    engine_->SetItemEmotionProfile(item, profile);
  }
  engine_->set_sum_service(&sum_service_);
  SPA_RETURN_IF_ERROR(engine_->Fit(interactions_));
  sparse_seen_.clear();  // derived from the matrix just rebuilt
  recommenders_ready_ = true;
  return spa::Status::OK();
}

const std::unordered_set<lifelog::ItemId>& Spa::SparseSeenFor(
    sum::UserId user) {
  auto it = sparse_seen_.find(user);
  if (it == sparse_seen_.end()) {
    std::unordered_set<lifelog::ItemId> out;
    for (const lifelog::Event& event : logs_.UserEvents(user)) {
      if (event.item == lifelog::kNoItem) continue;
      if (!interactions_.Seen(user, event.item)) out.insert(event.item);
    }
    it = sparse_seen_.emplace(user, std::move(out)).first;
  }
  return it->second;
}

spa::Result<recsys::RecommendResponse> Spa::Recommend(
    recsys::RecommendRequest request) {
  if (!recommenders_ready_) {
    SPA_RETURN_IF_ERROR(RefreshRecommenders());
  }
  if (request.exclude_seen == recsys::ExcludeSeen::kYes) {
    // Zero-weight interactions (e.g. a rating of 0) never enter the
    // sparse matrix; without this merge they would leak back as
    // recommendations.
    const auto& sparse_seen = SparseSeenFor(request.user);
    request.exclude_items.insert(sparse_seen.begin(), sparse_seen.end());
  }
  return engine_->Recommend(request);
}

std::vector<spa::Result<recsys::RecommendResponse>> Spa::RecommendBatch(
    std::vector<recsys::RecommendRequest> requests) {
  if (!recommenders_ready_) {
    const spa::Status refreshed = RefreshRecommenders();
    if (!refreshed.ok()) {
      return std::vector<spa::Result<recsys::RecommendResponse>>(
          requests.size(),
          spa::Result<recsys::RecommendResponse>(refreshed));
    }
  }
  for (recsys::RecommendRequest& request : requests) {
    if (request.exclude_seen == recsys::ExcludeSeen::kYes) {
      const auto& sparse_seen = SparseSeenFor(request.user);
      request.exclude_items.insert(sparse_seen.begin(),
                                   sparse_seen.end());
    }
  }
  return engine_->RecommendBatch(requests);
}

spa::Result<std::shared_ptr<recsys::ServingPipeline>>
Spa::MakeServingPipeline(recsys::PipelineConfig config) {
  if (auto live = serving_pipeline_.lock()) {
    return spa::Status::FailedPrecondition(
        "a streaming pipeline is already serving from the engine; "
        "destroy it before building another");
  }
  if (!recommenders_ready_) {
    SPA_RETURN_IF_ERROR(RefreshRecommenders());
  }
  auto pipeline = std::make_shared<recsys::ServingPipeline>(
      engine_.get(), &sum_service_, config);
  serving_pipeline_ = pipeline;
  return pipeline;
}

std::vector<recsys::Interaction> Spa::CollectInteractions() const {
  std::vector<recsys::Interaction> interactions;
  logs_.ForEachUser([this, &interactions](
                        sum::UserId user,
                        const std::vector<lifelog::Event>& events) {
    for (const lifelog::Event& event : events) {
      if (event.item == lifelog::kNoItem) continue;
      const auto type = actions_.TypeOf(event.action_code);
      if (!type.ok()) continue;
      const double weight = InteractionWeight(type.value(), event.value);
      if (weight > 0.0) {
        interactions.push_back(
            recsys::Interaction{user, event.item, weight});
      }
    }
  });
  return interactions;
}

spa::Result<std::unique_ptr<recsys::ServingRouter>>
Spa::MakeServingRouter(recsys::RouterConfig config) {
  std::vector<recsys::Interaction> bootstrap = CollectInteractions();
  if (bootstrap.empty()) {
    return spa::Status::FailedPrecondition(
        "no item interactions recorded yet");
  }
  // Routed rankings must match the facade's: stamp the platform's
  // re-rank parameters and emotion switch, as RefreshRecommenders
  // does for its own engine.
  config.engine.rerank = config_.rerank;
  config.engine.emotion_enabled = config_.include_emotional_features;
  if (!config.stack_builder) {
    // Self-contained copies: the router keeps its config for its whole
    // lifetime, independent of the platform's catalogs, and every
    // worker must build the *same* stack.
    auto features = item_features_;
    auto profiles = emotion_profiles_;
    config.stack_builder = [features = std::move(features),
                            profiles = std::move(profiles)](
                               recsys::RecsysEngine& engine) {
      engine.AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                          0.45);
      engine.AddComponent(
          std::make_unique<recsys::PopularityRecommender>(), 0.10);
      if (!features.empty()) {
        auto content = std::make_unique<recsys::ContentBasedRecommender>();
        for (const auto& [item, feature] : features) {
          content->SetItemFeatures(item, feature);
        }
        engine.AddComponent(std::move(content), 0.45);
      }
      for (const auto& [item, profile] : profiles) {
        engine.SetItemEmotionProfile(item, profile);
      }
    };
  }
  return recsys::ServingRouter::Create(std::move(config), bootstrap,
                                       &sum_service_);
}

std::vector<recsys::Scored> Spa::RecommendCourses(sum::UserId user,
                                                  size_t k) {
  recsys::RecommendRequest request;
  request.user = user;
  request.k = k;
  const auto response = Recommend(std::move(request));
  if (!response.ok()) return {};
  return response.value().AsScored();
}

agents::ComposedMessage Spa::MessageFor(
    sum::UserId user, lifelog::ItemId course,
    const std::vector<sum::AttributeId>& product_attributes) {
  agents::ComposeMessageRequest request;
  request.user = user;
  request.course = course;
  request.product_attributes = product_attributes;
  return messaging_->Compose(request);
}

spa::Status Spa::TrainPropensity(
    const std::vector<PropensityExample>& examples) {
  return smart_.TrainPropensity(examples, *sum_service_.snapshot(),
                                logs_, clock_.now());
}

ml::SparseVector Spa::SnapshotFeatures(sum::UserId user) const {
  const sum::SumSnapshotPtr snapshot = sum_service_.snapshot();
  const auto model = snapshot->Get(user);
  if (!model.ok()) return ml::SparseVector();
  return smart_.FeaturesFor(*model.value(), logs_.UserEvents(user),
                            clock_.now());
}

spa::Status Spa::TrainPropensityOnSnapshots(
    const std::vector<ml::SparseVector>& features,
    const std::vector<ml::Label>& labels) {
  return smart_.TrainOnSnapshots(features, labels);
}

spa::Result<double> Spa::ScoreSnapshot(
    const ml::SparseVector& features) const {
  return smart_.ScoreFeatures(features);
}

spa::Result<double> Spa::Propensity(sum::UserId user) const {
  const sum::SumSnapshotPtr snapshot = sum_service_.snapshot();
  SPA_ASSIGN_OR_RETURN(const sum::SmartUserModel* model,
                       snapshot->Get(user));
  return smart_.Propensity(*model, logs_.UserEvents(user), clock_.now());
}

spa::Result<std::vector<std::pair<sum::UserId, double>>>
Spa::SelectTopProspects(const std::vector<sum::UserId>& candidates,
                        size_t k) const {
  const sum::SumSnapshotPtr snapshot = sum_service_.snapshot();
  SPA_ASSIGN_OR_RETURN(auto ranked,
                       smart_.RankUsers(candidates, *snapshot, logs_,
                                        clock_.now()));
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace spa::core
