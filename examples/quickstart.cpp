// Quickstart: the smallest end-to-end tour of the SPA public API.
//
//   1. construct the platform,
//   2. register a user and run a few Gradual EIT questions,
//   3. record some browsing events,
//   4. train the propensity model,
//   5. get a propensity score, course recommendations and an
//      individualized message.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "campaign/course.h"
#include "core/spa.h"

int main() {
  using namespace spa;

  // 1. The platform: action catalog (984 actions), 75-attribute SUM
  //    catalog, Gradual EIT bank, agents, Smart Component.
  core::SpaConfig config;
  config.seed = 7;
  core::Spa spa(config);
  std::printf("SPA up: %zu actions, %zu attributes, %zu EIT items\n",
              spa.action_catalog().size(),
              spa.attribute_catalog().size(),
              spa.gradual_eit().bank().size());

  // 2. One user answers three EIT questions (one per contact, as the
  //    paper's newsletters did).
  const sum::UserId alice = 1001;
  for (int contact = 0; contact < 3; ++contact) {
    const auto question_id = spa.NextEitQuestion(alice);
    if (!question_id.ok()) break;
    const eit::EitQuestion& q =
        *spa.gradual_eit().bank().ById(question_id.value()).value();
    std::printf("contact %d asks: \"%s\"\n", contact + 1,
                q.text.c_str());
    // Alice answers with the population-consensus option.
    (void)spa.RecordEitAnswer(alice, question_id.value(),
                              q.ModalOption());
  }
  const eit::EitScores scores = spa.EitScoresFor(alice);
  std::printf("EIT progress: %zu answered, standardized EIQ %.1f\n",
              scores.answered, scores.Standardized());

  // 3. Browsing events (normally ingested from WebLogs; RecordEvent is
  //    the already-clean path).
  const auto& clicks =
      spa.action_catalog().CodesFor(lifelog::ActionType::kClick);
  for (int i = 0; i < 6; ++i) {
    lifelog::Event event;
    event.user = alice;
    event.time = spa.clock()->now() - i * kMicrosPerHour;
    event.action_code = clicks[static_cast<size_t>(i) % clicks.size()];
    event.item = static_cast<lifelog::ItemId>(i % 3);
    spa.RecordEvent(event);
  }

  // A few background users so the recommender and the trainer have a
  // population to work with.
  Rng rng(13);
  std::vector<core::PropensityExample> examples;
  for (sum::UserId user = 1; user <= 200; ++user) {
    (void)spa.sum_service()->Apply(sum::SumUpdate(user));
    const bool responder = rng.Bernoulli(0.3);
    const int activity = responder ? 10 : 2;
    for (int i = 0; i < activity; ++i) {
      lifelog::Event event;
      event.user = user;
      event.time = spa.clock()->now() - i * kMicrosPerDay;
      event.action_code = clicks[static_cast<size_t>(i) % clicks.size()];
      event.item = static_cast<lifelog::ItemId>((user + i) % 20);
      spa.RecordEvent(event);
    }
    examples.push_back({user, responder});
  }

  // 4. Train the Smart Component's propensity SVM.
  const Status trained = spa.TrainPropensity(examples);
  std::printf("propensity model: %s (validation AUC %.3f)\n",
              trained.ok() ? "trained" : trained.ToString().c_str(),
              spa.smart_component()->last_validation_auc());

  // 5a. Propensity (the paper's selection function input).
  const auto propensity = spa.Propensity(alice);
  if (propensity.ok()) {
    std::printf("alice's propensity to transact: %.3f\n",
                propensity.value());
  }

  // 5b. Course recommendations through the serving engine: a
  //     RecommendRequest carries the user, cutoff, candidate policy and
  //     an explain flag; the response carries per-item score breakdowns.
  const campaign::CourseCatalog catalog =
      campaign::CourseCatalog::Generate(20, spa.attribute_catalog(), 7);
  for (const auto& course : catalog.courses()) {
    spa.SetItemFeatures(course.id, catalog.ContentFeatures(course));
    spa.SetItemEmotionProfile(course.id, course.emotion_profile);
  }
  recsys::RecommendRequest request;
  request.user = alice;
  request.k = 3;
  request.exclude_seen = recsys::ExcludeSeen::kYes;
  request.explain = true;
  const auto response = spa.Recommend(request);
  if (!response.ok()) {
    std::printf("recommendation failed: %s\n",
                response.status().ToString().c_str());
    return 1;
  }
  std::printf("recommended courses (emotion stage %s):\n",
              response.value().emotion_applied ? "applied" : "skipped");
  for (size_t i = 0; i < response.value().items.size(); ++i) {
    const auto& item = response.value().items[i];
    const auto& breakdown = response.value().breakdowns[i];
    std::printf("  %-24s score %.3f  [base %.3f, emotion %+.3f]\n",
                catalog.ById(item.item).value()->name.c_str(),
                item.score, breakdown.base_share,
                breakdown.emotion_delta);
    for (const auto& c : breakdown.components) {
      std::printf("      %-14s w=%.2f contributed %.3f\n",
                  c.component.c_str(), c.weight, c.contribution);
    }
  }

  // 5c. The individualized sales message (§5.3), composed for the
  //     engine's top suggestion.
  if (!response.value().items.empty()) {
    const campaign::Course& course =
        *catalog.ById(response.value().items.front().item).value();
    const agents::ComposedMessage message =
        spa.MessageFor(alice, course.id, course.sellable_attributes);
    std::printf("message for alice: \"%s\"\n", message.text.c_str());
  }
  return 0;
}
