#include "deployment.h"

#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/rng.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "workload/scenario_generator.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Rng stream of the items' emotion profiles (outside the generator's
/// block range, so it never correlates with the event stream).
constexpr uint64_t kProfileStream = 0xBE4C'0000'0000'0001ULL;

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;
  {
    // Reads dominate and mostly hit the response cache; the writer lane
    // sees only a trickle of SUM publishes, no interaction bursts.
    WorkloadSpec w;
    w.name = "read_hot";
    w.scenario = [](uint64_t seed, size_t events) {
      workload::ScenarioConfig c =
          workload::SteadyPowerLawScenario(kUsers, seed);
      c.name = "read_hot";
      c.target_events = events;
      c.diurnal_amplitude = 0.0;
      c.interaction_fraction = 0.0;
      c.sum_update_fraction = 0.01;
      return c;
    };
    w.rate = 5000.0;
    w.workers = 2;
    all.push_back(std::move(w));
  }
  {
    // The storm archetype's default mix: interaction bursts and
    // correlated publish waves keep the writer lane busy.
    WorkloadSpec w;
    w.name = "write_storm";
    w.scenario = [](uint64_t seed, size_t events) {
      workload::ScenarioConfig c =
          workload::EmotionShiftStormScenario(kUsers, seed);
      c.name = "write_storm";
      c.target_events = events;
      c.diurnal_amplitude = 0.0;
      return c;
    };
    w.rate = 300.0;
    w.workers = 2;
    all.push_back(std::move(w));
  }
  {
    // Routing, per-replica caches and fan-out replay: nproc - 1
    // replicas of one drain thread each.
    WorkloadSpec w;
    w.name = "routed";
    w.scenario = [](uint64_t seed, size_t events) {
      workload::ScenarioConfig c =
          workload::SteadyPowerLawScenario(kUsers, seed);
      c.name = "routed";
      c.target_events = events;
      c.diurnal_amplitude = 0.0;
      c.interaction_fraction = 0.03;
      return c;
    };
    w.rate = 800.0;
    w.routed = true;
    w.workers = 3;
    all.push_back(std::move(w));
  }
  {
    // A flash crowd overloads one drain worker inside its window; the
    // deadline outlasts the time a full read queue takes to turn over,
    // so pressed reads are answered from the fallback tier, not dropped.
    WorkloadSpec w;
    w.name = "flash_degrade";
    w.scenario = [](uint64_t seed, size_t events) {
      workload::ScenarioConfig c =
          workload::FlashCrowdScenario(kUsers, seed);
      c.name = "flash_degrade";
      c.target_events = events;
      c.diurnal_amplitude = 0.0;
      c.interaction_fraction = 0.02;
      // A shorter window than the archetype's keeps most reads outside
      // it, so the median describes normal service and the tail the
      // crowd.
      c.flash_crowds.front().duration = 0.06;
      return c;
    };
    w.rate = 1500.0;
    w.workers = 1;
    w.policy = recsys::BackpressurePolicy::kDegrade;
    w.deadline_ms = 50.0;
    w.queue_capacity = 32;
    w.closed_inflight = 16;
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<sum::SumUpdate> MaterializeShifts(
    const std::vector<workload::EmotionShift>& shifts,
    const sum::AttributeCatalog& catalog) {
  std::vector<sum::SumUpdate> updates;
  for (const workload::EmotionShift& shift : shifts) {
    if (updates.empty() ||
        updates.back().user() != static_cast<sum::UserId>(shift.user)) {
      updates.emplace_back(static_cast<sum::UserId>(shift.user));
    }
    const sum::AttributeId attr = catalog.EmotionalId(shift.attribute);
    if (shift.op == workload::EmotionShift::Op::kSetSensibility) {
      updates.back().SetSensibility(attr, shift.amount);
    } else {
      updates.back().Reward(attr, shift.amount);
    }
  }
  return updates;
}

bool SameResponse(const recsys::RecommendResponse& a,
                  const recsys::RecommendResponse& b) {
  if (a.user != b.user || a.degraded != b.degraded ||
      a.items.size() != b.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].item != b.items[i].item ||
        a.items[i].score != b.items[i].score) {
      return false;
    }
  }
  return true;
}

std::function<void(recsys::RecsysEngine&)> StackBuilder(uint64_t seed,
                                                        size_t items) {
  return [seed, items](recsys::RecsysEngine& engine) {
    engine.AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                        0.6);
    engine.AddComponent(std::make_unique<recsys::PopularityRecommender>(),
                        0.4);
    spa::Rng rng(seed, kProfileStream);
    for (size_t i = 0; i < items; ++i) {
      recsys::EmotionProfile profile{};
      for (double& p : profile) p = rng.Uniform();
      engine.SetItemEmotionProfile(static_cast<recsys::ItemId>(i), profile);
    }
  };
}

recsys::EngineConfig ServingEngineConfig() {
  recsys::EngineConfig config;
  config.interaction_shards = kInteractionShards;
  config.response_cache_capacity = kResponseCacheCapacity;
  return config;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      size_t events, const sum::AttributeCatalog& catalog) {
  Inputs in;
  in.scenario = spec.scenario(seed, events);
  const workload::ScenarioGenerator generator(in.scenario);
  in.events = generator.Generate(/*threads=*/1);
  in.fingerprint = workload::StreamFingerprint(in.events);
  in.bootstrap_log = generator.BootstrapInteractions();
  in.bootstrap_updates =
      MaterializeShifts(generator.BootstrapEmotions(), catalog);
  in.items = generator.item_count();
  return in;
}

spa::Result<std::unique_ptr<Deployment>> Deployment::Create(
    const WorkloadSpec& spec, uint64_t seed, size_t events,
    SetupTimes* times) {
  const auto start = Clock::now();
  std::unique_ptr<Deployment> d(new Deployment());
  d->catalog_ = std::make_unique<sum::AttributeCatalog>(
      sum::AttributeCatalog::EmagisterDefault());
  d->inputs_ = GenerateInputs(spec, seed, events, *d->catalog_);
  d->sums_ = std::make_unique<sum::SumService>(d->catalog_.get());
  SPA_RETURN_IF_ERROR(d->sums_->ApplyAll(d->inputs_.bootstrap_updates));

  const auto builder = StackBuilder(seed, d->inputs_.items);
  if (spec.routed) {
    const auto step = Clock::now();
    recsys::RouterConfig config;
    config.workers = spec.workers;
    config.engine = ServingEngineConfig();
    // A replica is one core: its live-update apply runs on its own drain
    // thread instead of a pool as wide as the host.
    config.engine.batch_threads = 1;
    config.queue.workers = 1;
    config.queue.queue_capacity = spec.queue_capacity;
    config.stack_builder = builder;
    SPA_ASSIGN_OR_RETURN(
        d->router_, recsys::ServingRouter::Create(
                        std::move(config), d->inputs_.bootstrap_log,
                        d->sums_.get()));
    times->create_s = spa::SecondsSince(step);
  } else {
    d->matrix_ = std::make_unique<recsys::InteractionMatrix>(
        kInteractionShards);
    for (const recsys::Interaction& it : d->inputs_.bootstrap_log) {
      d->matrix_->Add(it.user, it.item, it.weight);
    }
    d->engine_ = std::make_unique<recsys::RecsysEngine>(
        ServingEngineConfig());
    builder(*d->engine_);
    d->engine_->set_sum_service(d->sums_.get());
    SPA_RETURN_IF_ERROR(d->engine_->Fit(d->matrix_.get()));

    const auto step = Clock::now();
    recsys::PipelineConfig config;
    config.workers = spec.workers;
    config.queue_capacity = spec.queue_capacity;
    config.policy = spec.policy;
    d->pipeline_ = std::make_unique<recsys::ServingPipeline>(
        d->engine_.get(), d->sums_.get(), config);
    times->create_s = spa::SecondsSince(step);
  }
  times->total_s = spa::SecondsSince(start);
  return d;
}

recsys::EngineCacheStats Deployment::ReadLookups() const {
  recsys::EngineCacheStats total;
  if (engine_ != nullptr) {
    total = engine_->cache_stats();
    total.misses -= engine_->live_update_stats().entries_rewarmed;
    return total;
  }
  for (const recsys::RouterWorkerStats& w : router_->stats().workers) {
    total.hits += w.cache.hits;
    total.misses += w.cache.misses - w.live_updates.entries_rewarmed;
  }
  return total;
}

recsys::PipelineStats Deployment::PipelineTotals() const {
  if (pipeline_ != nullptr) return pipeline_->stats();
  recsys::PipelineStats total;
  for (const recsys::RouterWorkerStats& w : router_->stats().workers) {
    const recsys::PipelineStats& p = w.pipeline;
    total.submitted += p.submitted;
    total.responses += p.responses;
    total.batches += p.batches;
    total.updates_applied += p.updates_applied;
    total.rejected_reads += p.rejected_reads;
    total.rejected_writes += p.rejected_writes;
    total.shed_reads += p.shed_reads;
    total.shed_writes += p.shed_writes;
    total.fallback_served += p.fallback_served;
    total.expired_drops += p.expired_drops;
  }
  return total;
}

void Deployment::Flush() {
  if (pipeline_ != nullptr) {
    pipeline_->Flush();
  } else {
    router_->Flush();
  }
}

}  // namespace perfbench
