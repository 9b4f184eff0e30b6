#include "workload/scenario_runner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/router/serving_router.h"
#include "sum/sum_service.h"
#include "workload/scenario_generator.h"

namespace spa::workload {

namespace {

using Clock = std::chrono::steady_clock;

/// Rng streams of the runner's own deterministic choices; far outside
/// the generator's block range.
constexpr uint64_t kProfileStream = 0xCAFE'0000'0000'0001ULL;
constexpr uint64_t kCalibrationStream = 0xCAFE'0000'0000'0002ULL;

/// Shifts -> SumUpdates, merging consecutive same-user shifts into one
/// update (a storm wave touching a user twice is one model mutation).
std::vector<sum::SumUpdate> MaterializeShifts(
    const std::vector<EmotionShift>& shifts,
    const sum::AttributeCatalog& catalog) {
  std::vector<sum::SumUpdate> updates;
  for (const EmotionShift& shift : shifts) {
    if (updates.empty() ||
        updates.back().user() != static_cast<sum::UserId>(shift.user)) {
      updates.emplace_back(static_cast<sum::UserId>(shift.user));
    }
    const sum::AttributeId attr = catalog.EmotionalId(shift.attribute);
    if (shift.op == EmotionShift::Op::kSetSensibility) {
      updates.back().SetSensibility(attr, shift.amount);
    } else {
      updates.back().Reward(attr, shift.amount);
    }
  }
  return updates;
}

/// Bitwise response comparison (same contract as the engine, pipeline
/// and router parity tests: item ids and exact scores).
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

/// One retained writer op: what was submitted plus the ticket that
/// reports where it landed in the version staircase.
struct WriteRecord {
  bool is_sum = false;
  std::vector<recsys::Interaction> interactions;
  std::vector<sum::SumUpdate> updates;
  recsys::StreamTicketPtr ticket;  ///< pipeline writes + routed SUMs
  std::optional<recsys::FanoutTicket> fanout;  ///< routed interactions
};

/// One sampled serve: the request bytes plus the streamed ticket.
struct SampleRecord {
  recsys::RecommendRequest request;
  recsys::StreamTicketPtr ticket;
};

}  // namespace

const char* BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kPipeline:
      return "pipeline";
    case BackendKind::kRouter:
      return "router";
  }
  return "unknown";
}

ScenarioRunner::ScenarioRunner(RunnerConfig config)
    : config_(std::move(config)) {}

ScenarioOutcome ScenarioRunner::Run(const ScenarioConfig& scenario) const {
  ScenarioOutcome out;
  out.scenario = scenario.name;
  out.backend = BackendName(config_.backend);
  out.users = scenario.users;

  ScenarioGenerator generator(scenario);
  const std::vector<ScenarioEvent> events =
      generator.Generate(config_.generate_threads);
  out.events = events.size();
  out.stream_fingerprint = StreamFingerprint(events);

  // ---- bootstrap: population state every deployment starts from ----------
  const std::vector<recsys::Interaction> bootstrap_log =
      generator.BootstrapInteractions();
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  const std::vector<sum::SumUpdate> bootstrap_updates =
      MaterializeShifts(generator.BootstrapEmotions(), catalog);

  sum::SumService sums(&catalog);
  if (!sums.ApplyAll(bootstrap_updates).ok()) {
    out.status = spa::Status::Internal("SUM bootstrap failed");
    return out;
  }

  // Reference SUM replica: replays the same publishes offline and
  // retains the snapshot of every version, so any pinned sum_version
  // can be re-attached to a reference request via emotion_override.
  sum::SumService ref_sums(&catalog);
  if (!ref_sums.ApplyAll(bootstrap_updates).ok()) {
    out.status = spa::Status::Internal("reference SUM bootstrap failed");
    return out;
  }
  std::map<uint64_t, sum::SumSnapshotPtr> sum_snapshots;
  sum_snapshots[ref_sums.version()] = ref_sums.snapshot();

  // The stack every replica and the reference assemble identically
  // (ItemKNN + popularity: cohort-local postings keep index builds
  // linear in users, the scale axis this harness sweeps).
  const size_t items = generator.item_count();
  const uint64_t seed = scenario.seed;
  const auto stack_builder = [seed, items](recsys::RecsysEngine& engine) {
    engine.AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                        0.6);
    engine.AddComponent(
        std::make_unique<recsys::PopularityRecommender>(), 0.4);
    Rng profile_rng(seed, kProfileStream);
    for (size_t i = 0; i < items; ++i) {
      recsys::EmotionProfile profile{};
      for (double& p : profile) p = profile_rng.Uniform();
      engine.SetItemEmotionProfile(static_cast<recsys::ItemId>(i),
                                   profile);
    }
  };

  recsys::EngineConfig engine_config;
  engine_config.interaction_shards = config_.interaction_shards;
  engine_config.response_cache_capacity = size_t{1} << 15;

  // Reference engine: caches off, no SUM service wired — every
  // reference serve re-pins its snapshot explicitly.
  recsys::InteractionMatrix ref_matrix(config_.interaction_shards);
  for (const recsys::Interaction& it : bootstrap_log) {
    ref_matrix.Add(it.user, it.item, it.weight);
  }
  recsys::EngineConfig ref_config = engine_config;
  ref_config.response_cache_capacity = 0;
  recsys::RecsysEngine reference(ref_config);
  stack_builder(reference);
  {
    const spa::Status fitted = reference.Fit(&ref_matrix);
    if (!fitted.ok()) {
      out.status = fitted;
      return out;
    }
  }

  // ---- calibration (on the reference: the live deployment's
  // histograms and cache counters must only see the replay) ----------------
  const auto [active_first, active_last] = generator.ActiveWindow(0);
  double sequential_rps;
  {
    Rng cal_rng(seed, kCalibrationStream);
    const sum::SumSnapshotPtr& boot_snapshot =
        sum_snapshots.begin()->second;
    const auto start = Clock::now();
    for (size_t i = 0; i < config_.calibration_requests; ++i) {
      recsys::RecommendRequest request;
      request.user = active_first +
                     cal_rng.UniformInt(
                         0, static_cast<int64_t>(active_last) -
                                static_cast<int64_t>(active_first) - 1);
      request.k = config_.k;
      request.emotion_override = boot_snapshot;
      (void)reference.Recommend(request);
    }
    const double seconds = SecondsSince(start);
    sequential_rps = seconds > 0.0
                         ? static_cast<double>(
                               config_.calibration_requests) /
                               seconds
                         : config_.min_rps;
  }
  // Write-cost probes on a *throwaway* replica: interaction applies
  // refresh similarity indexes and SUM publishes copy the versioned
  // model map, so at 100k+ users the writer lane — not serving — is
  // usually the capacity ceiling. The probes must not touch the
  // reference (its version staircase is the parity baseline) or the
  // live deployment (not built yet, and its state must equal the
  // reference's), so they run against a disposable bootstrap copy.
  double interaction_apply_seconds = 0.0;
  double sum_publish_seconds = 0.0;
  {
    constexpr size_t kWriteProbes = 3;
    std::vector<const ScenarioEvent*> inter_probes;
    std::vector<const ScenarioEvent*> sum_probes;
    for (const ScenarioEvent& event : events) {
      if (event.kind == EventKind::kInteraction &&
          inter_probes.size() < kWriteProbes) {
        inter_probes.push_back(&event);
      } else if (event.kind == EventKind::kSumUpdate &&
                 sum_probes.size() < kWriteProbes) {
        sum_probes.push_back(&event);
      }
    }
    if (!inter_probes.empty()) {
      recsys::InteractionMatrix probe_matrix(config_.interaction_shards);
      for (const recsys::Interaction& it : bootstrap_log) {
        probe_matrix.Add(it.user, it.item, it.weight);
      }
      recsys::RecsysEngine probe_engine(ref_config);
      stack_builder(probe_engine);
      if (probe_engine.Fit(&probe_matrix).ok()) {
        const auto start = Clock::now();
        for (const ScenarioEvent* event : inter_probes) {
          (void)probe_engine.ApplyInteractions(event->interactions);
        }
        interaction_apply_seconds =
            SecondsSince(start) /
            static_cast<double>(inter_probes.size());
      }
    }
    if (!sum_probes.empty()) {
      sum::SumService probe_sums(&catalog);
      if (probe_sums.ApplyAll(bootstrap_updates).ok()) {
        const auto start = Clock::now();
        for (const ScenarioEvent* event : sum_probes) {
          (void)probe_sums.ApplyAll(
              MaterializeShifts(event->shifts, catalog));
        }
        sum_publish_seconds =
            SecondsSince(start) /
            static_cast<double>(sum_probes.size());
      }
    }
  }

  const size_t drain_threads = config_.backend == BackendKind::kPipeline
                                   ? std::max<size_t>(
                                         config_.pipeline_workers, 1)
                                   : std::max<size_t>(
                                         config_.router_workers, 1);
  // Mix-weighted sustainable rate, sized off the *costliest block*:
  // open-loop pacing preserves burst shape, so the flash-crowd and
  // storm windows concentrate load — a mean-rate budget overloads
  // exactly those windows (fatal for the router, whose kBlock
  // replicas turn transients into queueing latency, not sheds).
  // Serves scale across the drain threads; writer-lane applies are
  // effectively serialized per deployment (the router fans
  // interactions to every replica, which apply in parallel, so one
  // apply's wall cost still bounds it).
  const double serve_seconds =
      sequential_rps > 0.0 ? 1.0 / sequential_rps : 0.0;
  double max_block_seconds = 0.0;
  {
    const size_t blocks = generator.block_count();
    std::vector<double> block_seconds(blocks, 0.0);
    for (const ScenarioEvent& event : events) {
      const size_t b = std::min(
          static_cast<size_t>(event.time / scenario.block), blocks - 1);
      switch (event.kind) {
        case EventKind::kServe:
          block_seconds[b] +=
              serve_seconds / static_cast<double>(drain_threads);
          break;
        case EventKind::kInteraction:
          block_seconds[b] += interaction_apply_seconds;
          break;
        case EventKind::kSumUpdate:
          block_seconds[b] += sum_publish_seconds;
          break;
      }
    }
    for (const double seconds : block_seconds) {
      max_block_seconds = std::max(max_block_seconds, seconds);
    }
    // Every block gets an equal wall slice, so the whole replay is
    // paced such that even the peak block stays within the offered
    // utilization fraction.
  }
  const double sustainable_rps =
      max_block_seconds > 0.0
          ? static_cast<double>(events.size()) /
                (static_cast<double>(generator.block_count()) *
                 max_block_seconds)
          : config_.min_rps;
  out.offered_rps =
      std::max(config_.min_rps,
               sustainable_rps * config_.offered_fraction);

  // ---- deployment ---------------------------------------------------------
  std::unique_ptr<recsys::InteractionMatrix> live_matrix;
  std::unique_ptr<recsys::RecsysEngine> live_engine;
  std::unique_ptr<recsys::ServingPipeline> pipeline;
  std::unique_ptr<recsys::ServingRouter> router;
  if (config_.backend == BackendKind::kPipeline) {
    live_matrix = std::make_unique<recsys::InteractionMatrix>(
        config_.interaction_shards);
    for (const recsys::Interaction& it : bootstrap_log) {
      live_matrix->Add(it.user, it.item, it.weight);
    }
    live_engine = std::make_unique<recsys::RecsysEngine>(engine_config);
    stack_builder(*live_engine);
    live_engine->set_sum_service(&sums);
    const spa::Status fitted = live_engine->Fit(live_matrix.get());
    if (!fitted.ok()) {
      out.status = fitted;
      return out;
    }
    recsys::PipelineConfig pconfig;
    pconfig.workers = config_.pipeline_workers;
    pconfig.queue_capacity = config_.queue_capacity;
    pconfig.writer_queue_capacity = config_.writer_queue_capacity;
    pconfig.policy = config_.policy;
    pconfig.max_batch = config_.max_batch;
    pipeline = std::make_unique<recsys::ServingPipeline>(
        live_engine.get(), &sums, pconfig);
  } else {
    recsys::RouterConfig rconfig;
    rconfig.workers = config_.router_workers;
    rconfig.engine = engine_config;
    rconfig.queue.workers = 1;  // node count is the scaling axis
    rconfig.queue.queue_capacity = config_.queue_capacity;
    rconfig.queue.writer_queue_capacity = config_.writer_queue_capacity;
    rconfig.queue.max_batch = config_.max_batch;
    rconfig.stack_builder = stack_builder;
    auto created =
        recsys::ServingRouter::Create(rconfig, bootstrap_log, &sums);
    if (!created.ok()) {
      out.status = created.status();
      return out;
    }
    router = std::move(created).value();
  }

  // ---- open-loop replay ---------------------------------------------------
  // The virtual timeline is compressed onto a wall budget sized from
  // the offered rate; deadlines are proportional to virtual time, so
  // flash crowds and storm windows keep their burst shape instead of
  // being flattened into a uniform arrival train.
  const double wall_budget = events.empty()
                                 ? 0.0
                                 : static_cast<double>(events.size()) /
                                       out.offered_rps;
  const double wall_per_virtual =
      wall_budget / static_cast<double>(scenario.duration);

  size_t serve_events = 0;
  for (const ScenarioEvent& event : events) {
    if (event.kind == EventKind::kServe) ++serve_events;
  }
  const size_t stride = std::max<size_t>(
      config_.slo.parity_samples > 0
          ? serve_events / config_.slo.parity_samples
          : serve_events + 1,
      1);

  std::vector<WriteRecord> writes;
  std::vector<SampleRecord> samples;
  samples.reserve(config_.slo.parity_samples);
  size_t serve_index = 0;
  const auto replay_start = Clock::now();
  for (const ScenarioEvent& event : events) {
    const auto deadline =
        replay_start +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                static_cast<double>(event.time) * wall_per_virtual));
    std::this_thread::sleep_until(deadline);
    switch (event.kind) {
      case EventKind::kServe: {
        recsys::RecommendRequest request;
        request.user = event.user;
        request.k = config_.k;
        const bool sampled =
            serve_index % stride == 0 &&
            samples.size() < config_.slo.parity_samples;
        ++serve_index;
        // Deadlines only reach the pipeline backend (the router forces
        // kBlock on its replicas, which ignores them anyway).
        auto ticket = pipeline != nullptr
                          ? pipeline->SubmitWithDeadline(
                                request, config_.deadline_ms * 1e-3)
                          : router->Submit(request);
        if (ticket.ok() && sampled) {
          samples.push_back({request, std::move(ticket).value()});
        }
        break;
      }
      case EventKind::kInteraction: {
        WriteRecord record;
        record.interactions = event.interactions;
        if (pipeline != nullptr) {
          auto ticket = pipeline->SubmitInteractions(event.interactions);
          if (!ticket.ok()) break;
          record.ticket = std::move(ticket).value();
        } else {
          auto fanout = router->SubmitInteractions(event.interactions);
          if (!fanout.ok()) break;
          record.fanout = std::move(fanout).value();
        }
        writes.push_back(std::move(record));
        break;
      }
      case EventKind::kSumUpdate: {
        WriteRecord record;
        record.is_sum = true;
        record.updates = MaterializeShifts(event.shifts, catalog);
        auto ticket = pipeline != nullptr
                          ? pipeline->SubmitSumUpdates(record.updates)
                          : router->SubmitSumUpdates(record.updates);
        if (!ticket.ok()) break;
        record.ticket = std::move(ticket).value();
        writes.push_back(std::move(record));
        break;
      }
    }
  }
  if (pipeline != nullptr) {
    pipeline->Flush();
  } else {
    router->Flush();
  }
  const double wall_seconds = SecondsSince(replay_start);

  // ---- quiesced stats -----------------------------------------------------
  recsys::PipelineStats stats;
  recsys::EngineCacheStats cache;
  if (pipeline != nullptr) {
    stats = pipeline->stats();
    cache = live_engine->cache_stats();
  } else {
    const recsys::RouterStats rstats = router->stats();
    for (const recsys::RouterWorkerStats& ws : rstats.workers) {
      stats.submitted += ws.pipeline.submitted;
      stats.responses += ws.pipeline.responses;
      stats.updates_applied += ws.pipeline.updates_applied;
      stats.rejected_reads += ws.pipeline.rejected_reads;
      stats.rejected_writes += ws.pipeline.rejected_writes;
      stats.shed_reads += ws.pipeline.shed_reads;
      stats.shed_writes += ws.pipeline.shed_writes;
      stats.fallback_served += ws.pipeline.fallback_served;
      stats.expired_drops += ws.pipeline.expired_drops;
      stats.max_queue_depth =
          std::max(stats.max_queue_depth, ws.pipeline.max_queue_depth);
      stats.max_writer_queue_depth =
          std::max(stats.max_writer_queue_depth,
                   ws.pipeline.max_writer_queue_depth);
      cache.hits += ws.cache.hits;
      cache.misses += ws.cache.misses;
    }
    stats.end_to_end = rstats.end_to_end;
  }
  out.submitted = stats.submitted;
  out.responses = stats.responses;
  out.updates_applied = stats.updates_applied;
  out.rejected_reads = stats.rejected_reads;
  out.rejected_writes = stats.rejected_writes;
  out.shed_reads = stats.shed_reads;
  out.shed_writes = stats.shed_writes;
  out.fallback_served = stats.fallback_served;
  out.expired_drops = stats.expired_drops;
  out.max_queue_depth = stats.max_queue_depth;
  out.max_writer_queue_depth = stats.max_writer_queue_depth;
  out.achieved_rps =
      wall_seconds > 0.0
          ? static_cast<double>(stats.responses +
                                stats.updates_applied) /
                wall_seconds
          : 0.0;
  out.p50_ms = stats.end_to_end.Quantile(0.50) * 1e3;
  out.p95_ms = stats.end_to_end.Quantile(0.95) * 1e3;
  out.p99_ms = stats.end_to_end.Quantile(0.99) * 1e3;
  out.end_to_end = stats.end_to_end;
  if (live_engine != nullptr) {
    out.stages_json =
        live_engine->profiler().ExportJson(spa::ProfilerLevel::kL3);
  }
  if (cache.hits + cache.misses > 0) {
    out.cache_hit_rate =
        static_cast<double>(cache.hits) /
        static_cast<double>(cache.hits + cache.misses);
  }

  // ---- differential parity replay ----------------------------------------
  // Re-apply the writer ops that actually landed, in version order,
  // then re-serve every sampled response synchronously at its pin.
  struct InteractionApply {
    uint64_t post_version = 0;
    const std::vector<recsys::Interaction>* batch = nullptr;
  };
  std::vector<InteractionApply> interaction_applies;
  std::vector<std::pair<uint64_t, const std::vector<sum::SumUpdate>*>>
      sum_applies;
  for (const WriteRecord& record : writes) {
    if (record.is_sum) {
      if (record.ticket->Wait() != recsys::TicketState::kDone ||
          !record.ticket->sum_status().ok()) {
        continue;  // shed/failed publishes never landed anywhere
      }
      sum_applies.push_back(
          {record.ticket->pinned().sum_version, &record.updates});
    } else if (record.fanout.has_value()) {
      record.fanout->Wait();
      if (!record.fanout->ok()) continue;
      interaction_applies.push_back(
          {record.fanout->matrix_version(), &record.interactions});
    } else {
      if (record.ticket->Wait() != recsys::TicketState::kDone ||
          !record.ticket->update_report().ok()) {
        continue;
      }
      interaction_applies.push_back(
          {record.ticket->pinned().matrix_version,
           &record.interactions});
    }
  }
  std::sort(interaction_applies.begin(), interaction_applies.end(),
            [](const InteractionApply& a, const InteractionApply& b) {
              return a.post_version < b.post_version;
            });
  std::sort(sum_applies.begin(), sum_applies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // SUM staircase: the shared service serializes publishes, so the
  // post-apply versions recorded by the tickets are the exact apply
  // order; replaying in that order must reproduce every version.
  for (const auto& [version, updates] : sum_applies) {
    if (!ref_sums.ApplyAll(*updates).ok() ||
        ref_sums.version() != version) {
      out.parity = false;
      break;
    }
    sum_snapshots[version] = ref_sums.snapshot();
  }

  std::vector<const SampleRecord*> ordered;
  ordered.reserve(samples.size());
  for (const SampleRecord& sample : samples) {
    if (sample.ticket->Wait() != recsys::TicketState::kDone ||
        !sample.ticket->response().ok()) {
      continue;  // shed samples carry no response to compare
    }
    ordered.push_back(&sample);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SampleRecord* a, const SampleRecord* b) {
              return a->ticket->pinned().matrix_version <
                     b->ticket->pinned().matrix_version;
            });

  size_t next_apply = 0;
  for (const SampleRecord* sample : ordered) {
    if (!out.parity) break;
    const recsys::BatchPin& pin = sample->ticket->pinned();
    while (next_apply < interaction_applies.size() &&
           interaction_applies[next_apply].post_version <=
               pin.matrix_version) {
      if (!reference
               .ApplyInteractions(
                   *interaction_applies[next_apply].batch)
               .ok()) {
        out.parity = false;
        break;
      }
      ++next_apply;
    }
    if (!out.parity) break;
    if (ref_matrix.version() != pin.matrix_version) {
      out.parity = false;  // pin must sit exactly on the staircase
      break;
    }
    const auto snapshot = sum_snapshots.find(pin.sum_version);
    if (snapshot == sum_snapshots.end()) {
      out.parity = false;
      break;
    }
    const recsys::RecommendResponse& streamed =
        sample->ticket->response().value();
    if (streamed.degraded) {
      // Deadline-degraded serves come from the popularity fallback
      // tier: deterministic at the pinned matrix version, independent
      // of SUM state, and flagged — never silently substituted.
      const auto expected = reference.RecommendFallback(sample->request);
      if (!expected.ok() ||
          !SameResponse(streamed, expected.value())) {
        out.parity = false;
        break;
      }
    } else {
      recsys::RecommendRequest request = sample->request;
      request.emotion_override = snapshot->second;
      const auto expected = reference.Recommend(request);
      if (!expected.ok() ||
          !SameResponse(streamed, expected.value())) {
        out.parity = false;
        break;
      }
    }
    ++out.parity_checked;
  }

  // ---- SLO verdict --------------------------------------------------------
  const uint64_t read_outcomes =
      out.responses + out.rejected_reads + out.shed_reads;
  const double shed_fraction =
      read_outcomes > 0
          ? static_cast<double>(out.rejected_reads + out.shed_reads) /
                static_cast<double>(read_outcomes)
          : 0.0;
  out.slo_pass = out.parity && out.p99_ms <= config_.slo.p99_ms &&
                 shed_fraction <= config_.slo.max_shed_fraction;
  return out;
}

}  // namespace spa::workload
