// Emotion-dynamic scenario matrix through the serving deployments:
//
//   * every workload archetype (steady power-law, flash crowd,
//     cold-start churn, emotion-shift storm) is expanded by the
//     deterministic ScenarioGenerator and replayed open-loop by the
//     ScenarioRunner against BOTH backends — a single async
//     ServingPipeline and the sharded ServingRouter — at a rate
//     calibrated to the deployment's measured capacity;
//   * each run reports throughput, p50/p95/p99 end-to-end latency,
//     per-lane rejected/shed counts, queue-depth high-water marks,
//     cache hit-rate, and its SLO verdict (p99 bound + shed budget);
//   * sampled responses are re-served synchronously at their pinned
//     (matrix_version, sum_version) on an offline reference and
//     compared bitwise — the parity gate that decides the exit code
//     (the SLO verdict is reported but host-perf dependent, so it
//     does not gate).
//
// Writes BENCH_serving.json (schema: docs/METRICS.md): the matrix
// under "scenarios" and, under "stages", the L1/L2/L3 profiler export
// of the baseline pipeline cell's live engine after its replay.
//
//   ./build/bench/bench_scenarios [--users=N] [--seed=S] [--smoke]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/scenario.h"
#include "workload/scenario_runner.h"

namespace spa::bench {
namespace {

int Main(int argc, char** argv) {
  const CommonFlags flags = ParseFlags(argc, argv);
  // Smoke: CI-sized population, two scenarios (the baseline and one
  // emotion storm), both backends, parity gate fully enforced. Full:
  // the four-archetype matrix at 100k+ users through both backends.
  const size_t users =
      flags.users > 0 ? flags.users : (flags.smoke ? 4'000 : 100'000);
  const size_t target_events = flags.smoke ? 600 : 6'000;

  std::vector<workload::ScenarioConfig> scenarios;
  if (flags.smoke) {
    scenarios.push_back(
        workload::SteadyPowerLawScenario(users, flags.seed));
    scenarios.push_back(
        workload::EmotionShiftStormScenario(users, flags.seed + 3));
    for (workload::ScenarioConfig& scenario : scenarios) {
      scenario.target_events = target_events;
    }
  } else {
    scenarios = workload::StandardScenarioMatrix(users, target_events,
                                                 flags.seed);
  }

  PrintHeader(StrFormat(
      "Scenario matrix - %zu archetypes x {pipeline, router} "
      "(%zu users, %zu events each)",
      scenarios.size(), users, target_events));

  std::vector<workload::ScenarioOutcome> outcomes;
  // The exit code: every cell ran, every cell kept parity, and the
  // degrade cell served fallbacks.
  bool passed = true;
  for (const workload::BackendKind backend :
       {workload::BackendKind::kPipeline,
        workload::BackendKind::kRouter}) {
    for (const workload::ScenarioConfig& scenario : scenarios) {
      workload::RunnerConfig config;
      config.backend = backend;
      if (flags.smoke) {
        config.calibration_requests = 100;
        config.slo.parity_samples = 32;
      }
      const workload::ScenarioRunner runner(config);
      const workload::ScenarioOutcome outcome = runner.Run(scenario);
      if (!outcome.status.ok()) {
        std::printf("%-22s %-8s FAILED: %s\n",
                    outcome.scenario.c_str(), outcome.backend.c_str(),
                    outcome.status.ToString().c_str());
        passed = false;
        outcomes.push_back(outcome);
        continue;
      }
      if (!outcome.parity) passed = false;
      std::printf(
          "%-22s %-8s offered %8.0f req/s | served %8.0f req/s | "
          "p50 %8.3f ms | p99 %8.3f ms | shed %llu | hit %.3f | "
          "slo %s | parity %s (%zu checked)\n",
          outcome.scenario.c_str(), outcome.backend.c_str(),
          outcome.offered_rps, outcome.achieved_rps, outcome.p50_ms,
          outcome.p99_ms,
          static_cast<unsigned long long>(outcome.shed_reads +
                                          outcome.rejected_reads),
          outcome.cache_hit_rate, outcome.slo_pass ? "PASS" : "FAIL",
          outcome.parity ? "OK" : "MISMATCH", outcome.parity_checked);
      outcomes.push_back(outcome);
    }
  }

  // ---- deadline-degraded flash crowd --------------------------------------
  // One extra cell replays the flash-crowd archetype overloaded (3x
  // the calibrated capacity) against the pipeline backend under
  // kDegrade with a tight per-read deadline: pressed reads must come
  // back from the popularity fallback tier (flagged `degraded`) rather
  // than queueing without bound, and every sampled response — degraded
  // or not — must still match its offline reference. The cell gates
  // the exit code on both: nonzero fallback serves and parity.
  {
    workload::ScenarioConfig crowd =
        workload::FlashCrowdScenario(users, flags.seed + 7);
    crowd.name = "flash_crowd_degrade";
    crowd.target_events = target_events;
    workload::RunnerConfig config;
    config.backend = workload::BackendKind::kPipeline;
    config.policy = recsys::BackpressurePolicy::kDegrade;
    config.deadline_ms = 2.0;
    // A single drain worker and a short queue make the overload real
    // at smoke scale too: the backlog must outrun one worker before
    // any read feels deadline pressure.
    config.pipeline_workers = 1;
    config.queue_capacity = 64;
    config.offered_fraction = 3.0;
    if (flags.smoke) {
      config.calibration_requests = 100;
      config.slo.parity_samples = 32;
    }
    const workload::ScenarioRunner runner(config);
    const workload::ScenarioOutcome outcome = runner.Run(crowd);
    if (!outcome.status.ok()) {
      std::printf("%-22s %-8s FAILED: %s\n", outcome.scenario.c_str(),
                  outcome.backend.c_str(),
                  outcome.status.ToString().c_str());
      passed = false;
    } else {
      if (!outcome.parity) passed = false;
      if (outcome.fallback_served == 0) {
        // The whole point of the cell: overload must be answered with
        // degraded service, not silence.
        std::printf("flash_crowd_degrade: no fallback serves under "
                    "3x overload - degradation path not exercised\n");
        passed = false;
      }
      std::printf(
          "%-22s %-8s offered %8.0f req/s | served %8.0f req/s | "
          "p50 %8.3f ms | p99 %8.3f ms | fallback %llu | "
          "dropped %llu | slo %s | parity %s (%zu checked)\n",
          outcome.scenario.c_str(), outcome.backend.c_str(),
          outcome.offered_rps, outcome.achieved_rps, outcome.p50_ms,
          outcome.p99_ms,
          static_cast<unsigned long long>(outcome.fallback_served),
          static_cast<unsigned long long>(outcome.expired_drops),
          outcome.slo_pass ? "PASS" : "FAIL",
          outcome.parity ? "OK" : "MISMATCH", outcome.parity_checked);
    }
    outcomes.push_back(outcome);
  }

  // ---- JSON ---------------------------------------------------------------
  // `scenarios.parity` is exactly the AND of the cells' `parity`; the
  // degrade cell's fallback gate shows in its `fallback_served`.
  bool parity = true;
  for (const workload::ScenarioOutcome& o : outcomes) {
    parity = parity && o.parity;
  }
  std::string json = StrFormat(
      "{\n    \"users\": %zu,\n    \"target_events\": %zu,\n"
      "    \"smoke\": %s,\n    \"parity\": %s,\n    \"matrix\": [\n",
      users, target_events, flags.smoke ? "true" : "false",
      parity ? "true" : "false");
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const workload::ScenarioOutcome& o = outcomes[i];
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "0x%016llx",
                  static_cast<unsigned long long>(o.stream_fingerprint));
    json += StrFormat(
        "      {\"scenario\": \"%s\", \"backend\": \"%s\", "
        "\"ok\": %s, \"users\": %zu, \"events\": %zu, "
        "\"fingerprint\": \"%s\", \"offered_rps\": %.1f, "
        "\"achieved_rps\": %.1f, ",
        o.scenario.c_str(), o.backend.c_str(),
        o.status.ok() ? "true" : "false", o.users, o.events,
        fingerprint, o.offered_rps, o.achieved_rps);
    json += StrFormat(
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, ",
        o.p50_ms, o.p95_ms, o.p99_ms);
    json += StrFormat(
        "\"responses\": %llu, \"updates\": %llu, "
        "\"rejected_reads\": %llu, \"rejected_writes\": %llu, "
        "\"shed_reads\": %llu, \"shed_writes\": %llu, "
        "\"fallback_served\": %llu, \"expired_drops\": %llu, "
        "\"max_queue_depth\": %llu, \"max_writer_queue_depth\": %llu, "
        "\"cache_hit_rate\": %.4f, \"parity_checked\": %zu, "
        "\"parity\": %s, \"slo_pass\": %s}%s\n",
        static_cast<unsigned long long>(o.responses),
        static_cast<unsigned long long>(o.updates_applied),
        static_cast<unsigned long long>(o.rejected_reads),
        static_cast<unsigned long long>(o.rejected_writes),
        static_cast<unsigned long long>(o.shed_reads),
        static_cast<unsigned long long>(o.shed_writes),
        static_cast<unsigned long long>(o.fallback_served),
        static_cast<unsigned long long>(o.expired_drops),
        static_cast<unsigned long long>(o.max_queue_depth),
        static_cast<unsigned long long>(o.max_writer_queue_depth),
        o.cache_hit_rate, o.parity_checked,
        o.parity ? "true" : "false", o.slo_pass ? "true" : "false",
        i + 1 < outcomes.size() ? "," : "");
  }
  json += "    ]\n  }";

  // The first cell is the baseline scenario on the pipeline backend.
  const std::string& stages = outcomes.front().stages_json;
  if (std::FILE* out = std::fopen("BENCH_serving.json", "w")) {
    std::fprintf(out,
                 "{\n  \"bench\": \"serving\",\n  \"scenarios\": %s,\n"
                 "  \"stages\": %s\n}\n",
                 json.c_str(), stages.empty() ? "{}" : stages.c_str());
    std::fclose(out);
    std::printf("\nwrote BENCH_serving.json\n");
  }

  // Streamed/routed serving must reproduce the synchronous reference
  // bitwise at every sampled pin; SLO verdicts are reported above but
  // depend on host performance, so they do not gate.
  return passed ? 0 : 1;
}

}  // namespace
}  // namespace spa::bench

int main(int argc, char** argv) { return spa::bench::Main(argc, argv); }
