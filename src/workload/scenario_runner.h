#ifndef SPA_WORKLOAD_SCENARIO_RUNNER_H_
#define SPA_WORKLOAD_SCENARIO_RUNNER_H_

#include <string>

#include "common/stats.h"
#include "common/status.h"
#include "recsys/serving_pipeline.h"
#include "workload/scenario.h"

/// \file
/// The SLO-gated replay harness: `ScenarioRunner` expands a
/// `ScenarioConfig` through `ScenarioGenerator`, boots a full serving
/// deployment (a single `ServingPipeline` or a sharded
/// `ServingRouter`), replays the event stream *open-loop* against it —
/// arrivals are paced by the scenario's virtual timeline compressed to
/// a wall budget derived from the deployment's calibrated capacity, so
/// flash crowds and storms keep their burst shape — and grades the run
/// against the scenario's SLO.
///
/// ## Differential parity
///
/// Every writer op's ticket and a deterministic sample of serve
/// tickets are retained. After the replay quiesces the runner rebuilds
/// the deployment's state transitions on an offline reference:
/// interaction batches are re-applied to a reference engine in
/// ascending post-apply `matrix_version` order (the writer lane is
/// FIFO, so that *is* submission order), SUM batches are re-applied to
/// a reference `SumService` replica in ascending post-apply
/// `sum_version` order with the snapshot of every version retained,
/// and each sampled response is then re-served synchronously at its
/// recorded `BatchPin` — the reference matrix advanced to the pinned
/// `matrix_version`, the pinned `sum_version`'s snapshot re-attached
/// via `RecommendRequest::emotion_override`. The streamed bytes must
/// match exactly; any divergence fails the run's parity bit (which
/// `bench_scenarios` wires into its exit code). Responses flagged
/// `degraded` (kDegrade deadline pressure) are instead re-served
/// against the reference's `RecommendFallback` at the same pin — the
/// popularity fallback tier is deterministic too, just not the full
/// blend.
///
/// ## SLO semantics
///
/// A scenario *passes* its SLO when all of the following hold on the
/// quiesced stats: end-to-end p99 is within `SloConfig::p99_ms`; the
/// fraction of read submissions refused (rejected) or dropped (shed)
/// is within `SloConfig::max_shed_fraction`; and every sampled parity
/// check matched. The latency/shed verdict is *reported* (host-perf
/// dependent); the parity verdict is the correctness gate.

namespace spa::workload {

/// \brief Which serving deployment the scenario replays against.
enum class BackendKind {
  kPipeline,  ///< one engine behind one async ServingPipeline
  kRouter,    ///< sharded: ownership directory + worker replicas
};

const char* BackendName(BackendKind kind);

/// \brief The gate a scenario run is graded against.
struct SloConfig {
  /// End-to-end p99 bound, milliseconds (admission -> completion).
  double p99_ms = 250.0;
  /// Max fraction of read submissions rejected or shed.
  double max_shed_fraction = 0.05;
  /// Serve tickets sampled for the differential parity check (every
  /// Nth serve event so the sample spans the whole timeline).
  size_t parity_samples = 64;
};

/// \brief Deployment + pacing tunables of one runner.
struct RunnerConfig {
  BackendKind backend = BackendKind::kPipeline;

  // ---- deployment ---------------------------------------------------------
  size_t router_workers = 2;    ///< worker replicas (kRouter)
  size_t pipeline_workers = 4;  ///< drain threads (kPipeline; kRouter
                                ///< uses 1 per replica)
  size_t queue_capacity = 512;
  size_t writer_queue_capacity = 256;
  /// Overload policy of the pipeline backend (the router forces
  /// kBlock on its replicas; see serving_router.h).
  recsys::BackpressurePolicy policy =
      recsys::BackpressurePolicy::kShedOldest;
  size_t max_batch = 16;
  size_t interaction_shards = 8;
  size_t k = 10;  ///< items per recommendation
  /// Per-request serve deadline in milliseconds (pipeline backend
  /// only; 0 = none). Under kDegrade, reads that cannot make their
  /// deadline are fallback-served (flagged `degraded`) or — once
  /// expired — dropped; other policies ignore deadlines.
  double deadline_ms = 0.0;

  // ---- pacing -------------------------------------------------------------
  /// Offered load as a fraction of the calibrated mix-weighted
  /// capacity (0.7 = healthy utilization; > 1 = overload).
  double offered_fraction = 0.7;
  /// Floor on the offered rate — a backstop against degenerate
  /// calibration, kept low enough that the peak-block budget wins at
  /// 100k+ users (a floor above the sustainable rate forces the very
  /// overload the pacing exists to avoid).
  double min_rps = 50.0;
  /// Requests served sequentially on the reference engine to estimate
  /// serve capacity (kept off the live deployment so its histograms
  /// and cache counters only see the replay). Writer-lane costs —
  /// interaction applies with index refresh, SUM snapshot publishes —
  /// are probed on a throwaway replica and folded into the offered
  /// rate by the stream's actual event mix: at scale the writer lane,
  /// not serving, is usually the capacity ceiling.
  size_t calibration_requests = 200;

  /// Threads handed to ScenarioGenerator::Generate (the stream is
  /// bitwise-identical regardless).
  size_t generate_threads = 4;

  SloConfig slo;
};

/// \brief Everything one scenario run reports into the matrix.
struct ScenarioOutcome {
  std::string scenario;
  std::string backend;
  size_t users = 0;
  size_t events = 0;
  uint64_t stream_fingerprint = 0;

  // ---- throughput / latency ----------------------------------------------
  double offered_rps = 0.0;   ///< target open-loop arrival rate
  double achieved_rps = 0.0;  ///< completions / wall
  double p50_ms = 0.0;        ///< end-to-end latency quantiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Raw end-to-end histogram (seconds; merged across workers for the
  /// router backend) the quantiles above are read from.
  spa::LogHistogram end_to_end;
  /// The live engine's L1/L2/L3 profiler export
  /// (`Profiler::ExportJson(ProfilerLevel::kL3)`), taken once the
  /// replay quiesced. Pipeline backend only; empty for the router.
  std::string stages_json;

  // ---- admission ----------------------------------------------------------
  uint64_t submitted = 0;
  uint64_t responses = 0;
  uint64_t updates_applied = 0;
  uint64_t rejected_reads = 0;
  uint64_t rejected_writes = 0;
  uint64_t shed_reads = 0;
  uint64_t shed_writes = 0;
  /// kDegrade shed-quality split: degraded (popularity fallback)
  /// responses actually served, vs reads dropped with a status because
  /// their deadline had already expired (a subset of shed_reads).
  uint64_t fallback_served = 0;
  uint64_t expired_drops = 0;
  uint64_t max_queue_depth = 0;
  uint64_t max_writer_queue_depth = 0;
  double cache_hit_rate = 0.0;

  // ---- verdicts -----------------------------------------------------------
  size_t parity_checked = 0;  ///< sampled responses actually compared
  bool parity = true;         ///< every sampled comparison matched
  bool slo_pass = false;      ///< p99 + shed budget + parity
  /// Non-OK when the run could not complete at all (fit failure,
  /// submission error); parity/slo are then meaningless.
  spa::Status status;
};

/// \brief Replays scenarios against a serving deployment and grades
/// them. Stateless between runs; one `Run` call per scenario.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerConfig config = {});

  const RunnerConfig& config() const { return config_; }

  /// Generates, boots, replays, parity-checks and grades one scenario.
  /// Never throws; hard failures land in `ScenarioOutcome::status`.
  ScenarioOutcome Run(const ScenarioConfig& scenario) const;

 private:
  RunnerConfig config_;
};

}  // namespace spa::workload

#endif  // SPA_WORKLOAD_SCENARIO_RUNNER_H_
