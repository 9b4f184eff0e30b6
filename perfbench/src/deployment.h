#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/router/serving_router.h"
#include "recsys/serving_pipeline.h"
#include "sum/catalog.h"
#include "sum/sum_service.h"
#include "workload/scenario.h"

/// \file
/// The benchmark's workloads and the in-process deployment each one
/// drives: a `ServingPipeline` over one engine, or a `ServingRouter` over
/// replicas. Every workload is offered at a fixed absolute rate recorded
/// here and in BENCHMARK.json; nothing is calibrated per run.

namespace perfbench {

namespace recsys = spa::recsys;
namespace sum = spa::sum;
namespace workload = spa::workload;

struct WorkloadSpec {
  std::string name;
  /// Builds the scenario (archetype plus overrides) for a seed and an
  /// event budget.
  std::function<workload::ScenarioConfig(uint64_t seed, size_t events)>
      scenario;
  double rate = 0.0;  ///< offered events per second, open loop
  bool routed = false;
  /// Drain threads of the pipeline, or replicas (one drain thread each)
  /// behind the router.
  size_t workers = 2;
  recsys::BackpressurePolicy policy = recsys::BackpressurePolicy::kBlock;
  double deadline_ms = 0.0;  ///< per-read deadline (kDegrade only)
  size_t queue_capacity = 512;
  /// Reads kept in flight by the closed-loop capacity phase.
  size_t closed_inflight = 32;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

constexpr size_t kUsers = 100'000;
constexpr size_t kInteractionShards = 8;
constexpr size_t kResponseCacheCapacity = size_t{1} << 15;
constexpr size_t kTopK = 10;

/// Everything generated from the seed: the event stream and the
/// bootstrap state every deployment (and every reference) starts from.
struct Inputs {
  workload::ScenarioConfig scenario;
  std::vector<workload::ScenarioEvent> events;
  std::vector<recsys::Interaction> bootstrap_log;
  std::vector<sum::SumUpdate> bootstrap_updates;
  size_t items = 0;
  uint64_t fingerprint = 0;
};

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      size_t events, const sum::AttributeCatalog& catalog);

/// Emotion shifts as SUM updates, consecutive same-user shifts merged.
std::vector<sum::SumUpdate> MaterializeShifts(
    const std::vector<workload::EmotionShift>& shifts,
    const sum::AttributeCatalog& catalog);

/// Item ids, exact scores and the degraded flag must all match.
bool SameResponse(const recsys::RecommendResponse& a,
                  const recsys::RecommendResponse& b);

/// Assembles the recommender stack every engine of a run uses.
std::function<void(recsys::RecsysEngine&)> StackBuilder(uint64_t seed,
                                                        size_t items);
recsys::EngineConfig ServingEngineConfig();

/// Wall seconds of a set-up and of its last step, the creation of the
/// serving front (for the router that includes building every replica).
struct SetupTimes {
  double create_s = 0.0;
  double total_s = 0.0;
};

/// A live deployment plus the inputs it was built from. Members are
/// declared so the serving front is destroyed (and its threads joined)
/// before the engine, matrix and SUM service it borrows.
class Deployment {
 public:
  /// Generates the inputs, bootstraps SUM and matrix, fits, and starts
  /// the serving front: everything up to the first send.
  static spa::Result<std::unique_ptr<Deployment>> Create(
      const WorkloadSpec& spec, uint64_t seed, size_t events,
      SetupTimes* times);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const Inputs& inputs() const { return inputs_; }
  const sum::AttributeCatalog& catalog() const { return *catalog_; }
  recsys::ServingPipeline* pipeline() { return pipeline_.get(); }
  recsys::ServingRouter* router() { return router_.get(); }

  /// Response-cache hits and misses of reads, summed over every serving
  /// engine. Re-warm re-serves after live updates are lookups too; they
  /// are taken out of the misses.
  recsys::EngineCacheStats ReadLookups() const;
  /// Pipeline counters summed over every serving pipeline.
  recsys::PipelineStats PipelineTotals() const;
  void Flush();

 private:
  Deployment() = default;

  std::unique_ptr<sum::AttributeCatalog> catalog_;
  Inputs inputs_;
  std::unique_ptr<sum::SumService> sums_;
  std::unique_ptr<recsys::InteractionMatrix> matrix_;
  std::unique_ptr<recsys::RecsysEngine> engine_;
  std::unique_ptr<recsys::ServingPipeline> pipeline_;
  std::unique_ptr<recsys::ServingRouter> router_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
