#ifndef SPA_RECSYS_ROUTER_SERVING_ROUTER_H_
#define SPA_RECSYS_ROUTER_SERVING_ROUTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/router/ownership_directory.h"
#include "recsys/serving_pipeline.h"
#include "sum/sum_service.h"
#include "sum/sum_update.h"

/// \file
/// The router tier: N in-process worker nodes behind one
/// `ServingRouter`. Each `WorkerNode` is a full serving replica — its
/// own `ShardedInteractionMatrix`, its own `RecsysEngine` (similarity
/// indexes + response cache) and its own `ServingPipeline` queue — and
/// owns a group of the `OwnershipDirectory`'s virtual shards. The
/// replica set and the ownership table are built once, in `Create`,
/// and never change: `Create` replays the bootstrap log once and hands
/// every node a copy of the resulting matrix, so the replicas start
/// identical by construction. Reads (`Submit`) are routed to the owner
/// of the requesting user; the in-process nodes are the explicit stepping
/// stone the ROADMAP calls for before multi-process workers, so the
/// router deliberately talks to nodes only through their pipelines
/// (the future RPC seam).
///
/// ## Writer fan-out and the affected-worker rule
///
/// Writes enter through the router and are fanned to exactly the
/// workers whose serving state they affect:
///
///  * **Interaction batches** affect *every* worker: a replica's KNN
///    similarities (and thus its rankings for the users it owns)
///    depend on the global interaction matrix, not just on the owned
///    users' rows. `SubmitInteractions` therefore enqueues the batch on
///    every node's writer lane, in ascending worker order, under the
///    router's fan-out mutex — one total order of interaction writes
///    across all replicas. Because every replica applies the same
///    batches in the same order, the `ApplyDeterminismTest` contract
///    (PR 4) makes all replica matrices — bytes, norms, registration
///    order and version counters — identical.
///  * **SUM updates** affect only the owner of the touched user: the
///    emotional-context store is the *shared* versioned `SumService`
///    (emotion re-ranking reads only the requesting user's model, so
///    the service does not need to be replicated), and a publish must
///    apply exactly once. `SubmitSumUpdates` routes the batch to the
///    writer lane of the first touched user's owner.
///
/// Worker pipelines are forced to `BackpressurePolicy::kBlock`:
/// kReject/kShedOldest admission could accept a fanned batch on one
/// replica and drop it on another, silently diverging the replicas.
///
/// ## Parity contract
///
/// For any routed response pinned at (fit_epoch, matrix_version,
/// sum_version), a single-process engine fitted from the same
/// interaction log and replayed to the same pin serves the
/// byte-identical response. `ServingRouterDifferentialTest`
/// (`tests/recsys/router_test.cc`) asserts this over randomized
/// interleavings of Submit / ApplyInteractions / SubmitSumUpdates at
/// 1-4 workers.

namespace spa::recsys {

/// \brief Router tunables.
struct RouterConfig {
  /// Worker-node count (>= 1, SPA_CHECK — a router with no workers
  /// could route nothing).
  size_t workers = 2;
  /// Per-worker engine tunables; every node gets its own engine,
  /// similarity indexes and response cache built from this config.
  /// `interaction_shards` also sizes each node's matrix replica.
  EngineConfig engine;
  /// Per-worker streaming-queue tunables. The backpressure policy is
  /// forced to kBlock (see file comment); `workers` here is the drain
  /// threads *per node* (default 1: node count is the scaling axis).
  PipelineConfig queue;
  /// Assembles one node's recommender stack: AddComponent(...) calls
  /// plus SetItemEmotionProfile(...) registrations. Invoked once per
  /// node and must build the same stack every time, or the
  /// cross-replica parity contract is void. Must not call
  /// set_sum_service (the router wires the shared service itself).
  std::function<void(RecsysEngine&)> stack_builder;
};

/// \brief One worker node: a full shard-group serving replica.
///
/// Construction takes ownership of the node's bootstrapped matrix,
/// builds + fits the node's engine on it and starts the node's
/// pipeline. Nodes live on the heap and never move (the engine
/// borrows the matrix, the pipeline borrows the engine).
class WorkerNode {
 public:
  WorkerNode(WorkerId id, const RouterConfig& config,
             sum::SumService* sums, InteractionMatrix matrix);

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  WorkerId id() const { return id_; }
  /// Fit outcome; a node that failed to build serves nothing.
  const spa::Status& status() const { return status_; }

  ServingPipeline* pipeline() { return pipeline_.get(); }
  RecsysEngine* engine() { return engine_.get(); }
  const RecsysEngine* engine() const { return engine_.get(); }
  const InteractionMatrix& matrix() const { return matrix_; }

 private:
  WorkerId id_;
  InteractionMatrix matrix_;
  std::unique_ptr<RecsysEngine> engine_;
  std::unique_ptr<ServingPipeline> pipeline_;
  spa::Status status_;
};

/// \brief Aggregate result of one fanned interaction batch: one ticket
/// per affected worker, in ascending worker order.
class FanoutTicket {
 public:
  /// Blocks until every per-worker ticket is terminal.
  void Wait() const;
  /// True when every worker applied the batch (call after Wait).
  bool ok() const;
  /// The post-apply matrix version every worker agreed on (call after
  /// Wait; SPA_CHECK enforces cross-replica agreement — disagreement
  /// means replicas diverged, which the fan-out protocol rules out).
  uint64_t matrix_version() const;

  const std::vector<std::pair<WorkerId, StreamTicketPtr>>& tickets()
      const {
    return tickets_;
  }

 private:
  friend class ServingRouter;
  std::vector<std::pair<WorkerId, StreamTicketPtr>> tickets_;
};

/// \brief Per-worker slice of the router stats.
struct RouterWorkerStats {
  WorkerId worker = 0;
  size_t owned_shards = 0;
  uint64_t matrix_version = 0;
  PipelineStats pipeline;
  EngineCacheStats cache;
  /// This worker's ApplyInteractions counters — the router tier's
  /// view of cache invalidation and hot-set re-warming per replica.
  LiveUpdateStats live_updates;
};

/// \brief Cumulative router counters plus the per-worker slices.
struct RouterStats {
  uint64_t reads_routed = 0;    ///< Submit calls handed to a worker
  uint64_t writes_fanned = 0;   ///< interaction batches fanned out
  uint64_t sum_routed = 0;      ///< SUM batches routed to an owner
  /// Degrade-tier shed quality summed across workers (see
  /// `PipelineStats::fallback_served` / `expired_drops`).
  uint64_t fallback_served = 0;
  uint64_t expired_drops = 0;
  std::vector<RouterWorkerStats> workers;  ///< ascending by worker id
  /// Per-response end-to-end latency merged across all workers.
  LogHistogram end_to_end;
};

/// \brief Routes requests to owner workers and fans writes to affected
/// workers. Thread-safe: only the fan-out order and the shutdown flag
/// are mutable, and one mutex guards both.
class ServingRouter {
 public:
  /// Builds `config.workers` nodes from `bootstrap` (the ordered
  /// interaction log all replicas start from: replayed once into one
  /// matrix that every node receives a copy of; the router keeps no
  /// reference to the log) and `sums` (the shared emotional-context
  /// service; borrowed, may be null, must outlive the router).
  /// Errors: InvalidArgument (no stack_builder), or the first node's
  /// Fit error. Worker counts of 0 abort (SPA_CHECK).
  static spa::Result<std::unique_ptr<ServingRouter>> Create(
      RouterConfig config, const std::vector<Interaction>& bootstrap,
      sum::SumService* sums);

  ~ServingRouter();

  ServingRouter(const ServingRouter&) = delete;
  ServingRouter& operator=(const ServingRouter&) = delete;

  // ---- serving -----------------------------------------------------------
  /// Routes one request to the owner of `request.user`. Errors:
  /// FailedPrecondition (router shut down: the owner's pipeline
  /// refuses).
  spa::Result<StreamTicketPtr> Submit(
      RecommendRequest request, StreamTicket::Callback on_complete = {});

  /// Fans the batch to every worker's writer lane (all replicas are
  /// affected; see file comment). Errors: FailedPrecondition (shut
  /// down).
  spa::Result<FanoutTicket> SubmitInteractions(
      std::vector<Interaction> batch);

  /// Routes the publish to the writer lane of the first touched user's
  /// owner (the only affected worker: the service is shared and a
  /// publish must apply exactly once). Errors: InvalidArgument (empty
  /// batch), FailedPrecondition (shut down or no SUM service).
  spa::Result<StreamTicketPtr> SubmitSumUpdates(
      std::vector<sum::SumUpdate> updates);

  // ---- control -----------------------------------------------------------
  /// Blocks until every worker's lanes are empty (settles only while
  /// producers are quiet, like ServingPipeline::Flush).
  void Flush();

  /// Stops admission and shuts every worker down. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  // ---- introspection -----------------------------------------------------
  WorkerId OwnerOf(UserId user) const { return directory_.OwnerOf(user); }
  size_t worker_count() const { return nodes_.size(); }
  /// Borrowed node view for tests/benches; null for ids >= worker_count.
  const WorkerNode* worker(WorkerId id) const;
  RouterStats stats() const;
  const RouterConfig& config() const { return config_; }

 private:
  ServingRouter(RouterConfig config, sum::SumService* sums);

  RouterConfig config_;
  sum::SumService* sums_;
  const OwnershipDirectory directory_;
  /// Indexed by WorkerId; filled in Create and never changed after.
  std::vector<std::unique_ptr<WorkerNode>> nodes_;

  /// Orders SubmitInteractions fan-outs against each other (one total
  /// write order across replicas) and against Shutdown (a fanned batch
  /// never meets a shut lane). Guards stopping_.
  std::mutex fanout_mu_;
  bool stopping_ = false;

  std::atomic<uint64_t> reads_routed_{0};
  std::atomic<uint64_t> writes_fanned_{0};
  std::atomic<uint64_t> sum_routed_{0};
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_ROUTER_SERVING_ROUTER_H_
