#include "recsys/router/serving_router.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.h"

namespace spa::recsys {

// ---- WorkerNode ----------------------------------------------------------

WorkerNode::WorkerNode(WorkerId id, const RouterConfig& config,
                       sum::SumService* sums,
                       const std::vector<Interaction>& replay_log)
    : id_(id), matrix_(config.engine.interaction_shards) {
  // Replay the router's ordered log: same Add sequence => bitwise-
  // identical matrix (bytes, norms, registration order, version) on
  // every replica, for any shard count.
  for (const Interaction& it : replay_log) {
    matrix_.Add(it.user, it.item, it.weight);
  }
  engine_ = std::make_unique<RecsysEngine>(config.engine);
  config.stack_builder(*engine_);
  engine_->set_sum_service(sums);
  status_ = engine_->Fit(&matrix_);
  if (!status_.ok()) return;

  PipelineConfig queue = config.queue;
  // All-or-nothing fan-out: a lossy admission policy could accept a
  // replicated write on one node and drop it on another.
  queue.policy = BackpressurePolicy::kBlock;
  // Node count is the router's scaling axis; one drain thread per
  // node unless the caller asked for more.
  if (queue.workers == 0) queue.workers = 1;
  pipeline_ = std::make_unique<ServingPipeline>(engine_.get(), sums, queue);
}

// ---- FanoutTicket --------------------------------------------------------

void FanoutTicket::Wait() const {
  for (const auto& [worker, ticket] : tickets_) ticket->Wait();
}

bool FanoutTicket::ok() const {
  for (const auto& [worker, ticket] : tickets_) {
    if (ticket->state() != TicketState::kDone) return false;
    if (!ticket->update_report().ok()) return false;
  }
  return !tickets_.empty();
}

uint64_t FanoutTicket::matrix_version() const {
  uint64_t version = 0;
  bool seen = false;
  for (const auto& [worker, ticket] : tickets_) {
    if (ticket->state() != TicketState::kDone ||
        !ticket->update_report().ok()) {
      continue;
    }
    const uint64_t v = ticket->update_report()->matrix_version;
    SPA_CHECK_MSG(!seen || v == version,
                  "replicas disagree on the post-apply matrix version");
    version = v;
    seen = true;
  }
  return version;
}

// ---- ServingRouter -------------------------------------------------------

spa::Result<std::unique_ptr<ServingRouter>> ServingRouter::Create(
    RouterConfig config, std::vector<Interaction> bootstrap,
    sum::SumService* sums) {
  SPA_CHECK_MSG(config.workers >= 1,
                "serving router needs >= 1 worker node");
  if (!config.stack_builder) {
    return spa::Status::InvalidArgument(
        "router config needs a stack_builder to assemble worker "
        "engines");
  }
  std::unique_ptr<ServingRouter> router(
      new ServingRouter(std::move(config), std::move(bootstrap), sums));
  for (size_t i = 0; i < router->config_.workers; ++i) {
    auto plan = router->AddWorker();
    if (!plan.ok()) return plan.status();
  }
  // The initial population is construction, not churn: report only
  // post-create membership changes in the stats.
  router->joins_.store(0);
  router->shards_moved_.store(0);
  return router;
}

ServingRouter::ServingRouter(RouterConfig config,
                             std::vector<Interaction> bootstrap,
                             sum::SumService* sums)
    : config_(std::move(config)),
      sums_(sums),
      directory_(config_.directory),
      log_(std::move(bootstrap)) {}

ServingRouter::~ServingRouter() { Shutdown(); }

std::unique_ptr<WorkerNode> ServingRouter::BuildNode(WorkerId id) const {
  return std::make_unique<WorkerNode>(id, config_, sums_, log_);
}

spa::Result<StreamTicketPtr> ServingRouter::Submit(
    RecommendRequest request, StreamTicket::Callback on_complete) {
  std::shared_lock lock(mu_);
  if (stopping_) {
    return spa::Status::FailedPrecondition("router is shut down");
  }
  const WorkerId owner = directory_.OwnerOf(request.user);
  auto it = nodes_.find(owner);
  SPA_CHECK_MSG(it != nodes_.end(),
                "directory routed to a worker the router does not hold");
  reads_routed_.fetch_add(1, std::memory_order_relaxed);
  return it->second->pipeline()->Submit(std::move(request),
                                        std::move(on_complete));
}

spa::Result<FanoutTicket> ServingRouter::SubmitInteractions(
    std::vector<Interaction> batch) {
  std::unique_lock lock(mu_);
  if (stopping_) {
    return spa::Status::FailedPrecondition("router is shut down");
  }
  log_.insert(log_.end(), batch.begin(), batch.end());
  FanoutTicket fanout;
  fanout.tickets_.reserve(nodes_.size());
  for (auto& [id, node] : nodes_) {
    auto ticket = node->pipeline()->SubmitInteractions(batch);
    // Worker lanes are kBlock and the router gates Shutdown, so
    // admission cannot fail underneath us.
    SPA_CHECK_MSG(ticket.ok(), "worker writer lane refused a fanned batch");
    fanout.tickets_.emplace_back(id, std::move(ticket).value());
  }
  writes_fanned_.fetch_add(1, std::memory_order_relaxed);
  return fanout;
}

spa::Result<StreamTicketPtr> ServingRouter::SubmitSumUpdates(
    std::vector<sum::SumUpdate> updates) {
  std::shared_lock lock(mu_);
  if (stopping_) {
    return spa::Status::FailedPrecondition("router is shut down");
  }
  if (sums_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "router was built without a SUM service");
  }
  if (updates.empty()) {
    return spa::Status::InvalidArgument("empty SUM update batch");
  }
  const WorkerId owner = directory_.OwnerOf(updates.front().user());
  auto it = nodes_.find(owner);
  SPA_CHECK_MSG(it != nodes_.end(),
                "directory routed to a worker the router does not hold");
  sum_routed_.fetch_add(1, std::memory_order_relaxed);
  return it->second->pipeline()->SubmitSumUpdates(std::move(updates));
}

spa::Result<HandoffPlan> ServingRouter::AddWorker() {
  std::unique_lock lock(mu_);
  if (stopping_) {
    return spa::Status::FailedPrecondition("router is shut down");
  }
  const WorkerId id = next_worker_;
  std::unique_ptr<WorkerNode> node = BuildNode(id);
  if (!node->status().ok()) return node->status();
  auto plan = directory_.AddWorker(id);
  SPA_CHECK(plan.ok());  // ids are never reused
  next_worker_++;
  nodes_.emplace(id, std::move(node));
  joins_.fetch_add(1, std::memory_order_relaxed);
  shards_moved_.fetch_add(plan->moves.size(), std::memory_order_relaxed);
  return plan;
}

spa::Result<HandoffPlan> ServingRouter::RemoveWorker(WorkerId worker) {
  std::unique_lock lock(mu_);
  if (stopping_) {
    return spa::Status::FailedPrecondition("router is shut down");
  }
  auto it = nodes_.find(worker);
  if (it == nodes_.end()) {
    return spa::Status::NotFound("no such worker");
  }
  if (nodes_.size() == 1) {
    return spa::Status::FailedPrecondition(
        "router keeps at least one worker");
  }
  // Drain first: every already-admitted ticket completes before the
  // shards change hands, so no accepted request is ever lost to a
  // leave.
  it->second->pipeline()->Shutdown();
  auto plan = directory_.RemoveWorker(worker);
  SPA_CHECK(plan.ok());
  nodes_.erase(it);
  leaves_.fetch_add(1, std::memory_order_relaxed);
  shards_moved_.fetch_add(plan->moves.size(), std::memory_order_relaxed);
  return plan;
}

void ServingRouter::Flush() {
  std::shared_lock lock(mu_);
  for (auto& [id, node] : nodes_) node->pipeline()->Flush();
}

void ServingRouter::Shutdown() {
  std::unique_lock lock(mu_);
  if (stopping_) return;
  stopping_ = true;
  for (auto& [id, node] : nodes_) node->pipeline()->Shutdown();
}

size_t ServingRouter::worker_count() const {
  std::shared_lock lock(mu_);
  return nodes_.size();
}

std::vector<WorkerId> ServingRouter::worker_ids() const {
  std::shared_lock lock(mu_);
  std::vector<WorkerId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  return ids;
}

const WorkerNode* ServingRouter::worker(WorkerId id) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

size_t ServingRouter::log_size() const {
  std::shared_lock lock(mu_);
  return log_.size();
}

RouterStats ServingRouter::stats() const {
  std::shared_lock lock(mu_);
  RouterStats stats;
  stats.directory_version = directory_.version();
  stats.reads_routed = reads_routed_.load(std::memory_order_relaxed);
  stats.writes_fanned = writes_fanned_.load(std::memory_order_relaxed);
  stats.sum_routed = sum_routed_.load(std::memory_order_relaxed);
  stats.joins = joins_.load(std::memory_order_relaxed);
  stats.leaves = leaves_.load(std::memory_order_relaxed);
  stats.shards_moved = shards_moved_.load(std::memory_order_relaxed);
  stats.workers.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    RouterWorkerStats ws;
    ws.worker = id;
    ws.owned_shards = directory_.ShardsOwnedBy(id).size();
    ws.matrix_version = node->matrix().version();
    ws.pipeline = node->pipeline()->stats();
    ws.cache = node->engine()->cache_stats();
    ws.live_updates = node->engine()->live_update_stats();
    stats.fallback_served += ws.pipeline.fallback_served;
    stats.expired_drops += ws.pipeline.expired_drops;
    stats.end_to_end.Merge(ws.pipeline.end_to_end);
    stats.workers.push_back(std::move(ws));
  }
  return stats;
}

}  // namespace spa::recsys
