#include "recsys/router/serving_router.h"

#include <utility>

#include "common/check.h"

namespace spa::recsys {

// ---- WorkerNode ----------------------------------------------------------

WorkerNode::WorkerNode(WorkerId id, const RouterConfig& config,
                       sum::SumService* sums, InteractionMatrix matrix)
    : id_(id), matrix_(std::move(matrix)) {
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
    RouterConfig config, const std::vector<Interaction>& bootstrap,
    sum::SumService* sums) {
  SPA_CHECK_MSG(config.workers >= 1,
                "serving router needs >= 1 worker node");
  if (!config.stack_builder) {
    return spa::Status::InvalidArgument(
        "router config needs a stack_builder to assemble worker "
        "engines");
  }
  std::unique_ptr<ServingRouter> router(
      new ServingRouter(std::move(config), sums));
  // Replay the ordered log once; every replica starts from a copy of
  // the result (the last one takes the original), so all replicas
  // hold identical bytes, norms, registration order, versions and
  // dirty-row journals by construction.
  InteractionMatrix replayed(router->config_.engine.interaction_shards);
  for (const Interaction& it : bootstrap) {
    replayed.Add(it.user, it.item, it.weight);
  }
  const size_t workers = router->config_.workers;
  router->nodes_.reserve(workers);
  for (WorkerId id = 0; id < workers; ++id) {
    auto node = std::make_unique<WorkerNode>(
        id, router->config_, sums,
        id + 1 < workers ? InteractionMatrix(replayed)
                         : std::move(replayed));
    if (!node->status().ok()) return node->status();
    router->nodes_.push_back(std::move(node));
  }
  return router;
}

ServingRouter::ServingRouter(RouterConfig config, sum::SumService* sums)
    : config_(std::move(config)),
      sums_(sums),
      directory_(config_.workers) {}

ServingRouter::~ServingRouter() { Shutdown(); }

spa::Result<StreamTicketPtr> ServingRouter::Submit(
    RecommendRequest request, StreamTicket::Callback on_complete) {
  reads_routed_.fetch_add(1, std::memory_order_relaxed);
  return nodes_[directory_.OwnerOf(request.user)]->pipeline()->Submit(
      std::move(request), std::move(on_complete));
}

spa::Result<FanoutTicket> ServingRouter::SubmitInteractions(
    std::vector<Interaction> batch) {
  std::lock_guard<std::mutex> lock(fanout_mu_);
  if (stopping_) {
    return spa::Status::FailedPrecondition("router is shut down");
  }
  FanoutTicket fanout;
  fanout.tickets_.reserve(nodes_.size());
  for (auto& node : nodes_) {
    auto ticket = node->pipeline()->SubmitInteractions(batch);
    // Worker lanes are kBlock and Shutdown waits for this mutex, so
    // admission cannot fail underneath us.
    SPA_CHECK_MSG(ticket.ok(), "worker writer lane refused a fanned batch");
    fanout.tickets_.emplace_back(node->id(), std::move(ticket).value());
  }
  writes_fanned_.fetch_add(1, std::memory_order_relaxed);
  return fanout;
}

spa::Result<StreamTicketPtr> ServingRouter::SubmitSumUpdates(
    std::vector<sum::SumUpdate> updates) {
  if (sums_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "router was built without a SUM service");
  }
  if (updates.empty()) {
    return spa::Status::InvalidArgument("empty SUM update batch");
  }
  const WorkerId owner = directory_.OwnerOf(updates.front().user());
  sum_routed_.fetch_add(1, std::memory_order_relaxed);
  return nodes_[owner]->pipeline()->SubmitSumUpdates(std::move(updates));
}

void ServingRouter::Flush() {
  for (auto& node : nodes_) node->pipeline()->Flush();
}

void ServingRouter::Shutdown() {
  std::lock_guard<std::mutex> lock(fanout_mu_);
  if (stopping_) return;
  stopping_ = true;
  for (auto& node : nodes_) node->pipeline()->Shutdown();
}

const WorkerNode* ServingRouter::worker(WorkerId id) const {
  return id < nodes_.size() ? nodes_[id].get() : nullptr;
}

RouterStats ServingRouter::stats() const {
  RouterStats stats;
  stats.reads_routed = reads_routed_.load(std::memory_order_relaxed);
  stats.writes_fanned = writes_fanned_.load(std::memory_order_relaxed);
  stats.sum_routed = sum_routed_.load(std::memory_order_relaxed);
  stats.workers.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    RouterWorkerStats ws;
    ws.worker = node->id();
    ws.owned_shards = directory_.ShardsOwnedBy(node->id()).size();
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
