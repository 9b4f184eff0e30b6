#include "recsys/serving_pipeline.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/clock.h"

namespace spa::recsys {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
}  // namespace

// ---- StreamTicket ----------------------------------------------------------

namespace {

bool IsTerminal(TicketState state) {
  return state == TicketState::kDone || state == TicketState::kShed;
}

/// The results a read ticket reports.
struct ReadTicket final : StreamTicket {
  ReadTicket() : StreamTicket(StreamOpKind::kRecommend) {}
  spa::Result<RecommendResponse> response{spa::Status::Internal("pending")};
};

/// The results a write ticket reports (one of the two, by kind).
struct WriteTicket final : StreamTicket {
  explicit WriteTicket(StreamOpKind kind) : StreamTicket(kind) {}
  spa::Result<LiveUpdateReport> update_report{
      spa::Status::Internal("pending")};
  spa::Status sum_status = spa::Status::Internal("pending");
};

ReadTicket& AsRead(StreamTicket& ticket) {
  SPA_DCHECK(ticket.kind() == StreamOpKind::kRecommend);
  return static_cast<ReadTicket&>(ticket);
}

WriteTicket& AsWrite(StreamTicket& ticket) {
  SPA_DCHECK(ticket.kind() != StreamOpKind::kRecommend);
  return static_cast<WriteTicket&>(ticket);
}

}  // namespace

bool StreamTicket::Poll() const {
  return IsTerminal(state_.load(std::memory_order_acquire));
}

TicketState StreamTicket::Wait() const {
  for (;;) {
    const TicketState state = state_.load(std::memory_order_acquire);
    if (IsTerminal(state)) return state;
    state_.wait(state, std::memory_order_acquire);
  }
}

TicketState StreamTicket::state() const {
  return state_.load(std::memory_order_acquire);
}

const spa::Result<RecommendResponse>& StreamTicket::response() const {
  SPA_CHECK(kind_ == StreamOpKind::kRecommend);
  SPA_CHECK(Poll());
  return static_cast<const ReadTicket&>(*this).response;
}

const spa::Result<LiveUpdateReport>& StreamTicket::update_report()
    const {
  SPA_CHECK(kind_ == StreamOpKind::kInteractions);
  SPA_CHECK(Poll());
  return static_cast<const WriteTicket&>(*this).update_report;
}

const spa::Status& StreamTicket::sum_status() const {
  SPA_CHECK(kind_ == StreamOpKind::kSumUpdates);
  SPA_CHECK(Poll());
  return static_cast<const WriteTicket&>(*this).sum_status;
}

const BatchPin& StreamTicket::pinned() const {
  SPA_CHECK(Poll());
  return pinned_;
}

double StreamTicket::queue_seconds() const {
  SPA_CHECK(Poll());
  return queue_seconds_;
}

double StreamTicket::serve_seconds() const {
  SPA_CHECK(Poll());
  return serve_seconds_;
}

void StreamTicket::Complete(TicketState terminal) {
  SPA_CHECK(IsTerminal(terminal));
  state_.store(terminal, std::memory_order_release);
  state_.notify_all();
}

void ServingPipeline::Finish(Op& op, TicketState terminal) {
  op.ticket->Complete(terminal);
  if (op.on_complete) op.on_complete(*op.ticket);
}

// ---- ServingPipeline -------------------------------------------------------

ServingPipeline::ServingPipeline(RecsysEngine* engine,
                                 sum::SumService* sums,
                                 PipelineConfig config)
    : engine_(engine), sums_(sums), config_(config) {
  SPA_CHECK(engine_ != nullptr);
  SPA_CHECK(config_.queue_capacity > 0);
  SPA_CHECK(config_.writer_queue_capacity > 0);
  SPA_CHECK(config_.max_batch > 0);
  pool_ = std::make_unique<ThreadPool>(config_.workers);
  // One persistent drain loop per pool worker: the loops only return
  // once Shutdown() raises stopping_ and both lanes are empty.
  for (size_t i = 0; i < pool_->thread_count(); ++i) {
    pool_->Submit([this] { DrainLoop(); });
  }
}

ServingPipeline::~ServingPipeline() { Shutdown(); }

void ServingPipeline::Shutdown() {
  // Claim the pool under mu_ (concurrent Shutdown calls and
  // worker_count() readers race on pool_ otherwise), but join it
  // outside: the drain loops need mu_ to finish.
  std::unique_ptr<ThreadPool> pool;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    pool = std::move(pool_);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  // Joining the pool drains both lanes first (the loops finish every
  // already-admitted op before returning), so no ticket is abandoned.
  pool.reset();
  idle_cv_.notify_all();
}

size_t ServingPipeline::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_ != nullptr ? pool_->thread_count() : 0;
}

spa::Result<StreamTicketPtr> ServingPipeline::Submit(
    RecommendRequest request, StreamTicket::Callback on_complete) {
  return SubmitWithDeadline(std::move(request),
                            config_.default_deadline_seconds,
                            std::move(on_complete));
}

spa::Result<StreamTicketPtr> ServingPipeline::SubmitWithDeadline(
    RecommendRequest request, double deadline_seconds,
    StreamTicket::Callback on_complete) {
  Op op;
  op.ticket = std::make_shared<ReadTicket>();
  op.on_complete = std::move(on_complete);
  op.payload = std::move(request);
  if (deadline_seconds > 0.0) {
    op.has_deadline = true;
    op.deadline = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(deadline_seconds));
  }
  return Admit(std::move(op), /*writer=*/false);
}

spa::Result<StreamTicketPtr> ServingPipeline::SubmitInteractions(
    std::vector<Interaction> batch,
    StreamTicket::Callback on_complete) {
  Op op;
  op.ticket = std::make_shared<WriteTicket>(StreamOpKind::kInteractions);
  op.on_complete = std::move(on_complete);
  op.payload = std::move(batch);
  return Admit(std::move(op), /*writer=*/true);
}

spa::Result<StreamTicketPtr> ServingPipeline::SubmitSumUpdates(
    std::vector<sum::SumUpdate> updates,
    StreamTicket::Callback on_complete) {
  if (sums_ == nullptr) {
    // Still a Submit* call: keep the `submitted` counter uniform
    // across entry points (admitted or not).
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    return spa::Status::FailedPrecondition(
        "pipeline was built without a SumService; SubmitSumUpdates "
        "needs one");
  }
  Op op;
  op.ticket = std::make_shared<WriteTicket>(StreamOpKind::kSumUpdates);
  op.on_complete = std::move(on_complete);
  op.payload = std::move(updates);
  return Admit(std::move(op), /*writer=*/true);
}

spa::Result<StreamTicketPtr> ServingPipeline::Admit(Op op,
                                                    bool writer) {
  std::unique_lock<std::mutex> lock(mu_);
  ++submitted_;
  if (stopping_) {
    return spa::Status::FailedPrecondition("pipeline is shut down");
  }
  std::deque<Op>& queue = writer ? write_queue_ : read_queue_;
  const size_t capacity =
      writer ? config_.writer_queue_capacity : config_.queue_capacity;
  // Writes carry no deadline; a full writer lane under kDegrade falls
  // back to shedding the oldest write.
  BackpressurePolicy policy = config_.policy;
  if (policy == BackpressurePolicy::kDegrade && writer) {
    policy = BackpressurePolicy::kShedOldest;
  }
  while (queue.size() >= capacity) {
    switch (policy) {
      case BackpressurePolicy::kBlock:
        space_cv_.wait(lock, [&] {
          return stopping_ || queue.size() < capacity;
        });
        if (stopping_) {
          return spa::Status::FailedPrecondition(
              "pipeline is shut down");
        }
        break;
      case BackpressurePolicy::kReject:
        ++(writer ? rejected_writes_ : rejected_reads_);
        return spa::Status::ResourceExhausted(
            writer ? "writer lane full" : "admission queue full");
      case BackpressurePolicy::kShedOldest: {
        Op victim = std::move(queue.front());
        queue.pop_front();
        ++(writer ? shed_writes_ : shed_reads_);
        // Complete the shed ticket outside mu_: its completion
        // callback is caller code and must not be able to deadlock
        // the pipeline.
        lock.unlock();
        const auto status = spa::Status::ResourceExhausted(
            "shed by admission control (queue full, newest wins)");
        // The victim left the queue under mu_, so this thread alone
        // writes its result.
        switch (victim.ticket->kind()) {
          case StreamOpKind::kRecommend:
            AsRead(*victim.ticket).response =
                spa::Result<RecommendResponse>(status);
            break;
          case StreamOpKind::kInteractions:
            AsWrite(*victim.ticket).update_report =
                spa::Result<LiveUpdateReport>(status);
            break;
          case StreamOpKind::kSumUpdates:
            AsWrite(*victim.ticket).sum_status = status;
            break;
        }
        Finish(victim, TicketState::kShed);
        lock.lock();
        if (stopping_) {
          return spa::Status::FailedPrecondition(
              "pipeline is shut down");
        }
        break;
      }
      case BackpressurePolicy::kDegrade: {
        // Shed by remaining slack, not queue position: the read with
        // the least time left — queued or incoming — is degraded
        // (fallback-served while its deadline still allows, dropped
        // when expired). Ties prefer the oldest queued op, so an
        // all-deadline-free stream degrades exactly like kShedOldest
        // except the victim gets a popularity answer instead of an
        // error.
        const auto now = Clock::now();
        size_t victim_index = 0;
        double victim_slack = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < queue.size(); ++i) {
          const double slack =
              queue[i].has_deadline
                  ? SecondsBetween(now, queue[i].deadline)
                  : std::numeric_limits<double>::infinity();
          if (slack < victim_slack) {
            victim_slack = slack;
            victim_index = i;
          }
        }
        const double incoming_slack =
            op.has_deadline ? SecondsBetween(now, op.deadline)
                            : std::numeric_limits<double>::infinity();
        if (incoming_slack < victim_slack) {
          // The incoming op is the most pressed: answer it right here
          // and return its (already terminal) ticket without queueing.
          ++admitted_;
          op.submitted_at = now;
          StreamTicketPtr ticket = op.ticket;
          lock.unlock();
          DegradeRead(std::move(op), now);
          return ticket;
        }
        Op victim = std::move(queue[victim_index]);
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(victim_index));
        lock.unlock();
        DegradeRead(std::move(victim), now);
        lock.lock();
        if (stopping_) {
          return spa::Status::FailedPrecondition(
              "pipeline is shut down");
        }
        break;
      }
    }
  }
  ++admitted_;
  op.submitted_at = Clock::now();
  StreamTicketPtr ticket = op.ticket;
  queue.push_back(std::move(op));
  if (writer) {
    max_writer_queue_depth_ = std::max(
        max_writer_queue_depth_, static_cast<uint64_t>(queue.size()));
  } else {
    max_queue_depth_ = std::max(
        max_queue_depth_, static_cast<uint64_t>(queue.size()));
  }
  work_cv_.notify_one();
  return ticket;
}

void ServingPipeline::DrainLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return (stopping_ && read_queue_.empty() &&
              write_queue_.empty()) ||
             (!write_queue_.empty() && !writer_inflight_) ||
             !read_queue_.empty();
    });
    // Writer priority: drain the writer lane before any read batch
    // (mirrors the engine's WriterPriorityMutex — continuous read
    // traffic must not starve updates). Exactly one write at a time,
    // popped FIFO, so writes apply in submission order.
    if (!write_queue_.empty() && !writer_inflight_) {
      Op op = std::move(write_queue_.front());
      write_queue_.pop_front();
      writer_inflight_ = true;
      space_cv_.notify_all();
      lock.unlock();
      ExecuteWrite(std::move(op));
      lock.lock();
      writer_inflight_ = false;
      ++updates_applied_;
      work_cv_.notify_all();
      if (read_queue_.empty() && write_queue_.empty() &&
          reads_inflight_ == 0) {
        idle_cv_.notify_all();
      }
      continue;
    }
    if (!read_queue_.empty()) {
      const size_t n =
          std::min(config_.max_batch, read_queue_.size());
      std::vector<Op> batch;
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(read_queue_.front()));
        read_queue_.pop_front();
      }
      reads_inflight_ += n;
      space_cv_.notify_all();
      lock.unlock();
      // Degraded/dropped ops update their counters inside (they are
      // not engine-served responses); only full serves are counted
      // here, and a batch that degraded away entirely never ran the
      // engine, so it is not a drained micro-batch either.
      const size_t full_served = ExecuteReadBatch(std::move(batch));
      lock.lock();
      reads_inflight_ -= n;
      responses_ += full_served;
      if (full_served > 0) ++batches_;
      if (read_queue_.empty() && write_queue_.empty() &&
          !writer_inflight_ && reads_inflight_ == 0) {
        idle_cv_.notify_all();
      }
      continue;
    }
    return;  // stopping_ and both lanes empty
  }
}

void ServingPipeline::ExecuteWrite(Op op) {
  const auto dequeued = Clock::now();
  const double waited = SecondsBetween(op.submitted_at, dequeued);
  hist_queue_wait_.Add(waited);

  WriteTicket& ticket = AsWrite(*op.ticket);
  BatchPin& pin = ticket.pinned_;
  if (ticket.kind() == StreamOpKind::kInteractions) {
    ticket.update_report = engine_->ApplyInteractions(
        std::get<std::vector<Interaction>>(op.payload));
    if (ticket.update_report.ok()) {
      pin.matrix_version = ticket.update_report.value().matrix_version;
    }
    pin.sum_version = sums_ != nullptr ? sums_->version() : 0;
  } else {
    // SumService::ApplyAll is internally atomic; the engine's response
    // cache keys on per-user SUM versions, so no engine-side
    // invalidation call is needed here. The pin must carry the version
    // THIS publish produced — with several pipelines sharing one
    // service (the router tier), reading version() afterwards could
    // observe a later concurrent publish.
    uint64_t published = 0;
    ticket.sum_status = sums_->ApplyAll(
        std::get<std::vector<sum::SumUpdate>>(op.payload), &published);
    pin.sum_version =
        ticket.sum_status.ok() ? published : sums_->version();
  }
  const double seconds = SecondsBetween(dequeued, Clock::now());
  hist_update_apply_.Add(seconds);
  ticket.queue_seconds_ = waited;
  ticket.serve_seconds_ = seconds;
  Finish(op, TicketState::kDone);
}

size_t ServingPipeline::ExecuteReadBatch(std::vector<Op> batch) {
  const auto dequeued = Clock::now();
  // kDegrade: classify by remaining slack before burning engine time.
  // Already-expired ops are dropped; ops whose slack cannot cover a
  // full serve (EWMA estimate) get the fallback tier — and they get
  // it FIRST, before the full batch occupies this worker, because
  // they are precisely the ops that cannot afford to wait for it.
  if (config_.policy == BackpressurePolicy::kDegrade) {
    const double estimate =
        static_cast<double>(
            serve_estimate_nanos_.load(std::memory_order_relaxed)) *
        1e-9;
    std::vector<Op> keep;
    std::vector<Op> degraded;
    keep.reserve(batch.size());
    for (Op& op : batch) {
      if (!op.has_deadline) {
        keep.push_back(std::move(op));
        continue;
      }
      const double slack = SecondsBetween(dequeued, op.deadline);
      if (slack <= 0.0 || slack < estimate) {
        degraded.push_back(std::move(op));
      } else {
        keep.push_back(std::move(op));
      }
    }
    batch = std::move(keep);
    for (Op& op : degraded) {
      DegradeRead(std::move(op), dequeued);
    }
  }
  if (batch.empty()) return 0;

  std::vector<RecommendRequest> requests;
  requests.reserve(batch.size());
  for (Op& op : batch) {
    requests.push_back(std::move(std::get<RecommendRequest>(op.payload)));
  }
  BatchPin pin;
  auto results = engine_->RecommendMicroBatch(requests, &pin);
  const auto served = Clock::now();
  const double serve_seconds = SecondsBetween(dequeued, served);
  hist_batch_serve_.Add(serve_seconds);
  // Feed the slack classifier: EWMA (3:1 old:new) of per-request full
  // serve wall time. Lossy read-modify-write is fine — this is an
  // estimate, and any worker's recent sample is representative.
  const uint64_t sample = static_cast<uint64_t>(
      serve_seconds / static_cast<double>(batch.size()) * 1e9);
  const uint64_t prev =
      serve_estimate_nanos_.load(std::memory_order_relaxed);
  serve_estimate_nanos_.store(prev == 0 ? sample : (3 * prev + sample) / 4,
                              std::memory_order_relaxed);
  for (size_t i = 0; i < batch.size(); ++i) {
    Op& op = batch[i];
    ReadTicket& ticket = AsRead(*op.ticket);
    const double waited = SecondsBetween(op.submitted_at, dequeued);
    hist_queue_wait_.Add(waited);
    ticket.queue_seconds_ = waited;
    ticket.serve_seconds_ = serve_seconds;
    ticket.pinned_ = pin;
    ticket.response = std::move(results[i]);
    hist_end_to_end_.Add(SecondsBetween(op.submitted_at, Clock::now()));
    Finish(op, TicketState::kDone);
  }
  return batch.size();
}

void ServingPipeline::DegradeRead(Op op, Clock::time_point now) {
  const bool expired =
      op.has_deadline && SecondsBetween(now, op.deadline) <= 0.0;
  if (expired) {
    // Past-deadline work is waste either way: complete as shed. No
    // histograms — the op was never served, and queue_wait's total
    // must keep matching responses + updates_applied.
    AsRead(*op.ticket).response = spa::Result<RecommendResponse>(
        spa::Status::ResourceExhausted(
            "deadline expired before serving; dropped under kDegrade"));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++shed_reads_;
      ++expired_drops_;
    }
    Finish(op, TicketState::kShed);
    return;
  }
  // Slack remains: answer from the popularity fallback tier. This IS
  // a response — flagged degraded, pinned, both histograms recorded —
  // just a cheap one.
  const double waited = SecondsBetween(op.submitted_at, now);
  hist_queue_wait_.Add(waited);
  ReadTicket& ticket = AsRead(*op.ticket);
  RecommendResponse response;
  spa::Status status =
      engine_->RecommendFallbackInto(std::get<RecommendRequest>(op.payload),
                                     &response, &ticket.pinned_);
  ticket.queue_seconds_ = waited;
  ticket.serve_seconds_ = SecondsBetween(now, Clock::now());
  if (status.ok()) {
    ticket.response = spa::Result<RecommendResponse>(std::move(response));
  } else {
    ticket.response = spa::Result<RecommendResponse>(std::move(status));
  }
  hist_end_to_end_.Add(SecondsBetween(op.submitted_at, Clock::now()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++responses_;
    ++fallback_served_;
  }
  Finish(op, TicketState::kDone);
}

void ServingPipeline::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return read_queue_.empty() && write_queue_.empty() &&
           !writer_inflight_ && reads_inflight_ == 0;
  });
}

PipelineStats ServingPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PipelineStats out;
  out.submitted = submitted_;
  out.admitted = admitted_;
  out.rejected_reads = rejected_reads_;
  out.rejected_writes = rejected_writes_;
  out.shed_reads = shed_reads_;
  out.shed_writes = shed_writes_;
  out.rejected = rejected_reads_ + rejected_writes_;
  out.shed = shed_reads_ + shed_writes_;
  out.responses = responses_;
  out.batches = batches_;
  out.updates_applied = updates_applied_;
  out.fallback_served = fallback_served_;
  out.expired_drops = expired_drops_;
  out.max_queue_depth = max_queue_depth_;
  out.max_writer_queue_depth = max_writer_queue_depth_;
  out.queue_wait = hist_queue_wait_;
  out.batch_serve = hist_batch_serve_;
  out.update_apply = hist_update_apply_;
  out.end_to_end = hist_end_to_end_;
  return out;
}

size_t ServingPipeline::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_queue_.size();
}

size_t ServingPipeline::writer_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_queue_.size();
}

}  // namespace spa::recsys
