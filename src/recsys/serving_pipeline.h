#ifndef SPA_RECSYS_SERVING_PIPELINE_H_
#define SPA_RECSYS_SERVING_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "recsys/engine.h"
#include "sum/sum_update.h"

/// \file
/// Async streaming serving on top of `RecsysEngine`: callers `Submit`
/// requests and get back a `StreamTicket` they can `Poll`, `Wait` on,
/// or attach a completion callback to, instead of blocking on a closed
/// `RecommendBatch`. A bounded admission queue with a configurable
/// backpressure policy (block / reject-with-status / shed-oldest)
/// feeds worker threads hosted on a `common/thread_pool`; each worker
/// drains a run of queued requests as one micro-batch served through
/// `RecsysEngine::RecommendMicroBatch` (request by request on the
/// worker's thread, feeding the engine profiler's per-stage items), so
/// every drained batch pins exactly one SUM snapshot and one
/// interaction-matrix version — the same consistency contract
/// `RecommendBatch` gives a closed batch — and concurrent drain workers
/// overlap their micro-batches.
///
/// ## Writer lane
///
/// Live updates flow through the *same* pipeline: `SubmitInteractions`
/// (interaction batches, executed as `RecsysEngine::ApplyInteractions`)
/// and `SubmitSumUpdates` (emotional-context publishes, executed as
/// `SumService::ApplyAll`) enter a separate bounded writer queue.
/// Workers drain the writer lane *first* (admission-level writer
/// priority, mirroring the engine's `WriterPriorityMutex` — continuous
/// read traffic must not starve updates), exactly one write executes
/// at a time, and writes apply in submission order. Inside the engine
/// the write takes the exclusive side of the serve lock while read
/// micro-batches hold the shared side, so updates and serving
/// interleave without any external locking — and without ever tearing
/// a micro-batch's pinned view.
///
/// ## Determinism contract
///
/// Every completed response reports the `BatchPin` its micro-batch
/// served against. Because writes are serialized FIFO and each batch
/// pins (matrix version, SUM version) atomically under the shared
/// serve lock, replaying the same writes synchronously and serving the
/// same request at the same pin reproduces the streamed response
/// byte-for-byte (`RecommendBatch` parity). The randomized
/// differential harness in `tests/recsys/serving_pipeline_test.cc`
/// asserts exactly this over interleaved schedules.
///
/// ## Response cache
///
/// The pipeline adds no caching layer of its own: micro-batches go
/// through the engine's response cache (hits are byte-identical to
/// recomputes by the cache's version guards), and writer-lane
/// `ApplyInteractions` invalidates affected users' entries exactly as
/// in the synchronous path — which also *re-warms* hot invalidated
/// users into the cache before the writer releases the engine's
/// exclusive lock, so a hot user's first post-apply read is a hit
/// (see `RecsysEngine` docs). Shed or rejected requests never touch
/// the cache.
///
/// ## Deadline-aware degradation (`kDegrade`)
///
/// Under `BackpressurePolicy::kDegrade` read requests carry a
/// deadline (per-Submit, or `PipelineConfig::default_deadline_seconds`
/// when unset; writes never carry one). Overload then sheds by
/// *remaining slack* instead of queue position:
///
///  * **Admission**: when the read lane is full, the op with the least
///    remaining slack — the incoming one or a queued one — is removed.
///    If its deadline already passed it is dropped (ResourceExhausted,
///    `expired_drops`); otherwise it is answered immediately on the
///    submitting thread from the engine's popularity fallback tier
///    (`fallback_served`), flagged `degraded = true` in the response.
///  * **Drain**: each dequeued op is classified before burning engine
///    time — already expired → dropped; too little slack for a full
///    serve (an EWMA of recent per-request serve time) → fallback tier;
///    otherwise → full serve. So under 2x-capacity overload p99 stays
///    bounded near the deadline: nothing full-serves past it.
///
/// Degraded responses are the only non-bitwise responses the pipeline
/// can produce. They are deterministic against
/// `RecsysEngine::RecommendFallback` at their pin, which is what the
/// randomized overload harness replays them against; fallback serves
/// count as `responses` and record both latency histograms, drops
/// record neither. The writer lane treats `kDegrade` as
/// `kShedOldest`, and the other three policies ignore deadlines
/// entirely.
///
/// Lifetime: the engine and SUM service must outlive the pipeline;
/// destroying the pipeline drains every already-admitted op (tickets
/// complete), then stops the workers.

namespace spa::recsys {

/// \brief What `Submit` does when the admission queue is full.
enum class BackpressurePolicy {
  /// Block the submitting thread until the queue has room (closed-loop
  /// producers; no request is ever lost).
  kBlock,
  /// Fail the submission with ResourceExhausted (the caller sees the
  /// overload immediately and can retry or degrade).
  kReject,
  /// Admit the new op and complete the *oldest* queued op of the same
  /// lane as shed (load-shedding: freshest traffic wins; the shed
  /// ticket terminates with state kShed, and its completion callback
  /// fires on the submitting thread that displaced it).
  kShedOldest,
  /// Deadline-aware graceful degradation: shed the read with the least
  /// remaining slack, serving it from the popularity fallback tier
  /// (flagged `degraded`) when its deadline still allows, dropping it
  /// only when already expired. The drain loop additionally
  /// classifies each dequeued read by slack vs. an EWMA serve-time
  /// estimate. Writer-lane overflow behaves as kShedOldest. See the
  /// file doc's "Deadline-aware degradation" section.
  kDegrade,
};

/// \brief Pipeline tunables.
struct PipelineConfig {
  /// Worker threads draining the queues (0 = hardware concurrency).
  size_t workers = 0;
  /// Read-lane admission bound (queued, not yet draining).
  size_t queue_capacity = 1024;
  /// Writer-lane admission bound.
  size_t writer_queue_capacity = 256;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Max requests drained into one micro-batch (one pinned snapshot).
  size_t max_batch = 32;
  /// Deadline stamped on reads submitted without an explicit one,
  /// seconds from admission (kDegrade only; 0 = no deadline — such
  /// reads never expire and never degrade, but can still be the
  /// shed victim when everything queued has infinite slack).
  double default_deadline_seconds = 0.0;
};

/// \brief What kind of op a ticket tracks.
enum class StreamOpKind { kRecommend, kInteractions, kSumUpdates };

/// \brief Ticket lifecycle: kQueued from admission until the ticket
/// turns terminal, as kDone (served, degraded-served or applied) or
/// kShed (dropped by admission control or an expired deadline).
enum class TicketState { kQueued, kDone, kShed };

/// \brief Caller's handle to one submitted op.
///
/// Thread-safe; hold the `StreamTicketPtr` until the result has been
/// read. Accessors other than `kind()`, `Poll()`, `Wait()` and
/// `state()` must only be called once the ticket is terminal (`Poll()`
/// true / after `Wait()`): the one thread that completes a ticket
/// writes its results before publishing the terminal state (release),
/// and a reader that observed that state (acquire) sees them.
///
/// A ticket is one allocation with its shared_ptr control block, and
/// holds only what its op kind reports: a read ticket carries the
/// response, a write ticket the update report or publish status. The
/// completion callback and admission time live with the queued op and
/// are gone once the ticket completes.
class StreamTicket {
 public:
  /// Completion callback. It may inspect the ticket and re-submit, but
  /// it runs on a drain worker — or, for tickets shed by kShedOldest,
  /// on the thread whose Submit displaced them — so it must not block
  /// for long and must not call Flush/Shutdown, which wait on the very
  /// worker running it.
  using Callback = std::function<void(const StreamTicket&)>;

  StreamOpKind kind() const { return kind_; }

  /// True when the ticket reached a terminal state. Non-blocking.
  bool Poll() const;

  /// Blocks until terminal; returns the terminal state.
  TicketState Wait() const;

  TicketState state() const;

  /// The response (kind() == kRecommend; terminal). Shed tickets carry
  /// a ResourceExhausted status.
  const spa::Result<RecommendResponse>& response() const;

  /// The live-update report (kind() == kInteractions; terminal).
  const spa::Result<LiveUpdateReport>& update_report() const;

  /// The publish status (kind() == kSumUpdates; terminal).
  const spa::Status& sum_status() const;

  /// The consistency point the op was served at: for reads the
  /// micro-batch's pin; for writes the post-apply versions. Zeros for
  /// shed tickets.
  const BatchPin& pinned() const;

  /// Seconds between admission and dequeue / dequeue and completion
  /// (terminal; zeros for shed tickets).
  double queue_seconds() const;
  double serve_seconds() const;

 protected:
  explicit StreamTicket(StreamOpKind kind) : kind_(kind) {}

 private:
  friend class ServingPipeline;

  /// Publishes the terminal state and wakes waiters. The caller has
  /// written the results and fires the op's completion callback after.
  void Complete(TicketState terminal);

  StreamOpKind kind_;
  std::atomic<TicketState> state_{TicketState::kQueued};
  BatchPin pinned_;
  double queue_seconds_ = 0.0;
  double serve_seconds_ = 0.0;
};

using StreamTicketPtr = std::shared_ptr<StreamTicket>;

/// \brief Cumulative pipeline counters plus latency histograms
/// (`spa::LogHistogram`, seconds; same geometry as the engine's stage
/// histograms, so the two layers merge bucket-by-bucket).
struct PipelineStats {
  uint64_t submitted = 0;   ///< Submit* calls (admitted or not)
  uint64_t admitted = 0;    ///< ops that entered a queue
  uint64_t rejected = 0;    ///< kReject refusals (both lanes)
  uint64_t shed = 0;        ///< kShedOldest drops (both lanes)
  /// Per-lane breakouts of the admission-control counters (the totals
  /// above stay, as the sum): overload diagnosis needs to see *which*
  /// lane the policy is refusing — a shed read is degraded service, a
  /// shed write is lost state.
  uint64_t rejected_reads = 0;
  uint64_t rejected_writes = 0;
  uint64_t shed_reads = 0;
  uint64_t shed_writes = 0;
  uint64_t responses = 0;   ///< completed read tickets
  uint64_t batches = 0;     ///< micro-batches drained
  uint64_t updates_applied = 0;  ///< completed writer-lane ops
  /// kDegrade shed quality: reads answered from the popularity
  /// fallback tier (these ARE responses — flagged `degraded`, both
  /// latency histograms recorded) vs. reads dropped because their
  /// deadline had already expired (a subset of `shed_reads`; no
  /// histograms).
  uint64_t fallback_served = 0;
  uint64_t expired_drops = 0;
  uint64_t max_queue_depth = 0;         ///< high-water mark, read lane
  uint64_t max_writer_queue_depth = 0;  ///< high-water mark, writer lane
  LogHistogram queue_wait;   ///< per op: admission -> dequeue
  LogHistogram batch_serve;  ///< per micro-batch: engine serve wall
  LogHistogram update_apply; ///< per writer op: apply wall
  LogHistogram end_to_end;   ///< per response: admission -> done
};

/// \brief The async streaming front of a fitted `RecsysEngine`.
class ServingPipeline {
 public:
  /// `engine` serves reads and interaction writes; `sums` (may be
  /// null) backs `SubmitSumUpdates` and should be the same service the
  /// engine serves emotional context from. Both are borrowed and must
  /// outlive the pipeline. Workers start immediately.
  ServingPipeline(RecsysEngine* engine, sum::SumService* sums,
                  PipelineConfig config = {});
  ~ServingPipeline();

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  /// Admits one recommendation request. Errors: ResourceExhausted
  /// (kReject and the read lane is full), FailedPrecondition (pipeline
  /// shut down). Under kDegrade the request carries
  /// `config.default_deadline_seconds`; a returned ticket may already
  /// be terminal (degraded-served or dropped at admission).
  spa::Result<StreamTicketPtr> Submit(
      RecommendRequest request, StreamTicket::Callback on_complete = {});

  /// Same, with an explicit deadline (seconds from now; <= 0 means no
  /// deadline). Deadlines only influence serving under kDegrade — the
  /// other policies admit and serve such requests unchanged.
  spa::Result<StreamTicketPtr> SubmitWithDeadline(
      RecommendRequest request, double deadline_seconds,
      StreamTicket::Callback on_complete = {});

  /// Admits one interaction batch into the writer lane (executed as
  /// `RecsysEngine::ApplyInteractions`, in submission order).
  spa::Result<StreamTicketPtr> SubmitInteractions(
      std::vector<Interaction> batch,
      StreamTicket::Callback on_complete = {});

  /// Admits one SUM publish into the writer lane (executed as
  /// `SumService::ApplyAll`, in submission order). Errors additionally:
  /// FailedPrecondition when the pipeline was built without a service.
  spa::Result<StreamTicketPtr> SubmitSumUpdates(
      std::vector<sum::SumUpdate> updates,
      StreamTicket::Callback on_complete = {});

  /// Blocks until both lanes are empty and nothing is executing. Only
  /// settles while producers are quiet.
  void Flush();

  /// Stops admission, drains every already-admitted op and stops
  /// the worker threads. Idempotent; the destructor calls it.
  void Shutdown();

  PipelineStats stats() const;
  size_t queue_depth() const;         ///< read lane, queued only
  size_t writer_queue_depth() const;  ///< writer lane, queued only
  /// Drain workers (0 after Shutdown).
  size_t worker_count() const;

  const PipelineConfig& config() const { return config_; }

 private:
  struct Op {
    StreamTicketPtr ticket;
    /// Fired once, right after the ticket turns terminal.
    StreamTicket::Callback on_complete;
    std::chrono::steady_clock::time_point submitted_at{};
    /// The lane payload, by the ticket's kind: kRecommend,
    /// kInteractions or kSumUpdates.
    std::variant<RecommendRequest, std::vector<Interaction>,
                 std::vector<sum::SumUpdate>>
        payload;
    /// kDegrade read deadline (meaningless when !has_deadline).
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
  };
  // libstdc++'s deque packs 512 / sizeof(T) elements per node: at most
  // 256 bytes keeps two ops per node, so Submit does not allocate a
  // node per op.
  static_assert(sizeof(Op) <= 256);

  spa::Result<StreamTicketPtr> Admit(Op op, bool writer);
  /// Turns `op`'s ticket terminal, then fires its callback (never
  /// under mu_: the callback is caller code).
  static void Finish(Op& op, TicketState terminal);
  void DrainLoop();
  void ExecuteWrite(Op op);
  /// Serves one dequeued read micro-batch. Under kDegrade ops are
  /// first classified by remaining slack (drop / fallback / full);
  /// fallback and drop outcomes update the pipeline counters
  /// themselves (brief mu_ reacquire). Returns the number of ops
  /// full-served through the engine (0 = no engine batch ran, so the
  /// caller must not count a batch).
  size_t ExecuteReadBatch(std::vector<Op> batch);
  /// Terminal degrade of one read op, off-queue: expired → dropped
  /// (kShed + ResourceExhausted, counted in expired_drops), otherwise
  /// answered from the engine's popularity fallback tier (kDone,
  /// response flagged degraded, counted in fallback_served +
  /// responses). Takes mu_ briefly for the counters; call WITHOUT mu_
  /// held (the ticket callback fires inside).
  void DegradeRead(Op op, std::chrono::steady_clock::time_point now);

  RecsysEngine* engine_;
  sum::SumService* sums_;
  PipelineConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: something to drain
  std::condition_variable space_cv_;  ///< kBlock producers: room freed
  std::condition_variable idle_cv_;   ///< Flush: everything drained
  std::deque<Op> read_queue_;
  std::deque<Op> write_queue_;
  bool writer_inflight_ = false;
  size_t reads_inflight_ = 0;
  bool stopping_ = false;

  // Counters under mu_; histograms are internally atomic.
  uint64_t submitted_ = 0;
  uint64_t admitted_ = 0;
  uint64_t rejected_reads_ = 0;
  uint64_t rejected_writes_ = 0;
  uint64_t shed_reads_ = 0;
  uint64_t shed_writes_ = 0;
  uint64_t responses_ = 0;
  uint64_t batches_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t fallback_served_ = 0;
  uint64_t expired_drops_ = 0;
  uint64_t max_queue_depth_ = 0;
  uint64_t max_writer_queue_depth_ = 0;
  LogHistogram hist_queue_wait_;
  LogHistogram hist_batch_serve_;
  LogHistogram hist_update_apply_;
  LogHistogram hist_end_to_end_;
  /// EWMA of full-serve wall time per request, nanoseconds (0 until
  /// the first full batch completes) — the drain-side slack
  /// classifier's estimate of what a full serve would cost.
  std::atomic<uint64_t> serve_estimate_nanos_{0};

  /// Hosts the drain loops (one long-running task per pool worker).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_SERVING_PIPELINE_H_
