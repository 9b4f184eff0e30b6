#include "recsys/serving_pipeline.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eit/emotion.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "sum/sum_service.h"

/// The streaming serving pipeline. The load-bearing claims tested here:
///
///  * **Differential determinism**: every streamed response is
///    bitwise-identical to the synchronous `RecommendBatch` result
///    computed against the same pinned (matrix version, SUM version)
///    pair — asserted by a seeded fuzzer that generates interleaved
///    Submit / ApplyInteractions / SumUpdate schedules, runs them
///    through the pipeline, then replays the applied writes in order
///    on a fresh reference stack and re-serves every response at its
///    pin (>= 100 seeded schedules across all four backpressure
///    policies).
///  * **Admission control**: block / reject-with-status / shed-oldest
///    behave exactly as specified when the queue is full (driven
///    deterministically by a gated recommender that parks the worker).
///  * **Deadline degradation**: under kDegrade the pipeline sheds by
///    remaining slack — expired reads drop with a status, pressed
///    reads get the popularity fallback tier, flagged `degraded` and
///    bitwise-equal to `RecommendFallback` at their pinned matrix
///    version. The differential harness runs with mixed deadline
///    pressure and classifies every outcome.
///  * **Writer priority**: queued writes drain before queued reads.
///  * **Race freedom**: the TSAN stress case below runs under TSAN in
///    CI (ServingPipeline* is in the TSAN job's ctest regex).

namespace spa::recsys {
namespace {

constexpr size_t kUsers = 100;
constexpr size_t kItems = 50;

/// Deterministic clustered interaction matrix (same generator for the
/// live run and the reference replay).
InteractionMatrix MakeMatrix(uint64_t seed, size_t shards) {
  Rng rng(seed, /*stream=*/1);
  InteractionMatrix m(shards);
  for (size_t u = 0; u < kUsers; ++u) {
    const auto base =
        static_cast<ItemId>((u % 2 == 0) ? 0 : kItems / 2);
    for (int j = 0; j < 6; ++j) {
      const auto item = static_cast<ItemId>(
          base +
          rng.UniformInt(0, static_cast<int64_t>(kItems) / 2 - 1));
      m.Add(static_cast<UserId>(u), item, rng.Uniform(0.2, 3.0));
    }
  }
  return m;
}

/// Deterministic SUM bootstrap: one ApplyAll publish (version 1).
void BootstrapSums(sum::SumService* sums,
                   const sum::AttributeCatalog& catalog,
                   uint64_t seed) {
  Rng rng(seed, /*stream=*/2);
  std::vector<sum::SumUpdate> bootstrap;
  bootstrap.reserve(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    sum::SumUpdate update(static_cast<sum::UserId>(u));
    for (eit::EmotionalAttribute attr : eit::AllEmotionalAttributes()) {
      if (rng.Bernoulli(0.4)) {
        update.SetSensibility(catalog.EmotionalId(attr),
                              rng.Uniform(0.2, 1.0));
      }
    }
    bootstrap.push_back(std::move(update));
  }
  ASSERT_TRUE(sums->ApplyAll(bootstrap).ok());
}

/// Engine with two KNN components and deterministic item profiles.
std::unique_ptr<RecsysEngine> MakeEngine(const sum::SumService* sums,
                                         InteractionMatrix* matrix,
                                         uint64_t seed,
                                         size_t cache_capacity) {
  EngineConfig config;
  config.response_cache_capacity = cache_capacity;
  config.interaction_shards = matrix->shard_count();
  auto engine = std::make_unique<RecsysEngine>(config);
  engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
  engine->AddComponent(std::make_unique<ItemKnnRecommender>(), 0.4);
  Rng rng(seed, /*stream=*/3);
  for (size_t i = 0; i < kItems; ++i) {
    EmotionProfile profile{};
    for (double& p : profile) p = rng.Uniform();
    engine->SetItemEmotionProfile(static_cast<ItemId>(i), profile);
  }
  engine->set_sum_service(sums);
  EXPECT_TRUE(engine->Fit(matrix).ok());
  return engine;
}

void ExpectBitwiseEqual(const RecommendResponse& streamed,
                        const RecommendResponse& reference,
                        const std::string& context) {
  EXPECT_EQ(streamed.user, reference.user) << context;
  EXPECT_EQ(streamed.emotion_applied, reference.emotion_applied)
      << context;
  EXPECT_EQ(streamed.explained, reference.explained) << context;
  EXPECT_EQ(streamed.degraded, reference.degraded) << context;
  ASSERT_EQ(streamed.items.size(), reference.items.size()) << context;
  for (size_t i = 0; i < streamed.items.size(); ++i) {
    const RecommendedItem& a = streamed.items[i];
    const RecommendedItem& b = reference.items[i];
    EXPECT_EQ(a.item, b.item) << context << " rank " << i;
    EXPECT_EQ(a.score, b.score) << context << " rank " << i;  // bitwise
  }
  ASSERT_EQ(streamed.breakdowns.size(), reference.breakdowns.size())
      << context;
  for (size_t i = 0; i < streamed.breakdowns.size(); ++i) {
    const ScoreBreakdown& a = streamed.breakdowns[i];
    const ScoreBreakdown& b = reference.breakdowns[i];
    EXPECT_EQ(a.base, b.base) << context << " rank " << i;
    EXPECT_EQ(a.base_share, b.base_share) << context << " rank " << i;
    EXPECT_EQ(a.emotional_alignment, b.emotional_alignment)
        << context << " rank " << i;
    EXPECT_EQ(a.emotion_delta, b.emotion_delta)
        << context << " rank " << i;
  }
}

// ---- randomized differential harness ---------------------------------------

enum class OpKind { kRead, kInteractions, kSumUpdates };

struct ScheduleOp {
  OpKind kind = OpKind::kRead;
  RecommendRequest request;
  std::vector<Interaction> interactions;
  std::vector<sum::SumUpdate> sum_updates;
};

/// One random schedule of interleaved reads and writes. New users and
/// items enter through interaction batches (ids above the bootstrap
/// range) so the stream also exercises live registration.
std::vector<ScheduleOp> MakeSchedule(uint64_t seed,
                                     const sum::AttributeCatalog& catalog,
                                     size_t ops) {
  Rng rng(seed, /*stream=*/4);
  std::vector<ScheduleOp> schedule;
  schedule.reserve(ops);
  UserId next_new_user = static_cast<UserId>(kUsers);
  ItemId next_new_item = static_cast<ItemId>(kItems);
  const auto attributes = eit::AllEmotionalAttributes();
  for (size_t i = 0; i < ops; ++i) {
    const double roll = rng.Uniform();
    ScheduleOp op;
    if (roll < 0.70) {
      op.kind = OpKind::kRead;
      op.request.user = static_cast<UserId>(
          rng.UniformInt(0, static_cast<int64_t>(kUsers) - 1));
      op.request.k = static_cast<size_t>(rng.UniformInt(1, 8));
      op.request.exclude_seen =
          rng.Bernoulli(0.85) ? ExcludeSeen::kYes : ExcludeSeen::kNo;
      op.request.explain = rng.Bernoulli(0.15);
    } else if (roll < 0.85) {
      op.kind = OpKind::kInteractions;
      const size_t batch = static_cast<size_t>(rng.UniformInt(1, 4));
      for (size_t b = 0; b < batch; ++b) {
        Interaction interaction;
        interaction.user =
            rng.Bernoulli(0.1)
                ? next_new_user++
                : static_cast<UserId>(rng.UniformInt(
                      0, static_cast<int64_t>(kUsers) - 1));
        interaction.item =
            rng.Bernoulli(0.1)
                ? next_new_item++
                : static_cast<ItemId>(rng.UniformInt(
                      0, static_cast<int64_t>(kItems) - 1));
        interaction.weight = rng.Uniform(0.2, 3.0);
        op.interactions.push_back(interaction);
      }
    } else {
      op.kind = OpKind::kSumUpdates;
      const size_t updates = static_cast<size_t>(rng.UniformInt(1, 3));
      for (size_t b = 0; b < updates; ++b) {
        sum::SumUpdate update(static_cast<sum::UserId>(
            rng.UniformInt(0, static_cast<int64_t>(kUsers) - 1)));
        const auto attr = attributes[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(attributes.size()) - 1))];
        if (rng.Bernoulli(0.5)) {
          update.SetSensibility(catalog.EmotionalId(attr),
                                rng.Uniform(0.0, 1.0));
        } else {
          update.Reward(catalog.EmotionalId(attr), rng.Uniform(0.1, 1.0));
        }
        op.sum_updates.push_back(std::move(update));
      }
    }
    schedule.push_back(std::move(op));
  }
  return schedule;
}

struct StreamedRead {
  size_t op_index = 0;
  RecommendRequest request;
  RecommendResponse response;
  BatchPin pin;
  bool degraded = false;
};

struct AppliedWrite {
  OpKind kind = OpKind::kInteractions;
  std::vector<Interaction> interactions;
  std::vector<sum::SumUpdate> sum_updates;
  BatchPin pin;  ///< post-apply versions reported by the ticket
};

/// Runs one schedule through a live pipeline, then replays the applied
/// writes in submission order on a fresh reference stack and asserts
/// every streamed response equals the synchronous RecommendBatch
/// result at the same pinned (matrix version, SUM version) pair.
/// Adds the reads degraded under deadline pressure (fallback-served
/// plus expired drops; none outside kDegrade) to `*pressed`.
void RunDifferentialSchedule(uint64_t seed, BackpressurePolicy policy,
                             size_t shards, uint64_t* pressed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " policy=" +
               std::to_string(static_cast<int>(policy)) + " shards=" +
               std::to_string(shards));
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();

  // ---- live streamed run ---------------------------------------------------
  InteractionMatrix live_matrix = MakeMatrix(seed, shards);
  sum::SumService live_sums(&catalog);
  BootstrapSums(&live_sums, catalog, seed);
  auto live_engine =
      MakeEngine(&live_sums, &live_matrix, seed, /*cache_capacity=*/256);

  const std::vector<ScheduleOp> schedule =
      MakeSchedule(seed, catalog, /*ops=*/48);

  PipelineConfig config;
  config.workers = 3;
  config.queue_capacity = 6;  // small: the policy actually engages
  config.writer_queue_capacity = 6;
  config.policy = policy;
  config.max_batch = 4;

  std::vector<StreamedRead> reads;
  std::vector<AppliedWrite> writes;
  uint64_t fallback_count = 0;
  uint64_t dropped_reads = 0;
  PipelineStats live_stats;
  // Deadline pressure is only meaningful under kDegrade: a mix of
  // deadline-free, generous and knife-edge deadlines so every outcome
  // class (full serve, fallback, drop) shows up across the seeds.
  Rng deadline_rng(seed, /*stream=*/9);
  std::vector<double> deadlines(schedule.size(), 0.0);
  {
    ServingPipeline pipeline(live_engine.get(), &live_sums, config);
    std::vector<std::pair<size_t, StreamTicketPtr>> tickets;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const ScheduleOp& op = schedule[i];
      auto submit = [&]() -> spa::Result<StreamTicketPtr> {
        if (op.kind == OpKind::kInteractions) {
          return pipeline.SubmitInteractions(op.interactions);
        }
        if (op.kind == OpKind::kSumUpdates) {
          return pipeline.SubmitSumUpdates(op.sum_updates);
        }
        double deadline_seconds = 0.0;
        if (policy == BackpressurePolicy::kDegrade) {
          const double roll = deadline_rng.Uniform();
          if (roll < 0.4) {
            deadline_seconds = 0.0;  // no deadline
          } else if (roll < 0.8) {
            deadline_seconds = 5.0;  // generous: full serve expected
          } else {
            // Knife-edge: likely degraded or dropped.
            deadline_seconds = 0.0002 + 0.0008 * deadline_rng.Uniform();
          }
        }
        deadlines[i] = deadline_seconds;
        return pipeline.SubmitWithDeadline(op.request, deadline_seconds);
      };
      spa::Result<StreamTicketPtr> admitted = submit();
      if (!admitted.ok()) {
        // Only the reject policy may refuse an admission.
        EXPECT_EQ(config.policy, BackpressurePolicy::kReject);
        EXPECT_EQ(admitted.status().code(),
                  spa::StatusCode::kResourceExhausted);
        continue;
      }
      tickets.emplace_back(i, admitted.value());
    }
    pipeline.Flush();
    for (auto& [index, ticket] : tickets) {
      const TicketState state = ticket->Wait();
      if (state == TicketState::kShed) {
        // kShedOldest sheds anywhere; kDegrade sheds expired reads and
        // (writer lane only) overflowing writes.
        EXPECT_TRUE(config.policy == BackpressurePolicy::kShedOldest ||
                    config.policy == BackpressurePolicy::kDegrade);
        if (config.policy == BackpressurePolicy::kDegrade &&
            ticket->kind() == StreamOpKind::kRecommend) {
          EXPECT_EQ(ticket->response().status().code(),
                    spa::StatusCode::kResourceExhausted);
          ++dropped_reads;
        }
        continue;
      }
      ASSERT_EQ(state, TicketState::kDone);
      const ScheduleOp& op = schedule[index];
      switch (ticket->kind()) {
        case StreamOpKind::kRecommend: {
          ASSERT_TRUE(ticket->response().ok());
          StreamedRead read{index, op.request,
                            ticket->response().value(),
                            ticket->pinned()};
          read.degraded = read.response.degraded;
          if (read.degraded) {
            // The degraded flag is the ONE sanctioned departure from
            // bitwise parity, and only kDegrade may raise it.
            EXPECT_EQ(config.policy, BackpressurePolicy::kDegrade);
            ++fallback_count;
          } else if (deadlines[index] > 0.0) {
            // A read is full-served only with positive slack at
            // dequeue, and its deadline is stamped before its
            // admission time: nothing full-serves after waiting out
            // its deadline in the queue.
            EXPECT_LT(ticket->queue_seconds(), deadlines[index])
                << "op " << index << " full-served past its deadline";
          }
          reads.push_back(std::move(read));
          break;
        }
        case StreamOpKind::kInteractions: {
          ASSERT_TRUE(ticket->update_report().ok());
          writes.push_back({OpKind::kInteractions, op.interactions,
                            {}, ticket->pinned()});
          break;
        }
        case StreamOpKind::kSumUpdates: {
          ASSERT_TRUE(ticket->sum_status().ok());
          writes.push_back({OpKind::kSumUpdates, {}, op.sum_updates,
                            ticket->pinned()});
          break;
        }
      }
    }
    live_stats = pipeline.stats();
  }
  *pressed += fallback_count + dropped_reads;

  // Shed-quality accounting must agree with the observed tickets:
  // every degraded response was counted as a served fallback, every
  // dropped read as an expired drop — and fallbacks ARE responses with
  // full histogram coverage.
  if (policy == BackpressurePolicy::kDegrade) {
    EXPECT_EQ(live_stats.fallback_served, fallback_count);
    EXPECT_EQ(live_stats.expired_drops, dropped_reads);
    EXPECT_EQ(live_stats.shed_reads, dropped_reads);
    EXPECT_EQ(live_stats.responses, reads.size());
    EXPECT_EQ(live_stats.end_to_end.total(), live_stats.responses);
    EXPECT_EQ(live_stats.queue_wait.total(),
              live_stats.responses + live_stats.updates_applied);
  } else {
    EXPECT_EQ(live_stats.fallback_served, 0u);
    EXPECT_EQ(live_stats.expired_drops, 0u);
  }

  // Tickets complete out of submission order, but the writer lane
  // applies FIFO: re-sort the applied writes by submission index (we
  // appended in ticket iteration order, which *is* submission order
  // because `tickets` preserves it). Their post-apply versions must be
  // strictly increasing along that order.
  for (size_t i = 1; i < writes.size(); ++i) {
    if (writes[i].kind == OpKind::kInteractions &&
        writes[i - 1].kind == OpKind::kInteractions) {
      EXPECT_GT(writes[i].pin.matrix_version,
                writes[i - 1].pin.matrix_version);
    }
    if (writes[i].kind == OpKind::kSumUpdates &&
        writes[i - 1].kind == OpKind::kSumUpdates) {
      EXPECT_GT(writes[i].pin.sum_version,
                writes[i - 1].pin.sum_version);
    }
  }

  // ---- reference replay ----------------------------------------------------
  // Because exactly one write executes at a time (FIFO), the set of
  // applied writes at any pin instant is a prefix of the write order:
  // sorting responses by (matrix version, SUM version) lets one
  // forward replay visit every pinned state.
  std::sort(reads.begin(), reads.end(),
            [](const StreamedRead& a, const StreamedRead& b) {
              if (a.pin.matrix_version != b.pin.matrix_version) {
                return a.pin.matrix_version < b.pin.matrix_version;
              }
              return a.pin.sum_version < b.pin.sum_version;
            });
  for (size_t i = 1; i < reads.size(); ++i) {
    // Joint monotonicity: a response computed from a newer matrix can
    // never carry an older SUM view (writes are totally ordered).
    ASSERT_LE(reads[i - 1].pin.sum_version, reads[i].pin.sum_version)
        << "pinned versions invert: the pipeline tore a batch pin";
  }

  InteractionMatrix ref_matrix = MakeMatrix(seed, shards);
  sum::SumService ref_sums(&catalog);
  BootstrapSums(&ref_sums, catalog, seed);
  auto ref_engine =
      MakeEngine(&ref_sums, &ref_matrix, seed, /*cache_capacity=*/0);

  size_t next_write = 0;
  size_t compared = 0;
  size_t i = 0;
  while (i < reads.size()) {
    const BatchPin target = reads[i].pin;
    ASSERT_EQ(target.fit_epoch, 1u);
    while (ref_matrix.version() < target.matrix_version ||
           ref_sums.version() < target.sum_version) {
      ASSERT_LT(next_write, writes.size())
          << "pinned state not reachable by replaying applied writes";
      const AppliedWrite& write = writes[next_write++];
      if (write.kind == OpKind::kInteractions) {
        const auto report =
            ref_engine->ApplyInteractions(write.interactions);
        ASSERT_TRUE(report.ok());
        ASSERT_EQ(report.value().matrix_version,
                  write.pin.matrix_version)
            << "replayed matrix version diverged from the live run";
      } else {
        ASSERT_TRUE(ref_sums.ApplyAll(write.sum_updates).ok());
        ASSERT_EQ(ref_sums.version(), write.pin.sum_version)
            << "replayed SUM version diverged from the live run";
      }
    }
    ASSERT_EQ(ref_matrix.version(), target.matrix_version);
    ASSERT_EQ(ref_sums.version(), target.sum_version);

    // Serve every response pinned at this state: non-degraded ones as
    // one synchronous RecommendBatch (bitwise parity), degraded ones
    // against the popularity fallback reference at the same pin —
    // degradation changes the tier, never the determinism.
    std::vector<RecommendRequest> group;
    std::vector<size_t> group_reads;
    while (i < reads.size() &&
           reads[i].pin.matrix_version == target.matrix_version &&
           reads[i].pin.sum_version == target.sum_version) {
      if (reads[i].degraded) {
        BatchPin fb_pin;
        const auto fallback =
            ref_engine->RecommendFallback(reads[i].request, &fb_pin);
        ASSERT_TRUE(fallback.ok());
        EXPECT_EQ(fb_pin.matrix_version, target.matrix_version);
        EXPECT_EQ(fb_pin.sum_version, target.sum_version);
        ExpectBitwiseEqual(
            reads[i].response, fallback.value(),
            "degraded op " + std::to_string(reads[i].op_index));
        ++compared;
      } else {
        group.push_back(reads[i].request);
        group_reads.push_back(i);
      }
      ++i;
    }
    if (!group.empty()) {
      BatchPin ref_pin;
      const auto reference = ref_engine->RecommendBatch(group, &ref_pin);
      ASSERT_EQ(ref_pin.matrix_version, target.matrix_version);
      ASSERT_EQ(ref_pin.sum_version, target.sum_version);
      for (size_t g = 0; g < group.size(); ++g) {
        ASSERT_TRUE(reference[g].ok());
        ExpectBitwiseEqual(
            reads[group_reads[g]].response, reference[g].value(),
            "op " + std::to_string(reads[group_reads[g]].op_index));
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, reads.size());
  EXPECT_GT(compared, 0u);
}

class ServingPipelineDifferentialTest
    : public ::testing::TestWithParam<BackpressurePolicy> {};

TEST_P(ServingPipelineDifferentialTest,
       StreamedResponsesMatchSynchronousBatchAtPinnedVersions) {
  // 35 schedules per policy x 4 policies = 140 seeded schedules, with
  // the shard count varied across them.
  uint64_t pressed = 0;
  for (uint64_t seed = 0; seed < 35; ++seed) {
    const size_t shards = 1 + seed % 4;
    RunDifferentialSchedule(1000 + seed, GetParam(), shards, &pressed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Under kDegrade some knife-edge reads must actually be degraded,
  // or the per-read deadline check above compared nothing but
  // generous deadlines.
  if (GetParam() == BackpressurePolicy::kDegrade) {
    EXPECT_GT(pressed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ServingPipelineDifferentialTest,
    ::testing::Values(BackpressurePolicy::kBlock,
                      BackpressurePolicy::kReject,
                      BackpressurePolicy::kShedOldest,
                      BackpressurePolicy::kDegrade),
    [](const ::testing::TestParamInfo<BackpressurePolicy>& info) {
      switch (info.param) {
        case BackpressurePolicy::kBlock: return "Block";
        case BackpressurePolicy::kReject: return "Reject";
        case BackpressurePolicy::kShedOldest: return "ShedOldest";
        case BackpressurePolicy::kDegrade: return "Degrade";
      }
      return "Unknown";
    });

// ---- deterministic admission-control coverage ------------------------------

/// Shared gate a recommender can park on: lets a test hold the single
/// drain worker mid-serve and fill the queue deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void WaitUntilOpen() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

/// Minimal recommender that blocks every candidate call on the gate.
class GatedRecommender : public Recommender {
 public:
  explicit GatedRecommender(Gate* gate) : gate_(gate) {}

  spa::Status Fit(const InteractionMatrix& matrix) override {
    matrix_ = &matrix;
    return spa::Status::OK();
  }
  spa::Status Refresh(RefreshOutcome* outcome) override {
    outcome->all_users = true;
    return spa::Status::OK();
  }
  void RecommendCandidatesInto(const CandidateQuery& query,
                               std::vector<Scored>* out) const override {
    gate_->WaitUntilOpen();
    out->assign({{static_cast<ItemId>(query.user % 3), 1.0}});
  }
  std::string name() const override { return "gated"; }

 private:
  Gate* gate_;
  const InteractionMatrix* matrix_ = nullptr;
};

/// Engine with one gated component, no emotion stage, no cache.
struct GatedStack {
  explicit GatedStack(size_t users = 8) : matrix(MakeTiny(users)) {
    EngineConfig config;
    config.response_cache_capacity = 0;
    config.emotion_enabled = false;
    engine = std::make_unique<RecsysEngine>(config);
    engine->AddComponent(std::make_unique<GatedRecommender>(&gate),
                         1.0);
    EXPECT_TRUE(engine->Fit(&matrix).ok());
  }

  static InteractionMatrix MakeTiny(size_t users) {
    InteractionMatrix m;
    for (size_t u = 0; u < users; ++u) {
      m.Add(static_cast<UserId>(u), static_cast<ItemId>(u % 4), 1.0);
    }
    return m;
  }

  RecommendRequest Request(UserId user) const {
    RecommendRequest request;
    request.user = user;
    request.k = 1;
    request.exclude_seen = ExcludeSeen::kNo;
    return request;
  }

  Gate gate;
  InteractionMatrix matrix;
  std::unique_ptr<RecsysEngine> engine;
};

PipelineConfig TinyPipelineConfig(BackpressurePolicy policy) {
  PipelineConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.writer_queue_capacity = 2;
  config.max_batch = 1;
  config.policy = policy;
  return config;
}

/// Parks the single worker on r0, fills the queue with r1, r2. Returns
/// after the worker has provably dequeued r0 (queue depth settled).
std::vector<StreamTicketPtr> FillQueue(ServingPipeline* pipeline,
                                       GatedStack* stack) {
  std::vector<StreamTicketPtr> tickets;
  auto r0 = pipeline->Submit(stack->Request(0));
  EXPECT_TRUE(r0.ok());
  tickets.push_back(r0.value());
  // Wait until the worker dequeued r0 (it then parks on the gate);
  // only then do r1/r2 fill the queue to exactly its capacity.
  while (pipeline->queue_depth() != 0) std::this_thread::yield();
  for (UserId u = 1; u <= 2; ++u) {
    auto ticket = pipeline->Submit(stack->Request(u));
    EXPECT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  EXPECT_EQ(pipeline->queue_depth(), 2u);
  return tickets;
}

TEST(ServingPipelineTest, BlockPolicyBlocksProducerUntilRoomFrees) {
  GatedStack stack;
  ServingPipeline pipeline(stack.engine.get(), nullptr,
                           TinyPipelineConfig(BackpressurePolicy::kBlock));
  auto tickets = FillQueue(&pipeline, &stack);

  std::atomic<bool> admitted{false};
  StreamTicketPtr blocked_ticket;
  std::thread producer([&] {
    auto ticket = pipeline.Submit(stack.Request(3));
    EXPECT_TRUE(ticket.ok());
    blocked_ticket = ticket.value();
    admitted.store(true);
  });
  // The producer must still be parked after a generous delay: the
  // queue is full and nothing drains while the gate is closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());

  stack.gate.Open();
  producer.join();
  EXPECT_TRUE(admitted.load());
  pipeline.Flush();
  for (const auto& ticket : tickets) {
    EXPECT_EQ(ticket->Wait(), TicketState::kDone);
    EXPECT_TRUE(ticket->response().ok());
  }
  EXPECT_EQ(blocked_ticket->Wait(), TicketState::kDone);
  EXPECT_EQ(pipeline.stats().rejected, 0u);
  EXPECT_EQ(pipeline.stats().shed, 0u);
}

TEST(ServingPipelineTest, RejectPolicyFailsSubmitWithStatus) {
  GatedStack stack;
  ServingPipeline pipeline(
      stack.engine.get(), nullptr,
      TinyPipelineConfig(BackpressurePolicy::kReject));
  auto tickets = FillQueue(&pipeline, &stack);

  auto rejected = pipeline.Submit(stack.Request(3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            spa::StatusCode::kResourceExhausted);
  // A read rejection lands in the read lane only; the totals are the
  // lane sums.
  EXPECT_EQ(pipeline.stats().rejected, 1u);
  EXPECT_EQ(pipeline.stats().rejected_reads, 1u);
  EXPECT_EQ(pipeline.stats().rejected_writes, 0u);

  stack.gate.Open();
  pipeline.Flush();
  for (const auto& ticket : tickets) {
    EXPECT_EQ(ticket->Wait(), TicketState::kDone);
    EXPECT_TRUE(ticket->response().ok());
  }
  // Admission recovered once the queue drained.
  auto late = pipeline.Submit(stack.Request(4));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value()->Wait(), TicketState::kDone);
}

TEST(ServingPipelineTest, ShedOldestDropsTheOldestQueuedTicket) {
  GatedStack stack;
  ServingPipeline pipeline(
      stack.engine.get(), nullptr,
      TinyPipelineConfig(BackpressurePolicy::kShedOldest));
  auto tickets = FillQueue(&pipeline, &stack);

  // Queue holds [r1, r2]; admitting r3 must shed r1 (oldest queued —
  // r0 is already serving and is not sheddable).
  auto r3 = pipeline.Submit(stack.Request(3));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(tickets[1]->Wait(), TicketState::kShed);
  ASSERT_FALSE(tickets[1]->response().ok());
  EXPECT_EQ(tickets[1]->response().status().code(),
            spa::StatusCode::kResourceExhausted);
  EXPECT_EQ(pipeline.stats().shed, 1u);
  EXPECT_EQ(pipeline.stats().shed_reads, 1u);
  EXPECT_EQ(pipeline.stats().shed_writes, 0u);

  stack.gate.Open();
  pipeline.Flush();
  EXPECT_EQ(tickets[0]->Wait(), TicketState::kDone);
  EXPECT_EQ(tickets[2]->Wait(), TicketState::kDone);
  EXPECT_EQ(r3.value()->Wait(), TicketState::kDone);
  EXPECT_EQ(r3.value()->response().value().user, 3u);
}

TEST(ServingPipelineTest, DegradeFallbackServesTheMostPressedWhenFull) {
  GatedStack stack;
  ServingPipeline pipeline(
      stack.engine.get(), nullptr,
      TinyPipelineConfig(BackpressurePolicy::kDegrade));
  auto tickets = FillQueue(&pipeline, &stack);

  // Queue holds [r1, r2], all deadline-free (infinite slack, ties
  // prefer the oldest queued). Admitting r3 degrades r1 — but unlike
  // kShedOldest, r1 gets a real (popularity fallback) response, on the
  // submitting thread, while the worker is still parked.
  auto r3 = pipeline.Submit(stack.Request(3));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(tickets[1]->Wait(), TicketState::kDone);
  ASSERT_TRUE(tickets[1]->response().ok());
  const RecommendResponse& degraded = tickets[1]->response().value();
  EXPECT_TRUE(degraded.degraded);
  // Deterministic vs the engine's own fallback tier at the same state.
  const auto reference = stack.engine->RecommendFallback(stack.Request(1));
  ASSERT_TRUE(reference.ok());
  ExpectBitwiseEqual(degraded, reference.value(), "degraded r1");

  stack.gate.Open();
  pipeline.Flush();
  EXPECT_EQ(tickets[0]->Wait(), TicketState::kDone);
  EXPECT_EQ(tickets[2]->Wait(), TicketState::kDone);
  EXPECT_EQ(r3.value()->Wait(), TicketState::kDone);
  EXPECT_FALSE(tickets[0]->response().value().degraded);
  EXPECT_FALSE(r3.value()->response().value().degraded);

  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.fallback_served, 1u);
  EXPECT_EQ(stats.expired_drops, 0u);
  EXPECT_EQ(stats.shed, 0u);  // a fallback serve is a response, not a shed
  EXPECT_EQ(stats.responses, 4u);
  // Fallback serves carry full histogram coverage.
  EXPECT_EQ(stats.end_to_end.total(), stats.responses);
  EXPECT_EQ(stats.queue_wait.total(), stats.responses);
}

TEST(ServingPipelineTest, DegradeDropsExpiredVictimsAtAdmission) {
  GatedStack stack;
  ServingPipeline pipeline(
      stack.engine.get(), nullptr,
      TinyPipelineConfig(BackpressurePolicy::kDegrade));
  // Park the worker on a deadline-free read.
  auto r0 = pipeline.Submit(stack.Request(0));
  ASSERT_TRUE(r0.ok());
  while (pipeline.queue_depth() != 0) std::this_thread::yield();
  // r1 carries a knife-edge deadline and expires while queued; r2 is
  // deadline-free.
  auto r1 = pipeline.SubmitWithDeadline(stack.Request(1),
                                        /*deadline_seconds=*/0.001);
  ASSERT_TRUE(r1.ok());
  auto r2 = pipeline.Submit(stack.Request(2));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(pipeline.queue_depth(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // r3 overflows the queue: the victim is r1 (least slack, long
  // expired), and expired work is dropped, not fallback-served.
  auto r3 = pipeline.Submit(stack.Request(3));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r1.value()->Wait(), TicketState::kShed);
  ASSERT_FALSE(r1.value()->response().ok());
  EXPECT_EQ(r1.value()->response().status().code(),
            spa::StatusCode::kResourceExhausted);

  stack.gate.Open();
  pipeline.Flush();
  EXPECT_EQ(r0.value()->Wait(), TicketState::kDone);
  EXPECT_EQ(r2.value()->Wait(), TicketState::kDone);
  EXPECT_EQ(r3.value()->Wait(), TicketState::kDone);

  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.expired_drops, 1u);
  EXPECT_EQ(stats.shed_reads, 1u);
  EXPECT_EQ(stats.fallback_served, 0u);
  EXPECT_EQ(stats.responses, 3u);
  // Drops record no histograms: totals still reconcile.
  EXPECT_EQ(stats.queue_wait.total(), stats.responses);
  EXPECT_EQ(stats.end_to_end.total(), stats.responses);
}

TEST(ServingPipelineTest, DegradeDropsExpiredReadsAtDrainTime) {
  GatedStack stack;
  PipelineConfig config = TinyPipelineConfig(BackpressurePolicy::kDegrade);
  // Plain Submit inherits the configured default deadline.
  config.default_deadline_seconds = 0.001;
  ServingPipeline pipeline(stack.engine.get(), nullptr, config);
  // The parked read is explicitly deadline-free so it reliably holds
  // the worker regardless of scheduling delays.
  auto r0 = pipeline.SubmitWithDeadline(stack.Request(0),
                                        /*deadline_seconds=*/0.0);
  ASSERT_TRUE(r0.ok());
  while (pipeline.queue_depth() != 0) std::this_thread::yield();
  // r1 expires while queued — the queue never overflows, so the drain
  // loop's slack classifier (not admission) must catch it.
  auto r1 = pipeline.Submit(stack.Request(1));
  ASSERT_TRUE(r1.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  stack.gate.Open();
  pipeline.Flush();
  EXPECT_EQ(r0.value()->Wait(), TicketState::kDone);
  EXPECT_EQ(r1.value()->Wait(), TicketState::kShed);
  EXPECT_EQ(r1.value()->response().status().code(),
            spa::StatusCode::kResourceExhausted);
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.expired_drops, 1u);
  EXPECT_EQ(stats.fallback_served, 0u);
  EXPECT_EQ(stats.responses, 1u);
}

TEST(ServingPipelineTest, DegradeWriterLaneShedsOldestWriteDeadlineFree) {
  GatedStack stack;
  ServingPipeline pipeline(
      stack.engine.get(), nullptr,
      TinyPipelineConfig(BackpressurePolicy::kDegrade));
  // Writes carry no deadline: a full writer lane under kDegrade falls
  // back to shed-oldest semantics, never to fallback serving.
  auto r0 = pipeline.Submit(stack.Request(0));
  ASSERT_TRUE(r0.ok());
  while (pipeline.queue_depth() != 0) std::this_thread::yield();
  std::vector<StreamTicketPtr> writes;
  for (int i = 0; i < 2; ++i) {
    auto w = pipeline.SubmitInteractions(
        {{static_cast<UserId>(i), static_cast<ItemId>(1), 1.0}});
    ASSERT_TRUE(w.ok());
    writes.push_back(w.value());
  }
  auto overflow = pipeline.SubmitInteractions(
      {{static_cast<UserId>(3), static_cast<ItemId>(1), 1.0}});
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(writes[0]->Wait(), TicketState::kShed);
  EXPECT_EQ(writes[0]->update_report().status().code(),
            spa::StatusCode::kResourceExhausted);

  stack.gate.Open();
  pipeline.Flush();
  EXPECT_EQ(writes[1]->Wait(), TicketState::kDone);
  EXPECT_EQ(overflow.value()->Wait(), TicketState::kDone);
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.shed_writes, 1u);
  EXPECT_EQ(stats.fallback_served, 0u);
  EXPECT_EQ(stats.expired_drops, 0u);
  EXPECT_EQ(stats.updates_applied, 2u);
}

TEST(ServingPipelineTest, WriterLaneRejectionsCountInTheWriteLane) {
  GatedStack stack;
  ServingPipeline pipeline(
      stack.engine.get(), nullptr,
      TinyPipelineConfig(BackpressurePolicy::kReject));
  // Park the single worker on a gated read, then fill the writer
  // queue (capacity 2) behind it.
  auto r0 = pipeline.Submit(stack.Request(0));
  ASSERT_TRUE(r0.ok());
  while (pipeline.queue_depth() != 0) std::this_thread::yield();
  std::vector<StreamTicketPtr> writes;
  for (int i = 0; i < 2; ++i) {
    auto w = pipeline.SubmitInteractions(
        {{static_cast<UserId>(i), static_cast<ItemId>(1), 1.0}});
    ASSERT_TRUE(w.ok());
    writes.push_back(w.value());
  }
  EXPECT_EQ(pipeline.writer_queue_depth(), 2u);

  auto overflow = pipeline.SubmitInteractions(
      {{static_cast<UserId>(3), static_cast<ItemId>(1), 1.0}});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(),
            spa::StatusCode::kResourceExhausted);
  EXPECT_EQ(pipeline.stats().rejected_writes, 1u);
  EXPECT_EQ(pipeline.stats().rejected_reads, 0u);
  EXPECT_EQ(pipeline.stats().rejected, 1u);

  stack.gate.Open();
  pipeline.Flush();
  for (const auto& w : writes) {
    EXPECT_EQ(w->Wait(), TicketState::kDone);
    EXPECT_TRUE(w->update_report().ok());
  }
  // The high-water mark saw the full writer queue.
  EXPECT_EQ(pipeline.stats().max_writer_queue_depth, 2u);
}

TEST(ServingPipelineTest, WriterLaneDrainsBeforeQueuedReads) {
  GatedStack stack;
  ServingPipeline pipeline(stack.engine.get(), nullptr,
                           TinyPipelineConfig(BackpressurePolicy::kBlock));

  std::mutex order_mu;
  std::vector<std::string> completion_order;
  auto record = [&](std::string label) {
    return [&order_mu, &completion_order,
            label = std::move(label)](const StreamTicket&) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.push_back(label);
    };
  };

  auto r0 = pipeline.Submit(stack.Request(0), record("r0"));
  ASSERT_TRUE(r0.ok());
  while (pipeline.queue_depth() != 0) std::this_thread::yield();
  // r0 is parked on the gate; now queue a read, then a write. Despite
  // the read being older, the write drains first (writer priority).
  auto r1 = pipeline.Submit(stack.Request(1), record("r1"));
  ASSERT_TRUE(r1.ok());
  auto w0 = pipeline.SubmitInteractions(
      {{static_cast<UserId>(0), static_cast<ItemId>(1), 1.0}},
      record("w0"));
  ASSERT_TRUE(w0.ok());

  stack.gate.Open();
  pipeline.Flush();
  ASSERT_TRUE(w0.value()->update_report().ok());
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], "r0");
  EXPECT_EQ(completion_order[1], "w0");
  EXPECT_EQ(completion_order[2], "r1");
}

TEST(ServingPipelineTest, MicroBatchPinsOneSnapshotPerBatch) {
  // All requests drained as one micro-batch share one BatchPin.
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  InteractionMatrix matrix = MakeMatrix(7, /*shards=*/1);
  sum::SumService sums(&catalog);
  BootstrapSums(&sums, catalog, 7);
  auto engine = MakeEngine(&sums, &matrix, 7, /*cache_capacity=*/64);

  PipelineConfig config;
  config.workers = 1;
  config.max_batch = 16;
  ServingPipeline pipeline(engine.get(), &sums, config);
  std::vector<StreamTicketPtr> tickets;
  for (UserId u = 0; u < 8; ++u) {
    auto ticket = pipeline.Submit(
        [&] {
          RecommendRequest request;
          request.user = u;
          request.k = 3;
          return request;
        }());
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  pipeline.Flush();
  for (const auto& ticket : tickets) {
    ASSERT_EQ(ticket->Wait(), TicketState::kDone);
    EXPECT_EQ(ticket->pinned().sum_version, tickets[0]->pinned().sum_version);
    EXPECT_EQ(ticket->pinned().matrix_version,
              tickets[0]->pinned().matrix_version);
    EXPECT_EQ(ticket->pinned().matrix_version, matrix.version());
  }
  EXPECT_GE(pipeline.stats().batches, 1u);
  EXPECT_EQ(pipeline.stats().responses, 8u);
}

TEST(ServingPipelineTest, StatsHistogramTotalsMatchCounters) {
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  InteractionMatrix matrix = MakeMatrix(9, /*shards=*/2);
  sum::SumService sums(&catalog);
  BootstrapSums(&sums, catalog, 9);
  auto engine = MakeEngine(&sums, &matrix, 9, /*cache_capacity=*/64);

  PipelineConfig config;
  config.workers = 2;
  ServingPipeline pipeline(engine.get(), &sums, config);
  for (UserId u = 0; u < 20; ++u) {
    RecommendRequest request;
    request.user = u % static_cast<UserId>(kUsers);
    request.k = 3;
    ASSERT_TRUE(pipeline.Submit(std::move(request)).ok());
  }
  ASSERT_TRUE(pipeline
                  .SubmitInteractions(
                      {{static_cast<UserId>(1), static_cast<ItemId>(2),
                        1.0}})
                  .ok());
  pipeline.Flush();
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.responses, 20u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.end_to_end.total(), stats.responses);
  EXPECT_EQ(stats.batch_serve.total(), stats.batches);
  EXPECT_EQ(stats.update_apply.total(), stats.updates_applied);
  // Every admitted op waited in the queue exactly once.
  EXPECT_EQ(stats.queue_wait.total(), stats.responses + stats.updates_applied);
  EXPECT_LE(stats.end_to_end.Quantile(0.5),
            stats.end_to_end.Quantile(0.99));
}

TEST(ServingPipelineTest, SubmitAfterShutdownFailsCleanly) {
  GatedStack stack;
  stack.gate.Open();
  ServingPipeline pipeline(stack.engine.get(), nullptr,
                           TinyPipelineConfig(BackpressurePolicy::kBlock));
  auto ticket = pipeline.Submit(stack.Request(0));
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket.value()->Wait(), TicketState::kDone);
  pipeline.Shutdown();
  const auto late = pipeline.Submit(stack.Request(1));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), spa::StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline.worker_count(), 0u);
}

TEST(ServingPipelineTest, DestructorDrainsAdmittedTickets) {
  GatedStack stack;
  std::vector<StreamTicketPtr> tickets;
  {
    ServingPipeline pipeline(
        stack.engine.get(), nullptr,
        TinyPipelineConfig(BackpressurePolicy::kBlock));
    tickets = FillQueue(&pipeline, &stack);
    stack.gate.Open();
    // The destructor must complete r0..r2 before the workers stop.
  }
  for (const auto& ticket : tickets) {
    EXPECT_EQ(ticket->state(), TicketState::kDone);
    EXPECT_TRUE(ticket->response().ok());
  }
}

// ---- TSAN stress (in the CI TSAN job's regex) ------------------------------

TEST(ServingPipelineTest, TsanStressServeWhileStreamingUpdates) {
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  InteractionMatrix matrix = MakeMatrix(21, /*shards=*/4);
  sum::SumService sums(&catalog);
  BootstrapSums(&sums, catalog, 21);
  auto engine = MakeEngine(&sums, &matrix, 21, /*cache_capacity=*/128);

  PipelineConfig config;
  config.workers = 4;
  config.queue_capacity = 16;
  config.writer_queue_capacity = 16;
  config.policy = BackpressurePolicy::kBlock;
  config.max_batch = 4;
  ServingPipeline pipeline(engine.get(), &sums, config);

  constexpr int kProducers = 3;
  constexpr int kOpsPerProducer = 120;
  std::atomic<bool> stop_polling{false};
  std::atomic<uint64_t> producer_failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(100 + static_cast<uint64_t>(p));
      const auto attributes = eit::AllEmotionalAttributes();
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const double roll = rng.Uniform();
        if (roll < 0.8) {
          RecommendRequest request;
          request.user = static_cast<UserId>(
              rng.UniformInt(0, static_cast<int64_t>(kUsers) - 1));
          request.k = 4;
          if (!pipeline.Submit(std::move(request)).ok()) {
            producer_failures.fetch_add(1);
          }
        } else if (roll < 0.9) {
          std::vector<Interaction> batch{
              {static_cast<UserId>(rng.UniformInt(
                   0, static_cast<int64_t>(kUsers) - 1)),
               static_cast<ItemId>(rng.UniformInt(
                   0, static_cast<int64_t>(kItems) - 1)),
               rng.Uniform(0.2, 3.0)}};
          if (!pipeline.SubmitInteractions(std::move(batch)).ok()) {
            producer_failures.fetch_add(1);
          }
        } else {
          const auto attr = attributes[static_cast<size_t>(
              rng.UniformInt(0,
                             static_cast<int64_t>(attributes.size()) -
                                 1))];
          std::vector<sum::SumUpdate> updates;
          updates.push_back(
              sum::SumUpdate(static_cast<sum::UserId>(rng.UniformInt(
                                 0, static_cast<int64_t>(kUsers) - 1)))
                  .Reward(catalog.EmotionalId(attr), 0.2));
          if (!pipeline.SubmitSumUpdates(std::move(updates)).ok()) {
            producer_failures.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread poller([&] {
    while (!stop_polling.load(std::memory_order_relaxed)) {
      (void)pipeline.stats();
      (void)pipeline.queue_depth();
      (void)pipeline.writer_queue_depth();
      (void)engine->profiler().Snapshot(ProfilerLevel::kL2);
      std::this_thread::yield();
    }
  });
  for (std::thread& producer : producers) producer.join();
  pipeline.Flush();
  stop_polling.store(true);
  poller.join();

  EXPECT_EQ(producer_failures.load(), 0u);
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kProducers * kOpsPerProducer));
  EXPECT_EQ(stats.admitted, stats.submitted);  // block policy
  EXPECT_EQ(stats.responses + stats.updates_applied, stats.admitted);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

}  // namespace
}  // namespace spa::recsys
