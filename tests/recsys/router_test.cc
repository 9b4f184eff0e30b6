#include "recsys/router/serving_router.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "eit/emotion.h"
#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/router/ownership_directory.h"
#include "sum/sum_service.h"

/// The router tier. Load-bearing claims tested here:
///
///  * **Directory determinism**: the user->worker resolution is a pure
///    function of (user, worker count) — pinned by golden values — and
///    roughly balanced.
///  * **Routed parity**: every routed response is bitwise-identical to
///    a single-process engine serving the same request at the same
///    pinned (matrix version, SUM version) pair — asserted by the
///    randomized differential harness below over interleaved Submit /
///    ApplyInteractions / SubmitSumUpdates schedules (the router-tier
///    extension of the pipeline harness).
///  * **Replica convergence**: every replica bootstraps to the same
///    matrix version, and fanned interaction batches land on every
///    worker with the same post-apply matrix version.
///  * **Race freedom**: the TSAN stress case (routed reads and writes
///    from concurrent producers) runs under TSAN in CI (ServingRouter*
///    is in the TSAN job's ctest regex).

namespace spa::recsys {
namespace {

constexpr size_t kUsers = 100;
constexpr size_t kItems = 50;

// ---- shared deterministic fixtures -----------------------------------------

/// The ordered interaction log every replica bootstraps from (the
/// router-tier analogue of the pipeline harness's MakeMatrix: same
/// generator, as a replayable log instead of a built matrix).
std::vector<Interaction> MakeBootstrapLog(uint64_t seed) {
  Rng rng(seed, /*stream=*/1);
  std::vector<Interaction> log;
  log.reserve(kUsers * 6);
  for (size_t u = 0; u < kUsers; ++u) {
    const auto base =
        static_cast<ItemId>((u % 2 == 0) ? 0 : kItems / 2);
    for (int j = 0; j < 6; ++j) {
      const auto item = static_cast<ItemId>(
          base +
          rng.UniformInt(0, static_cast<int64_t>(kItems) / 2 - 1));
      log.push_back(Interaction{static_cast<UserId>(u), item,
                                rng.Uniform(0.2, 3.0)});
    }
  }
  return log;
}

InteractionMatrix MatrixFromLog(const std::vector<Interaction>& log,
                                size_t shards) {
  InteractionMatrix m(shards);
  for (const Interaction& it : log) m.Add(it.user, it.item, it.weight);
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

/// The stack every worker (and the single-process reference) builds:
/// two KNN components plus deterministic item emotion profiles.
std::function<void(RecsysEngine&)> MakeStackBuilder(uint64_t seed) {
  return [seed](RecsysEngine& engine) {
    engine.AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine.AddComponent(std::make_unique<ItemKnnRecommender>(), 0.4);
    Rng rng(seed, /*stream=*/3);
    for (size_t i = 0; i < kItems; ++i) {
      EmotionProfile profile{};
      for (double& p : profile) p = rng.Uniform();
      engine.SetItemEmotionProfile(static_cast<ItemId>(i), profile);
    }
  };
}

/// Single-process reference engine over the same log and stack (cache
/// off: the reference must always recompute).
std::unique_ptr<RecsysEngine> MakeReferenceEngine(
    const sum::SumService* sums, InteractionMatrix* matrix,
    uint64_t seed, size_t shards) {
  EngineConfig config;
  config.response_cache_capacity = 0;
  config.interaction_shards = shards;
  auto engine = std::make_unique<RecsysEngine>(config);
  MakeStackBuilder(seed)(*engine);
  engine->set_sum_service(sums);
  EXPECT_TRUE(engine->Fit(matrix).ok());
  return engine;
}

RouterConfig MakeRouterConfig(uint64_t seed, size_t workers,
                              size_t cache_capacity = 256) {
  RouterConfig config;
  config.workers = workers;
  config.engine.response_cache_capacity = cache_capacity;
  config.engine.interaction_shards = 1 + seed % 4;
  config.queue.workers = 1;
  config.queue.queue_capacity = 16;
  config.queue.writer_queue_capacity = 16;
  config.queue.max_batch = 4;
  config.stack_builder = MakeStackBuilder(seed);
  return config;
}

void ExpectBitwiseEqual(const RecommendResponse& routed,
                        const RecommendResponse& reference,
                        const std::string& context) {
  EXPECT_EQ(routed.user, reference.user) << context;
  EXPECT_EQ(routed.emotion_applied, reference.emotion_applied)
      << context;
  EXPECT_EQ(routed.explained, reference.explained) << context;
  ASSERT_EQ(routed.items.size(), reference.items.size()) << context;
  for (size_t i = 0; i < routed.items.size(); ++i) {
    const RecommendedItem& a = routed.items[i];
    const RecommendedItem& b = reference.items[i];
    EXPECT_EQ(a.item, b.item) << context << " rank " << i;
    EXPECT_EQ(a.score, b.score) << context << " rank " << i;  // bitwise
  }
}

// ---- OwnershipDirectory ----------------------------------------------------

TEST(OwnershipDirectoryTest, ShardOfIsTheSplitMix64Fold) {
  OwnershipDirectory directory(/*workers=*/3);
  for (UserId user = 0; user < 20; ++user) {
    EXPECT_EQ(directory.ShardOf(user),
              SplitMix64(static_cast<uint64_t>(user)) % kVirtualShards);
  }
}

TEST(OwnershipDirectoryTest, GoldenAssignmentIsPinnedAcrossBuilds) {
  // The assignment is wire format for a multi-process deployment: two
  // routers must agree on "who owns user X" from the worker count
  // alone. If this test fails the rendezvous arithmetic changed — that
  // is a breaking protocol change, not a fixable test.
  OwnershipDirectory directory(/*workers=*/3);
  const WorkerId kGoldenOwners[8] = {0, 1, 2, 0, 2, 2, 2, 2};
  for (uint32_t shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(directory.OwnerOfShard(shard), kGoldenOwners[shard])
        << "shard " << shard;
  }
}

TEST(OwnershipDirectoryTest, AssignmentIsRoughlyBalanced) {
  OwnershipDirectory directory(/*workers=*/4);  // 128 virtual shards
  size_t total = 0;
  for (WorkerId w = 0; w < 4; ++w) {
    const size_t owned = directory.ShardsOwnedBy(w).size();
    total += owned;
    // Expected 32 per worker; rendezvous keeps every worker within a
    // loose band (the concrete assignment is pinned by construction,
    // so this cannot flake).
    EXPECT_GE(owned, 16u) << "worker " << w;
    EXPECT_LE(owned, 48u) << "worker " << w;
  }
  EXPECT_EQ(total, 128u);
}

// ---- ServingRouter: routing and fan-out ------------------------------------

struct RouterFixture {
  explicit RouterFixture(uint64_t seed, size_t workers)
      : catalog(sum::AttributeCatalog::EmagisterDefault()),
        sums(&catalog),
        log(MakeBootstrapLog(seed)) {
    BootstrapSums(&sums, catalog, seed);
    auto created = ServingRouter::Create(
        MakeRouterConfig(seed, workers), log, &sums);
    EXPECT_TRUE(created.ok()) << created.status();
    if (created.ok()) router = std::move(created).value();
  }

  RecommendRequest Request(UserId user, size_t k = 5) const {
    RecommendRequest request;
    request.user = user;
    request.k = k;
    return request;
  }

  sum::AttributeCatalog catalog;
  sum::SumService sums;
  std::vector<Interaction> log;
  std::unique_ptr<ServingRouter> router;
};

TEST(ServingRouterTest, CreateRequiresStackBuilder) {
  RouterConfig config;
  config.workers = 1;
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  sum::SumService sums(&catalog);
  auto created =
      ServingRouter::Create(config, MakeBootstrapLog(1), &sums);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), spa::StatusCode::kInvalidArgument);
}

TEST(ServingRouterDeathTest, ZeroWorkersAborts) {
  RouterConfig config;
  config.workers = 0;
  config.stack_builder = MakeStackBuilder(1);
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  sum::SumService sums(&catalog);
  EXPECT_DEATH(
      { auto r = ServingRouter::Create(config, MakeBootstrapLog(1), &sums); },
      ">= 1 worker");
}

TEST(ServingRouterTest, RoutedServingMatchesSingleProcessBitwise) {
  const uint64_t seed = 11;
  RouterFixture fx(seed, /*workers=*/3);
  ASSERT_NE(fx.router, nullptr);

  // Quiescent parity: route one request per user, then serve the same
  // requests on a single-process engine at the same (only) pin.
  std::vector<std::pair<RecommendRequest, StreamTicketPtr>> routed;
  for (UserId user = 0; user < static_cast<UserId>(kUsers); ++user) {
    auto ticket = fx.router->Submit(fx.Request(user));
    ASSERT_TRUE(ticket.ok());
    routed.emplace_back(fx.Request(user), std::move(ticket).value());
  }
  fx.router->Flush();

  InteractionMatrix ref_matrix =
      MatrixFromLog(fx.log, 1 + seed % 4);
  auto ref_engine = MakeReferenceEngine(&fx.sums, &ref_matrix, seed,
                                        1 + seed % 4);
  for (auto& [request, ticket] : routed) {
    ASSERT_EQ(ticket->Wait(), TicketState::kDone);
    ASSERT_TRUE(ticket->response().ok());
    EXPECT_EQ(ticket->pinned().matrix_version, ref_matrix.version());
    const auto reference = ref_engine->Recommend(request);
    ASSERT_TRUE(reference.ok());
    ExpectBitwiseEqual(ticket->response().value(), reference.value(),
                       "user " + std::to_string(request.user));
  }

  const RouterStats stats = fx.router->stats();
  EXPECT_EQ(stats.reads_routed, kUsers);
  uint64_t responses = 0;
  for (const auto& ws : stats.workers) {
    responses += ws.pipeline.responses;
  }
  EXPECT_EQ(responses, kUsers);
  EXPECT_EQ(stats.end_to_end.total(), kUsers);
}

TEST(ServingRouterTest, ReadsLandOnTheDirectoryOwner) {
  RouterFixture fx(3, /*workers=*/4);
  ASSERT_NE(fx.router, nullptr);
  // Count served responses per worker; they must match the ownership
  // split of the submitted users exactly (reads are never proxied).
  std::unordered_map<WorkerId, uint64_t> expected;
  for (UserId user = 0; user < static_cast<UserId>(kUsers); ++user) {
    expected[fx.router->OwnerOf(user)]++;
    ASSERT_TRUE(fx.router->Submit(fx.Request(user)).ok());
  }
  fx.router->Flush();
  for (const auto& ws : fx.router->stats().workers) {
    EXPECT_EQ(ws.pipeline.responses, expected[ws.worker])
        << "worker " << ws.worker;
  }
}

TEST(ServingRouterTest, FanoutAppliesOnEveryReplicaWithAgreedVersion) {
  RouterFixture fx(5, /*workers=*/3);
  ASSERT_NE(fx.router, nullptr);
  const uint64_t bootstrap_version = fx.log.size();
  // Every replica replayed the whole bootstrap log in Create.
  for (WorkerId id = 0; id < fx.router->worker_count(); ++id) {
    EXPECT_EQ(fx.router->worker(id)->matrix().version(), bootstrap_version)
        << "worker " << id;
  }

  std::vector<Interaction> batch{
      {static_cast<UserId>(1), static_cast<ItemId>(2), 1.5},
      {static_cast<UserId>(200), static_cast<ItemId>(60), 0.7}};
  auto fanout = fx.router->SubmitInteractions(batch);
  ASSERT_TRUE(fanout.ok());
  ASSERT_EQ(fanout->tickets().size(), 3u);
  fanout->Wait();
  EXPECT_TRUE(fanout->ok());
  EXPECT_EQ(fanout->matrix_version(), bootstrap_version + batch.size());

  for (WorkerId id = 0; id < fx.router->worker_count(); ++id) {
    const WorkerNode* node = fx.router->worker(id);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->matrix().version(),
              bootstrap_version + batch.size());
    EXPECT_TRUE(node->matrix().Seen(200, 60));
  }
  EXPECT_EQ(fx.router->worker(3), nullptr);
  EXPECT_EQ(fx.router->stats().writes_fanned, 1u);
}

TEST(ServingRouterTest, SumUpdatesRouteToTheOwnerLaneOnly) {
  RouterFixture fx(7, /*workers=*/3);
  ASSERT_NE(fx.router, nullptr);
  const uint64_t version_before = fx.sums.version();

  std::vector<sum::SumUpdate> updates;
  updates.push_back(
      sum::SumUpdate(4).Reward(fx.catalog.EmotionalId(
                                   eit::EmotionalAttribute::kMotivated),
                               0.5));
  auto ticket = fx.router->SubmitSumUpdates(std::move(updates));
  ASSERT_TRUE(ticket.ok());
  ASSERT_EQ((*ticket)->Wait(), TicketState::kDone);
  ASSERT_TRUE((*ticket)->sum_status().ok());
  // Exactly one publish on the *shared* service: routing to one lane
  // is what keeps a fanned deployment from double-applying.
  EXPECT_EQ(fx.sums.version(), version_before + 1);

  uint64_t lanes_with_updates = 0;
  for (const auto& ws : fx.router->stats().workers) {
    if (ws.pipeline.updates_applied > 0) {
      ++lanes_with_updates;
      EXPECT_EQ(ws.worker, fx.router->OwnerOf(4));
    }
  }
  EXPECT_EQ(lanes_with_updates, 1u);
  EXPECT_EQ(fx.router->stats().sum_routed, 1u);

  EXPECT_EQ(fx.router->SubmitSumUpdates({}).status().code(),
            spa::StatusCode::kInvalidArgument);
}

TEST(ServingRouterTest, SubmitAfterShutdownFailsCleanly) {
  RouterFixture fx(19, /*workers=*/2);
  ASSERT_NE(fx.router, nullptr);
  fx.router->Shutdown();
  EXPECT_EQ(fx.router->Submit(fx.Request(1)).status().code(),
            spa::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fx.router->SubmitInteractions({{1, 2, 1.0}}).status().code(),
            spa::StatusCode::kFailedPrecondition);
  std::vector<sum::SumUpdate> updates;
  updates.push_back(sum::SumUpdate(1).Reward(
      fx.catalog.EmotionalId(eit::EmotionalAttribute::kMotivated), 0.5));
  EXPECT_EQ(fx.router->SubmitSumUpdates(std::move(updates)).status().code(),
            spa::StatusCode::kFailedPrecondition);
  fx.router->Flush();  // returns at once: every lane is shut and empty
}

// ---- randomized differential harness (router tier) -------------------------

enum class RouterOpKind { kRead, kInteractions, kSumUpdates };

struct RouterScheduleOp {
  RouterOpKind kind = RouterOpKind::kRead;
  RecommendRequest request;
  std::vector<Interaction> interactions;
  std::vector<sum::SumUpdate> sum_updates;
};

std::vector<RouterScheduleOp> MakeRouterSchedule(
    uint64_t seed, const sum::AttributeCatalog& catalog, size_t ops) {
  Rng rng(seed, /*stream=*/4);
  std::vector<RouterScheduleOp> schedule;
  schedule.reserve(ops);
  UserId next_new_user = static_cast<UserId>(kUsers);
  ItemId next_new_item = static_cast<ItemId>(kItems);
  const auto attributes = eit::AllEmotionalAttributes();
  for (size_t i = 0; i < ops; ++i) {
    const double roll = rng.Uniform();
    RouterScheduleOp op;
    if (roll < 0.7) {
      op.kind = RouterOpKind::kRead;
      op.request.user = static_cast<UserId>(
          rng.UniformInt(0, static_cast<int64_t>(kUsers) - 1));
      op.request.k = static_cast<size_t>(rng.UniformInt(1, 8));
      op.request.exclude_seen =
          rng.Bernoulli(0.85) ? ExcludeSeen::kYes : ExcludeSeen::kNo;
      op.request.explain = rng.Bernoulli(0.15);
    } else if (roll < 0.88) {
      op.kind = RouterOpKind::kInteractions;
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
      op.kind = RouterOpKind::kSumUpdates;
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

struct RoutedRead {
  size_t op_index = 0;
  RecommendRequest request;
  RecommendResponse response;
  BatchPin pin;
};

/// Runs one schedule (reads, fanned interaction batches and SUM
/// publishes) through a live router, then rebuilds every
/// pinned state on a single-process reference stack:
///
///  * interaction writes are replayed in post-apply version order
///    (the router's fan-out mutex totally orders them, and
///    the FanoutTicket's agreed version is the order key);
///  * SUM publishes are replayed in service-version order, keeping a
///    snapshot per version so each read can be re-served against the
///    exact emotional context it pinned (`emotion_override`) — with
///    per-worker lanes, a read on one worker may pin a newer matrix
///    with an older SUM view than a read elsewhere, so the two axes
///    replay independently;
///
/// and asserts every routed response is bitwise-identical to the
/// single-process serve at its pin.
void RunRouterDifferentialSchedule(uint64_t seed) {
  // Each run of four consecutive seeds shares a worker count and walks
  // all four shard counts, so every worker count (1-4) meets every
  // shard count (1-4).
  const size_t shards = 1 + seed % 4;
  const size_t workers = 1 + (seed / 4) % 4;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " workers=" +
               std::to_string(workers) + " shards=" +
               std::to_string(shards));
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  const std::vector<Interaction> bootstrap = MakeBootstrapLog(seed);

  // ---- live routed run -----------------------------------------------------
  sum::SumService live_sums(&catalog);
  BootstrapSums(&live_sums, catalog, seed);
  auto created = ServingRouter::Create(MakeRouterConfig(seed, workers),
                                       bootstrap, &live_sums);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<ServingRouter> router = std::move(created).value();

  const std::vector<RouterScheduleOp> schedule =
      MakeRouterSchedule(seed, catalog, /*ops=*/40);

  std::vector<std::pair<size_t, StreamTicketPtr>> read_tickets;
  std::vector<std::pair<size_t, FanoutTicket>> fanout_tickets;
  std::vector<std::pair<size_t, StreamTicketPtr>> sum_tickets;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RouterScheduleOp& op = schedule[i];
    switch (op.kind) {
      case RouterOpKind::kRead: {
        auto ticket = router->Submit(op.request);
        ASSERT_TRUE(ticket.ok());
        read_tickets.emplace_back(i, std::move(ticket).value());
        break;
      }
      case RouterOpKind::kInteractions: {
        auto fanout = router->SubmitInteractions(op.interactions);
        ASSERT_TRUE(fanout.ok());
        fanout_tickets.emplace_back(i, std::move(fanout).value());
        break;
      }
      case RouterOpKind::kSumUpdates: {
        auto ticket = router->SubmitSumUpdates(op.sum_updates);
        ASSERT_TRUE(ticket.ok());
        sum_tickets.emplace_back(i, std::move(ticket).value());
        break;
      }
    }
  }
  router->Flush();

  std::vector<RoutedRead> reads;
  for (auto& [index, ticket] : read_tickets) {
    ASSERT_EQ(ticket->Wait(), TicketState::kDone);
    ASSERT_TRUE(ticket->response().ok());
    ASSERT_EQ(ticket->pinned().fit_epoch, 1u);
    reads.push_back({index, schedule[index].request,
                     ticket->response().value(), ticket->pinned()});
  }

  struct MatrixWrite {
    std::vector<Interaction> interactions;
    uint64_t version = 0;  ///< agreed post-apply matrix version
  };
  std::vector<MatrixWrite> matrix_writes;
  for (auto& [index, fanout] : fanout_tickets) {
    fanout.Wait();
    ASSERT_TRUE(fanout.ok());
    matrix_writes.push_back(
        {schedule[index].interactions, fanout.matrix_version()});
  }
  std::sort(matrix_writes.begin(), matrix_writes.end(),
            [](const MatrixWrite& a, const MatrixWrite& b) {
              return a.version < b.version;
            });
  // Replica convergence: after the flush every replica holds every
  // fanned interaction, so none can lag on a skipped batch.
  uint64_t head_version = bootstrap.size();
  for (const MatrixWrite& write : matrix_writes) {
    head_version += write.interactions.size();
  }
  for (WorkerId id = 0; id < router->worker_count(); ++id) {
    EXPECT_EQ(router->worker(id)->matrix().version(), head_version)
        << "worker " << id;
  }

  struct SumWrite {
    std::vector<sum::SumUpdate> updates;
    uint64_t version = 0;  ///< post-publish service version
  };
  std::vector<SumWrite> sum_writes;
  for (auto& [index, ticket] : sum_tickets) {
    ASSERT_EQ(ticket->Wait(), TicketState::kDone);
    ASSERT_TRUE(ticket->sum_status().ok());
    sum_writes.push_back(
        {schedule[index].sum_updates, ticket->pinned().sum_version});
  }
  std::sort(sum_writes.begin(), sum_writes.end(),
            [](const SumWrite& a, const SumWrite& b) {
              return a.version < b.version;
            });

  // ---- reference replay ----------------------------------------------------
  // SUM axis first: replay publishes in version order, snapshotting
  // after each so any pinned emotional context can be re-pinned.
  sum::SumService ref_sums(&catalog);
  BootstrapSums(&ref_sums, catalog, seed);
  std::unordered_map<uint64_t, sum::SumSnapshotPtr> snapshots;
  snapshots[ref_sums.version()] = ref_sums.snapshot();
  for (const SumWrite& write : sum_writes) {
    ASSERT_TRUE(ref_sums.ApplyAll(write.updates).ok());
    ASSERT_EQ(ref_sums.version(), write.version)
        << "replayed SUM version diverged from the live run";
    snapshots[write.version] = ref_sums.snapshot();
  }

  // Matrix axis: forward-replay fanned batches in version order,
  // serving each read at its pinned matrix state with its pinned
  // emotional context.
  InteractionMatrix ref_matrix = MatrixFromLog(bootstrap, shards);
  auto ref_engine =
      MakeReferenceEngine(&ref_sums, &ref_matrix, seed, shards);

  std::sort(reads.begin(), reads.end(),
            [](const RoutedRead& a, const RoutedRead& b) {
              return a.pin.matrix_version < b.pin.matrix_version;
            });
  size_t next_write = 0;
  size_t compared = 0;
  for (const RoutedRead& read : reads) {
    while (ref_matrix.version() < read.pin.matrix_version) {
      ASSERT_LT(next_write, matrix_writes.size())
          << "pinned state not reachable by replaying fanned batches";
      const MatrixWrite& write = matrix_writes[next_write++];
      const auto report = ref_engine->ApplyInteractions(write.interactions);
      ASSERT_TRUE(report.ok());
      ASSERT_EQ(report.value().matrix_version, write.version)
          << "replayed matrix version diverged from the live run";
    }
    ASSERT_EQ(ref_matrix.version(), read.pin.matrix_version);
    auto snapshot = snapshots.find(read.pin.sum_version);
    ASSERT_NE(snapshot, snapshots.end())
        << "read pinned a SUM version no publish produced";

    RecommendRequest request = read.request;
    request.emotion_override = snapshot->second;
    const auto reference = ref_engine->Recommend(request);
    ASSERT_TRUE(reference.ok());
    ExpectBitwiseEqual(read.response, reference.value(),
                       "op " + std::to_string(read.op_index));
    ++compared;
  }
  EXPECT_EQ(compared, reads.size());
  EXPECT_GT(compared, 0u);
}

TEST(ServingRouterDifferentialTest,
     RoutedResponsesMatchSingleProcessAtPinnedVersionsUnderInterleavedWrites) {
  // 18 seeded schedules over worker counts 1-4 crossed with matrix
  // shard counts 1-4.
  for (uint64_t seed = 0; seed < 18; ++seed) {
    RunRouterDifferentialSchedule(2000 + seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- TSAN stress (in the CI TSAN job's regex) ------------------------------

TEST(ServingRouterTest, TsanStressRoutedTrafficUnderWrites) {
  const uint64_t seed = 31;
  RouterFixture fx(seed, /*workers=*/2);
  ASSERT_NE(fx.router, nullptr);
  ServingRouter* router = fx.router.get();

  constexpr int kProducers = 2;
  constexpr int kOpsPerProducer = 80;
  std::atomic<uint64_t> failures{0};
  std::atomic<bool> stop_polling{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(300 + static_cast<uint64_t>(p));
      const auto attributes = eit::AllEmotionalAttributes();
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const double roll = rng.Uniform();
        if (roll < 0.75) {
          RecommendRequest request;
          request.user = static_cast<UserId>(
              rng.UniformInt(0, static_cast<int64_t>(kUsers) - 1));
          request.k = 4;
          if (!router->Submit(std::move(request)).ok()) {
            failures.fetch_add(1);
          }
        } else if (roll < 0.9) {
          std::vector<Interaction> batch{
              {static_cast<UserId>(rng.UniformInt(
                   0, static_cast<int64_t>(kUsers) - 1)),
               static_cast<ItemId>(rng.UniformInt(
                   0, static_cast<int64_t>(kItems) - 1)),
               rng.Uniform(0.2, 3.0)}};
          if (!router->SubmitInteractions(std::move(batch)).ok()) {
            failures.fetch_add(1);
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
                  .Reward(fx.catalog.EmotionalId(attr), 0.2));
          if (!router->SubmitSumUpdates(std::move(updates)).ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread poller([&] {
    while (!stop_polling.load(std::memory_order_relaxed)) {
      (void)router->stats();
      (void)router->OwnerOf(3);
      std::this_thread::yield();
    }
  });
  for (std::thread& producer : producers) producer.join();
  router->Flush();
  stop_polling.store(true);
  poller.join();

  EXPECT_EQ(failures.load(), 0u);
  const RouterStats stats = router->stats();
  EXPECT_EQ(stats.reads_routed + stats.writes_fanned + stats.sum_routed,
            static_cast<uint64_t>(kProducers * kOpsPerProducer));
  EXPECT_GT(stats.reads_routed, 0u);
}

}  // namespace
}  // namespace spa::recsys
