// Serving throughput through the RecsysEngine request/response API:
//
//   * sequential vs. thread-pool-batched serving (parity-checked),
//   * repeat traffic with the response cache enabled vs. disabled
//     (identical requests re-served after nothing changed),
//   * SUM update throughput through SumService::Apply / ApplyAll,
//     including the serve-after-invalidation cost,
//   * KNN cold traffic (every request a cache miss): fit-time
//     similarity index vs. lazy per-request recomputation, with an
//     exact ranking-parity gate (a mismatch fails the run), and
//   * live updates: interleaved ApplyInteractions + serving over a
//     sharded store, incremental index refresh vs. full refit, with
//     the same exact parity gate, and
//   * streaming: an open-loop arrival-rate sweep through the async
//     ServingPipeline (bounded admission queue, micro-batching, writer
//     lane for live updates), reporting p50/p95/p99 end-to-end and
//     queue-wait latencies from the pipeline's log-scale histograms,
//     with a quiescent streamed-vs-RecommendBatch bitwise parity gate,
//     and
//   * router: closed-loop aggregate throughput through the router tier
//     (OwnershipDirectory + shared-nothing worker replicas) at 1/2/4
//     workers, after fanning one live interaction batch to every
//     replica, with a bitwise parity gate against a single-process
//     engine serving the same requests at the same pinned versions.
//
// Everything lands in BENCH_serving.json so the perf trajectory is
// tracked.
//
//   ./build/bench/bench_serving [--users=N] [--seed=S] [--smoke]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/router/serving_router.h"
#include "recsys/serving_pipeline.h"
#include "sum/sum_service.h"

// ---- binary-wide allocation counter ----------------------------------------
// The warm-path allocation audit needs to observe every operator-new
// call, so this binary replaces the global allocation functions with
// counting wrappers over malloc/free (zero-overhead passthrough when
// counting is off). Mirrors tests/recsys/allocation_test.cc.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_new_calls{0};

void* BenchCountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* BenchCountedAllocAligned(std::size_t size, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  void* ptr = std::aligned_alloc(alignment, rounded);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return BenchCountedAlloc(size); }
void* operator new[](std::size_t size) { return BenchCountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return BenchCountedAllocAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return BenchCountedAllocAligned(size, align);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t,
                       std::align_val_t) noexcept {
  std::free(ptr);
}

namespace spa::bench {
namespace {

using Clock = std::chrono::steady_clock;

bool SameResults(
    const std::vector<spa::Result<recsys::RecommendResponse>>& a,
    const std::vector<spa::Result<recsys::RecommendResponse>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok() != b[i].ok()) return false;
    if (!a[i].ok()) continue;
    const auto& lhs = a[i].value().items;
    const auto& rhs = b[i].value().items;
    if (lhs.size() != rhs.size()) return false;
    for (size_t j = 0; j < lhs.size(); ++j) {
      if (lhs[j].item != rhs[j].item || lhs[j].score != rhs[j].score) {
        return false;
      }
    }
  }
  return true;
}

/// One indexed-vs-lazy cold-traffic measurement for a KNN variant.
struct KnnIndexPoint {
  const char* scenario = "";
  double lazy_fit_seconds = 0.0;
  double indexed_fit_seconds = 0.0;
  double index_build_seconds = 0.0;
  size_t index_bytes = 0;
  size_t index_entries = 0;
  double lazy_rps = 0.0;
  double indexed_rps = 0.0;
  double speedup = 0.0;
  bool parity = true;
};

/// Serves every user once (cold: no response cache in front) through
/// both the lazy and the indexed recommender and checks exact ranking
/// parity.
template <typename Rec>
KnnIndexPoint RunKnnColdScenario(const char* scenario,
                                 const recsys::InteractionMatrix& matrix,
                                 size_t users, size_t k) {
  KnnIndexPoint point;
  point.scenario = scenario;

  // A failed fit must fail the parity gate, not skip it silently.
  recsys::KnnConfig lazy_config;
  lazy_config.use_index = false;
  Rec lazy(lazy_config);
  auto start = Clock::now();
  if (!lazy.Fit(matrix).ok()) {
    point.parity = false;
    return point;
  }
  point.lazy_fit_seconds = SecondsSince(start);

  Rec indexed;  // use_index defaults on
  start = Clock::now();
  if (!indexed.Fit(matrix).ok()) {
    point.parity = false;
    return point;
  }
  point.indexed_fit_seconds = SecondsSince(start);
  if (indexed.index() != nullptr) {
    point.index_build_seconds = indexed.index()->stats().build_seconds;
    point.index_bytes = indexed.index()->stats().memory_bytes;
    point.index_entries = indexed.index()->stats().entries;
  }

  auto serve_all = [&](const Rec& rec,
                       std::vector<std::vector<recsys::Scored>>* out) {
    out->reserve(users);
    for (size_t u = 0; u < users; ++u) {
      recsys::CandidateQuery query;
      query.user = static_cast<recsys::UserId>(u);
      query.k = k;
      out->push_back(rec.RecommendCandidates(query));
    }
  };
  std::vector<std::vector<recsys::Scored>> lazy_results;
  start = Clock::now();
  serve_all(lazy, &lazy_results);
  point.lazy_rps = static_cast<double>(users) / SecondsSince(start);

  std::vector<std::vector<recsys::Scored>> indexed_results;
  start = Clock::now();
  serve_all(indexed, &indexed_results);
  point.indexed_rps = static_cast<double>(users) / SecondsSince(start);
  point.speedup = point.indexed_rps / point.lazy_rps;

  for (size_t u = 0; u < users && point.parity; ++u) {
    const auto& a = lazy_results[u];
    const auto& b = indexed_results[u];
    if (a.size() != b.size()) point.parity = false;
    for (size_t i = 0; point.parity && i < a.size(); ++i) {
      if (a[i].item != b[i].item || a[i].score != b[i].score) {
        point.parity = false;
      }
    }
  }
  std::printf("%s:  lazy %8.0f req/s | indexed %8.0f req/s | "
              "speedup %7.1fx | build %.3fs | %.1f KiB | parity %s\n",
              scenario, point.lazy_rps, point.indexed_rps, point.speedup,
              point.index_build_seconds,
              static_cast<double>(point.index_bytes) / 1024.0,
              point.parity ? "OK" : "MISMATCH");
  return point;
}

/// One live-update measurement: interleaved ApplyInteractions +
/// serving vs. the old full-refit-per-batch world.
struct LiveUpdatePoint {
  size_t users = 0;
  size_t shards = 0;
  size_t rounds = 0;
  size_t batch_size = 0;
  double incremental_seconds_avg = 0.0;  ///< ApplyInteractions wall
  double full_refit_seconds_avg = 0.0;   ///< engine Fit on same matrix
  double update_speedup = 0.0;
  double interleaved_serve_rps = 0.0;
  size_t rows_refreshed = 0;
  size_t full_rebuilds = 0;
  bool parity = true;
};

/// Clustered interaction topology: users come in communities of 50
/// sharing a 10-item slice, and update bursts hit a couple of
/// communities per round (trending items). This is the workload shape
/// incremental maintenance exists for — the affected neighborhood of a
/// batch is a small fraction of the matrix, unlike the two-community
/// cold-traffic matrix where every row overlaps half the population.
LiveUpdatePoint RunLiveUpdateScenario(size_t users, size_t k,
                                      uint64_t seed, size_t shards,
                                      size_t rounds) {
  constexpr size_t kClusterUsers = 50;
  constexpr size_t kClusterItems = 10;
  const size_t clusters = std::max<size_t>(users / kClusterUsers, 1);
  LiveUpdatePoint point;
  point.users = users;
  point.shards = shards;
  point.rounds = rounds;
  point.batch_size = 16;

  Rng rng(seed);
  recsys::InteractionMatrix matrix(shards);
  for (size_t u = 0; u < users; ++u) {
    const size_t cluster = u / kClusterUsers;
    for (int j = 0; j < 12; ++j) {
      const auto item = static_cast<recsys::ItemId>(
          cluster * kClusterItems +
          rng.UniformInt(0, static_cast<int64_t>(kClusterItems) - 1));
      matrix.Add(static_cast<recsys::UserId>(u), item,
                 rng.Uniform(0.2, 3.0));
    }
  }

  auto make_engine = [] {
    recsys::EngineConfig config;
    config.response_cache_capacity = 0;  // measure compute, not cache
    auto engine = std::make_unique<recsys::RecsysEngine>(config);
    engine->AddComponent(std::make_unique<recsys::UserKnnRecommender>(),
                         0.6);
    engine->AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                         0.4);
    return engine;
  };
  auto live = make_engine();
  if (!live->Fit(&matrix).ok()) {
    point.parity = false;
    return point;
  }
  auto refit = make_engine();
  if (!refit->Fit(matrix).ok()) {
    point.parity = false;
    return point;
  }

  double incremental_seconds = 0.0;
  double refit_seconds = 0.0;
  double serve_seconds = 0.0;
  size_t served = 0;
  const size_t sample = std::min<size_t>(users, 100);
  for (size_t round = 0; round < rounds; ++round) {
    // An update burst over two communities.
    std::vector<recsys::Interaction> batch;
    batch.reserve(point.batch_size);
    for (size_t i = 0; i < point.batch_size; ++i) {
      const size_t cluster = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(clusters > 1 ? 2 : 1) - 1));
      const size_t base =
          (round * 2 + cluster) % clusters * kClusterUsers;
      const auto user = static_cast<recsys::UserId>(
          base + rng.UniformInt(
                     0, static_cast<int64_t>(kClusterUsers) - 1));
      const auto item = static_cast<recsys::ItemId>(
          (base / kClusterUsers) * kClusterItems +
          rng.UniformInt(0, static_cast<int64_t>(kClusterItems) - 1));
      batch.push_back({user, item, rng.Uniform(0.2, 3.0)});
    }

    auto start = Clock::now();
    const auto report = live->ApplyInteractions(batch);
    incremental_seconds += SecondsSince(start);
    if (!report.ok()) {
      point.parity = false;
      return point;
    }
    point.rows_refreshed += report.value().rows_refreshed;
    point.full_rebuilds += report.value().full_rebuild ? 1 : 0;

    // The old world: any new interaction means a full refit before
    // serving can resume.
    start = Clock::now();
    if (!refit->Fit(matrix).ok()) {
      point.parity = false;
      return point;
    }
    refit_seconds += SecondsSince(start);

    // Interleaved serving on the live engine, parity-checked against
    // the freshly refitted reference.
    start = Clock::now();
    std::vector<spa::Result<recsys::RecommendResponse>> responses;
    responses.reserve(sample);
    for (size_t s = 0; s < sample; ++s) {
      recsys::RecommendRequest request;
      request.user =
          static_cast<recsys::UserId>((round * sample + s * 7) % users);
      request.k = k;
      responses.push_back(live->Recommend(request));
    }
    serve_seconds += SecondsSince(start);
    served += sample;
    for (size_t s = 0; s < sample && point.parity; ++s) {
      recsys::RecommendRequest request;
      request.user =
          static_cast<recsys::UserId>((round * sample + s * 7) % users);
      request.k = k;
      const auto expected = refit->Recommend(request);
      if (!responses[s].ok() || !expected.ok()) {
        point.parity = false;
        break;
      }
      const auto& lhs = responses[s].value().items;
      const auto& rhs = expected.value().items;
      if (lhs.size() != rhs.size()) point.parity = false;
      for (size_t i = 0; point.parity && i < lhs.size(); ++i) {
        if (lhs[i].item != rhs[i].item || lhs[i].score != rhs[i].score) {
          point.parity = false;
        }
      }
    }
  }

  point.incremental_seconds_avg =
      incremental_seconds / static_cast<double>(rounds);
  point.full_refit_seconds_avg =
      refit_seconds / static_cast<double>(rounds);
  point.update_speedup =
      point.full_refit_seconds_avg / point.incremental_seconds_avg;
  point.interleaved_serve_rps =
      static_cast<double>(served) / serve_seconds;
  std::printf("live_update (x%zu shards): incremental %8.3f ms | "
              "full refit %8.3f ms | speedup %6.1fx | serve %8.0f "
              "req/s | %zu rows | %zu full rebuilds | parity %s\n",
              point.shards, point.incremental_seconds_avg * 1e3,
              point.full_refit_seconds_avg * 1e3, point.update_speedup,
              point.interleaved_serve_rps, point.rows_refreshed,
              point.full_rebuilds, point.parity ? "OK" : "MISMATCH");
  return point;
}

/// One open-loop streaming measurement point.
struct StreamingPoint {
  double target_rps = 0.0;    ///< offered arrival rate (open loop)
  double offered_rps = 0.0;   ///< rate actually achieved by the producer
  double achieved_rps = 0.0;  ///< completions / wall
  double p50_ms = 0.0;        ///< end-to-end latency quantiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double queue_p95_ms = 0.0;
  double serve_p95_ms = 0.0;
  uint64_t submitted = 0;
  uint64_t responses = 0;
  uint64_t shed = 0;
  uint64_t updates = 0;
  /// Shed-quality split under kDegrade: degraded popularity responses
  /// actually served vs reads dropped after their deadline expired.
  uint64_t fallback_served = 0;
  uint64_t dropped = 0;
  double hit_rate = 0.0;  ///< response-cache hit rate within this point
  uint64_t max_queue_depth = 0;
};

struct StreamingResult {
  bool parity = true;
  double capacity_rps = 0.0;  ///< closed-loop pipeline throughput
  double deadline_ms = 0.0;   ///< per-request deadline in the sweep
  /// The overload contract: at 2x capacity, deadline-aware degradation
  /// must keep end-to-end p99 bounded (<= the gate printed below)
  /// instead of letting queue wait grow with the backlog.
  bool p99_bounded = true;
  std::vector<StreamingPoint> points;
};

/// Streaming scenario: a quiescent streamed-vs-RecommendBatch bitwise
/// parity gate, then an open-loop arrival-rate sweep (0.5x / 1x / 2x
/// of the measured closed-loop capacity) with live updates riding the
/// writer lane, under the deadline-aware kDegrade overload policy:
/// every read carries a deadline, pressed reads are served from the
/// popularity fallback tier (flagged `degraded`), expired reads are
/// dropped. The sweep cross-checks the flags against the pipeline's
/// fallback/drop counters and gates the 2x point on bounded p99.
/// Latency quantiles come from the pipeline's log-scale histograms.
StreamingResult RunStreamingScenario(size_t users, size_t k,
                                     uint64_t seed, bool smoke) {
  constexpr size_t kClusterUsers = 50;
  constexpr size_t kClusterItems = 10;
  const size_t clusters = std::max<size_t>(users / kClusterUsers, 1);
  StreamingResult result;

  // Dedicated clustered stack (same topology as live_update: update
  // bursts touch a bounded neighborhood).
  Rng rng(seed);
  recsys::InteractionMatrix matrix(/*shards=*/8);
  for (size_t u = 0; u < users; ++u) {
    const size_t cluster = u / kClusterUsers;
    for (int j = 0; j < 12; ++j) {
      const auto item = static_cast<recsys::ItemId>(
          cluster * kClusterItems +
          rng.UniformInt(0, static_cast<int64_t>(kClusterItems) - 1));
      matrix.Add(static_cast<recsys::UserId>(u), item,
                 rng.Uniform(0.2, 3.0));
    }
  }
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  sum::SumService sums(&catalog);
  {
    std::vector<sum::SumUpdate> bootstrap;
    bootstrap.reserve(users);
    for (size_t u = 0; u < users; ++u) {
      sum::SumUpdate update(static_cast<sum::UserId>(u));
      for (eit::EmotionalAttribute attr :
           eit::AllEmotionalAttributes()) {
        if (rng.Bernoulli(0.3)) {
          update.SetSensibility(catalog.EmotionalId(attr),
                                rng.Uniform(0.3, 1.0));
        }
      }
      bootstrap.push_back(std::move(update));
    }
    if (!sums.ApplyAll(bootstrap).ok()) {
      result.parity = false;
      return result;
    }
  }
  recsys::EngineConfig engine_config;
  engine_config.response_cache_capacity = 2 * users;
  engine_config.interaction_shards = 8;
  recsys::RecsysEngine engine(engine_config);
  engine.AddComponent(std::make_unique<recsys::UserKnnRecommender>(),
                      0.6);
  engine.AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                      0.4);
  for (size_t i = 0; i < clusters * kClusterItems; ++i) {
    recsys::EmotionProfile profile{};
    for (double& p : profile) p = rng.Uniform();
    engine.SetItemEmotionProfile(static_cast<recsys::ItemId>(i),
                                 profile);
  }
  engine.set_sum_service(&sums);
  if (!engine.Fit(&matrix).ok()) {
    result.parity = false;
    return result;
  }

  const size_t sample = std::min<size_t>(users, smoke ? 200 : 1000);
  std::vector<recsys::RecommendRequest> requests;
  requests.reserve(sample);
  for (size_t s = 0; s < sample; ++s) {
    recsys::RecommendRequest request;
    request.user = static_cast<recsys::UserId>((s * 7) % users);
    request.k = k;
    requests.push_back(std::move(request));
  }

  // ---- quiescent parity gate + capacity estimate --------------------------
  {
    recsys::PipelineConfig config;
    config.workers = 4;
    config.queue_capacity = 4096;
    config.policy = recsys::BackpressurePolicy::kBlock;
    recsys::ServingPipeline pipeline(&engine, &sums, config);
    std::vector<recsys::StreamTicketPtr> tickets;
    tickets.reserve(requests.size());
    const auto start = Clock::now();
    for (const auto& request : requests) {
      auto ticket = pipeline.Submit(request);
      if (!ticket.ok()) {
        result.parity = false;
        return result;
      }
      tickets.push_back(std::move(ticket).value());
    }
    pipeline.Flush();
    const double seconds = SecondsSince(start);
    result.capacity_rps = static_cast<double>(sample) / seconds;

    std::vector<spa::Result<recsys::RecommendResponse>> streamed;
    streamed.reserve(tickets.size());
    for (const auto& ticket : tickets) {
      ticket->Wait();
      if (ticket->pinned().matrix_version != matrix.version() ||
          ticket->pinned().sum_version != sums.version()) {
        result.parity = false;  // quiescent run must pin head versions
      }
      streamed.push_back(ticket->response());
    }
    const auto reference = engine.RecommendBatch(requests);
    if (!SameResults(streamed, reference)) result.parity = false;
    std::printf("streaming parity:  %s  (closed-loop %8.0f req/s, "
                "%zu requests)\n",
                result.parity ? "OK" : "MISMATCH", result.capacity_rps,
                sample);
  }

  // ---- open-loop arrival sweep with live updates --------------------------
  result.deadline_ms = 25.0;
  for (const double fraction : {0.5, 1.0, 2.0}) {
    const double rate = std::max(1.0, result.capacity_rps * fraction);
    recsys::PipelineConfig config;
    config.workers = 4;
    config.queue_capacity = 256;
    config.policy = recsys::BackpressurePolicy::kDegrade;
    config.default_deadline_seconds = result.deadline_ms * 1e-3;
    recsys::ServingPipeline pipeline(&engine, &sums, config);
    const recsys::EngineCacheStats cache_before = engine.cache_stats();

    StreamingPoint point;
    point.target_rps = rate;
    const size_t total = smoke ? 200 : 1200;
    std::vector<recsys::StreamTicketPtr> read_tickets;
    read_tickets.reserve(total);
    Rng arrivals(seed + static_cast<uint64_t>(fraction * 100));
    auto next = Clock::now();
    const auto sweep_start = next;
    for (size_t i = 0; i < total; ++i) {
      // Exponential inter-arrival times: an open-loop Poisson stream
      // that does NOT wait for completions.
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              -std::log1p(-arrivals.Uniform()) / rate));
      std::this_thread::sleep_until(next);
      if (i % 40 == 39) {
        // Live updates ride the writer lane within the same stream.
        std::vector<recsys::Interaction> batch;
        const size_t base = (i / 40) % clusters * kClusterUsers;
        for (int b = 0; b < 4; ++b) {
          batch.push_back(
              {static_cast<recsys::UserId>(
                   base + arrivals.UniformInt(
                              0, static_cast<int64_t>(kClusterUsers) -
                                     1)),
               static_cast<recsys::ItemId>(
                   (base / kClusterUsers) * kClusterItems +
                   arrivals.UniformInt(
                       0, static_cast<int64_t>(kClusterItems) - 1)),
               arrivals.Uniform(0.2, 3.0)});
        }
        (void)pipeline.SubmitInteractions(std::move(batch));
      } else {
        recsys::RecommendRequest request;
        request.user = static_cast<recsys::UserId>(arrivals.UniformInt(
            0, static_cast<int64_t>(users) - 1));
        request.k = k;
        auto ticket = pipeline.SubmitWithDeadline(
            std::move(request), result.deadline_ms * 1e-3);
        if (ticket.ok()) read_tickets.push_back(ticket.value());
      }
    }
    const double offered_seconds = SecondsSince(sweep_start);
    pipeline.Flush();
    const double wall_seconds = SecondsSince(sweep_start);

    const recsys::PipelineStats stats = pipeline.stats();
    // Cross-check the per-response `degraded` flags against the
    // pipeline's shed-quality counters: every fallback serve must be
    // flagged, every expired read must carry a non-OK status.
    uint64_t flagged_fallback = 0;
    uint64_t flagged_dropped = 0;
    for (const auto& ticket : read_tickets) {
      switch (ticket->state()) {
        case recsys::TicketState::kDone:
          if (ticket->response().ok() &&
              ticket->response().value().degraded) {
            ++flagged_fallback;
          }
          break;
        case recsys::TicketState::kShed:
          ++flagged_dropped;
          break;
        default:
          break;
      }
    }
    if (flagged_fallback != stats.fallback_served ||
        flagged_dropped != stats.expired_drops) {
      result.parity = false;  // flags must agree with the counters
    }
    point.fallback_served = stats.fallback_served;
    point.dropped = stats.expired_drops;
    const recsys::EngineCacheStats cache_after = engine.cache_stats();
    const double lookups = static_cast<double>(
        (cache_after.hits - cache_before.hits) +
        (cache_after.misses - cache_before.misses));
    point.hit_rate =
        lookups > 0.0
            ? static_cast<double>(cache_after.hits - cache_before.hits) /
                  lookups
            : 0.0;
    point.offered_rps =
        static_cast<double>(total) / offered_seconds;
    point.achieved_rps =
        static_cast<double>(stats.responses + stats.updates_applied) /
        wall_seconds;
    const QuantileSnapshot e2e = Quantiles(stats.end_to_end, 1e3);
    point.p50_ms = e2e.p50;
    point.p95_ms = e2e.p95;
    point.p99_ms = e2e.p99;
    point.queue_p95_ms = Quantiles(stats.queue_wait, 1e3).p95;
    point.serve_p95_ms = Quantiles(stats.batch_serve, 1e3).p95;
    point.submitted = stats.submitted;
    point.responses = stats.responses;
    point.shed = stats.shed;
    point.updates = stats.updates_applied;
    point.max_queue_depth = stats.max_queue_depth;
    if (fraction == 2.0) {
      // The overload point must keep its tail bounded: with deadline
      // degradation every queued read either completes within its
      // slack or exits as a fallback/drop, so p99 stays near the
      // deadline instead of growing with the backlog. The bound is
      // generous (a core-starved CI host still passes) yet far below
      // the unbounded-queue tail the plain policies show at 2x.
      result.p99_bounded =
          point.p99_ms <= std::max(150.0, 6.0 * result.deadline_ms);
    }
    result.points.push_back(point);
    std::printf(
        "streaming %.1fx:    offered %8.0f req/s | served %8.0f "
        "req/s | p50 %7.3f ms | p95 %7.3f ms | p99 %7.3f ms | "
        "fallback %llu | dropped %llu | hit %5.1f%% | depth %llu\n",
        fraction, point.offered_rps, point.achieved_rps, point.p50_ms,
        point.p95_ms, point.p99_ms,
        static_cast<unsigned long long>(point.fallback_served),
        static_cast<unsigned long long>(point.dropped),
        100.0 * point.hit_rate,
        static_cast<unsigned long long>(point.max_queue_depth));
  }
  return result;
}

/// One router-tier measurement point at a fixed worker count.
struct RouterPoint {
  size_t workers = 0;
  double create_seconds = 0.0;  ///< replica bootstrap (replay + fit)
  double fanout_ms = 0.0;       ///< one batch fanned to every replica
  double serve_rps = 0.0;       ///< closed-loop wall-clock (bench host)
  double speedup = 1.0;         ///< serve_rps vs the 1-worker deployment
  bool parity = true;
};

struct RouterResult {
  bool parity = true;
  double scaling_4x = 0.0;  ///< 4-worker serve_rps / 1-worker serve_rps
  std::vector<RouterPoint> points;
};

/// Router tier: the same bootstrap log is replayed into 1-, 2- and
/// 4-worker deployments; each fans one live interaction batch to all
/// replicas, then serves every user once (closed loop, caches off so
/// the aggregate KNN compute is what scales). Every routed response is
/// checked bitwise against a single-process engine that applied the
/// same batch — the router's parity contract, gating the exit code.
RouterResult RunRouterScenario(size_t users, size_t items, size_t k,
                               uint64_t seed) {
  RouterResult result;

  // Deterministic bootstrap log (two-community, same shape as the main
  // matrix) — every replica and the reference replay exactly this.
  Rng rng(seed, /*stream=*/1);
  std::vector<recsys::Interaction> log;
  log.reserve(users * 12);
  for (size_t u = 0; u < users; ++u) {
    const auto base = static_cast<recsys::ItemId>(
        (u % 2 == 0) ? 0 : items / 2);
    for (int j = 0; j < 12; ++j) {
      const auto item = static_cast<recsys::ItemId>(
          base + rng.UniformInt(0, static_cast<int64_t>(items) / 2 - 1));
      log.push_back({static_cast<recsys::UserId>(u), item,
                     rng.Uniform(0.2, 3.0)});
    }
  }

  // One shared SUM service: emotional context is not replicated.
  sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  sum::SumService sums(&catalog);
  {
    Rng sum_rng(seed, /*stream=*/2);
    std::vector<sum::SumUpdate> bootstrap;
    bootstrap.reserve(users);
    for (size_t u = 0; u < users; ++u) {
      sum::SumUpdate update(static_cast<sum::UserId>(u));
      for (eit::EmotionalAttribute attr :
           eit::AllEmotionalAttributes()) {
        if (sum_rng.Bernoulli(0.3)) {
          update.SetSensibility(catalog.EmotionalId(attr),
                                sum_rng.Uniform(0.3, 1.0));
        }
      }
      bootstrap.push_back(std::move(update));
    }
    if (!sums.ApplyAll(bootstrap).ok()) {
      result.parity = false;
      return result;
    }
  }

  // The stack every replica (and the reference) assembles.
  const auto make_stack = [seed, items](recsys::RecsysEngine& engine) {
    engine.AddComponent(std::make_unique<recsys::UserKnnRecommender>(),
                        0.6);
    engine.AddComponent(std::make_unique<recsys::ItemKnnRecommender>(),
                        0.4);
    Rng profile_rng(seed, /*stream=*/3);
    for (size_t i = 0; i < items; ++i) {
      recsys::EmotionProfile profile{};
      for (double& p : profile) p = profile_rng.Uniform();
      engine.SetItemEmotionProfile(static_cast<recsys::ItemId>(i),
                                   profile);
    }
  };

  // The live batch fanned to every replica before serving.
  std::vector<recsys::Interaction> fanned;
  {
    Rng batch_rng(seed, /*stream=*/4);
    for (int b = 0; b < 8; ++b) {
      fanned.push_back(
          {static_cast<recsys::UserId>(batch_rng.UniformInt(
               0, static_cast<int64_t>(users) - 1)),
           static_cast<recsys::ItemId>(batch_rng.UniformInt(
               0, static_cast<int64_t>(items) - 1)),
           batch_rng.Uniform(0.2, 3.0)});
    }
  }
  const uint64_t head_version = log.size() + fanned.size();

  std::vector<recsys::RecommendRequest> requests;
  requests.reserve(users);
  for (size_t u = 0; u < users; ++u) {
    recsys::RecommendRequest request;
    request.user = static_cast<recsys::UserId>(u);
    request.k = k;
    requests.push_back(std::move(request));
  }

  // Single-process reference: same log, same batch, caches off.
  recsys::InteractionMatrix ref_matrix(/*shards=*/8);
  for (const recsys::Interaction& it : log) {
    ref_matrix.Add(it.user, it.item, it.weight);
  }
  recsys::EngineConfig ref_config;
  ref_config.response_cache_capacity = 0;
  ref_config.interaction_shards = 8;
  recsys::RecsysEngine reference(ref_config);
  make_stack(reference);
  reference.set_sum_service(&sums);
  if (!reference.Fit(&ref_matrix).ok() ||
      !reference.ApplyInteractions(fanned).ok()) {
    result.parity = false;
    return result;
  }
  std::vector<spa::Result<recsys::RecommendResponse>> expected;
  expected.reserve(requests.size());
  for (const auto& request : requests) {
    expected.push_back(reference.Recommend(request));
  }

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    RouterPoint point;
    point.workers = workers;

    recsys::RouterConfig config;
    config.workers = workers;
    config.engine.response_cache_capacity = 0;  // measure compute
    config.engine.interaction_shards = 8;
    config.queue.workers = 1;  // one serving thread per node
    config.queue.queue_capacity = users + 64;
    config.queue.writer_queue_capacity = 64;
    config.queue.max_batch = 8;
    config.stack_builder = make_stack;

    auto start = Clock::now();
    auto created = recsys::ServingRouter::Create(config, log, &sums);
    point.create_seconds = SecondsSince(start);
    if (!created.ok()) {
      point.parity = false;
      result.parity = false;
      result.points.push_back(point);
      return result;
    }
    std::unique_ptr<recsys::ServingRouter> router =
        std::move(created).value();

    start = Clock::now();
    auto fanout = router->SubmitInteractions(fanned);
    if (!fanout.ok()) {
      point.parity = false;
    } else {
      fanout->Wait();
      if (!fanout->ok() || fanout->matrix_version() != head_version) {
        point.parity = false;
      }
    }
    point.fanout_ms = SecondsSince(start) * 1e3;

    // Closed loop: every user served once by its owning replica.
    std::vector<recsys::StreamTicketPtr> tickets;
    tickets.reserve(requests.size());
    start = Clock::now();
    for (const auto& request : requests) {
      auto ticket = router->Submit(request);
      if (!ticket.ok()) {
        point.parity = false;
        break;
      }
      tickets.push_back(std::move(ticket).value());
    }
    router->Flush();
    point.serve_rps =
        static_cast<double>(tickets.size()) / SecondsSince(start);

    std::vector<spa::Result<recsys::RecommendResponse>> routed;
    routed.reserve(tickets.size());
    for (const auto& ticket : tickets) {
      ticket->Wait();
      if (ticket->pinned().matrix_version != head_version ||
          ticket->pinned().sum_version != sums.version()) {
        point.parity = false;  // quiescent reads must pin the head
      }
      routed.push_back(ticket->response());
    }
    if (!SameResults(routed, expected)) point.parity = false;
    if (!point.parity) result.parity = false;

    // Wall clock on the bench host: the speedup is bounded by its
    // core count, so a single-core host shows ~1x by construction.
    if (!result.points.empty()) {
      point.speedup = point.serve_rps / result.points.front().serve_rps;
    }
    result.points.push_back(point);
    std::printf("router x%zu:         %8.0f req/s wall | speedup %5.2fx | "
                "bootstrap %.3fs | fanout %7.3f ms | parity %s\n",
                point.workers, point.serve_rps, point.speedup,
                point.create_seconds, point.fanout_ms,
                point.parity ? "OK" : "MISMATCH");
  }
  result.scaling_4x = result.points.back().speedup;
  return result;
}

int Main(int argc, char** argv) {
  const CommonFlags flags = ParseFlags(argc, argv);
  const size_t users =
      flags.users > 0 ? flags.users : (flags.smoke ? 400 : 2'000);
  const size_t items = 400;
  const size_t k = 10;

  PrintHeader(StrFormat(
      "Serving throughput - sequential vs batched (%zu users)", users));

  // Two-community interaction matrix plus long-tail noise.
  Rng rng(flags.seed);
  recsys::InteractionMatrix matrix;
  for (size_t u = 0; u < users; ++u) {
    const auto base = static_cast<recsys::ItemId>(
        (u % 2 == 0) ? 0 : items / 2);
    for (int j = 0; j < 12; ++j) {
      const auto item = static_cast<recsys::ItemId>(
          base + rng.UniformInt(0, static_cast<int64_t>(items) / 2 - 1));
      matrix.Add(static_cast<recsys::UserId>(u), item,
                 rng.Uniform(0.2, 3.0));
    }
  }

  // Emotional context through the versioned SUM service.
  sum::AttributeCatalog catalog = sum::AttributeCatalog::EmagisterDefault();
  sum::SumService sums(&catalog);
  {
    std::vector<sum::SumUpdate> bootstrap;
    bootstrap.reserve(users);
    for (size_t u = 0; u < users; ++u) {
      sum::SumUpdate update(static_cast<sum::UserId>(u));
      for (eit::EmotionalAttribute attr :
           eit::AllEmotionalAttributes()) {
        if (rng.Bernoulli(0.3)) {
          update.SetSensibility(catalog.EmotionalId(attr),
                                rng.Uniform(0.3, 1.0));
        }
      }
      bootstrap.push_back(std::move(update));
    }
    if (!sums.ApplyAll(bootstrap).ok()) {
      std::printf("SUM bootstrap failed\n");
      return 1;
    }
  }

  auto make_engine = [&](size_t cache_capacity) {
    recsys::EngineConfig config;
    config.response_cache_capacity = cache_capacity;
    auto engine = std::make_unique<recsys::RecsysEngine>(config);
    engine->AddComponent(std::make_unique<recsys::UserKnnRecommender>(),
                         0.6);
    engine->AddComponent(
        std::make_unique<recsys::PopularityRecommender>(), 0.4);
    for (size_t i = 0; i < items; ++i) {
      recsys::EmotionProfile profile{};
      for (double& p : profile) p = rng.Uniform();
      engine->SetItemEmotionProfile(static_cast<recsys::ItemId>(i),
                                    profile);
    }
    engine->set_sum_service(&sums);
    return engine;
  };

  auto engine = make_engine(/*cache_capacity=*/0);  // uncached baseline
  if (!engine->Fit(matrix).ok()) {
    std::printf("engine fit failed\n");
    return 1;
  }

  std::vector<recsys::RecommendRequest> requests;
  requests.reserve(users);
  for (size_t u = 0; u < users; ++u) {
    recsys::RecommendRequest request;
    request.user = static_cast<recsys::UserId>(u);
    request.k = k;
    requests.push_back(std::move(request));
  }

  // ---- sequential baseline (cache off) ------------------------------------
  std::vector<spa::Result<recsys::RecommendResponse>> sequential;
  sequential.reserve(requests.size());
  const auto seq_start = Clock::now();
  for (const auto& request : requests) {
    sequential.push_back(engine->Recommend(request));
  }
  const double seq_seconds = SecondsSince(seq_start);
  const double seq_rps = static_cast<double>(users) / seq_seconds;
  std::printf("\nsequential:        %8.0f req/s  (%.3f s)\n", seq_rps,
              seq_seconds);

  // ---- batched scaling curve (cache off) ----------------------------------
  struct BatchPoint {
    size_t threads;
    double rps;
    double speedup;
    bool parity;
  };
  std::vector<BatchPoint> points;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    engine->set_batch_threads(threads);
    (void)engine->batch_thread_count();  // spawn workers outside timing
    const auto start = Clock::now();
    const auto batched = engine->RecommendBatch(requests);
    const double seconds = SecondsSince(start);
    const double rps = static_cast<double>(users) / seconds;
    const bool parity = SameResults(sequential, batched);
    points.push_back({threads, rps, rps / seq_rps, parity});
    std::printf("batched x%zu:        %8.0f req/s  (%.3f s)  "
                "speedup %.2fx  parity %s\n",
                threads, rps, seconds, rps / seq_rps,
                parity ? "OK" : "MISMATCH");
  }

  // ---- repeat traffic: cached vs uncached ---------------------------------
  // The same request set served twice; pass 2 models the steady state
  // of production traffic where most users' context did not change
  // between identical requests.
  PrintHeader("Repeat traffic - response cache");
  auto cached_engine = make_engine(/*cache_capacity=*/2 * users);
  if (!cached_engine->Fit(matrix).ok()) {
    std::printf("cached engine fit failed\n");
    return 1;
  }
  const auto warm_start = Clock::now();
  std::vector<spa::Result<recsys::RecommendResponse>> warm_pass;
  warm_pass.reserve(requests.size());
  for (const auto& request : requests) {
    warm_pass.push_back(cached_engine->Recommend(request));
  }
  const double warm_seconds = SecondsSince(warm_start);

  const auto hot_start = Clock::now();
  std::vector<spa::Result<recsys::RecommendResponse>> hot_pass;
  hot_pass.reserve(requests.size());
  for (const auto& request : requests) {
    hot_pass.push_back(cached_engine->Recommend(request));
  }
  const double hot_seconds = SecondsSince(hot_start);

  const auto cache_stats = cached_engine->cache_stats();
  const double cold_rps = static_cast<double>(users) / warm_seconds;
  const double hot_rps = static_cast<double>(users) / hot_seconds;
  const bool cache_parity = SameResults(warm_pass, hot_pass);
  const double hit_rate =
      static_cast<double>(cache_stats.hits) /
      static_cast<double>(cache_stats.hits + cache_stats.misses);
  std::printf("pass 1 (cold):     %8.0f req/s\n", cold_rps);
  std::printf("pass 2 (hot):      %8.0f req/s  speedup %.2fx  "
              "hit-rate %.3f  parity %s\n",
              hot_rps, hot_rps / cold_rps, hit_rate,
              cache_parity ? "OK" : "MISMATCH");

  // ---- warm-path allocation audit -----------------------------------------
  // The allocation-free-hot-path contract, measured end to end: once a
  // request's response is cached and the caller reuses its response
  // object, `RecommendInto` must never enter operator new. Gates the
  // exit code — a regression to even one allocation per request fails
  // the bench.
  PrintHeader("Warm-path allocations - cached RecommendInto");
  recsys::RecommendResponse reused;
  bool warm_ok = true;
  for (const auto& request : requests) {
    warm_ok = warm_ok &&
              cached_engine->RecommendInto(request, &reused).ok();
  }
  g_new_calls.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_release);
  const auto warm_into_start = Clock::now();
  for (const auto& request : requests) {
    warm_ok = warm_ok &&
              cached_engine->RecommendInto(request, &reused).ok();
  }
  const double warm_into_seconds = SecondsSince(warm_into_start);
  g_count_allocs.store(false, std::memory_order_release);
  const uint64_t warm_new_calls =
      g_new_calls.load(std::memory_order_relaxed);
  const double warm_allocs_per_request =
      static_cast<double>(warm_new_calls) / static_cast<double>(users);
  const double warm_into_rps =
      static_cast<double>(users) / warm_into_seconds;
  std::printf("RecommendInto:     %8.0f req/s  %llu operator-new calls "
              "over %zu warm requests (%.4f/request)  %s\n",
              warm_into_rps,
              static_cast<unsigned long long>(warm_new_calls), users,
              warm_allocs_per_request,
              warm_ok && warm_new_calls == 0 ? "OK" : "ALLOCATING");

  // ---- SUM update throughput ----------------------------------------------
  PrintHeader("SUM update throughput");
  const sum::AttributeId lively =
      catalog.EmotionalId(eit::EmotionalAttribute::kLively);
  const size_t update_rounds = users;
  const auto apply_start = Clock::now();
  for (size_t i = 0; i < update_rounds; ++i) {
    (void)sums.Apply(sum::SumUpdate(static_cast<sum::UserId>(i % users))
                         .Reward(lively, 0.05));
  }
  const double apply_seconds = SecondsSince(apply_start);
  const double apply_ups =
      static_cast<double>(update_rounds) / apply_seconds;
  std::printf("Apply (1 op):      %8.0f updates/s  (%.3f s for %zu)\n",
              apply_ups, apply_seconds, update_rounds);

  const size_t batch_size = 256;
  const size_t batch_rounds = update_rounds / batch_size + 1;
  const auto applyall_start = Clock::now();
  for (size_t round = 0; round < batch_rounds; ++round) {
    std::vector<sum::SumUpdate> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(
          sum::SumUpdate(
              static_cast<sum::UserId>((round * batch_size + i) % users))
              .Reward(lively, 0.05));
    }
    (void)sums.ApplyAll(batch);
  }
  const double applyall_seconds = SecondsSince(applyall_start);
  const double applyall_ups =
      static_cast<double>(batch_rounds * batch_size) / applyall_seconds;
  // How much cheaper a batched publish is per update than single-update
  // publishes. Sharded COW snapshots keep this bounded: one Apply
  // clones a single user shard (~users/S entries), not the world.
  const double apply_vs_apply_all_ratio = applyall_ups / apply_ups;
  std::printf("ApplyAll (x%zu):   %8.0f updates/s  (%.3f s)  "
              "batch-vs-single ratio %.2fx\n",
              batch_size, applyall_ups, applyall_seconds,
              apply_vs_apply_all_ratio);

  // Every user's context changed: the hot cache must now recompute.
  const auto invalidated_start = Clock::now();
  for (const auto& request : requests) {
    (void)cached_engine->Recommend(request);
  }
  const double invalidated_seconds = SecondsSince(invalidated_start);
  const double invalidated_rps =
      static_cast<double>(users) / invalidated_seconds;
  const auto post_stats = cached_engine->cache_stats();
  std::printf("post-update pass:  %8.0f req/s  (%zu stale evictions)\n",
              invalidated_rps,
              static_cast<size_t>(post_stats.stale_evictions -
                                  cache_stats.stale_evictions));

  // ---- KNN cold traffic: fit-time similarity index vs lazy ----------------
  // Every request is a cache miss; this isolates the candidate
  // generation cost the index removes from the serving path.
  PrintHeader("KNN cold traffic - fit-time similarity index vs lazy");
  std::vector<KnnIndexPoint> knn_points;
  knn_points.push_back(RunKnnColdScenario<recsys::ItemKnnRecommender>(
      "ItemKNN", matrix, users, k));
  knn_points.push_back(RunKnnColdScenario<recsys::UserKnnRecommender>(
      "UserKNN", matrix, users, k));

  // ---- live updates: ApplyInteractions vs full refit ----------------------
  // The scaling cliff this PR removes: a new interaction used to mean
  // a full refit before indexed serving could resume; now it is a
  // bounded incremental refresh over the sharded store.
  PrintHeader("Live updates - incremental refresh vs full refit");
  const LiveUpdatePoint live_point = RunLiveUpdateScenario(
      users, k, flags.seed + 1, /*shards=*/8,
      /*rounds=*/flags.smoke ? 5 : 15);

  // ---- streaming: async pipeline under open-loop arrivals -----------------
  PrintHeader("Streaming - async pipeline, open-loop arrival sweep");
  const StreamingResult streaming =
      RunStreamingScenario(users, k, flags.seed + 2, flags.smoke);

  // ---- router tier: sharded serving behind the ownership directory --------
  PrintHeader("Router tier - worker-group scaling, bitwise parity");
  const RouterResult router_result =
      RunRouterScenario(users, items, k, flags.seed + 3);

  // ---- micro-batch: bitwise parity vs per-request serving --------------
  // Both passes compute from scratch (cache cleared before each) at
  // the same pinned versions; the responses must match byte-for-byte.
  PrintHeader("Micro-batch - parity vs per-request RecommendBatch");
  cached_engine->ClearResponseCache();
  recsys::BatchPin staged_pin;
  const auto staged_results =
      cached_engine->RecommendMicroBatch(requests, &staged_pin);
  cached_engine->ClearResponseCache();
  recsys::BatchPin batch_pin;
  const auto batch_results =
      cached_engine->RecommendBatch(requests, &batch_pin);
  const bool staged_parity =
      SameResults(staged_results, batch_results) &&
      staged_pin.fit_epoch == batch_pin.fit_epoch &&
      staged_pin.matrix_version == batch_pin.matrix_version &&
      staged_pin.sum_version == batch_pin.sum_version;
  std::printf("micro-batch vs RecommendBatch (%zu requests): %s\n",
              requests.size(), staged_parity ? "OK" : "MISMATCH");

  // ---- JSON ---------------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_serving.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"serving\",\n  \"users\": %zu,\n"
                 "  \"items\": %zu,\n  \"k\": %zu,\n"
                 "  \"sequential_rps\": %.1f,\n  \"batched\": [\n",
                 users, items, k, seq_rps);
    for (size_t i = 0; i < points.size(); ++i) {
      std::fprintf(json,
                   "    {\"threads\": %zu, \"rps\": %.1f, "
                   "\"speedup\": %.3f, \"parity\": %s}%s\n",
                   points[i].threads, points[i].rps, points[i].speedup,
                   points[i].parity ? "true" : "false",
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"repeat_traffic\": {\n"
                 "    \"cold_rps\": %.1f,\n"
                 "    \"hot_rps\": %.1f,\n"
                 "    \"cache_speedup\": %.3f,\n"
                 "    \"hit_rate\": %.4f,\n"
                 "    \"parity\": %s\n  },\n",
                 cold_rps, hot_rps, hot_rps / cold_rps, hit_rate,
                 cache_parity ? "true" : "false");
    std::fprintf(json,
                 "  \"allocations\": {\n"
                 "    \"warm_requests\": %zu,\n"
                 "    \"warm_new_calls\": %llu,\n"
                 "    \"warm_allocs_per_request\": %.4f,\n"
                 "    \"warm_recommend_into_rps\": %.1f\n  },\n",
                 users,
                 static_cast<unsigned long long>(warm_new_calls),
                 warm_allocs_per_request, warm_into_rps);
    std::fprintf(json,
                 "  \"sum_updates\": {\n"
                 "    \"apply_per_sec\": %.1f,\n"
                 "    \"apply_all_batch_size\": %zu,\n"
                 "    \"apply_all_per_sec\": %.1f,\n"
                 "    \"apply_vs_apply_all_ratio\": %.3f,\n"
                 "    \"post_update_serve_rps\": %.1f\n  },\n",
                 apply_ups, batch_size, applyall_ups,
                 apply_vs_apply_all_ratio, invalidated_rps);
    std::fprintf(json, "  \"knn_index\": [\n");
    for (size_t i = 0; i < knn_points.size(); ++i) {
      const KnnIndexPoint& p = knn_points[i];
      std::fprintf(json,
                   "    {\"scenario\": \"%s\", \"lazy_rps\": %.1f, "
                   "\"indexed_rps\": %.1f, \"speedup\": %.2f, "
                   "\"parity\": %s, \"lazy_fit_seconds\": %.6f, "
                   "\"indexed_fit_seconds\": %.6f, "
                   "\"index_build_seconds\": %.6f, "
                   "\"index_bytes\": %zu, \"index_entries\": %zu}%s\n",
                   p.scenario, p.lazy_rps, p.indexed_rps, p.speedup,
                   p.parity ? "true" : "false", p.lazy_fit_seconds,
                   p.indexed_fit_seconds, p.index_build_seconds,
                   p.index_bytes, p.index_entries,
                   i + 1 < knn_points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"live_update\": {\n"
                 "    \"users\": %zu,\n    \"shards\": %zu,\n"
                 "    \"rounds\": %zu,\n    \"batch_size\": %zu,\n"
                 "    \"incremental_seconds_avg\": %.6f,\n"
                 "    \"full_refit_seconds_avg\": %.6f,\n"
                 "    \"update_speedup\": %.2f,\n"
                 "    \"interleaved_serve_rps\": %.1f,\n"
                 "    \"rows_refreshed\": %zu,\n"
                 "    \"full_rebuilds\": %zu,\n"
                 "    \"parity\": %s\n  },\n",
                 live_point.users, live_point.shards, live_point.rounds,
                 live_point.batch_size,
                 live_point.incremental_seconds_avg,
                 live_point.full_refit_seconds_avg,
                 live_point.update_speedup,
                 live_point.interleaved_serve_rps,
                 live_point.rows_refreshed, live_point.full_rebuilds,
                 live_point.parity ? "true" : "false");
    std::fprintf(json,
                 "  \"streaming\": {\n"
                 "    \"parity\": %s,\n"
                 "    \"capacity_rps\": %.1f,\n"
                 "    \"overload_policy\": \"deadline_degrade\",\n"
                 "    \"deadline_ms\": %.1f,\n"
                 "    \"p99_bounded\": %s,\n"
                 "    \"points\": [\n",
                 streaming.parity ? "true" : "false",
                 streaming.capacity_rps, streaming.deadline_ms,
                 streaming.p99_bounded ? "true" : "false");
    for (size_t i = 0; i < streaming.points.size(); ++i) {
      const StreamingPoint& p = streaming.points[i];
      std::fprintf(
          json,
          "      {\"target_rps\": %.1f, \"offered_rps\": %.1f, "
          "\"achieved_rps\": %.1f, \"p50_ms\": %.4f, "
          "\"p95_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"queue_p95_ms\": %.4f, \"serve_p95_ms\": %.4f, "
          "\"submitted\": %llu, \"responses\": %llu, "
          "\"shed\": %llu, \"fallback_served\": %llu, "
          "\"dropped\": %llu, \"hit_rate\": %.4f, "
          "\"updates\": %llu, "
          "\"max_queue_depth\": %llu}%s\n",
          p.target_rps, p.offered_rps, p.achieved_rps, p.p50_ms,
          p.p95_ms, p.p99_ms, p.queue_p95_ms, p.serve_p95_ms,
          static_cast<unsigned long long>(p.submitted),
          static_cast<unsigned long long>(p.responses),
          static_cast<unsigned long long>(p.shed),
          static_cast<unsigned long long>(p.fallback_served),
          static_cast<unsigned long long>(p.dropped), p.hit_rate,
          static_cast<unsigned long long>(p.updates),
          static_cast<unsigned long long>(p.max_queue_depth),
          i + 1 < streaming.points.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  },\n");
    std::fprintf(json,
                 "  \"router\": {\n"
                 "    \"parity\": %s,\n"
                 "    \"scaling_4x\": %.3f,\n"
                 "    \"points\": [\n",
                 router_result.parity ? "true" : "false",
                 router_result.scaling_4x);
    for (size_t i = 0; i < router_result.points.size(); ++i) {
      const RouterPoint& p = router_result.points[i];
      std::fprintf(json,
                   "      {\"workers\": %zu, \"serve_rps\": %.1f, "
                   "\"speedup\": %.3f, \"create_seconds\": %.4f, "
                   "\"fanout_ms\": %.4f, \"parity\": %s}%s\n",
                   p.workers, p.serve_rps, p.speedup, p.create_seconds,
                   p.fanout_ms,
                   p.parity ? "true" : "false",
                   i + 1 < router_result.points.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  },\n");
    // Hierarchical profiler export (schema: docs/METRICS.md): the
    // leveled L1/L2/L3 item catalog of the cached engine plus the
    // micro-batch-vs-RecommendBatch parity verdict.
    const spa::Profiler& profiler = cached_engine->profiler();
    constexpr spa::ProfilerLevel kExportLevel = spa::ProfilerLevel::kL3;
    std::fprintf(json,
                 "  \"stages\": {\n"
                 "    \"staged_parity\": %s,\n"
                 "    \"level\": %d,\n"
                 "    \"epochs\": %llu,\n"
                 "    \"items\": %s\n  }\n",
                 staged_parity ? "true" : "false",
                 static_cast<int>(kExportLevel),
                 static_cast<unsigned long long>(profiler.epochs()),
                 profiler.ExportItemsJson(kExportLevel, 4)
                     .c_str());
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_serving.json\n");
  }

  for (const BatchPoint& p : points) {
    if (!p.parity) return 1;  // batched serving must match sequential
  }
  for (const KnnIndexPoint& p : knn_points) {
    if (!p.parity) return 1;  // indexed serving must match lazy exactly
  }
  if (!live_point.parity) return 1;  // live updates must match refits
  // The allocation-free contract: warm cached RecommendInto must never
  // enter the allocator.
  if (!warm_ok || warm_new_calls > 0) return 1;
  // Streamed serving must be bitwise-identical to synchronous batches,
  // and every degraded/dropped read must agree with the pipeline's
  // shed-quality counters.
  if (!streaming.parity) return 1;
  // Deadline degradation must keep the 2x-overload tail bounded.
  if (!streaming.p99_bounded) return 1;
  // Routed serving must match the single-process engine bitwise at the
  // same pinned versions — the router tier's whole contract.
  if (!router_result.parity) return 1;
  // The micro-batch path must reproduce the parallel batch
  // byte-for-byte.
  if (!staged_parity) return 1;
  return cache_parity ? 0 : 1;
}

}  // namespace
}  // namespace spa::bench

int main(int argc, char** argv) { return spa::bench::Main(argc, argv); }
