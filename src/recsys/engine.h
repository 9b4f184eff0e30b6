#ifndef SPA_RECSYS_ENGINE_H_
#define SPA_RECSYS_ENGINE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/frequency_map.h"
#include "common/profiler.h"
#include "common/rw_lock.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "recsys/emotion_aware.h"
#include "recsys/hybrid.h"
#include "recsys/popularity.h"
#include "recsys/request.h"
#include "sum/sum_service.h"

/// \file
/// The serving facade of the advice stage: owns the recommender stack
/// (base components blended by a weighted hybrid, plus the
/// emotion-aware re-ranker) and answers `RecommendRequest`s one at a
/// time or in thread-pool-parallel batches. This is the seam every
/// scaling layer (sharding, caching, async) plugs into — the streaming
/// layer (`recsys/serving_pipeline.h`) drains its admission queue
/// through `RecommendMicroBatch` and its writer lane through
/// `ApplyInteractions`.
///
/// Emotional context comes from a `sum::SumService`: each request pins
/// the service's current `SumSnapshot` — and `RecommendBatch` pins
/// **one** snapshot for the whole batch, so batched rankings are
/// mutually consistent and the N-1 extra snapshot acquisitions
/// disappear — while the Attributes Manager keeps applying
/// `SumUpdate`s concurrently (update-while-serve).
///
/// ## Live interaction updates
///
/// An engine fitted with `Fit(&matrix)` (write access) accepts
/// `ApplyInteractions(batch)`: the batch is routed into the sharded
/// interaction store, every component's fitted state is repaired
/// incrementally (`Recommender::Refresh` — for the KNN components
/// only the similarity-index rows a mutation could change are
/// rebuilt), and only the cache entries that may have changed are
/// dropped (see "Response cache"). Serving after the call is
/// bitwise-identical to a full refit on the same matrix. Writers take
/// the engine's exclusive serve lock; requests hold the shared side,
/// so update-while-serve is safe by construction. Mutating the matrix
/// *without* going through `ApplyInteractions` remains what it always
/// was: cache entries stop matching, and indexed KNN components
/// hard-fail until a Refresh or refit.
///
/// ## Response cache
///
/// The engine memoizes full `RecommendResponse`s per user. A cached
/// entry is served only when ALL of the following match, which makes
/// invalidation precise and automatic:
///
///  * **fit epoch + interaction-matrix version** — the matrix version
///    is compared against the *live* matrix at lookup, so mutating
///    the fitted matrix behind the engine's back invalidates every
///    entry; a refit additionally clears the cache eagerly.
///    `ApplyInteractions` instead re-stamps the entries it proves
///    unchanged to the new version (their recompute produces the same
///    bytes) and erases the rest: entries of affected users, and
///    entries whose candidate walk reaches the first rank a refresh
///    changed in a non-personalized ranking (popularity);
///  * **SUM user version** — `SumSnapshot::UserVersion(user)` at serve
///    time; a single `SumService::Apply` touching the user bumps it,
///    so exactly that user's entries stop matching while other users'
///    entries keep hitting;
///  * **request fingerprint** — user, k, exclude-seen policy, explain
///    flag, exclusion set and allowlist compared exactly (a 64-bit
///    hash indexes the entry; equality is verified on the canonical
///    fields, so hash collisions cannot serve a wrong response).
///
/// Requests carrying an `emotion_override` snapshot bypass the cache
/// entirely (their context is caller-pinned, not service-versioned).
/// Entries are evicted LRU beyond `response_cache_capacity`; stale
/// entries found on lookup are dropped in place. Hits return the
/// memoized response byte-identically, so cached and uncached serving
/// are indistinguishable to callers.
///
/// ## Frequency-aware tiering and re-warming
///
/// The cache is *frequency-tiered* on top of LRU: every cacheable
/// lookup touches a sharded per-user `FrequencyMap`, whose counts are
/// multiplied by `kCacheDecayFactor` every `kCacheDecayInterval`
/// lookups. At capacity, a newcomer is admitted only when its user's
/// decayed access count is **at least** the LRU victim's —
/// strictly-colder one-hit wonders are rejected (counted as
/// `admission_rejections`) instead of evicting the hot set, while ties
/// preserve plain LRU behavior. Admission only ever changes *which*
/// requests are memoized, never the bytes of any served response.
///
/// `ApplyInteractions` additionally **re-warms** the hot set: among
/// the affected users whose entries it just erased, those with
/// frequency >= `kRewarmMinFrequency` (hottest first, at most
/// `kRewarmLimit` entries) are re-served into the cache at the
/// post-apply versions *before the exclusive serve lock is
/// released*, so concurrent readers never observe the invalidation
/// as a miss. A re-warmed entry is byte-identical to a cold
/// recompute at the same versions (pinned by the re-warm tests).
///
/// ## Popularity fallback tier
///
/// `RecommendFallback` serves a request from a popularity-only tier
/// (no KNN fan-out, no blending, no emotional re-rank): an
/// engine-owned `PopularityRecommender` fitted alongside the stack
/// and incrementally refreshed by every `ApplyInteractions`. The
/// streaming pipeline's degrade policy uses it to answer
/// deadline-pressed requests cheaply; responses are flagged
/// `degraded = true` and are deterministic at their pinned matrix
/// version (fallback ranking ignores SUM state), but they are NOT
/// bitwise-equal to full serving — the one sanctioned parity
/// exception, see docs/ARCHITECTURE.md.

namespace spa::recsys {

/// The re-ranker sees `k * kRerankOverfetch` base candidates (saturated
/// at SIZE_MAX) so emotional alignment has room to move items into the
/// top k.
inline constexpr size_t kRerankOverfetch = 3;
/// Multiplier applied to every user-frequency count per decay epoch.
inline constexpr double kCacheDecayFactor = 0.5;
/// Cacheable lookups between user-frequency decay epochs.
inline constexpr uint64_t kCacheDecayInterval = 4096;
/// Max cache entries re-warmed per ApplyInteractions.
inline constexpr size_t kRewarmLimit = 64;
/// Min decayed user frequency for an invalidated entry to qualify for
/// re-warming.
inline constexpr double kRewarmMinFrequency = 2.0;

/// \brief Engine tunables.
struct EngineConfig {
  /// Master switch for the emotion-aware stage.
  bool emotion_enabled = true;
  /// Emotion-aware re-ranking parameters.
  EmotionRerankConfig rerank;
  /// Worker threads for RecommendBatch (0 = hardware concurrency).
  size_t batch_threads = 0;
  /// Max memoized responses (LRU beyond this; 0 disables the cache).
  size_t response_cache_capacity = 4096;
  /// User/item-hash shard count for interaction stores the platform
  /// builds around this engine (`core::Spa` constructs its matrix
  /// with it); 1 reproduces the unsharded layout bit-for-bit.
  size_t interaction_shards = 1;
};

/// \brief Hit/miss counters of the response cache.
struct EngineCacheStats {
  uint64_t hits = 0;
  /// Lookups that had to compute (includes stale invalidations).
  uint64_t misses = 0;
  /// Entries dropped because a version guard no longer matched, or
  /// because ApplyInteractions marked their user affected.
  uint64_t stale_evictions = 0;
  /// Entries dropped by LRU capacity pressure.
  uint64_t capacity_evictions = 0;
  /// Inserts refused at capacity because the newcomer's user was
  /// strictly colder than the LRU victim's (frequency admission).
  uint64_t admission_rejections = 0;
};

/// \brief What one ApplyInteractions call did.
struct LiveUpdateReport {
  size_t interactions = 0;       ///< batch size routed into the shards
  size_t rows_refreshed = 0;     ///< index rows rebuilt across components
  bool full_rebuild = false;     ///< some component rebuilt everything
  /// Distinct users whose rankings may have changed (batch users plus
  /// component-reported reverse neighbors); 0 with `invalidated_all`.
  size_t affected_users = 0;
  bool invalidated_all = false;  ///< cache dropped engine-wide
  size_t cache_entries_invalidated = 0;
  /// Hot invalidated users proactively re-served into the cache at
  /// the post-apply versions before the writer lock was released.
  size_t users_rewarmed = 0;
  size_t entries_rewarmed = 0;
  double apply_seconds = 0.0;    ///< matrix shard writes
  double refresh_seconds = 0.0;  ///< component state repair
  double rewarm_seconds = 0.0;   ///< hot-set re-serve after apply
  /// Interaction-matrix version after the batch landed (each
  /// interaction bumps it once). Streaming callers correlate this with
  /// the `BatchPin::matrix_version` of later responses.
  uint64_t matrix_version = 0;
};

/// \brief Cumulative ApplyInteractions counters.
struct LiveUpdateStats {
  uint64_t batches = 0;
  uint64_t interactions = 0;
  uint64_t rows_refreshed = 0;
  uint64_t full_rebuilds = 0;
  uint64_t cache_entries_invalidated = 0;
  uint64_t users_rewarmed = 0;
  uint64_t entries_rewarmed = 0;
  double apply_seconds = 0.0;
  double refresh_seconds = 0.0;
  double rewarm_seconds = 0.0;
};

/// \brief The consistency point a (micro-)batch served against: the
/// engine's fit epoch, the interaction-matrix version and the global
/// SUM snapshot version, all captured while the batch held the shared
/// serve lock. Two responses pinned to the same triple were computed
/// from identical state, so replaying the same requests synchronously
/// at that triple reproduces them byte-for-byte — the invariant the
/// streaming pipeline's differential tests are built on.
struct BatchPin {
  uint64_t fit_epoch = 0;
  uint64_t matrix_version = 0;
  uint64_t sum_version = 0;
};

/// \brief Owns the recommender stack and serves requests.
///
/// Assembly order: AddComponent(...) / SetItemEmotionProfile(...) /
/// set_sum_service(...), then Fit(matrix). `Recommend` is const and
/// thread-safe once fitted; `RecommendBatch` fans requests out over an
/// internal `spa::ThreadPool` and returns results in request order,
/// identical to sequential `Recommend` calls.
class RecsysEngine {
 public:
  explicit RecsysEngine(EngineConfig config = {});

  // ---- stack assembly ----------------------------------------------------
  /// Adds a base recommender with its hybrid blend weight.
  void AddComponent(std::unique_ptr<Recommender> component,
                    double weight);
  /// Registers the emotional-resonance profile of an item.
  void SetItemEmotionProfile(ItemId item, const EmotionProfile& profile);
  /// SUM service consulted for emotional context (borrowed; may be
  /// null — then only requests with `emotion_override` get the
  /// emotional stage). Each Recommend pins the service's current
  /// snapshot. Switching services clears the response cache.
  void set_sum_service(const sum::SumService* sums);

  /// Fits every component; the matrix must outlive the engine. Clears
  /// the response cache and captures the matrix version for the cache
  /// key. Read-only serving: ApplyInteractions needs Fit(&matrix).
  spa::Status Fit(const InteractionMatrix& matrix);
  /// Same, but keeps write access so ApplyInteractions can route live
  /// updates into the matrix.
  spa::Status Fit(InteractionMatrix* matrix);
  bool fitted() const { return fitted_; }

  // ---- serving -----------------------------------------------------------
  /// Serves one request (from the response cache when an entry with
  /// matching versions exists). Errors: InvalidArgument (bad request),
  /// FailedPrecondition (engine not fitted).
  spa::Result<RecommendResponse> Recommend(
      const RecommendRequest& request) const;

  /// Allocation-aware variant of `Recommend`: the response is written
  /// into `*out` (replacing its contents but reusing its capacity), so
  /// a caller recycling one `RecommendResponse` across requests serves
  /// warm cache hits without a single heap allocation — the regression
  /// test gates this with an operator-new counter. Byte-identical
  /// responses to `Recommend`.
  spa::Status RecommendInto(const RecommendRequest& request,
                            RecommendResponse* out) const;

  /// Serves a batch in parallel; results align with `requests` by index
  /// and are byte-identical to sequential `Recommend` calls made
  /// against the batch's pinned SUM snapshot (one snapshot for the
  /// whole batch: rankings are mutually consistent even while updates
  /// land). `pin` (optional) receives the consistency point the batch
  /// served against.
  std::vector<spa::Result<RecommendResponse>> RecommendBatch(
      const std::vector<RecommendRequest>& requests,
      BatchPin* pin = nullptr);

  /// Serves a micro-batch in request order on the calling thread. Same
  /// locking discipline as `RecommendBatch` — one shared-lock hold, one
  /// pinned SUM snapshot — and the same per-request serve, so results
  /// are byte-identical at the same `BatchPin` (pinned by the
  /// stage-pipeline differential tests). A duplicate request in one
  /// micro-batch hits the cache entry its first copy filled. Overlap
  /// between micro-batches comes from the streaming pipeline's drain
  /// workers, which run micro-batches concurrently on
  /// `common/thread_pool`. Records one L1 `batch.serve` per call, around
  /// the requests' own `request.serve` and stage items.
  std::vector<spa::Result<RecommendResponse>> RecommendMicroBatch(
      const std::vector<RecommendRequest>& requests,
      BatchPin* pin = nullptr) const;

  /// Serves one request from the popularity-only fallback tier: cheap
  /// (no component fan-out, no emotional stage, no cache), with the
  /// response flagged `degraded = true`. `pin` (optional) receives the
  /// consistency point; the ranking depends only on the pinned matrix
  /// version, so replaying the same request on a reference engine that
  /// applied the same interaction history reproduces it byte-for-byte.
  /// Same errors as `Recommend`.
  spa::Status RecommendFallbackInto(const RecommendRequest& request,
                                    RecommendResponse* out,
                                    BatchPin* pin = nullptr) const;

  /// Result-returning wrapper over `RecommendFallbackInto`.
  spa::Result<RecommendResponse> RecommendFallback(
      const RecommendRequest& request, BatchPin* pin = nullptr) const;

  // ---- live updates ------------------------------------------------------
  /// Routes one interaction batch into the (mutable) fitted matrix,
  /// repairs every component's fitted state incrementally, and drops
  /// the cache entries that may have changed: those of affected users,
  /// and those whose `candidate_reach` exceeds the refresh's
  /// `unchanged_prefix`. Serialized against serving via the engine's
  /// writer lock. Errors: FailedPrecondition when not fitted or fitted
  /// without write access.
  spa::Result<LiveUpdateReport> ApplyInteractions(
      const std::vector<Interaction>& batch);

  /// Cumulative ApplyInteractions counters.
  LiveUpdateStats live_update_stats() const;

  // ---- introspection -----------------------------------------------------
  const EngineConfig& config() const { return config_; }
  const HybridRecommender& hybrid() const { return *hybrid_; }
  EmotionAwareReranker* reranker() { return &reranker_; }

  /// Response-cache counters (cumulative since construction).
  EngineCacheStats cache_stats() const;
  /// Current decayed access count of one user in the cache-tiering
  /// frequency map (0 when untracked).
  double user_frequency(UserId user) const;
  /// The per-user frequency tier (touches/decay epochs/live keys).
  FrequencyMapStats user_frequency_stats() const;
  /// Number of live cache entries.
  size_t cache_size() const;
  /// Drops every cached response (counters are kept).
  void ClearResponseCache() const;

  /// The engine's hierarchical profiler (L1 whole-op, L2 per-stage,
  /// L3 stage internals; every item is recorded). Mutable so recording
  /// stays possible from const serving paths; callers may
  /// `AdvanceEpoch()` between quiesced measurement windows.
  Profiler& profiler() const { return profiler_; }

 private:
  /// Canonical identity of a cacheable request.
  struct CacheKey {
    UserId user = 0;
    size_t k = 0;
    ExcludeSeen exclude_seen = ExcludeSeen::kYes;
    bool explain = false;
    std::unordered_set<ItemId> exclude_items;
    std::optional<std::unordered_set<ItemId>> candidate_items;
  };
  struct CacheEntry {
    uint64_t hash = 0;
    CacheKey key;
    /// Version guards: all must match the serve-time context.
    uint64_t fit_epoch = 0;
    uint64_t matrix_version = 0;
    uint64_t sum_user_version = 0;
    /// How deep a component's candidate walk down a shared ranking can
    /// reach for this key: kComponentDepth plus every item its
    /// exclusions can skip (the deny list, and the user's seen items
    /// under ExcludeSeen::kYes); SIZE_MAX with an allow list. Fixed at
    /// insert: a user whose seen set changes is in the applied batch
    /// or staled out of band, so the entry is dropped either way.
    size_t candidate_reach = SIZE_MAX;
    RecommendResponse response;
  };

  static uint64_t FingerprintRequest(const RecommendRequest& request);
  static bool KeyMatches(const CacheKey& key,
                         const RecommendRequest& request);

  /// Shared Fit body; `live` is the write handle (null = read-only).
  spa::Status FitInternal(const InteractionMatrix& matrix,
                          InteractionMatrix* live);

  /// Counts one cacheable lookup toward the decay cadence and runs a
  /// decay epoch on the user frequency tier every
  /// `kCacheDecayInterval`-th call.
  void MaybeDecayFrequencies() const;

  /// Copies the cached response into `*out` (capacity-reusing
  /// copy-assign — the warm-hit path allocates nothing) when a fresh
  /// entry matches; returns whether it did.
  bool CacheLookupInto(uint64_t hash, const RecommendRequest& request,
                       uint64_t sum_user_version,
                       RecommendResponse* out) const;
  void CacheInsert(uint64_t hash, const RecommendRequest& request,
                   uint64_t sum_user_version,
                   const RecommendResponse& response) const;

  /// Per-request intermediate state between serve stages (defined in
  /// the .cc; one per serving thread).
  struct ServeState;

  // The serving dataflow, stage by stage. `RecommendIntoImpl` is the
  // one place that composes the four.
  void ServeCandidates(const RecommendRequest& request,
                       ServeState* state) const;
  void ServeBlend(ServeState* state) const;
  void ServeRerank(const RecommendRequest& request,
                   const sum::SmartUserModel* model,
                   ServeState* state) const;
  void ServeExplain(const RecommendRequest& request,
                    ServeState* state) const;

  /// Serving core; the caller holds the shared serve lock.
  /// `batch_snapshot` (may be null) is the batch-pinned SUM view —
  /// single requests pass null and pin their own. Validates, probes
  /// the cache (`stage.cache_lookup`) and on a miss runs the stages on
  /// the thread's `ServeState`. The response lands in `*out` by
  /// capacity-reusing copy-assign, so a warm caller allocates nothing
  /// on cache hits and, with explain off, nothing on misses either.
  spa::Status RecommendIntoImpl(
      const RecommendRequest& request,
      const sum::SumSnapshotPtr& batch_snapshot,
      RecommendResponse* out) const;

  /// One batch slot: `RecommendIntoImpl` into a fresh response, stored
  /// as the slot's result or error. The loop body of both batch paths.
  void ServeResult(const RecommendRequest& request,
                   const sum::SumSnapshotPtr& batch_snapshot,
                   spa::Result<RecommendResponse>* result) const;

  /// Pins a batch: the caller holds the shared serve lock. Returns the
  /// SUM snapshot every request of the batch serves against (null
  /// without a SUM service) and, when `pin` is non-null, fills it with
  /// the consistency point (fit epoch, matrix version, SUM version).
  sum::SumSnapshotPtr PinBatch(BatchPin* pin) const;

  EngineConfig config_;
  std::unique_ptr<HybridRecommender> hybrid_;
  EmotionAwareReranker reranker_;
  const sum::SumService* sums_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;  // lazily created
  bool fitted_ = false;
  /// Bumped by every Fit; cache entries from earlier fits never match.
  uint64_t fit_epoch_ = 0;
  /// The fitted matrix (borrowed; outlives the engine). Its live
  /// version() is a cache guard: mutations after Fit stop every
  /// earlier entry from matching.
  const InteractionMatrix* matrix_ = nullptr;
  /// Write handle to the same matrix; null when fitted via the const
  /// overload (ApplyInteractions then refuses).
  InteractionMatrix* live_matrix_ = nullptr;

  /// Serve-while-update coordination: requests hold the shared side,
  /// ApplyInteractions/Fit the exclusive side. Writer-priority —
  /// continuous read traffic must not starve live updates.
  mutable WriterPriorityMutex serve_mutex_;

  /// Response cache: LRU list (front = most recent) indexed by request
  /// fingerprint. Guarded by cache_mutex_ (Recommend stays const and
  /// thread-safe).
  mutable std::mutex cache_mutex_;
  mutable std::list<CacheEntry> cache_lru_;
  mutable std::unordered_map<uint64_t, std::list<CacheEntry>::iterator>
      cache_index_;
  mutable EngineCacheStats cache_stats_;

  /// Frequency tier backing cache admission and re-warm selection.
  /// Its shard mutexes are leaf locks: FrequencyMap never calls back into
  /// cache_mutex_ or serve_mutex_, so touching it while either is held
  /// cannot deadlock.
  mutable FrequencyMap user_freq_;
  /// Cacheable lookups since the last decay epoch (drives the
  /// `kCacheDecayInterval` cadence).
  mutable std::atomic<uint64_t> lookups_since_decay_{0};
  /// True while ApplyInteractions re-serves hot users under the
  /// exclusive serve lock; suppresses frequency touches so re-warm
  /// traffic cannot inflate its own users' counts. Only written under
  /// the exclusive serve lock, only read with the lock held (either
  /// side), so no synchronization beyond the lock is needed.
  mutable bool rewarm_in_progress_ = false;

  /// The popularity-only fallback tier: fitted by Fit, incrementally
  /// refreshed by ApplyInteractions (bitwise == refit), served by
  /// RecommendFallback under the shared serve lock.
  mutable PopularityRecommender fallback_pop_;

  /// Hierarchical latency profiler (updated on every serve, including
  /// cache hits, by every batch worker — lock-free, see
  /// `common/profiler.h`).
  mutable Profiler profiler_;

  /// Live-update counters (mutated only under the exclusive serve
  /// lock; read under the shared side).
  LiveUpdateStats live_stats_;

  /// Guards lazy pool construction: RecommendBatch creates the pool
  /// outside the serve lock, so it can race ApplyInteractions'
  /// EnsurePool call for the parallel shard apply.
  std::mutex pool_mu_;
  ThreadPool* EnsurePool();
};

}  // namespace spa::recsys

#endif  // SPA_RECSYS_ENGINE_H_
