#include "recsys/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/hash.h"

namespace spa::recsys {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t Mix(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ SplitMix64(v));
}

/// Order-independent digest of an item set.
uint64_t HashItemSet(const std::unordered_set<ItemId>& items) {
  uint64_t acc = 0x1234abcd5678ef90ULL;
  for (ItemId item : items) {
    acc += SplitMix64(static_cast<uint64_t>(item));
  }
  return acc;
}

/// Times one profiler item from construction; records on Stop().
class ItemTimer {
 public:
  ItemTimer(Profiler& profiler, ProfilerItem item)
      : profiler_(profiler), item_(item), start_(Clock::now()) {}
  void Stop() { profiler_.Record(item_, SecondsSince(start_)); }

 private:
  Profiler& profiler_;
  ProfilerItem item_;
  Clock::time_point start_;
};

}  // namespace

/// Per-request intermediate state between the serving stages. Each
/// serving thread keeps one (`RecommendIntoImpl`'s `thread_local`) and
/// reuses it for every request it serves.
struct RecsysEngine::ServeState {
  struct Ranked {
    double score = 0.0;
    double base_norm = 0.0;
    double alignment = 0.0;
    size_t idx = 0;
  };
  bool explain = false;
  CandidateQuery query;  ///< borrows the request's item sets
  std::vector<std::vector<Scored>> fetched;
  std::vector<double> component_seconds;  ///< per-component fetch wall
  std::vector<HybridRecommender::Blended> blended;
  /// Per-component shares, row `Blended::slot` (explain requests only).
  std::vector<double> contributions;
  bool apply_emotion = false;
  std::vector<Ranked> ranked;
  RecommendResponse response;
  /// The response's breakdowns while unexplained requests run: an
  /// unexplained response carries none, and parking them here keeps
  /// their component capacity for the thread's next explained miss.
  std::vector<ScoreBreakdown> parked_breakdowns;

  /// Readies the state for the next request: containers are cleared,
  /// not shrunk — their capacities are why the state is reused. The
  /// stages reset everything else by assignment.
  void Reset(bool explain_flag) {
    explain = explain_flag;
    ranked.clear();
    if (explain != response.breakdowns.empty()) return;
    // Explained and empty, or unexplained and holding breakdowns: one
    // side is always empty, so the swap moves the set where it is due.
    response.breakdowns.swap(parked_breakdowns);
  }
};

RecsysEngine::RecsysEngine(EngineConfig config)
    : config_(config),
      hybrid_(std::make_unique<HybridRecommender>()),
      reranker_(config.rerank),
      user_freq_(FrequencyMapConfig{.decay_factor = kCacheDecayFactor}) {
  SPA_CHECK_MSG(config_.interaction_shards >= 1,
                "EngineConfig::interaction_shards must be >= 1 (shard "
                "routing is hash % shards; 0 would be modulo-by-zero)");
}

void RecsysEngine::AddComponent(std::unique_ptr<Recommender> component,
                                double weight) {
  hybrid_->AddComponent(std::move(component), weight);
  fitted_ = false;
}

void RecsysEngine::SetItemEmotionProfile(ItemId item,
                                         const EmotionProfile& profile) {
  reranker_.SetItemProfile(item, profile);
}

void RecsysEngine::set_sum_service(const sum::SumService* sums) {
  sums_ = sums;
  ClearResponseCache();
}

spa::Status RecsysEngine::Fit(const InteractionMatrix& matrix) {
  return FitInternal(matrix, /*live=*/nullptr);
}

spa::Status RecsysEngine::Fit(InteractionMatrix* matrix) {
  SPA_CHECK(matrix != nullptr);
  return FitInternal(*matrix, matrix);
}

spa::Status RecsysEngine::FitInternal(const InteractionMatrix& matrix,
                                      InteractionMatrix* live) {
  // matrix_ and live_matrix_ must move together — a second critical
  // section would let a concurrent Fit interleave and leave live
  // updates pointed at a matrix nobody serves from.
  std::unique_lock lock(serve_mutex_);
  SPA_RETURN_IF_ERROR(hybrid_->Fit(matrix));
  // The degrade tier fits alongside the stack so RecommendFallback is
  // always servable once the engine is.
  SPA_RETURN_IF_ERROR(fallback_pop_.Fit(matrix));
  fitted_ = true;
  ++fit_epoch_;
  matrix_ = &matrix;
  live_matrix_ = live;
  ClearResponseCache();
  return spa::Status::OK();
}

// ---- live updates ----------------------------------------------------------

spa::Result<LiveUpdateReport> RecsysEngine::ApplyInteractions(
    const std::vector<Interaction>& batch) {
  std::unique_lock lock(serve_mutex_);
  if (!fitted_) {
    return spa::Status::FailedPrecondition(
        "engine not fitted; call Fit() before ApplyInteractions");
  }
  if (live_matrix_ == nullptr) {
    return spa::Status::FailedPrecondition(
        "engine was fitted from a const matrix; Fit(&matrix) to enable "
        "live updates");
  }
  LiveUpdateReport report;
  report.interactions = batch.size();
  report.matrix_version = live_matrix_->version();
  if (batch.empty()) return report;
  const uint64_t pre_version = live_matrix_->version();
  ItemTimer update_timer(profiler_, ProfilerItem::kUpdateApply);

  // 1. Route the batch into the shards. ApplyBatch parallelizes the
  // per-shard work over the engine's pool while staying byte-identical
  // to a sequential Add loop (registration order is fixed by its
  // sequential routing pass, so shard counts never change rankings —
  // the determinism tests gate this). We hold the exclusive serve
  // lock, which is exactly ApplyBatch's exclusive-access precondition.
  ShardedInteractionMatrix::ShardGroupTiming timing;
  ThreadPool* apply_pool =
      live_matrix_->shard_count() > 1 ? EnsurePool() : nullptr;
  const auto apply_start = Clock::now();
  live_matrix_->ApplyBatch(batch, apply_pool, &timing);
  report.apply_seconds = SecondsSince(apply_start);
  for (size_t s = 0; s < timing.user_shard_seconds.size(); ++s) {
    if (timing.user_shard_ops[s] == 0) continue;
    profiler_.Record(ProfilerItem::kApplyUserShardGroup,
                     timing.user_shard_seconds[s]);
  }
  for (size_t s = 0; s < timing.item_shard_seconds.size(); ++s) {
    if (timing.item_shard_ops[s] == 0) continue;
    profiler_.Record(ProfilerItem::kApplyItemShardGroup,
                     timing.item_shard_seconds[s]);
  }

  // 2. Repair every component's fitted state incrementally.
  const auto refresh_start = Clock::now();
  RefreshOutcome outcome;
  SPA_RETURN_IF_ERROR(hybrid_->Refresh(&outcome));
  // The fallback tier repairs itself with the same dirty-item re-sum
  // (bitwise == refit). Its outcome is not merged into the stack's:
  // fallback responses are never cached, so no cache entry depends on
  // its ranking (a stack popularity component reports its own prefix).
  RefreshOutcome fallback_outcome;
  SPA_RETURN_IF_ERROR(fallback_pop_.Refresh(&fallback_outcome));
  report.refresh_seconds = SecondsSince(refresh_start);
  report.rows_refreshed = outcome.rows_refreshed;
  report.full_rebuild = outcome.full_rebuild;

  // 3. Cache maintenance: drop the affected users' entries and those
  // whose candidate walk reaches the first changed popularity rank;
  // re-stamp the rest to the new matrix version. Ranks before
  // `unchanged_prefix` keep their items and totals, so every component
  // list such an entry fetched, its min-max normalisation and its
  // blend are the same bytes at the new version.
  std::unordered_set<UserId> affected;
  report.invalidated_all = outcome.all_users;
  if (!outcome.all_users) {
    affected.reserve(batch.size() + outcome.affected_users.size());
    for (const Interaction& interaction : batch) {
      affected.insert(interaction.user);
    }
    for (const UserId user : outcome.affected_users) {
      affected.insert(user);
    }
    report.affected_users = affected.size();
  }
  const uint64_t new_version = live_matrix_->version();
  report.matrix_version = new_version;
  // Hot entries this apply invalidates, queued for re-warming. Only
  // entries that were fresh at pre_version qualify: ones staled by an
  // out-of-band mutation were not invalidated *by this apply* and are
  // not the writer lane's to resurrect.
  struct RewarmCandidate {
    double frequency = 0.0;
    CacheKey key;
  };
  std::vector<RewarmCandidate> rewarm;
  if (config_.response_cache_capacity > 0) {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    for (auto it = cache_lru_.begin(); it != cache_lru_.end();) {
      // Only entries that were fresh going into this batch may be
      // re-stamped: an entry staled by an out-of-band matrix mutation
      // must not be resurrected just because no component reported
      // its user for *this* batch.
      if (outcome.all_users ||
          it->candidate_reach > outcome.unchanged_prefix ||
          affected.contains(it->key.user) ||
          it->matrix_version != pre_version) {
        if (it->matrix_version == pre_version) {
          const double freq =
              user_freq_.Count(static_cast<uint64_t>(it->key.user));
          if (freq >= kRewarmMinFrequency) {
            rewarm.push_back({freq, std::move(it->key)});
          }
        }
        cache_index_.erase(it->hash);
        it = cache_lru_.erase(it);
        ++report.cache_entries_invalidated;
        ++cache_stats_.stale_evictions;
      } else {
        it->matrix_version = new_version;
        ++it;
      }
    }
  }

  // 4. Re-warm the hot set: re-serve the hottest invalidated entries
  // into the cache at the post-apply versions while we still hold the
  // exclusive serve lock, so no reader ever observes the invalidation
  // as a miss. The serve path re-enters through RecommendIntoImpl,
  // whose internals take only leaf locks (cache_mutex_, frequency
  // shards) — never serve_mutex_ — so re-entry under the writer lock
  // is safe. rewarm_in_progress_ suppresses frequency touches so the
  // re-warm traffic cannot inflate its own hot set.
  if (!rewarm.empty()) {
    const auto rewarm_start = Clock::now();
    std::sort(rewarm.begin(), rewarm.end(),
              [](const RewarmCandidate& a, const RewarmCandidate& b) {
                if (a.frequency != b.frequency) {
                  return a.frequency > b.frequency;
                }
                if (a.key.user != b.key.user) return a.key.user < b.key.user;
                return a.key.k < b.key.k;
              });
    if (rewarm.size() > kRewarmLimit) rewarm.resize(kRewarmLimit);
    rewarm_in_progress_ = true;
    std::unordered_set<UserId> rewarmed_users;
    RecommendResponse scratch_response;
    for (RewarmCandidate& candidate : rewarm) {
      RecommendRequest request;
      request.user = candidate.key.user;
      request.k = candidate.key.k;
      request.exclude_seen = candidate.key.exclude_seen;
      request.explain = candidate.key.explain;
      request.exclude_items = std::move(candidate.key.exclude_items);
      request.candidate_items = std::move(candidate.key.candidate_items);
      if (RecommendIntoImpl(request, /*batch_snapshot=*/nullptr,
                            &scratch_response)
              .ok()) {
        ++report.entries_rewarmed;
        rewarmed_users.insert(request.user);
      }
    }
    rewarm_in_progress_ = false;
    report.users_rewarmed = rewarmed_users.size();
    report.rewarm_seconds = SecondsSince(rewarm_start);
  }

  live_stats_.batches += 1;
  live_stats_.interactions += report.interactions;
  live_stats_.rows_refreshed += report.rows_refreshed;
  live_stats_.full_rebuilds += report.full_rebuild ? 1 : 0;
  live_stats_.cache_entries_invalidated +=
      report.cache_entries_invalidated;
  live_stats_.users_rewarmed += report.users_rewarmed;
  live_stats_.entries_rewarmed += report.entries_rewarmed;
  live_stats_.apply_seconds += report.apply_seconds;
  live_stats_.refresh_seconds += report.refresh_seconds;
  live_stats_.rewarm_seconds += report.rewarm_seconds;
  update_timer.Stop();
  return report;
}

LiveUpdateStats RecsysEngine::live_update_stats() const {
  std::shared_lock lock(serve_mutex_);
  return live_stats_;
}

// ---- response cache --------------------------------------------------------

uint64_t RecsysEngine::FingerprintRequest(
    const RecommendRequest& request) {
  uint64_t h = 0x5ca1ab1e0ddba11ULL;
  h = Mix(h, static_cast<uint64_t>(request.user));
  h = Mix(h, static_cast<uint64_t>(request.k));
  h = Mix(h, static_cast<uint64_t>(request.exclude_seen ==
                                   ExcludeSeen::kYes));
  h = Mix(h, static_cast<uint64_t>(request.explain));
  h = Mix(h, HashItemSet(request.exclude_items));
  if (request.candidate_items.has_value()) {
    h = Mix(h, 1 + HashItemSet(*request.candidate_items));
  }
  return h;
}

bool RecsysEngine::KeyMatches(const CacheKey& key,
                              const RecommendRequest& request) {
  return key.user == request.user && key.k == request.k &&
         key.exclude_seen == request.exclude_seen &&
         key.explain == request.explain &&
         key.exclude_items == request.exclude_items &&
         key.candidate_items == request.candidate_items;
}

bool RecsysEngine::CacheLookupInto(uint64_t hash,
                                   const RecommendRequest& request,
                                   uint64_t sum_user_version,
                                   RecommendResponse* out) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(hash);
  if (it == cache_index_.end()) {
    ++cache_stats_.misses;
    return false;
  }
  const CacheEntry& entry = *it->second;
  if (!KeyMatches(entry.key, request)) {
    // Fingerprint collision between distinct requests: never serve it.
    ++cache_stats_.misses;
    return false;
  }
  if (entry.fit_epoch != fit_epoch_ ||
      entry.matrix_version != matrix_->version() ||
      entry.sum_user_version != sum_user_version) {
    // An update landed for this user, the fitted matrix was mutated
    // outside ApplyInteractions, or the stack was refitted since the
    // entry was memoized: drop it in place. (The matrix guard reads
    // the live version — the base recommenders serve from the live
    // matrix too; ApplyInteractions re-stamps unaffected entries, so
    // they keep matching.)
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
    ++cache_stats_.stale_evictions;
    ++cache_stats_.misses;
    return false;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  ++cache_stats_.hits;
  // Copy-assign: a warm caller's response vectors already hold the
  // capacity, so serving the hit performs no heap allocation.
  *out = entry.response;
  return true;
}

void RecsysEngine::CacheInsert(uint64_t hash,
                               const RecommendRequest& request,
                               uint64_t sum_user_version,
                               const RecommendResponse& response) const {
  // Read outside cache_mutex_: the matrix cannot move under the serve
  // lock the caller holds.
  size_t reach = SIZE_MAX;
  if (!request.candidate_items.has_value()) {
    reach = kComponentDepth + request.exclude_items.size();
    if (request.exclude_seen == ExcludeSeen::kYes) {
      reach += matrix_->ItemsOf(request.user).size();
    }
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(hash);
  if (it != cache_index_.end()) {
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
  }
  // Frequency admission: at capacity the newcomer competes with the
  // LRU victim it would evict. A strictly colder user is refused —
  // one-hit wonders cannot churn the hot set — while ties admit, so
  // uniform traffic degrades to plain LRU (and the LRU tests' exact
  // eviction counts still hold).
  if (cache_lru_.size() >= config_.response_cache_capacity) {
    const double newcomer =
        user_freq_.Count(static_cast<uint64_t>(request.user));
    const double victim = user_freq_.Count(
        static_cast<uint64_t>(cache_lru_.back().key.user));
    if (newcomer < victim) {
      ++cache_stats_.admission_rejections;
      return;
    }
  }
  CacheEntry entry;
  entry.hash = hash;
  entry.key = {request.user, request.k, request.exclude_seen,
               request.explain, request.exclude_items,
               request.candidate_items};
  entry.fit_epoch = fit_epoch_;
  entry.matrix_version = matrix_->version();
  entry.sum_user_version = sum_user_version;
  entry.candidate_reach = reach;
  entry.response = response;
  cache_lru_.push_front(std::move(entry));
  cache_index_[hash] = cache_lru_.begin();
  while (cache_lru_.size() > config_.response_cache_capacity) {
    cache_index_.erase(cache_lru_.back().hash);
    cache_lru_.pop_back();
    ++cache_stats_.capacity_evictions;
  }
}

EngineCacheStats RecsysEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_stats_;
}

void RecsysEngine::MaybeDecayFrequencies() const {
  const uint64_t lookups =
      lookups_since_decay_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (lookups % kCacheDecayInterval == 0) user_freq_.Decay();
}

double RecsysEngine::user_frequency(UserId user) const {
  return user_freq_.Count(static_cast<uint64_t>(user));
}

FrequencyMapStats RecsysEngine::user_frequency_stats() const {
  return user_freq_.stats();
}

size_t RecsysEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_lru_.size();
}

void RecsysEngine::ClearResponseCache() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_lru_.clear();
  cache_index_.clear();
}

// ---- serving ---------------------------------------------------------------

spa::Result<RecommendResponse> RecsysEngine::Recommend(
    const RecommendRequest& request) const {
  RecommendResponse response;
  spa::Status status = RecommendInto(request, &response);
  if (!status.ok()) return status;
  return response;
}

spa::Status RecsysEngine::RecommendInto(const RecommendRequest& request,
                                        RecommendResponse* out) const {
  SPA_CHECK(out != nullptr);
  std::shared_lock lock(serve_mutex_);
  return RecommendIntoImpl(request, /*batch_snapshot=*/nullptr, out);
}

spa::Status RecsysEngine::RecommendFallbackInto(
    const RecommendRequest& request, RecommendResponse* out,
    BatchPin* pin) const {
  SPA_CHECK(out != nullptr);
  std::shared_lock lock(serve_mutex_);
  SPA_RETURN_IF_ERROR(ValidateRequest(request));
  if (!fitted_) {
    return spa::Status::FailedPrecondition(
        "engine not fitted; call Fit() after assembling the stack");
  }
  if (pin != nullptr) {
    pin->fit_epoch = fit_epoch_;
    pin->matrix_version = matrix_->version();
    pin->sum_version = sums_ != nullptr ? sums_->snapshot()->version() : 0;
  }
  // Popularity-only: no component fan-out, no blend, no emotional
  // stage, no cache — the whole point is a serve that costs a ranked-
  // list walk. The ranking depends on the matrix version alone, so the
  // response is deterministic at the pin even though it is not
  // bitwise-equal to full serving (it is flagged `degraded`).
  CandidateQuery query;
  query.user = request.user;
  query.k = request.k;
  query.exclude_seen = request.exclude_seen;
  query.exclude_items =
      request.exclude_items.empty() ? nullptr : &request.exclude_items;
  query.candidate_items = request.candidate_items.has_value()
                              ? &*request.candidate_items
                              : nullptr;
  out->user = request.user;
  out->items.clear();
  out->breakdowns.clear();
  out->explained = false;
  out->emotion_applied = false;
  out->degraded = true;
  const std::vector<Scored> ranked = fallback_pop_.RecommendCandidates(query);
  out->items.reserve(ranked.size());
  for (const Scored& scored : ranked) {
    RecommendedItem item;
    item.item = scored.item;
    item.score = scored.score;
    out->items.push_back(std::move(item));
  }
  return spa::Status::OK();
}

spa::Result<RecommendResponse> RecsysEngine::RecommendFallback(
    const RecommendRequest& request, BatchPin* pin) const {
  RecommendResponse response;
  spa::Status status = RecommendFallbackInto(request, &response, pin);
  if (!status.ok()) return status;
  return response;
}

spa::Status RecsysEngine::RecommendIntoImpl(
    const RecommendRequest& request,
    const sum::SumSnapshotPtr& batch_snapshot,
    RecommendResponse* out) const {
  ItemTimer request_timer(profiler_, ProfilerItem::kRequestServe);
  spa::Status status = ValidateRequest(request);
  if (status.ok() && !fitted_) {
    status = spa::Status::FailedPrecondition(
        "engine not fitted; call Fit() after assembling the stack");
  }
  if (!status.ok()) {
    request_timer.Stop();
    return status;
  }

  // Pin the emotional context for the whole request: the caller's
  // override snapshot wins, then the batch-pinned view, then the
  // service's current head.
  sum::SumSnapshotPtr snapshot = request.emotion_override;
  const bool overridden = snapshot != nullptr;
  if (!overridden) {
    snapshot = batch_snapshot != nullptr
                   ? batch_snapshot
                   : (sums_ != nullptr ? sums_->snapshot() : nullptr);
  }
  const sum::SmartUserModel* model = nullptr;
  uint64_t sum_user_version = 0;
  if (snapshot != nullptr) {
    // GetOrNull, not Get: cold users (no SUM yet) are common, and the
    // NotFound status Get formats would be a per-request allocation.
    model = snapshot->GetOrNull(request.user);
    sum_user_version = snapshot->UserVersion(request.user);
  }

  const bool cacheable =
      config_.response_cache_capacity > 0 && !overridden;
  uint64_t fingerprint = 0;
  if (cacheable) {
    // Every cacheable lookup is one access in the user frequency tier
    // (hit or miss — the tier measures demand, not cache behavior).
    // Writer-lane re-warm recomputes are synthetic and do not count.
    if (!rewarm_in_progress_) {
      user_freq_.Touch(static_cast<uint64_t>(request.user));
      MaybeDecayFrequencies();
    }
    fingerprint = FingerprintRequest(request);
    ItemTimer timer(profiler_, ProfilerItem::kStageCacheLookup);
    const bool hit =
        CacheLookupInto(fingerprint, request, sum_user_version, out);
    timer.Stop();
    if (hit) {
      request_timer.Stop();
      return spa::Status::OK();
    }
  }

  // Uncached: run the four stages on this thread's serve state, then
  // copy the response out (the state keeps its capacities for the
  // thread's next request; the caller's `out` keeps its own). No serve
  // re-enters itself on one thread, so one state per thread suffices.
  thread_local ServeState state;
  state.Reset(request.explain);
  ServeCandidates(request, &state);
  ServeBlend(&state);
  ServeRerank(request, model, &state);
  ServeExplain(request, &state);
  if (cacheable) {
    CacheInsert(fingerprint, request, sum_user_version, state.response);
  }
  *out = state.response;
  request_timer.Stop();
  return spa::Status::OK();
}

// ---- the serving stages ----------------------------------------------------
//
// `RecommendIntoImpl` composes the four stages back-to-back; it is the
// only caller, so every entry point (single, batch, micro-batch,
// re-warm) runs the same arithmetic in the same order.

void RecsysEngine::ServeCandidates(const RecommendRequest& request,
                                   ServeState* state) const {
  // Base candidates, overfetched so the emotional stage has room to
  // move items into the top k. ValidateRequest puts no upper bound on
  // k, so the product saturates instead of wrapping to a small k.
  state->query.user = request.user;
  state->query.k = request.k > SIZE_MAX / kRerankOverfetch
                       ? SIZE_MAX
                       : request.k * kRerankOverfetch;
  state->query.exclude_seen = request.exclude_seen;
  state->query.exclude_items =
      request.exclude_items.empty() ? nullptr : &request.exclude_items;
  state->query.candidate_items = request.candidate_items.has_value()
                                     ? &*request.candidate_items
                                     : nullptr;
  ItemTimer timer(profiler_, ProfilerItem::kStageCandidateGen);
  hybrid_->FetchComponentCandidatesInto(state->query, &state->fetched,
                                        &state->component_seconds);
  timer.Stop();
  for (const double seconds : state->component_seconds) {
    profiler_.Record(ProfilerItem::kCandidateComponent, seconds);
  }
}

void RecsysEngine::ServeBlend(ServeState* state) const {
  ItemTimer timer(profiler_, ProfilerItem::kStageBlend);
  hybrid_->BlendFetchedInto(
      state->fetched, state->explain ? &state->contributions : nullptr,
      &state->blended);
  if (state->blended.size() > state->query.k) {
    state->blended.resize(state->query.k);
  }
  timer.Stop();
  // `fetched` is NOT cleared here: the thread's state keeps the
  // component lists' capacities so the next fetch allocates nothing.
}

void RecsysEngine::ServeRerank(const RecommendRequest& request,
                               const sum::SmartUserModel* model,
                               ServeState* state) const {
  ItemTimer timer(profiler_, ProfilerItem::kStageRerank);
  std::vector<HybridRecommender::Blended>& blended = state->blended;
  const bool apply_emotion =
      config_.emotion_enabled && model != nullptr && !blended.empty();
  state->apply_emotion = apply_emotion;

  state->response.user = request.user;
  state->response.explained = request.explain;
  state->response.emotion_applied = apply_emotion;
  state->response.degraded = false;  // full stack, by definition

  // Without the emotional stage scores are final and blended is
  // already sorted: drop the overfetch tail before building anything.
  if (!apply_emotion && blended.size() > request.k) {
    blended.resize(request.k);
  }

  // Re-score with the emotion blend (the formula is the reranker's —
  // one definition shared with EmotionAwareReranker::Rerank).
  using Ranked = ServeState::Ranked;
  double lo = 0.0, hi = 0.0;
  if (apply_emotion) {
    lo = hi = blended.front().score;
    for (const auto& b : blended) {
      lo = std::min(lo, b.score);
      hi = std::max(hi, b.score);
    }
  }
  ItemTimer score_timer(profiler_, ProfilerItem::kRerankScore);
  std::vector<Ranked>& ranked = state->ranked;
  ranked.reserve(blended.size());
  for (size_t i = 0; i < blended.size(); ++i) {
    Ranked r;
    r.idx = i;
    if (apply_emotion) {
      r.base_norm =
          EmotionAwareReranker::NormalizedBase(blended[i].score, lo, hi);
      r.alignment = reranker_.Alignment(*model, blended[i].item);
      r.score = reranker_.BlendScore(r.base_norm, r.alignment);
    } else {
      r.score = blended[i].score;
    }
    ranked.push_back(r);
  }
  score_timer.Stop();
  ItemTimer sort_timer(profiler_, ProfilerItem::kRerankSort);
  std::sort(ranked.begin(), ranked.end(),
            [&blended](const Ranked& a, const Ranked& b) {
              if (a.score != b.score) return a.score > b.score;
              return blended[a.idx].item < blended[b.idx].item;
            });
  if (ranked.size() > request.k) ranked.resize(request.k);
  sort_timer.Stop();
  timer.Stop();
}

void RecsysEngine::ServeExplain(const RecommendRequest& request,
                                ServeState* state) const {
  // Materialize the surviving top-k items (and their score breakdowns
  // when the request asked for an explanation).
  ItemTimer timer(profiler_, ProfilerItem::kStageExplain);
  const std::vector<HybridRecommender::Blended>& blended = state->blended;
  const size_t width = hybrid_->component_count();
  const bool emotion = request.explain && state->apply_emotion;
  std::vector<RecommendedItem>& items = state->response.items;
  items.resize(state->ranked.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const ServeState::Ranked& r = state->ranked[i];
    items[i].item = blended[r.idx].item;
    items[i].score = r.score;
  }
  if (!request.explain) {
    timer.Stop();
    return;
  }
  // Overwritten in place, never rebuilt: reused breakdowns keep their
  // component capacity, so a warm explain miss allocates nothing.
  std::vector<ScoreBreakdown>& breakdowns = state->response.breakdowns;
  breakdowns.resize(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const ServeState::Ranked& r = state->ranked[i];
    const HybridRecommender::Blended& b = blended[r.idx];
    ScoreBreakdown& breakdown = breakdowns[i];
    breakdown.base = b.score;
    breakdown.emotional_alignment = r.alignment;
    breakdown.base_share =
        emotion ? reranker_.BlendScore(r.base_norm, 0.0) : breakdown.base;
    breakdown.emotion_delta = emotion ? r.score - breakdown.base_share : 0.0;
    breakdown.components.resize(width);
    for (size_t ci = 0; ci < width; ++ci) {
      ComponentContribution& share = breakdown.components[ci];
      share.component = hybrid_->component_name(ci);
      share.weight = hybrid_->component_weight(ci);
      share.contribution = state->contributions[b.slot * width + ci];
    }
  }
  timer.Stop();
}

sum::SumSnapshotPtr RecsysEngine::PinBatch(BatchPin* pin) const {
  // One snapshot for the whole batch: every request sees the same
  // emotional context (mutually consistent rankings) and the per-
  // request snapshot acquisition disappears from the hot path. Pinned
  // *inside* the caller's lock hold so (matrix version, SUM version)
  // is one consistency point (see BatchPin).
  sum::SumSnapshotPtr batch_snapshot =
      sums_ != nullptr ? sums_->snapshot() : nullptr;
  if (pin != nullptr) {
    pin->fit_epoch = fit_epoch_;
    pin->matrix_version =
        (fitted_ && matrix_ != nullptr) ? matrix_->version() : 0;
    pin->sum_version =
        batch_snapshot != nullptr ? batch_snapshot->version() : 0;
  }
  return batch_snapshot;
}

void RecsysEngine::ServeResult(const RecommendRequest& request,
                               const sum::SumSnapshotPtr& batch_snapshot,
                               spa::Result<RecommendResponse>* result) const {
  RecommendResponse response;
  spa::Status status = RecommendIntoImpl(request, batch_snapshot, &response);
  if (status.ok()) *result = std::move(response);
  else *result = std::move(status);
}

std::vector<spa::Result<RecommendResponse>> RecsysEngine::RecommendBatch(
    const std::vector<RecommendRequest>& requests, BatchPin* pin) {
  std::vector<spa::Result<RecommendResponse>> results(
      requests.size(),
      spa::Result<RecommendResponse>(
          spa::Status::Internal("request not served")));
  // An empty batch must not spawn the worker pool; it still pins (the
  // lock below) so `pin` reports a real consistency point.
  ThreadPool* pool = requests.empty() ? nullptr : EnsurePool();
  // One shared hold for the whole batch, on behalf of all workers: a
  // concurrent ApplyInteractions cannot interleave mid-batch, so the
  // matrix view is as mutually consistent as the SUM view. (Workers
  // must not re-acquire: a writer queued behind this hold would block
  // them under writer-priority locks while the batch waits on the
  // workers — deadlock.)
  std::shared_lock lock(serve_mutex_);
  const sum::SumSnapshotPtr batch_snapshot = PinBatch(pin);
  if (requests.empty()) return results;
  ParallelFor(pool, requests.size(),
              [this, &requests, &results, &batch_snapshot](size_t i) {
                ServeResult(requests[i], batch_snapshot, &results[i]);
              });
  return results;
}

std::vector<spa::Result<RecommendResponse>>
RecsysEngine::RecommendMicroBatch(
    const std::vector<RecommendRequest>& requests, BatchPin* pin) const {
  std::vector<spa::Result<RecommendResponse>> results(
      requests.size(),
      spa::Result<RecommendResponse>(
          spa::Status::Internal("request not served")));
  // Same consistency discipline as RecommendBatch: one shared hold and
  // one pinned snapshot for the whole micro-batch, so the BatchPin
  // means the same thing on both paths. Only where the loop runs
  // differs: here, in order on the calling thread.
  std::shared_lock lock(serve_mutex_);
  const sum::SumSnapshotPtr batch_snapshot = PinBatch(pin);
  if (requests.empty()) return results;
  ItemTimer batch_timer(profiler_, ProfilerItem::kBatchServe);
  for (size_t i = 0; i < requests.size(); ++i) {
    ServeResult(requests[i], batch_snapshot, &results[i]);
  }
  batch_timer.Stop();
  return results;
}

ThreadPool* RecsysEngine::EnsurePool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(config_.batch_threads);
  }
  return pool_.get();
}

}  // namespace spa::recsys
