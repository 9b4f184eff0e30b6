#ifndef SPA_COMMON_PROFILER_H_
#define SPA_COMMON_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

/// \file
/// Leveled hierarchical serving profiler.
///
/// The serving layers attribute time to a fixed catalog of *items*
/// arranged in three levels, in the shape of samgraph's per-stage
/// profiler (L1 whole-op, L2 per-stage, L3 per-stage internals):
///
///  * **L1** — one recording per operation: a single served request,
///    a drained micro-batch, an applied live-update batch.
///  * **L2** — one recording per stage execution of the serving
///    dataflow: cache-lookup, candidate-gen, blend, rerank, explain.
///  * **L3** — stage internals: per-component candidate fetches, the
///    rerank score loop vs its sort, and per-shard-group apply times
///    inside `ApplyInteractions`.
///
/// Every item keeps a lock-free `{count, total, max, LogHistogram}`
/// accumulator twice: a **cumulative** bank (since construction) and a
/// **current-epoch** bank that `AdvanceEpoch()` reseals, so consumers
/// can report both all-time and per-epoch quantiles. Every item is
/// always recorded; levels only filter what `Snapshot` and the exports
/// return.
///
/// Thread-safety: `Record` may be called from any number of threads
/// concurrently (relaxed atomics + the lock-free histogram).
/// `Snapshot`/`ExportJson` may run concurrently with recorders and see
/// per-counter-atomic (not mutually consistent) values; the
/// `histogram.total() == count` equality is a quiescent invariant.
/// `AdvanceEpoch` must not race recorders that are mid-`Record`
/// (callers advance between batches / scenarios, i.e. quiesced).
///
/// The JSON export schema is documented in `docs/METRICS.md`
/// (`bench_scenarios` writes it under `BENCH_serving.json["stages"]`).

namespace spa {

/// \brief Item depth. Each level includes the ones below it: a kL3
/// snapshot or export carries every item.
enum class ProfilerLevel : int { kL1 = 1, kL2 = 2, kL3 = 3 };

/// \brief The fixed item catalog. Names and levels are stable API —
/// `docs/METRICS.md` documents them and the bench exports them; append
/// new items rather than renumbering.
enum class ProfilerItem : int {
  // L1 — whole operations.
  kRequestServe = 0,  ///< one per-request serve (incl. cache hits)
  kBatchServe,        ///< one (micro-)batch drained through the engine
  kUpdateApply,       ///< one ApplyInteractions call, end to end
  // L2 — serving-dataflow stages.
  kStageCacheLookup,   ///< response-cache probe (hits and misses)
  kStageCandidateGen,  ///< per-component candidate fetch fan-out
  kStageBlend,         ///< hybrid normalize + weighted accumulate
  kStageRerank,        ///< emotional re-score + sort + truncate
  kStageExplain,       ///< response materialization + breakdowns
  // L3 — stage internals.
  kCandidateComponent,   ///< one component's candidate fetch
  kRerankScore,          ///< the re-score loop of one request
  kRerankSort,           ///< the sort + truncate of one request
  kApplyUserShardGroup,  ///< one user-shard group's batch apply
  kApplyItemShardGroup,  ///< one item-shard group's batch apply
  kNumItems,             ///< sentinel, not an item
};

inline constexpr size_t kProfilerItemCount =
    static_cast<size_t>(ProfilerItem::kNumItems);

/// Stable dotted item name, e.g. "stage.candidate_gen".
const char* ProfilerItemName(ProfilerItem item);
/// The level an item records at.
ProfilerLevel ProfilerItemLevel(ProfilerItem item);

/// \brief Point-in-time copy of one item's accumulator bank.
struct ProfilerItemSnapshot {
  ProfilerItem item = ProfilerItem::kRequestServe;
  const char* name = "";
  int level = 0;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
  /// Histogram quantile estimates in seconds (0 when count == 0).
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Full log-scale histogram snapshot (seconds; default geometry —
  /// merge bucket-by-bucket to aggregate across engines).
  LogHistogram histogram;
};

/// \brief Snapshot of every item at or below a level.
struct ProfilerSnapshot {
  uint64_t epochs = 0;  ///< AdvanceEpoch calls so far
  std::vector<ProfilerItemSnapshot> items;
};

/// \brief The leveled profiler. One instance per engine.
class Profiler {
 public:
  /// Records one duration against `item`. Lock-free; updates the
  /// cumulative and the current-epoch bank.
  void Record(ProfilerItem item, double seconds);

  /// Seals the current epoch: bumps the epoch counter and zeroes the
  /// per-epoch banks. Snapshot the epoch bank *before* advancing;
  /// recorders must be quiescent (see file comment).
  void AdvanceEpoch();
  uint64_t epochs() const {
    return epochs_.load(std::memory_order_relaxed);
  }

  /// Items at or below `max_level`; `current_epoch` selects the
  /// per-epoch banks instead of the cumulative ones.
  ProfilerSnapshot Snapshot(ProfilerLevel max_level,
                            bool current_epoch = false) const;

  /// The items array of the stable JSON export (schema:
  /// `docs/METRICS.md`), one object per item at or below `max_level`:
  /// `{"name", "level", "count", "total_seconds", "max_seconds",
  /// "p50_us", "p95_us", "p99_us"}`. `indent` spaces prefix each
  /// element line.
  std::string ExportItemsJson(ProfilerLevel max_level,
                              int indent = 4) const;

  /// Full export object: `{"level", "epochs", "items": [...]}`, where
  /// `level` is `max_level`, the export depth.
  std::string ExportJson(ProfilerLevel max_level, int indent = 2) const;

 private:
  /// One lock-free accumulator (same shape as the engine's former
  /// per-stage counters: serving workers record concurrently, so a
  /// mutex here would serialize the hot path being measured).
  struct Bank {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> total_nanos{0};
    std::atomic<uint64_t> max_nanos{0};
    LogHistogram histogram;
  };
  struct Item {
    Bank cumulative;
    Bank epoch;
  };

  static void RecordInto(Bank* bank, uint64_t nanos, double seconds);

  std::atomic<uint64_t> epochs_{0};
  std::array<Item, kProfilerItemCount> items_;
};

}  // namespace spa

#endif  // SPA_COMMON_PROFILER_H_
