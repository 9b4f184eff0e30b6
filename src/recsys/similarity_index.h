#ifndef SPA_RECSYS_SIMILARITY_INDEX_H_
#define SPA_RECSYS_SIMILARITY_INDEX_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "recsys/interaction_matrix.h"
#include "recsys/kernels.h"

/// \file
/// Fit-time truncated cosine neighbor index for the memory-based CF
/// recommenders, with incremental maintenance for live-update serving.
///
/// The lazy KNN serving path recomputes all-pairs sparse cosines on
/// every request — the dominant serving cost on cache-miss traffic. At
/// scale, neighborhood CF is served from a precomputed neighbor graph:
/// `Build{User,Item}SimilarityIndex` computes each row's top-N
/// neighbors once (in parallel over `common/thread_pool`), and serving
/// becomes a sorted-adjacency walk.
///
/// Rows are sorted by (similarity desc, id asc), already filtered to
/// `min_similarity` and truncated to `top_n`, so a serving config equal
/// to the build config reads rows verbatim — ranking parity with the
/// lazy path is exact (bitwise), not approximate.
///
/// ## Incremental maintenance
///
/// The index is stamped with `InteractionMatrix::version()` at build.
/// A post-build matrix mutation used to be fatal; it is now repaired
/// in place: `Refresh{User,Item}SimilarityIndex` asks the sharded
/// store which rows mutated since the stamp
/// (`UsersTouchedSince`/`ItemsTouchedSince` — clean shards are
/// skipped, recent cursors read only each shard's touch journal),
/// expands them to the affected set (the dirty rows plus
/// every row sharing a key with one, i.e. the reverse neighbors whose
/// similarities involve a mutated vector), and rebuilds exactly those
/// rows in parallel. Rows outside the affected set cannot change —
/// every similarity they store involves only unmutated vectors — so
/// the refreshed index is bitwise identical to a from-scratch rebuild.
/// When the affected fraction exceeds
/// `SimilarityIndexConfig::full_rebuild_fraction`, refresh falls back
/// to a full rebuild (same result, better constant factor).
///
/// Serving a *stale* index (version mismatch, no Refresh) is still a
/// hard `SPA_CHECK` error: silently serving neighborhoods of a mutated
/// matrix would return wrong rankings with no way for callers to
/// notice. The live-update contract is mutate → Refresh → serve
/// (`RecsysEngine::ApplyInteractions` does all three).

namespace spa::recsys {

/// \brief Reusable sparse-cosine join state: hash the left (row)
/// vector once, then compute cosines against many right vectors.
///
/// The orientation is fixed — the left vector is always the hashed
/// side, the right vector is walked in storage order — so a similarity
/// never depends on which list happens to be shorter, and one-per-row
/// reuse (`SetLeft` once, `Against` per candidate) is bitwise
/// identical to the one-shot `SparseCosine` wrapper below. Matched
/// weight pairs are gathered into contiguous buffers and reduced by
/// `kernels::Dot` (SIMD with a bitwise-equal scalar reference). The
/// table and buffers grow monotonically and are epoch-cleared, so a
/// build loop reusing one joiner stops allocating after warm-up.
template <typename K>
class SparseCosineJoiner {
 public:
  void SetLeft(const std::vector<std::pair<K, double>>& a) {
    const size_t table =
        std::bit_ceil(std::max<size_t>(2 * a.size(), 16));
    if (stamps_.size() < table) {
      keys_.resize(table);
      weights_.resize(table);
      stamps_.assign(table, 0);
      epoch_ = 0;
    }
    mask_ = stamps_.size() - 1;
    ++epoch_;
    if (epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    for (const auto& [key, w] : a) {
      size_t idx = HashKey(key) & mask_;
      while (stamps_[idx] == epoch_ && keys_[idx] != key) {
        idx = (idx + 1) & mask_;
      }
      if (stamps_[idx] != epoch_) {  // first occurrence wins
        stamps_[idx] = epoch_;
        keys_[idx] = key;
        weights_[idx] = w;
      }
    }
  }

  /// Cosine of the current left vector against `b`. Non-positive
  /// squared norms short-circuit to 0: the incrementally maintained
  /// norms can round to a tiny negative value under cancellation, and
  /// sqrt of that would poison similarities with NaN.
  double Against(const std::vector<std::pair<K, double>>& b,
                 double norm_a_sq, double norm_b_sq) {
    if (norm_a_sq <= 0.0 || norm_b_sq <= 0.0) return 0.0;
    if (wa_.size() < b.size()) {
      wa_.resize(b.size());
      wb_.resize(b.size());
    }
    size_t n = 0;
    for (const auto& [key, w] : b) {
      size_t idx = HashKey(key) & mask_;
      while (stamps_[idx] == epoch_ && keys_[idx] != key) {
        idx = (idx + 1) & mask_;
      }
      if (stamps_[idx] == epoch_) {
        wa_[n] = weights_[idx];
        wb_[n] = w;
        ++n;
      }
    }
    const double dot = kernels::Dot(wa_.data(), wb_.data(), n);
    return dot / (std::sqrt(norm_a_sq) * std::sqrt(norm_b_sq));
  }

 private:
  static uint64_t HashKey(K key) {
    return SplitMix64(
        static_cast<uint64_t>(static_cast<std::make_unsigned_t<K>>(key)));
  }

  std::vector<K> keys_;
  std::vector<double> weights_;
  std::vector<uint32_t> stamps_;
  std::vector<double> wa_, wb_;
  size_t mask_ = 0;
  uint32_t epoch_ = 0;
};

/// Sparse cosine between two (key, weight) lists. Shared by the lazy
/// KNN path and the index build so both produce bitwise-identical
/// similarities (both route through `SparseCosineJoiner`, left = `a`).
template <typename K>
double SparseCosine(const std::vector<std::pair<K, double>>& a,
                    const std::vector<std::pair<K, double>>& b,
                    double norm_a_sq, double norm_b_sq) {
  thread_local SparseCosineJoiner<K> joiner;
  joiner.SetLeft(a);
  return joiner.Against(b, norm_a_sq, norm_b_sq);
}

/// \brief Build/refresh parameters of a similarity index.
struct SimilarityIndexConfig {
  /// Neighbors kept per row (k of the serving KNN).
  size_t top_n = 20;
  /// Neighbors below this similarity are not stored.
  double min_similarity = 1e-6;
  /// Worker threads for builds and refreshes; 0 = auto (hardware
  /// concurrency for large row sets, serial for small ones). The
  /// result is identical for every thread count.
  size_t build_threads = 0;
  /// Refresh falls back to a full rebuild when the affected rows
  /// exceed this fraction of all rows (0 forces full rebuilds, >= 1
  /// never falls back). Incremental and full paths produce bitwise-
  /// identical indexes; this only trades constant factors.
  double full_rebuild_fraction = 0.25;
};

/// \brief Cost/size report of one index (cumulative across refreshes).
struct SimilarityIndexStats {
  size_t rows = 0;             ///< rows indexed (users or items)
  size_t entries = 0;          ///< stored (id, similarity) pairs
  size_t memory_bytes = 0;     ///< estimated resident size
  double build_seconds = 0.0;  ///< wall-clock time of the initial build
  size_t build_threads = 0;    ///< workers the build actually used
  uint64_t matrix_version = 0; ///< matrix version the index matches
  // ---- incremental maintenance ------------------------------------------
  uint64_t refreshes = 0;           ///< Refresh calls that found dirt
  uint64_t full_rebuild_refreshes = 0;  ///< refreshes that rebuilt all
  uint64_t rows_refreshed_total = 0;    ///< rows rebuilt incrementally
  size_t last_refresh_rows = 0;     ///< rows rebuilt by the last one
  double last_refresh_seconds = 0.0;
};

/// \brief Refresh outcome (per index; the serving layer aggregates).
template <typename Id>
struct SimilarityRefreshReport {
  /// False when the index already matched the matrix (no-op).
  bool refreshed = false;
  bool full_rebuild = false;
  /// Rows directly mutated in the matrix since the last sync.
  size_t dirty_rows = 0;
  /// Every rebuilt row (dirty + reverse neighbors), ascending; empty
  /// when `full_rebuild` (all rows were rebuilt).
  std::vector<Id> rows;
  double seconds = 0.0;
};

/// \brief Truncated neighbor graph over users or items.
///
/// Instantiated as `SimilarityIndex<UserId>` (user-user, for UserKNN)
/// and `SimilarityIndex<ItemId>` (item-item, for ItemKNN). Reads are
/// lock-free and thread-safe against each other; refreshes mutate the
/// structure and must be serialized against reads by the owner (the
/// engine holds its writer lock across `ApplyInteractions`).
template <typename Id>
class SimilarityIndex {
 public:
  /// One stored neighbor edge.
  struct Neighbor {
    Id id{};
    double similarity = 0.0;
  };

  SimilarityIndex(std::unordered_map<Id, size_t> row_of,
                  std::vector<std::vector<Neighbor>> rows,
                  SimilarityIndexConfig config,
                  SimilarityIndexStats stats)
      : row_of_(std::move(row_of)),
        rows_(std::move(rows)),
        config_(config),
        stats_(stats) {}

  /// Neighbors of `id`, sorted by (similarity desc, id asc), already
  /// min-similarity-filtered and top-N-truncated. Empty for unknown
  /// ids.
  std::span<const Neighbor> NeighborsOf(Id id) const {
    const auto it = row_of_.find(id);
    if (it == row_of_.end()) return {};
    return std::span<const Neighbor>(rows_[it->second]);
  }

  /// The `InteractionMatrix::version()` the index currently matches
  /// (stamped at build, advanced by every refresh). Serving must
  /// hard-fail when this no longer matches the live matrix.
  uint64_t built_version() const { return stats_.matrix_version; }

  const SimilarityIndexStats& stats() const { return stats_; }
  const SimilarityIndexConfig& config() const { return config_; }

  // ---- maintenance API (used by Refresh*SimilarityIndex) -----------------

  /// Replaces a row's neighbor list, inserting the row if `id` is new
  /// (live updates can introduce users/items the build never saw).
  /// Entry/memory stats are maintained as deltas: a small refresh must
  /// not pay an O(all rows) rescan just to keep figures current.
  void ReplaceRow(Id id, std::vector<Neighbor> row) {
    stats_.entries += row.size();
    stats_.memory_bytes += row.capacity() * sizeof(Neighbor);
    const auto [it, inserted] = row_of_.try_emplace(id, rows_.size());
    if (inserted) {
      rows_.push_back(std::move(row));
      stats_.memory_bytes +=
          sizeof(std::pair<Id, size_t>) + 2 * sizeof(void*) +
          sizeof(std::vector<Neighbor>);
    } else {
      std::vector<Neighbor>& old = rows_[it->second];
      stats_.entries -= old.size();
      stats_.memory_bytes -= old.capacity() * sizeof(Neighbor);
      old = std::move(row);
    }
  }

  /// Re-stamps the matrix version and folds one refresh into the
  /// cumulative stats.
  void CommitRefresh(uint64_t matrix_version, size_t rows_refreshed,
                     bool full_rebuild, double seconds) {
    stats_.matrix_version = matrix_version;
    ++stats_.refreshes;
    if (full_rebuild) ++stats_.full_rebuild_refreshes;
    stats_.rows_refreshed_total += rows_refreshed;
    stats_.last_refresh_rows = rows_refreshed;
    stats_.last_refresh_seconds = seconds;
    stats_.rows = rows_.size();
  }

  /// Swaps in a from-scratch rebuild while keeping the cumulative
  /// refresh counters (the full-rebuild fallback path).
  void AdoptRebuild(SimilarityIndex&& rebuilt) {
    const SimilarityIndexStats cumulative = stats_;
    row_of_ = std::move(rebuilt.row_of_);
    rows_ = std::move(rebuilt.rows_);
    stats_ = rebuilt.stats_;
    stats_.build_seconds = cumulative.build_seconds;
    stats_.refreshes = cumulative.refreshes;
    stats_.full_rebuild_refreshes = cumulative.full_rebuild_refreshes;
    stats_.rows_refreshed_total = cumulative.rows_refreshed_total;
    stats_.last_refresh_rows = cumulative.last_refresh_rows;
    stats_.last_refresh_seconds = cumulative.last_refresh_seconds;
  }

 private:
  std::unordered_map<Id, size_t> row_of_;
  std::vector<std::vector<Neighbor>> rows_;
  SimilarityIndexConfig config_;
  SimilarityIndexStats stats_;
};

/// Builds the user-user index (cosine over item-interaction vectors).
SimilarityIndex<UserId> BuildUserSimilarityIndex(
    const InteractionMatrix& matrix,
    const SimilarityIndexConfig& config = {});

/// Builds the item-item index (cosine over user-interaction vectors).
SimilarityIndex<ItemId> BuildItemSimilarityIndex(
    const InteractionMatrix& matrix,
    const SimilarityIndexConfig& config = {});

/// Brings `index` in sync with `matrix` by rebuilding only the rows a
/// mutation could have changed (bitwise-identical to a full rebuild;
/// see the file comment for why the affected set is exact).
SimilarityRefreshReport<UserId> RefreshUserSimilarityIndex(
    SimilarityIndex<UserId>* index, const InteractionMatrix& matrix);

SimilarityRefreshReport<ItemId> RefreshItemSimilarityIndex(
    SimilarityIndex<ItemId>* index, const InteractionMatrix& matrix);

}  // namespace spa::recsys

#endif  // SPA_RECSYS_SIMILARITY_INDEX_H_
