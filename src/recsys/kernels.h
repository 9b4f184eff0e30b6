#ifndef SPA_RECSYS_KERNELS_H_
#define SPA_RECSYS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "recsys/interaction_matrix.h"

/// \file
/// SIMD scoring kernels with runtime dispatch, and the score
/// accumulator the serve hot path runs on.
///
/// ## The parity rule
///
/// Every kernel here exists in two implementations — a scalar
/// reference and an AVX2 body — and the two are **bitwise identical**
/// for every input, which is what lets the engine's differential
/// parity gates (micro-batch/per-request, cached/recomputed,
/// indexed/lazy, routed/single-node) keep holding on machines with and
/// without AVX2:
///
///  * reductions fix the lane order: `Dot` accumulates into four
///    stride-4 partial sums (lane j takes elements j, j+4, j+8, ...)
///    and combines them with the fixed tree (acc0+acc1)+(acc2+acc3).
///    The scalar reference is written in exactly that order — NOT as a
///    single linear accumulator — so vector width never changes the
///    arithmetic;
///  * element-wise kernels (`ScaleGather`, `NormalizedContribution`)
///    perform per-element-independent operations only, so any lane
///    grouping gives the same bits by construction;
///  * the translation unit is compiled with `-ffp-contract=off`: the
///    scalar reference must not be quietly contracted into FMA (the
///    AVX2 bodies use explicit mul/add intrinsics, never FMA).
///
/// `SetBackend` forces a backend process-wide; the kernel parity tests
/// run every kernel under both and assert byte equality.

namespace spa::recsys::kernels {

enum class Backend {
  kAuto,    ///< AVX2 when the CPU supports it, else scalar.
  kScalar,  ///< Fixed-lane-order scalar reference.
  kAvx2,    ///< 4-wide AVX2 (requires CPU support).
};

/// True when the CPU can run the AVX2 bodies.
bool SupportsAvx2();

/// Forces a backend process-wide (tests); kAuto restores dispatch.
/// Forcing kAvx2 on a CPU without AVX2 is a checked error.
void SetBackend(Backend backend);

/// The backend kernels currently execute (never kAuto).
Backend ActiveBackend();

/// sum_i x[i]*y[i] over `n` pairs, in the fixed 4-lane order described
/// in the file comment.
double Dot(const double* x, const double* y, size_t n);

/// out[i] = base[i*stride] * scale for i in [0, n). `stride` is in
/// doubles (2 walks the `double` member of 16-byte (id, weight)
/// pairs). Element-independent, so bitwise backend-invariant.
void ScaleGather(const double* base, size_t stride, size_t n,
                 double scale, double* out);

/// The blend stage's normalize-and-weigh step over one component list:
///   raw_i  = span > 0 ? (base[i*stride] - lo) / span : 1.0
///   out[i] = weight * (floor + (1 - floor) * raw_i)
/// Element-independent, so bitwise backend-invariant.
void NormalizedContribution(const double* base, size_t stride, size_t n,
                            double lo, double span, double floor,
                            double weight, double* out);

/// \brief Epoch-stamped open-addressing score accumulator.
///
/// Replaces the per-request `unordered_map<ItemId, double>` of the KNN
/// and blend accumulation loops. Slots are assigned in first-touch
/// order, so harvesting `item(i)/score(i)` for i in [0, size())
/// enumerates items in exactly the insertion order the map-based code
/// observed its `+=` sequences in — per-item sums are bitwise
/// identical. Clearing is O(1) (an epoch bump invalidates every table
/// stamp) and the arrays only grow, so an accumulator that is reused
/// across requests performs no heap allocation once warm.
class ScoreAccumulator {
 public:
  /// Starts a fresh accumulation: O(1) clear, plus an (amortized-away)
  /// capacity ensure for `expected_items` distinct ids.
  void Begin(size_t expected_items);

  /// scores[item] += delta, inserting item at the next dense slot on
  /// first touch. Grows transparently when full. Returns the item's
  /// slot (its index for `item()`/`score()`).
  size_t Add(ItemId item, double delta) {
    const size_t slot = SlotOf(item);
    scores_[slot] += delta;
    return slot;
  }

  size_t size() const { return count_; }
  ItemId item(size_t i) const { return items_[i]; }
  double score(size_t i) const { return scores_[i]; }

 private:
  size_t SlotOf(ItemId item) {
    size_t idx = static_cast<size_t>(SplitMix64(static_cast<uint64_t>(
                     static_cast<uint32_t>(item)))) &
                 table_mask_;
    while (stamps_[idx] == epoch_) {
      if (keys_[idx] == item) return slots_[idx];
      idx = (idx + 1) & table_mask_;
    }
    return InsertAt(idx, item);
  }

  size_t InsertAt(size_t idx, ItemId item) {
    if (count_ == scores_.size()) {
      Grow();
      return SlotOf(item);  // re-probe: the table was rebuilt
    }
    stamps_[idx] = epoch_;
    keys_[idx] = item;
    slots_[idx] = static_cast<uint32_t>(count_);
    items_[count_] = item;
    scores_[count_] = 0.0;
    return count_++;
  }

  void Grow();
  void EnsureCapacity(size_t min_items);

  // Dense arrays of the capacity (max distinct items, a power of two)
  // plus an open-addressing table of twice that (keys/slots/stamps).
  std::vector<double> scores_;
  std::vector<ItemId> items_;
  std::vector<ItemId> keys_;
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> stamps_;
  size_t table_mask_ = 0;  // table size - 1
  size_t count_ = 0;
  uint32_t epoch_ = 0;
};

/// \brief The scoring scratch of one thread: the score accumulator
/// plus the kernel product buffer. Every scorer (the KNN components and
/// the hybrid blend) borrows the calling thread's `ThreadLocalWorkspace`;
/// capacity persists across calls, so the warm path allocates nothing.
/// One thread never nests two scorers: a hybrid's component fetch is
/// done with the accumulator before its blend begins.
struct ScoreWorkspace {
  ScoreAccumulator acc;
  std::vector<double> products;

  /// Product buffer of at least `n` doubles.
  double* EnsureProducts(size_t n) {
    if (products.size() < n) products.resize(n);
    return products.data();
  }
};

/// The calling thread's scoring workspace.
ScoreWorkspace& ThreadLocalWorkspace();

}  // namespace spa::recsys::kernels

#endif  // SPA_RECSYS_KERNELS_H_
