#include "recsys/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include <immintrin.h>

#include "common/check.h"

// This TU must be compiled with -ffp-contract=off (CMake sets it):
// contracting the scalar reference's a*b+c into FMA would break its
// bitwise parity with the AVX2 bodies, which use explicit mul/add.

namespace spa::recsys::kernels {

// ---- dispatch --------------------------------------------------------------

namespace {

std::atomic<Backend> g_forced{Backend::kAuto};

Backend Resolve() {
  const Backend forced = g_forced.load(std::memory_order_relaxed);
  if (forced != Backend::kAuto) return forced;
  return SupportsAvx2() ? Backend::kAvx2 : Backend::kScalar;
}

}  // namespace

bool SupportsAvx2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

void SetBackend(Backend backend) {
  SPA_CHECK_MSG(backend != Backend::kAvx2 || SupportsAvx2(),
                "cannot force the AVX2 kernel backend: CPU lacks AVX2");
  g_forced.store(backend, std::memory_order_relaxed);
}

Backend ActiveBackend() { return Resolve(); }

// ---- Dot -------------------------------------------------------------------

namespace {

double DotScalar(const double* x, const double* y, size_t n) {
  // Fixed 4-lane order: lane j accumulates elements j, j+4, j+8, ...
  // exactly as one AVX2 accumulator register would.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += x[i] * y[i];
    acc1 += x[i + 1] * y[i + 1];
    acc2 += x[i + 2] * y[i + 2];
    acc3 += x[i + 3] * y[i + 3];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (size_t j = 0; i < n; ++i, ++j) lanes[j] += x[i] * y[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2")))
double DotAvx2(const double* x, const double* y, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (size_t j = 0; i < n; ++i, ++j) lanes[j] += x[i] * y[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

double Dot(const double* x, const double* y, size_t n) {
  if (n == 0) return 0.0;
  return Resolve() == Backend::kAvx2 ? DotAvx2(x, y, n)
                                     : DotScalar(x, y, n);
}

// ---- ScaleGather -----------------------------------------------------------

namespace {

void ScaleGatherScalar(const double* base, size_t stride, size_t n,
                       double scale, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = base[i * stride] * scale;
}

__attribute__((target("avx2")))
void ScaleGatherAvx2(const double* base, size_t stride, size_t n,
                     double scale, double* out) {
  const __m256d vscale = _mm256_set1_pd(scale);
  size_t i = 0;
  if (stride == 1) {
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(out + i,
                       _mm256_mul_pd(_mm256_loadu_pd(base + i), vscale));
    }
  } else {
    const __m256i idx = _mm256_setr_epi64x(
        0, static_cast<long long>(stride),
        static_cast<long long>(2 * stride),
        static_cast<long long>(3 * stride));
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_i64gather_pd(base + i * stride, idx, 8);
      _mm256_storeu_pd(out + i, _mm256_mul_pd(v, vscale));
    }
  }
  for (; i < n; ++i) out[i] = base[i * stride] * scale;
}

}  // namespace

void ScaleGather(const double* base, size_t stride, size_t n,
                 double scale, double* out) {
  if (n == 0) return;
  if (Resolve() == Backend::kAvx2) {
    ScaleGatherAvx2(base, stride, n, scale, out);
  } else {
    ScaleGatherScalar(base, stride, n, scale, out);
  }
}

// ---- NormalizedContribution ------------------------------------------------

namespace {

void NormalizedContributionScalar(const double* base, size_t stride,
                                  size_t n, double lo, double span,
                                  double floor, double weight,
                                  double* out) {
  const double gain = 1.0 - floor;
  if (span > 0.0) {
    for (size_t i = 0; i < n; ++i) {
      const double raw = (base[i * stride] - lo) / span;
      out[i] = weight * (floor + gain * raw);
    }
  } else {
    const double constant = weight * (floor + gain * 1.0);
    for (size_t i = 0; i < n; ++i) out[i] = constant;
  }
}

__attribute__((target("avx2")))
void NormalizedContributionAvx2(const double* base, size_t stride,
                                size_t n, double lo, double span,
                                double floor, double weight,
                                double* out) {
  const double gain = 1.0 - floor;
  if (!(span > 0.0)) {
    const double constant = weight * (floor + gain * 1.0);
    const __m256d vc = _mm256_set1_pd(constant);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) _mm256_storeu_pd(out + i, vc);
    for (; i < n; ++i) out[i] = constant;
    return;
  }
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vspan = _mm256_set1_pd(span);
  const __m256d vfloor = _mm256_set1_pd(floor);
  const __m256d vgain = _mm256_set1_pd(gain);
  const __m256d vweight = _mm256_set1_pd(weight);
  const __m256i idx = _mm256_setr_epi64x(
      0, static_cast<long long>(stride),
      static_cast<long long>(2 * stride),
      static_cast<long long>(3 * stride));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v =
        stride == 1 ? _mm256_loadu_pd(base + i)
                    : _mm256_i64gather_pd(base + i * stride, idx, 8);
    const __m256d raw = _mm256_div_pd(_mm256_sub_pd(v, vlo), vspan);
    const __m256d normalized =
        _mm256_add_pd(vfloor, _mm256_mul_pd(vgain, raw));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(vweight, normalized));
  }
  for (; i < n; ++i) {
    const double raw = (base[i * stride] - lo) / span;
    out[i] = weight * (floor + gain * raw);
  }
}

}  // namespace

void NormalizedContribution(const double* base, size_t stride, size_t n,
                            double lo, double span, double floor,
                            double weight, double* out) {
  if (n == 0) return;
  if (Resolve() == Backend::kAvx2) {
    NormalizedContributionAvx2(base, stride, n, lo, span, floor, weight,
                               out);
  } else {
    NormalizedContributionScalar(base, stride, n, lo, span, floor,
                                 weight, out);
  }
}

// ---- ScoreAccumulator ------------------------------------------------------

void ScoreAccumulator::EnsureCapacity(size_t min_items) {
  if (scores_.size() >= min_items) return;
  const size_t capacity = std::bit_ceil(std::max<size_t>(min_items, 64));
  const size_t table = 2 * capacity;
  // The dense arrays keep the live items in their slots; the table is
  // rebuilt from them below.
  scores_.resize(capacity);
  items_.resize(capacity);
  keys_.resize(table);
  slots_.resize(table);
  stamps_.assign(table, 0);
  table_mask_ = table - 1;
  epoch_ = 1;
  // Reinsert the live items (slot order preserved by construction).
  for (size_t i = 0; i < count_; ++i) {
    size_t idx = static_cast<size_t>(SplitMix64(static_cast<uint64_t>(
                     static_cast<uint32_t>(items_[i])))) &
                 table_mask_;
    while (stamps_[idx] == epoch_) idx = (idx + 1) & table_mask_;
    stamps_[idx] = epoch_;
    keys_[idx] = items_[i];
    slots_[idx] = static_cast<uint32_t>(i);
  }
}

void ScoreAccumulator::Grow() { EnsureCapacity(scores_.size() * 2); }

void ScoreAccumulator::Begin(size_t expected_items) {
  count_ = 0;  // before EnsureCapacity: stale items must not migrate
  EnsureCapacity(std::max<size_t>(expected_items, 1));
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    epoch_ = 1;
  }
}

ScoreWorkspace& ThreadLocalWorkspace() {
  thread_local ScoreWorkspace workspace;
  return workspace;
}

}  // namespace spa::recsys::kernels
