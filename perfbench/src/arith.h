#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// The benchmark's own arithmetic, kept free of the program under test so
/// the self-tests can pin it: percentiles that count failed ops as
/// infinitely late, the "ten samples beyond" support rule, span self
/// time, and the open-loop due-time schedule.

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is an anecdote, not a tail.
constexpr size_t kMinSamplesBeyond = 10;

struct QuantileResult {
  double value = 0.0;     ///< +inf when the rank falls on a failed op
  size_t n = 0;           ///< samples, failed ops included
  size_t beyond = 0;      ///< samples ranked above the reported one
  bool supported = false; ///< beyond >= kMinSamplesBeyond
};

/// Nearest-rank quantile `q` in (0, 1] of `values` plus `failed` ops that
/// count as +inf (they rank above every completed op).
QuantileResult Quantile(std::vector<double> values, size_t failed, double q);

/// The highest of {0.99, 0.95, 0.90, 0.50} the sample supports, or 0 when
/// not even the median has ten samples beyond it.
double HighestSupportedQuantile(size_t n);

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// A closed time interval in arbitrary units; `end >= start`.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `parts`, each clipped to `clip`.
double CoveredLength(std::vector<Interval> parts, Interval clip);

/// A span's self time: its duration minus the part of it the union of its
/// children covers (children may overlap each other or stick out).
double SelfTime(Interval span, const std::vector<Interval>& children);

/// Open-loop due times, seconds after the first send: the stream's virtual
/// timeline (microseconds in [0, duration)) compressed so the whole stream
/// is offered at `rate` events per second on average. Burst shape (flash
/// crowds, storms) survives the compression; the result depends only on
/// the event times and the rate, never on the program.
std::vector<double> DueOffsets(const std::vector<int64_t>& virtual_times,
                               int64_t duration, double rate);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
