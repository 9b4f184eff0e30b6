#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file
/// Named metrics with units and sample counts, the run metadata stamp, and
/// the JSON result the benchmark writes for run.py.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t n = 0;  ///< samples behind the value (0 = not a sample statistic)
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit, size_t n = 0);
  /// Latency quantile family: adds `<prefix>_p50_<unit>` and the highest
  /// percentile the sample supports (p99 when it does), each with its
  /// sample count. Failed ops count as infinitely late. Nothing is added
  /// when even the median is unsupported.
  void AddLatency(const std::string& prefix, const std::vector<double>& values,
                  size_t failed, const std::string& unit);
  /// Only the median of the family.
  void AddMedian(const std::string& prefix, const std::vector<double>& values,
                 const std::string& unit);
  /// Only the tail of the family: its highest supported percentile above
  /// the median, if any.
  void AddTail(const std::string& prefix, const std::vector<double>& values,
               const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  void AddQuantile(const std::string& prefix, const std::vector<double>& values,
                   size_t failed, const std::string& unit, double q);
  std::vector<Metric> metrics_;
};

/// Who measured what, on what: enough to tell whether two result sets
/// measured the same inputs on the same kind of host.
struct RunMeta {
  std::string source_id;   ///< git sha, or a hash of the sources
  std::string compiler;
  std::string build_type;
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd_backend;
  uint64_t seed = 0;
  std::string workload;
  uint64_t stream_fingerprint = 0;
  size_t events = 0;
  double rate = 0.0;
  double seconds = 0.0;
  bool trace = false;
};

std::string CpuModel();
double PeakRssMb();

/// Prints `name value unit (n=...)` lines to stdout.
void PrintMetrics(const char* heading, const MetricSet& set);

/// The whole result as one JSON object.
std::string ResultJson(const RunMeta& meta, bool correct, uint64_t attempted,
                       uint64_t failed,
                       const std::vector<std::pair<std::string, bool>>& checks,
                       const MetricSet& end_to_end,
                       const MetricSet& per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
