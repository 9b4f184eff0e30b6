#include "arith.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile `q` among `n` samples (n > 0).
size_t NearestRank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)),
                            1, n);
}

}  // namespace

QuantileResult Quantile(std::vector<double> values, size_t failed,
                        double q) {
  QuantileResult out;
  out.n = values.size() + failed;
  if (out.n == 0) return out;
  const size_t rank = NearestRank(out.n, q);
  out.beyond = out.n - rank;
  out.supported = out.beyond >= kMinSamplesBeyond;
  if (rank > values.size()) {
    out.value = std::numeric_limits<double>::infinity();
  } else {
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    out.value = values[rank - 1];
  }
  return out;
}

double HighestSupportedQuantile(size_t n) {
  if (n == 0) return 0.0;
  for (const double q : {0.99, 0.95, 0.90, 0.50}) {
    if (n - NearestRank(n, q) >= kMinSamplesBeyond) return q;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double CoveredLength(std::vector<Interval> parts, Interval clip) {
  for (Interval& part : parts) {
    part.start = std::max(part.start, clip.start);
    part.end = std::min(part.end, clip.end);
  }
  std::erase_if(parts, [](const Interval& p) { return p.end <= p.start; });
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = -std::numeric_limits<double>::infinity();
  for (const Interval& part : parts) {
    if (part.start > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = part.start;
      run_end = part.end;
    } else {
      run_end = std::max(run_end, part.end);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return covered;
}

double SelfTime(Interval span, const std::vector<Interval>& children) {
  return (span.end - span.start) - CoveredLength(children, span);
}

std::vector<double> DueOffsets(const std::vector<int64_t>& virtual_times,
                               int64_t duration, double rate) {
  std::vector<double> due;
  due.reserve(virtual_times.size());
  if (virtual_times.empty() || duration <= 0 || rate <= 0.0) return due;
  const double wall_span = static_cast<double>(virtual_times.size()) / rate;
  const double scale = wall_span / static_cast<double>(duration);
  for (const int64_t t : virtual_times) {
    due.push_back(static_cast<double>(t) * scale);
  }
  return due;
}

}  // namespace perfbench
