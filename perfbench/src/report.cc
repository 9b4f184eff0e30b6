#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "arith.h"

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit of the measurement; an infinitely late percentile is
/// written as 1e999, which JSON readers parse as +inf.
std::string Number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  if (std::isnan(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string MetricsJson(const MetricSet& set) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : set.metrics()) {
    if (!first) out += ", ";
    first = false;
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit);
    if (m.n > 0) out += ", \"n\": " + std::to_string(m.n);
    out += "}";
  }
  return out + "}";
}

std::string PercentileName(double q) {
  return "p" + std::to_string(static_cast<int>(std::lround(q * 100.0)));
}

}  // namespace

void MetricSet::Add(std::string name, double value, std::string unit,
                    size_t n) {
  metrics_.push_back({std::move(name), value, std::move(unit), n});
}

void MetricSet::AddQuantile(const std::string& prefix,
                            const std::vector<double>& values, size_t failed,
                            const std::string& unit, double q) {
  const QuantileResult r = Quantile(values, failed, q);
  Add(prefix + "_" + PercentileName(q) + "_" + unit, r.value, unit, r.n);
}

void MetricSet::AddLatency(const std::string& prefix,
                           const std::vector<double>& values, size_t failed,
                           const std::string& unit) {
  const double tail = HighestSupportedQuantile(values.size() + failed);
  if (tail == 0.0) return;
  AddQuantile(prefix, values, failed, unit, 0.5);
  if (tail > 0.5) AddQuantile(prefix, values, failed, unit, tail);
}

void MetricSet::AddMedian(const std::string& prefix,
                          const std::vector<double>& values,
                          const std::string& unit) {
  if (HighestSupportedQuantile(values.size()) == 0.0) return;
  AddQuantile(prefix, values, 0, unit, 0.5);
}

void MetricSet::AddTail(const std::string& prefix,
                        const std::vector<double>& values,
                        const std::string& unit) {
  const double tail = HighestSupportedQuantile(values.size());
  if (tail > 0.5) AddQuantile(prefix, values, 0, unit, tail);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintMetrics(const char* heading, const MetricSet& set) {
  std::printf("-- %s\n", heading);
  for (const Metric& m : set.metrics()) {
    if (m.n > 0) {
      std::printf("  %-40s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.n);
    } else {
      std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

std::string ResultJson(
    const RunMeta& meta, bool correct, uint64_t attempted, uint64_t failed,
    const std::vector<std::pair<std::string, bool>>& checks,
    const MetricSet& end_to_end, const MetricSet& per_layer) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "0x%016llx",
                static_cast<unsigned long long>(meta.stream_fingerprint));
  std::string out = "{\"meta\": {";
  out += "\"source_id\": " + Quote(meta.source_id);
  out += ", \"compiler\": " + Quote(meta.compiler);
  out += ", \"build_type\": " + Quote(meta.build_type);
  out += ", \"nproc\": " + std::to_string(meta.nproc);
  out += ", \"cpu_model\": " + Quote(meta.cpu_model);
  out += ", \"simd_backend\": " + Quote(meta.simd_backend);
  out += ", \"seed\": " + std::to_string(meta.seed);
  out += ", \"workload\": " + Quote(meta.workload);
  out += ", \"stream_fingerprint\": " + Quote(fingerprint);
  out += ", \"events\": " + std::to_string(meta.events);
  out += ", \"rate_eps\": " + Number(meta.rate);
  out += ", \"seconds\": " + Number(meta.seconds);
  out += ", \"trace\": " + std::string(meta.trace ? "true" : "false");
  out += "}, \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"checks\": {";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(checks[i].first) + ": " +
           (checks[i].second ? "true" : "false");
  }
  out += "}, \"end_to_end\": " + MetricsJson(end_to_end);
  out += ", \"per_layer\": " + MetricsJson(per_layer);
  return out + "}";
}

}  // namespace perfbench
