#ifndef SPA_BENCH_BENCH_UTIL_H_
#define SPA_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "common/string_util.h"

/// Shared flag parsing, latency-quantile export and table rendering
/// for the bench binaries.
///
/// Common flags:
///   --users=N        candidate pool size (default per bench)
///   --seed=S         master seed (default 42)
///   --paper-scale    pool = 3,162,069 / targets = 1,340,432 (memory!)
///   --smoke          CI-sized run: small pools, full scenario +
///                    parity coverage (exit code still gates parity)

namespace spa::bench {

struct CommonFlags {
  size_t users = 0;  // 0 = bench default
  uint64_t seed = 42;
  bool paper_scale = false;
  bool smoke = false;
};

inline CommonFlags ParseFlags(int argc, char** argv) {
  CommonFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--users=", 0) == 0) {
      flags.users = static_cast<size_t>(
          std::strtoull(arg.c_str() + 8, nullptr, 10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--paper-scale") {
      flags.paper_scale = true;
    } else if (arg == "--smoke") {
      flags.smoke = true;
    }
  }
  return flags;
}

/// The three latency quantiles every bench exports, pulled from one
/// `spa::LogHistogram` snapshot (seconds) and scaled into the caller's
/// unit (1e3 = milliseconds, 1e6 = microseconds). Centralizes the
/// `Quantile(0.50/0.95/0.99)` triple that bench_serving and
/// bench_scenarios both emit per histogram.
struct QuantileSnapshot {
  uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

inline QuantileSnapshot Quantiles(const spa::LogHistogram& histogram,
                                  double scale = 1.0) {
  QuantileSnapshot snapshot;
  snapshot.count = histogram.total();
  snapshot.p50 = histogram.Quantile(0.50) * scale;
  snapshot.p95 = histogram.Quantile(0.95) * scale;
  snapshot.p99 = histogram.Quantile(0.99) * scale;
  return snapshot;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void PrintRule() {
  std::printf("------------------------------------------------------------\n");
}

}  // namespace spa::bench

#endif  // SPA_BENCH_BENCH_UTIL_H_
