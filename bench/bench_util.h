#ifndef SPA_BENCH_BENCH_UTIL_H_
#define SPA_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/string_util.h"

/// Shared flag parsing and table rendering for the bench binaries.
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
