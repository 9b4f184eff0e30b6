// Self-tests of the benchmark's own arithmetic. run.py runs them before
// every measurement; any failure stops the benchmark.
//
//   perfbench_selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"
#include "workload/scenario.h"
#include "workload/scenario_generator.h"

namespace perfbench {
namespace {

namespace workload = spa::workload;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentiles() {
  QuantileResult r = Quantile(Ramp(100), 0, 0.5);
  Expect(r.value == 50.0 && r.n == 100 && r.beyond == 50 && r.supported,
         "p50 of 1..100 is 50 with 50 beyond");
  r = Quantile(Ramp(100), 0, 0.99);
  Expect(r.value == 99.0 && r.beyond == 1 && !r.supported,
         "p99 of 100 samples has one sample beyond: unsupported");
  r = Quantile(Ramp(1000), 0, 0.99);
  Expect(r.value == 990.0 && r.beyond == 10 && r.supported,
         "p99 of 1000 samples has exactly ten beyond: supported");
  // Failed ops rank above every completed op.
  r = Quantile(Ramp(990), 10, 0.99);
  Expect(r.value == 990.0 && r.n == 1000,
         "ten failures sit beyond p99 of 1000");
  r = Quantile(Ramp(989), 11, 0.99);
  Expect(std::isinf(r.value) && r.value > 0,
         "eleven failures in 1000 make p99 infinite");
  r = Quantile({}, 3, 0.5);
  Expect(std::isinf(r.value), "all-failed median is infinite");
  r = Quantile({5.0, 1.0, 3.0}, 0, 0.5);
  Expect(r.value == 3.0, "unsorted input is ranked");

  Expect(HighestSupportedQuantile(1000) == 0.99, "1000 samples support p99");
  Expect(HighestSupportedQuantile(999) == 0.95, "999 samples support p95");
  Expect(HighestSupportedQuantile(100) == 0.90, "100 samples support p90");
  Expect(HighestSupportedQuantile(20) == 0.50, "20 samples support p50");
  Expect(HighestSupportedQuantile(19) == 0.0, "19 samples support nothing");
  Expect(HighestSupportedQuantile(0) == 0.0, "no samples support nothing");

  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void TestSelfTime() {
  const Interval span{0.0, 10.0};
  Expect(SelfTime(span, {}) == 10.0, "no children: all self time");
  Expect(SelfTime(span, {{1.0, 3.0}, {2.0, 5.0}, {8.0, 12.0}}) == 4.0,
         "overlapping children count once, clipped to the span");
  Expect(SelfTime(span, {{2.0, 4.0}, {2.0, 4.0}, {3.0, 3.5}}) == 8.0,
         "duplicate and nested children count once");
  Expect(SelfTime(span, {{-5.0, -1.0}, {11.0, 20.0}}) == 10.0,
         "children outside the span cover nothing");
  Expect(SelfTime(span, {{-1.0, 11.0}}) == 0.0,
         "a child covering the span leaves no self time");
  Expect(CoveredLength({{0.0, 1.0}, {1.0, 2.0}}, {0.0, 5.0}) == 2.0,
         "touching intervals join");
}

std::vector<int64_t> EventTimes(uint64_t seed) {
  workload::ScenarioConfig config =
      workload::FlashCrowdScenario(/*users=*/2'000, seed);
  config.target_events = 500;
  const std::vector<workload::ScenarioEvent> events =
      workload::ScenarioGenerator(config).Generate(1);
  std::vector<int64_t> times;
  for (const auto& e : events) times.push_back(e.time);
  return times;
}

void TestSchedule() {
  const int64_t day = spa::kMicrosPerDay;
  const std::vector<double> a = DueOffsets(EventTimes(7), day, 100.0);
  const std::vector<double> b = DueOffsets(EventTimes(7), day, 100.0);
  const std::vector<double> c = DueOffsets(EventTimes(8), day, 100.0);
  const std::vector<double> fast = DueOffsets(EventTimes(7), day, 200.0);
  Expect(!a.empty() && a == b, "same seed and rate give the same schedule");
  Expect(a != c, "another seed gives another schedule");
  bool sorted = true, halved = a.size() == fast.size();
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i] < a[i - 1]) sorted = false;
    if (halved && std::fabs(fast[i] * 2.0 - a[i]) > 1e-9) halved = false;
  }
  Expect(sorted, "due times never go backwards");
  Expect(halved, "doubling the rate halves every due time");
  Expect(a.back() < static_cast<double>(a.size()) / 100.0,
         "the stream fits in events / rate seconds");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestSchedule();
  if (perfbench::g_failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
