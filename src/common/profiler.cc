#include "common/profiler.h"

#include "common/check.h"
#include "common/string_util.h"

namespace spa {

namespace {

struct ItemMeta {
  const char* name;
  ProfilerLevel level;
};

/// Indexed by ProfilerItem. Names are stable export API.
constexpr ItemMeta kItemMeta[kProfilerItemCount] = {
    {"request.serve", ProfilerLevel::kL1},
    {"batch.serve", ProfilerLevel::kL1},
    {"update.apply", ProfilerLevel::kL1},
    {"stage.cache_lookup", ProfilerLevel::kL2},
    {"stage.candidate_gen", ProfilerLevel::kL2},
    {"stage.blend", ProfilerLevel::kL2},
    {"stage.rerank", ProfilerLevel::kL2},
    {"stage.explain", ProfilerLevel::kL2},
    {"candidate.component", ProfilerLevel::kL3},
    {"rerank.score", ProfilerLevel::kL3},
    {"rerank.sort", ProfilerLevel::kL3},
    {"apply.user_shard_group", ProfilerLevel::kL3},
    {"apply.item_shard_group", ProfilerLevel::kL3},
};

}  // namespace

const char* ProfilerItemName(ProfilerItem item) {
  const auto idx = static_cast<size_t>(item);
  SPA_CHECK(idx < kProfilerItemCount);
  return kItemMeta[idx].name;
}

ProfilerLevel ProfilerItemLevel(ProfilerItem item) {
  const auto idx = static_cast<size_t>(item);
  SPA_CHECK(idx < kProfilerItemCount);
  return kItemMeta[idx].level;
}

void Profiler::RecordInto(Bank* bank, uint64_t nanos, double seconds) {
  bank->count.fetch_add(1, std::memory_order_relaxed);
  bank->total_nanos.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t prev = bank->max_nanos.load(std::memory_order_relaxed);
  while (prev < nanos &&
         !bank->max_nanos.compare_exchange_weak(
             prev, nanos, std::memory_order_relaxed)) {
  }
  bank->histogram.Add(seconds);
}

void Profiler::Record(ProfilerItem item, double seconds) {
  const auto nanos = static_cast<uint64_t>(seconds * 1e9);
  Item& slot = items_[static_cast<size_t>(item)];
  RecordInto(&slot.cumulative, nanos, seconds);
  RecordInto(&slot.epoch, nanos, seconds);
}

void Profiler::AdvanceEpoch() {
  epochs_.fetch_add(1, std::memory_order_relaxed);
  for (Item& slot : items_) {
    slot.epoch.count.store(0, std::memory_order_relaxed);
    slot.epoch.total_nanos.store(0, std::memory_order_relaxed);
    slot.epoch.max_nanos.store(0, std::memory_order_relaxed);
    slot.epoch.histogram.Reset();
  }
}

ProfilerSnapshot Profiler::Snapshot(ProfilerLevel max_level,
                                    bool current_epoch) const {
  ProfilerSnapshot out;
  out.epochs = epochs();
  for (size_t i = 0; i < kProfilerItemCount; ++i) {
    const auto item = static_cast<ProfilerItem>(i);
    const ProfilerLevel level = ProfilerItemLevel(item);
    if (static_cast<int>(level) > static_cast<int>(max_level)) continue;
    const Bank& bank =
        current_epoch ? items_[i].epoch : items_[i].cumulative;
    ProfilerItemSnapshot s;
    s.item = item;
    s.name = ProfilerItemName(item);
    s.level = static_cast<int>(level);
    s.count = bank.count.load(std::memory_order_relaxed);
    s.total_seconds =
        static_cast<double>(
            bank.total_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    s.max_seconds =
        static_cast<double>(
            bank.max_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    s.histogram = bank.histogram;  // snapshot copy
    s.p50_seconds = s.histogram.Quantile(0.50);
    s.p95_seconds = s.histogram.Quantile(0.95);
    s.p99_seconds = s.histogram.Quantile(0.99);
    out.items.push_back(std::move(s));
  }
  return out;
}

std::string Profiler::ExportItemsJson(ProfilerLevel max_level,
                                      int indent) const {
  const ProfilerSnapshot snapshot = Snapshot(max_level);
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "[\n";
  for (size_t i = 0; i < snapshot.items.size(); ++i) {
    const ProfilerItemSnapshot& s = snapshot.items[i];
    out += pad;
    out += StrFormat(
        "  {\"name\": \"%s\", \"level\": %d, \"count\": %llu, "
        "\"total_seconds\": %.6f, \"max_seconds\": %.6f, "
        "\"p50_us\": %.3f, \"p95_us\": %.3f, \"p99_us\": %.3f}%s\n",
        s.name, s.level, static_cast<unsigned long long>(s.count),
        s.total_seconds, s.max_seconds, s.p50_seconds * 1e6,
        s.p95_seconds * 1e6, s.p99_seconds * 1e6,
        i + 1 < snapshot.items.size() ? "," : "");
  }
  out += pad + "]";
  return out;
}

std::string Profiler::ExportJson(ProfilerLevel max_level,
                                 int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + StrFormat("  \"level\": %d,\n",
                         static_cast<int>(max_level));
  out += pad + StrFormat("  \"epochs\": %llu,\n",
                         static_cast<unsigned long long>(epochs()));
  out += pad + "  \"items\": " + ExportItemsJson(max_level, indent + 2) +
         "\n";
  out += pad + "}";
  return out;
}

}  // namespace spa
