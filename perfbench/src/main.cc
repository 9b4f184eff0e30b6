// The repository benchmark: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <result.json>] [--spans <spans.csv>]
//             [--source-id <id>]
//
// A run sets the deployment up several times (the median is `setup_s`),
// replays the seeded event stream open-loop from one generator thread at
// the workload's fixed rate, timing every op from its due time, then
// measures capacity in a closed-loop phase, and finally checks outputs:
// counter cross-checks and sampled differential parity against an offline
// reference. `--trace 1` adds spans and a synchronous layer-replay phase
// that times each layer's public calls directly. run.py builds this
// binary and prints the line the benchmark contract asks for.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arith.h"
#include "common/clock.h"
#include "deployment.h"
#include "recsys/kernels.h"
#include "report.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::EventKind;

/// Share of `--seconds` spent in the open-loop replay; the rest is the
/// closed-loop capacity phase.
constexpr double kOpenShare = 0.75;
/// Leading share of the open-loop replay that warms caches untimed.
constexpr double kWarmupShare = 0.2;
constexpr int kSetupRepeats = 3;
/// Writes the closed-loop phase keeps outstanding before waiting.
constexpr size_t kClosedWrites = 8;
/// Timed reads re-served on the reference (plus degraded ones).
constexpr size_t kParitySamples = 48;
constexpr size_t kDegradedSamples = 16;
/// Every Nth layer-replay read also times the fallback tier.
constexpr size_t kFallbackStride = 4;

Clock::time_point g_epoch;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

/// Sleeps until shortly before `target`, then spins: a sleeping thread
/// wakes tens of microseconds late, and the generator's lateness would
/// be charged to every op it sends. The spin is kept short so the
/// generator leaves the cores to the deployment between sends.
void WaitUntilNs(int64_t target) {
  constexpr int64_t kSpinNs = 150'000;
  const int64_t now = NowNs();
  if (target - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(target - now - kSpinNs));
  }
  while (NowNs() < target) {
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string source_id = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--spans") {
      args.spans = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

// ---- op records ------------------------------------------------------------

enum class OpKind : uint8_t { kRead, kInteractions, kSum };

/// One open-loop op. Times are nanoseconds since `g_epoch`; the
/// completion time is written by the ticket callback on a drain worker.
struct OpRecord {
  OpKind kind = OpKind::kRead;
  bool timed = false;
  size_t event = 0;
  int64_t due = 0;
  int64_t submit_start = 0;
  int64_t submit_end = 0;
  std::atomic<int64_t> complete{-1};
  bool submitted = false;
  recsys::StreamTicketPtr ticket;  ///< reads, pipeline writes, routed SUM
  std::optional<recsys::FanoutTicket> fanout;  ///< routed interactions
  bool parity_mismatch = false;
};

/// Callback-side counters (incremented on drain workers).
struct Counters {
  std::atomic<uint64_t> read_callbacks{0};
  std::atomic<uint64_t> write_callbacks{0};
  std::atomic<int64_t> closed_inflight{0};
  std::atomic<uint64_t> closed_reads_done{0};
};

recsys::RecommendRequest ReadRequest(const workload::ScenarioEvent& e) {
  recsys::RecommendRequest request;
  request.user = e.user;
  request.k = kTopK;
  return request;
}

OpKind KindOf(const workload::ScenarioEvent& e) {
  switch (e.kind) {
    case EventKind::kServe:
      return OpKind::kRead;
    case EventKind::kInteraction:
      return OpKind::kInteractions;
    case EventKind::kSumUpdate:
      return OpKind::kSum;
  }
  return OpKind::kRead;
}

/// Submits one event to the deployment's serving front.
spa::Status SubmitEvent(Deployment& d, const WorkloadSpec& spec,
                        const workload::ScenarioEvent& e,
                        recsys::StreamTicket::Callback read_done,
                        recsys::StreamTicket::Callback write_done,
                        recsys::StreamTicketPtr* ticket,
                        std::optional<recsys::FanoutTicket>* fanout) {
  switch (e.kind) {
    case EventKind::kServe: {
      auto t = d.pipeline() != nullptr
                   ? d.pipeline()->SubmitWithDeadline(ReadRequest(e),
                                                      spec.deadline_ms * 1e-3,
                                                      std::move(read_done))
                   : d.router()->Submit(ReadRequest(e), std::move(read_done));
      if (!t.ok()) return t.status();
      *ticket = std::move(t).value();
      return spa::Status::OK();
    }
    case EventKind::kInteraction: {
      if (d.pipeline() != nullptr) {
        auto t = d.pipeline()->SubmitInteractions(e.interactions,
                                                  std::move(write_done));
        if (!t.ok()) return t.status();
        *ticket = std::move(t).value();
      } else {
        auto f = d.router()->SubmitInteractions(e.interactions);
        if (!f.ok()) return f.status();
        *fanout = std::move(f).value();
      }
      return spa::Status::OK();
    }
    case EventKind::kSumUpdate: {
      auto updates = MaterializeShifts(e.shifts, d.catalog());
      auto t = d.pipeline() != nullptr
                   ? d.pipeline()->SubmitSumUpdates(std::move(updates),
                                                    std::move(write_done))
                   : d.router()->SubmitSumUpdates(std::move(updates));
      if (!t.ok()) return t.status();
      *ticket = std::move(t).value();
      return spa::Status::OK();
    }
  }
  return spa::Status::Internal("unknown event kind");
}

/// Outcome of one op after the run: completion time (ns) or failure.
struct OpOutcome {
  bool ok = false;
  bool degraded = false;
  int64_t complete = 0;
};

/// Router tickets carry no callback: their completion is placed at the
/// end of the Submit call plus the ticket's queue and serve time, which
/// bounds the true completion from above by at most the call's length.
int64_t PlacedCompletion(const OpRecord& r,
                         const recsys::StreamTicket& ticket) {
  return r.submit_end + static_cast<int64_t>((ticket.queue_seconds() +
                                              ticket.serve_seconds()) *
                                             1e9);
}

OpOutcome Outcome(const OpRecord& r) {
  OpOutcome out;
  if (!r.submitted) return out;
  switch (r.kind) {
    case OpKind::kRead: {
      if (r.ticket->state() != recsys::TicketState::kDone ||
          !r.ticket->response().ok() || r.parity_mismatch) {
        return out;
      }
      out.degraded = r.ticket->response().value().degraded;
      out.complete = r.complete.load();
      break;
    }
    case OpKind::kSum: {
      if (r.ticket->state() != recsys::TicketState::kDone ||
          !r.ticket->sum_status().ok()) {
        return out;
      }
      const int64_t c = r.complete.load();
      out.complete = c >= 0 ? c : PlacedCompletion(r, *r.ticket);
      break;
    }
    case OpKind::kInteractions: {
      if (r.fanout.has_value()) {
        if (!r.fanout->ok()) return out;
        for (const auto& [worker, ticket] : r.fanout->tickets()) {
          out.complete =
              std::max(out.complete, PlacedCompletion(r, *ticket));
        }
      } else {
        if (r.ticket->state() != recsys::TicketState::kDone ||
            !r.ticket->update_report().ok()) {
          return out;
        }
        out.complete = r.complete.load();
      }
      break;
    }
  }
  out.ok = out.complete >= r.due;
  return out;
}

// ---- open-loop and closed-loop phases ------------------------------------

struct WindowStats {
  recsys::EngineCacheStats cache_begin;
  recsys::EngineCacheStats cache_end;
  recsys::PipelineStats pipeline_begin;
  recsys::PipelineStats pipeline_end;
};

void RunOpenLoop(Deployment& d, const WorkloadSpec& spec,
                 const std::vector<double>& due_offsets, int64_t warmup_ns,
                 std::vector<OpRecord>& records, Counters& counters,
                 WindowStats* window) {
  const auto& events = d.inputs().events;
  const int64_t start = NowNs() + 20'000'000;  // 20 ms lead
  bool window_open = false;
  for (size_t i = 0; i < events.size(); ++i) {
    OpRecord& r = records[i];
    r.event = i;
    r.kind = KindOf(events[i]);
    r.due = start + static_cast<int64_t>(due_offsets[i] * 1e9);
    r.timed = r.due - start >= warmup_ns;
    if (r.timed && !window_open) {
      window_open = true;
      window->cache_begin = d.ReadLookups();
      window->pipeline_begin = d.PipelineTotals();
    }
    WaitUntilNs(r.due);
    OpRecord* rp = &r;
    Counters* cp = &counters;
    r.submit_start = NowNs();
    const spa::Status status = SubmitEvent(
        d, spec, events[i],
        [rp, cp](const recsys::StreamTicket&) {
          rp->complete.store(NowNs());
          cp->read_callbacks.fetch_add(1);
        },
        [rp, cp](const recsys::StreamTicket&) {
          rp->complete.store(NowNs());
          cp->write_callbacks.fetch_add(1);
        },
        &r.ticket, &r.fanout);
    r.submit_end = NowNs();
    r.submitted = status.ok();
    if (!status.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", status.ToString().c_str());
    }
  }
  d.Flush();
  for (OpRecord& r : records) {
    if (r.fanout.has_value()) r.fanout->Wait();
  }
  window->cache_end = d.ReadLookups();
  window->pipeline_end = d.PipelineTotals();
}

struct ClosedResult {
  double capacity_rps = 0.0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  /// Routed write tickets, which complete without a callback.
  uint64_t routed_write_tickets = 0;
};

/// Keeps `spec.closed_inflight` reads in flight (writes bounded
/// separately) replaying the stream's own mix for `seconds`.
ClosedResult RunClosedLoop(Deployment& d, const WorkloadSpec& spec,
                           double seconds, Counters& counters) {
  ClosedResult out;
  const auto& events = d.inputs().events;
  using WriteTicket = std::pair<recsys::StreamTicketPtr,
                                std::optional<recsys::FanoutTicket>>;
  std::vector<recsys::StreamTicketPtr> read_tickets;
  std::deque<WriteTicket> writes;
  std::vector<WriteTicket> finished_writes;
  const int64_t limit = static_cast<int64_t>(spec.closed_inflight);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const uint64_t done_before = counters.closed_reads_done.load();
  Counters* cp = &counters;
  int64_t stopped = start;
  for (size_t i = 0;; ++i) {
    stopped = NowNs();
    if (stopped >= end) break;
    const workload::ScenarioEvent& e = events[i % events.size()];
    recsys::StreamTicketPtr ticket;
    std::optional<recsys::FanoutTicket> fanout;
    if (e.kind == EventKind::kServe) {
      for (int64_t v = counters.closed_inflight.load(); v >= limit;
           v = counters.closed_inflight.load()) {
        counters.closed_inflight.wait(v);
      }
      counters.closed_inflight.fetch_add(1);
    } else if (writes.size() >= kClosedWrites) {
      auto& [t, f] = writes.front();
      if (f.has_value()) {
        f->Wait();
      } else {
        t->Wait();
      }
      finished_writes.push_back(std::move(writes.front()));
      writes.pop_front();
    }
    const spa::Status status = SubmitEvent(
        d, spec, e,
        [cp](const recsys::StreamTicket&) {
          cp->read_callbacks.fetch_add(1);
          cp->closed_reads_done.fetch_add(1);
          cp->closed_inflight.fetch_sub(1);
          cp->closed_inflight.notify_one();
        },
        [cp](const recsys::StreamTicket&) {
          cp->write_callbacks.fetch_add(1);
        },
        &ticket, &fanout);
    if (!status.ok()) {
      ++out.failed;
      if (e.kind == EventKind::kServe) counters.closed_inflight.fetch_sub(1);
      continue;
    }
    if (e.kind == EventKind::kServe) {
      ++out.reads;
      read_tickets.push_back(std::move(ticket));
    } else {
      ++out.writes;
      writes.emplace_back(std::move(ticket), std::move(fanout));
    }
  }
  const uint64_t done = counters.closed_reads_done.load() - done_before;
  out.capacity_rps = static_cast<double>(done) /
                     (static_cast<double>(stopped - start) * 1e-9);
  d.Flush();
  for (auto& w : writes) finished_writes.push_back(std::move(w));
  for (auto& [t, f] : finished_writes) {
    if (f.has_value()) {
      f->Wait();
      if (!f->ok()) ++out.failed;
      out.routed_write_tickets += f->tickets().size();
    } else {
      t->Wait();
      const bool ok = t->kind() == recsys::StreamOpKind::kSumUpdates
                          ? t->sum_status().ok()
                          : t->update_report().ok();
      if (t->state() != recsys::TicketState::kDone || !ok) ++out.failed;
      if (d.router() != nullptr) ++out.routed_write_tickets;
    }
  }
  for (const auto& t : read_tickets) {
    if (t->Wait() != recsys::TicketState::kDone || !t->response().ok()) {
      ++out.failed;
    }
  }
  return out;
}

// ---- correctness -----------------------------------------------------------

struct ParityResult {
  size_t checked = 0;
  size_t degraded_checked = 0;
  size_t mismatches = 0;
  bool staircase_ok = true;
};

/// Re-serves sampled timed reads on an offline reference advanced to each
/// sample's pin: full serves must match bitwise, degraded ones must match
/// the reference's fallback tier.
ParityResult CheckParity(const Inputs& inputs, uint64_t seed,
                         std::vector<OpRecord>& records) {
  ParityResult out;
  const sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();

  // Samples: evenly spaced timed reads, plus evenly spaced degraded ones.
  std::vector<OpRecord*> ok_reads;
  std::vector<OpRecord*> degraded_reads;
  for (OpRecord& r : records) {
    if (r.kind != OpKind::kRead || !r.timed || !r.submitted ||
        r.ticket->state() != recsys::TicketState::kDone ||
        !r.ticket->response().ok()) {
      continue;
    }
    (r.ticket->response().value().degraded ? degraded_reads : ok_reads)
        .push_back(&r);
  }
  std::vector<OpRecord*> samples;
  const auto pick = [&samples](const std::vector<OpRecord*>& from,
                               size_t count) {
    if (from.empty()) return;
    const size_t stride = std::max<size_t>(from.size() / count, 1);
    for (size_t i = 0; i < from.size() && i / stride < count; i += stride) {
      samples.push_back(from[i]);
    }
  };
  pick(ok_reads, kParitySamples);
  pick(degraded_reads, kDegradedSamples);
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end(), [](OpRecord* a, OpRecord* b) {
    return a->ticket->pinned().matrix_version <
           b->ticket->pinned().matrix_version;
  });
  // Only the SUM versions samples pin are kept: every publish clones
  // the shards it touches, so keeping them all grows with the run.
  std::set<uint64_t> pinned_sum_versions;
  for (OpRecord* s : samples) {
    pinned_sum_versions.insert(s->ticket->pinned().sum_version);
  }
  const uint64_t max_sum_version = *pinned_sum_versions.rbegin();

  // Landed writes in version order (the writer lanes are FIFO and the
  // SUM service serializes publishes, so version order is apply order).
  std::vector<std::pair<uint64_t, size_t>> interaction_applies;
  std::vector<std::pair<uint64_t, size_t>> sum_applies;
  for (const OpRecord& r : records) {
    if (!r.submitted || r.kind == OpKind::kRead) continue;
    if (r.kind == OpKind::kSum) {
      if (r.ticket->state() == recsys::TicketState::kDone &&
          r.ticket->sum_status().ok()) {
        sum_applies.emplace_back(r.ticket->pinned().sum_version, r.event);
      }
    } else if (r.fanout.has_value()) {
      if (r.fanout->ok()) {
        interaction_applies.emplace_back(r.fanout->matrix_version(),
                                         r.event);
      }
    } else if (r.ticket->state() == recsys::TicketState::kDone &&
               r.ticket->update_report().ok()) {
      interaction_applies.emplace_back(r.ticket->pinned().matrix_version,
                                       r.event);
    }
  }
  std::sort(interaction_applies.begin(), interaction_applies.end());
  std::sort(sum_applies.begin(), sum_applies.end());

  sum::SumService ref_sums(&catalog);
  if (!ref_sums.ApplyAll(inputs.bootstrap_updates).ok()) {
    out.staircase_ok = false;
    return out;
  }
  std::map<uint64_t, sum::SumSnapshotPtr> snapshots;
  snapshots[ref_sums.version()] = ref_sums.snapshot();
  for (const auto& [version, event] : sum_applies) {
    if (version > max_sum_version) break;
    if (!ref_sums
             .ApplyAll(MaterializeShifts(inputs.events[event].shifts,
                                         catalog))
             .ok() ||
        ref_sums.version() != version) {
      out.staircase_ok = false;
      return out;
    }
    if (pinned_sum_versions.contains(version)) {
      snapshots[version] = ref_sums.snapshot();
    }
  }

  recsys::InteractionMatrix ref_matrix(kInteractionShards);
  for (const recsys::Interaction& it : inputs.bootstrap_log) {
    ref_matrix.Add(it.user, it.item, it.weight);
  }
  recsys::EngineConfig config = ServingEngineConfig();
  config.response_cache_capacity = 0;
  recsys::RecsysEngine reference(config);
  StackBuilder(seed, inputs.items)(reference);
  if (!reference.Fit(&ref_matrix).ok()) {
    out.staircase_ok = false;
    return out;
  }

  size_t next = 0;
  for (OpRecord* s : samples) {
    const recsys::BatchPin& pin = s->ticket->pinned();
    while (next < interaction_applies.size() &&
           interaction_applies[next].first <= pin.matrix_version) {
      if (!reference
               .ApplyInteractions(
                   inputs.events[interaction_applies[next].second]
                       .interactions)
               .ok()) {
        out.staircase_ok = false;
        return out;
      }
      ++next;
    }
    const recsys::RecommendResponse& streamed =
        s->ticket->response().value();
    recsys::RecommendRequest request = ReadRequest(inputs.events[s->event]);
    bool match = ref_matrix.version() == pin.matrix_version;
    if (match && streamed.degraded) {
      // The fallback tier ranks by popularity alone: the matrix version
      // is its whole pin.
      const auto expected = reference.RecommendFallback(request);
      match = expected.ok() && SameResponse(streamed, expected.value());
      ++out.degraded_checked;
    } else if (match) {
      const auto snapshot = snapshots.find(pin.sum_version);
      match = snapshot != snapshots.end();
      if (match) {
        request.emotion_override = snapshot->second;
        const auto expected = reference.Recommend(request);
        match = expected.ok() && SameResponse(streamed, expected.value());
      }
    }
    ++out.checked;
    if (!match) {
      s->parity_mismatch = true;
      ++out.mismatches;
    }
  }
  return out;
}

// ---- spans -----------------------------------------------------------------

struct Span {
  uint64_t id = 0;  ///< the op's event seq; children share it
  const char* name = "";
  const char* parent = "";
  int64_t start = 0;
  int64_t end = 0;
};

class SpanLog {
 public:
  void Add(uint64_t id, const char* name, const char* parent, int64_t start,
           int64_t end) {
    spans_.push_back({id, name, parent, start, std::max(start, end)});
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id,name,parent,start_ns,end_ns\n";
    for (const Span& s : spans_) {
      out << s.id << ',' << s.name << ',' << s.parent << ',' << s.start
          << ',' << s.end << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// ---- layer replay (traced run) -------------------------------------------

/// Feeds the open-loop events synchronously, from one thread, into a
/// fresh engine + SUM service built from the same bootstrap, timing each
/// layer's public calls directly. Returns false when a call fails or the
/// engine's cache counters do not account for every lookup made.
bool LayerReplay(const WorkloadSpec& spec, uint64_t seed, size_t events,
                 const std::vector<OpRecord>& records, SpanLog* spans,
                 MetricSet* layer) {
  auto step = Clock::now();
  const sum::AttributeCatalog catalog =
      sum::AttributeCatalog::EmagisterDefault();
  const Inputs inputs = GenerateInputs(spec, seed, events, catalog);
  layer->Add("workload.generate_s", spa::SecondsSince(step), "s");

  step = Clock::now();
  sum::SumService sums(&catalog);
  if (!sums.ApplyAll(inputs.bootstrap_updates).ok()) return false;
  layer->Add("sum.bootstrap_s", spa::SecondsSince(step), "s");

  step = Clock::now();
  recsys::InteractionMatrix matrix(kInteractionShards);
  for (const recsys::Interaction& it : inputs.bootstrap_log) {
    matrix.Add(it.user, it.item, it.weight);
  }
  layer->Add("store.bootstrap_s", spa::SecondsSince(step), "s");

  step = Clock::now();
  recsys::RecsysEngine engine(ServingEngineConfig());
  StackBuilder(seed, inputs.items)(engine);
  engine.set_sum_service(&sums);
  if (!engine.Fit(&matrix).ok()) return false;
  layer->Add("engine.fit_s", spa::SecondsSince(step), "s");

  std::vector<double> hit_us, miss_us, all_us, fallback_us, apply_all_ms,
      apply_interactions_ms, store_ms, refresh_ms, rewarm_ms, rows,
      invalidated, rewarmed;
  uint64_t calls = 0;
  const recsys::EngineCacheStats replay_begin = engine.cache_stats();
  recsys::RecommendResponse response;
  size_t timed_reads = 0;
  for (size_t i = 0; i < inputs.events.size(); ++i) {
    const workload::ScenarioEvent& e = inputs.events[i];
    const bool timed = records[i].timed;
    switch (e.kind) {
      case EventKind::kServe: {
        const recsys::RecommendRequest request = ReadRequest(e);
        const uint64_t hits_before = engine.cache_stats().hits;
        const int64_t t0 = NowNs();
        const spa::Status status = engine.RecommendInto(request, &response);
        const int64_t t1 = NowNs();
        ++calls;
        if (!status.ok()) return false;
        const bool hit = engine.cache_stats().hits > hits_before;
        if (timed) {
          spans->Add(e.seq, hit ? "engine.recommend_hit"
                                : "engine.recommend_miss",
                     "layer_replay", t0, t1);
          (hit ? hit_us : miss_us).push_back((t1 - t0) * 1e-3);
          all_us.push_back((t1 - t0) * 1e-3);
          if (timed_reads++ % kFallbackStride == 0) {
            const int64_t f0 = NowNs();
            if (!engine.RecommendFallbackInto(request, &response).ok()) {
              return false;
            }
            const int64_t f1 = NowNs();
            spans->Add(e.seq, "engine.fallback", "layer_replay", f0, f1);
            fallback_us.push_back((f1 - f0) * 1e-3);
          }
        }
        break;
      }
      case EventKind::kInteraction: {
        const int64_t t0 = NowNs();
        const auto report = engine.ApplyInteractions(e.interactions);
        const int64_t t1 = NowNs();
        if (!report.ok()) return false;
        if (timed) {
          const recsys::LiveUpdateReport& r = report.value();
          spans->Add(e.seq, "engine.apply_interactions", "layer_replay", t0,
                     t1);
          apply_interactions_ms.push_back((t1 - t0) * 1e-6);
          store_ms.push_back(r.apply_seconds * 1e3);
          refresh_ms.push_back(r.refresh_seconds * 1e3);
          rewarm_ms.push_back(r.rewarm_seconds * 1e3);
          rows.push_back(static_cast<double>(r.rows_refreshed));
          invalidated.push_back(
              static_cast<double>(r.cache_entries_invalidated));
          rewarmed.push_back(static_cast<double>(r.entries_rewarmed));
        }
        break;
      }
      case EventKind::kSumUpdate: {
        const auto updates = MaterializeShifts(e.shifts, catalog);
        const int64_t t0 = NowNs();
        if (!sums.ApplyAll(updates).ok()) return false;
        const int64_t t1 = NowNs();
        if (timed) {
          spans->Add(e.seq, "sum.apply_all", "layer_replay", t0, t1);
          apply_all_ms.push_back((t1 - t0) * 1e-6);
        }
        break;
      }
    }
  }
  const recsys::EngineCacheStats end = engine.cache_stats();
  // Every direct call is one cacheable lookup, a hit or a miss; so is
  // every entry an interaction apply re-warmed.
  const bool counted = end.hits + end.misses - replay_begin.hits -
                           replay_begin.misses ==
                       calls + engine.live_update_stats().entries_rewarmed;

  layer->AddLatency("sum.apply_all", apply_all_ms, 0, "ms");
  layer->AddMedian("engine.recommend_hit", hit_us, "us");
  layer->AddMedian("engine.recommend_miss", miss_us, "us");
  layer->AddTail("engine.recommend", all_us, "us");
  layer->AddLatency("engine.apply_interactions", apply_interactions_ms, 0,
                    "ms");
  if (!store_ms.empty()) {
    const size_t n = store_ms.size();
    layer->Add("store.apply_ms_mean", Mean(store_ms), "ms", n);
    layer->Add("engine.refresh_ms_mean", Mean(refresh_ms), "ms", n);
    layer->Add("engine.rewarm_ms_mean", Mean(rewarm_ms), "ms", n);
    layer->Add("engine.rows_refreshed_per_apply", Mean(rows), "count", n);
    layer->Add("engine.entries_invalidated_per_apply", Mean(invalidated),
               "count", n);
    layer->Add("engine.entries_rewarmed_per_apply", Mean(rewarmed),
               "count", n);
  }
  layer->AddMedian("engine.fallback", fallback_us, "us");
  return counted;
}

// ---- metrics from the open-loop records ---------------------------------

struct OpenLoopTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

OpenLoopTotals EndToEnd(const std::vector<OpRecord>& records,
                        MetricSet* e2e) {
  OpenLoopTotals totals;
  std::vector<double> read_ms, sum_ms, inter_ms;
  size_t reads = 0, read_failed = 0, degraded = 0;
  size_t writes = 0, sum_failed = 0, inter_failed = 0;
  for (const OpRecord& r : records) {
    const OpOutcome o = Outcome(r);
    ++totals.attempted;
    if (!o.ok) ++totals.failed;
    if (!r.timed) continue;
    const double ms = (o.complete - r.due) * 1e-6;
    switch (r.kind) {
      case OpKind::kRead:
        ++reads;
        if (o.ok) {
          read_ms.push_back(ms);
          if (o.degraded) ++degraded;
        } else {
          ++read_failed;
        }
        break;
      case OpKind::kSum:
        ++writes;
        if (o.ok) {
          sum_ms.push_back(ms);
        } else {
          ++sum_failed;
        }
        break;
      case OpKind::kInteractions:
        ++writes;
        if (o.ok) {
          inter_ms.push_back(ms);
        } else {
          ++inter_failed;
        }
        break;
    }
  }
  e2e->AddLatency("read", read_ms, read_failed, "ms");
  if (reads > 0) {
    e2e->Add("read_fail_frac",
             static_cast<double>(read_failed) / static_cast<double>(reads),
             "ratio", reads);
    e2e->Add("read_degraded_frac",
             static_cast<double>(degraded) / static_cast<double>(reads),
             "ratio", reads);
  }
  e2e->AddLatency("sum_update", sum_ms, sum_failed, "ms");
  e2e->AddLatency("interaction_update", inter_ms, inter_failed, "ms");
  if (writes > 0) {
    e2e->Add("update_fail_frac",
             static_cast<double>(sum_failed + inter_failed) /
                 static_cast<double>(writes),
             "ratio", writes);
  }
  return totals;
}

Interval SpanOf(int64_t start, int64_t end) {
  return {static_cast<double>(start), static_cast<double>(end)};
}

/// Harness, pipeline and router metrics of the open-loop window, plus
/// the op spans: a root per op (due -> completion), with children for
/// the wait to send, the Submit call, and queue and serve (or apply)
/// placed from the ticket accessors.
void OpenLoopLayers(const WorkloadSpec& spec,
                    const std::vector<OpRecord>& records,
                    const WindowStats& window, SpanLog* spans,
                    MetricSet* layer) {
  std::vector<double> lag_ms, submit_us, queue_ms, serve_ms, writer_queue_ms,
      fanout_ms, replica_apply_ms, skew_ms;
  double attributed = 0.0, total = 0.0;
  std::vector<Interval> earlier_submits;
  for (size_t i = 0; i < records.size(); ++i) {
    const OpRecord& r = records[i];
    if (!r.timed || !r.submitted) continue;
    // The generator's own lateness: the part of the wait to send that it
    // did not spend inside earlier Submit calls (there the program, not
    // the harness, held it up).
    earlier_submits.clear();
    for (size_t j = i; j-- > 0 && records[j].submit_end > r.due;) {
      earlier_submits.push_back(
          SpanOf(records[j].submit_start, records[j].submit_end));
    }
    lag_ms.push_back(
        SelfTime(SpanOf(r.due, r.submit_start), earlier_submits) * 1e-6);
    const uint64_t id = r.event;
    const OpOutcome o = Outcome(r);
    const char* root = r.kind == OpKind::kRead  ? "read"
                       : r.kind == OpKind::kSum ? "sum_update"
                                                : "interaction_update";
    if (o.ok) spans->Add(id, root, "", r.due, o.complete);
    spans->Add(id, "send_wait", root, r.due, r.submit_start);
    spans->Add(id, "submit", root, r.submit_start, r.submit_end);
    if (r.kind == OpKind::kRead) {
      submit_us.push_back((r.submit_end - r.submit_start) * 1e-3);
      if (!o.ok) continue;
      const double q = r.ticket->queue_seconds();
      const double s = r.ticket->serve_seconds();
      queue_ms.push_back(q * 1e3);
      serve_ms.push_back(s * 1e3);
      const int64_t q_end = r.submit_end + static_cast<int64_t>(q * 1e9);
      const int64_t s_end = q_end + static_cast<int64_t>(s * 1e9);
      spans->Add(id, "queue", root, r.submit_end, q_end);
      spans->Add(id, "serve", root, q_end, s_end);
      const Interval span = SpanOf(r.due, o.complete);
      total += span.end - span.start;
      attributed += (span.end - span.start) -
                    SelfTime(span, {SpanOf(r.due, r.submit_start),
                                    SpanOf(r.submit_start, r.submit_end),
                                    SpanOf(r.submit_end, q_end),
                                    SpanOf(q_end, s_end)});
      continue;
    }
    if (r.fanout.has_value()) {
      fanout_ms.push_back((r.submit_end - r.submit_start) * 1e-6);
      if (!o.ok) continue;
      double lo = 1e300, hi = 0.0;
      for (const auto& [worker, t] : r.fanout->tickets()) {
        const double q = t->queue_seconds(), s = t->serve_seconds();
        writer_queue_ms.push_back(q * 1e3);
        replica_apply_ms.push_back(s * 1e3);
        lo = std::min(lo, q + s);
        hi = std::max(hi, q + s);
        const int64_t q_end = r.submit_end + static_cast<int64_t>(q * 1e9);
        spans->Add(id, "queue", root, r.submit_end, q_end);
        spans->Add(id, "replica_apply", root, q_end,
                   q_end + static_cast<int64_t>(s * 1e9));
      }
      skew_ms.push_back((hi - lo) * 1e3);
      continue;
    }
    if (!o.ok) continue;
    const double q = r.ticket->queue_seconds(), s = r.ticket->serve_seconds();
    writer_queue_ms.push_back(q * 1e3);
    const int64_t q_end = r.submit_end + static_cast<int64_t>(q * 1e9);
    spans->Add(id, "queue", root, r.submit_end, q_end);
    spans->Add(id, "apply", root, q_end,
               q_end + static_cast<int64_t>(s * 1e9));
    if (r.kind == OpKind::kInteractions) {
      const recsys::LiveUpdateReport& u = r.ticket->update_report().value();
      int64_t at = q_end;
      for (const auto& [name, secs] :
           {std::pair<const char*, double>{"store", u.apply_seconds},
            {"refresh", u.refresh_seconds},
            {"rewarm", u.rewarm_seconds}}) {
        const int64_t next = at + static_cast<int64_t>(secs * 1e9);
        spans->Add(id, name, "apply", at, next);
        at = next;
      }
    }
  }
  layer->AddTail("harness.send_lag", lag_ms, "ms");
  layer->AddLatency(spec.routed ? "router.submit" : "pipeline.submit",
                    submit_us, 0, "us");
  layer->AddLatency("pipeline.queue_wait", queue_ms, 0, "ms");
  layer->AddMedian("pipeline.serve", serve_ms, "ms");
  layer->AddTail("pipeline.writer_queue_wait", writer_queue_ms, "ms");
  const recsys::PipelineStats& b = window.pipeline_begin;
  const recsys::PipelineStats& e = window.pipeline_end;
  const uint64_t batches = e.batches - b.batches;
  const uint64_t full = (e.responses - b.responses) -
                        (e.fallback_served - b.fallback_served);
  if (batches > 0) {
    layer->Add("pipeline.batch_size_mean",
               static_cast<double>(full) / static_cast<double>(batches),
               "count", batches);
  }
  layer->Add("pipeline.fallback_served",
             static_cast<double>(e.fallback_served - b.fallback_served),
             "count");
  layer->Add("pipeline.expired_drops",
             static_cast<double>(e.expired_drops - b.expired_drops),
             "count");
  if (total > 0.0) {
    layer->Add("pipeline.read_unattributed_share", 1.0 - attributed / total,
               "ratio", queue_ms.size());
  }
  const uint64_t lookups = (window.cache_end.hits + window.cache_end.misses) -
                           (window.cache_begin.hits + window.cache_begin.misses);
  if (lookups > 0) {
    layer->Add("engine.cache_hit_rate",
               static_cast<double>(window.cache_end.hits -
                                   window.cache_begin.hits) /
                   static_cast<double>(lookups),
               "ratio", lookups);
  }
  if (spec.routed) {
    layer->AddTail("router.queue_wait", queue_ms, "ms");
    layer->AddTail("router.fanout_call", fanout_ms, "ms");
    layer->AddMedian("router.replica_apply", replica_apply_ms, "ms");
    layer->AddTail("router.replica_skew", skew_ms, "ms");
  }
}

const char* BackendName(spa::recsys::kernels::Backend backend) {
  switch (backend) {
    case spa::recsys::kernels::Backend::kScalar:
      return "scalar";
    case spa::recsys::kernels::Backend::kAvx2:
      return "avx2";
    case spa::recsys::kernels::Backend::kAuto:
      return "auto";
  }
  return "unknown";
}

int Main(int argc, char** argv) {
  g_epoch = Clock::now();
  // Sleeps end when asked, not up to the default 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out f] [--spans f] [--source-id s]\n");
    return 2;
  }
  const Args& args = *parsed;
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double open_seconds = args.seconds * kOpenShare;
  const double closed_seconds = args.seconds - open_seconds;
  const size_t events =
      static_cast<size_t>(std::llround(spec->rate * open_seconds));

  // ---- set-up, repeated: setup_s is the median ----------------------------
  std::vector<double> setup_s, create_s;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.reset();
    SetupTimes times;
    auto created = Deployment::Create(*spec, args.seed, events, &times);
    if (!created.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    deployment = std::move(created).value();
    setup_s.push_back(times.total_s);
    create_s.push_back(times.create_s);
  }
  Deployment& d = *deployment;
  const Inputs& inputs = d.inputs();
  std::printf("workload %s seed %llu: %zu events at %.0f/s, fingerprint "
              "0x%016llx\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              inputs.events.size(), spec->rate,
              static_cast<unsigned long long>(inputs.fingerprint));

  // ---- open loop, then closed loop ----------------------------------------
  std::vector<int64_t> times;
  times.reserve(inputs.events.size());
  for (const auto& e : inputs.events) times.push_back(e.time);
  const std::vector<double> due =
      DueOffsets(times, inputs.scenario.duration, spec->rate);
  std::vector<OpRecord> records(inputs.events.size());
  Counters counters;
  WindowStats window;
  RunOpenLoop(d, *spec, due,
              static_cast<int64_t>(open_seconds * kWarmupShare * 1e9),
              records, counters, &window);
  const ClosedResult closed =
      RunClosedLoop(d, *spec, closed_seconds, counters);

  // ---- counter cross-checks ----------------------------------------------
  const recsys::PipelineStats totals = d.PipelineTotals();
  uint64_t open_reads = 0, routed_open_write_tickets = 0;
  for (const OpRecord& r : records) {
    if (!r.submitted) continue;
    if (r.kind == OpKind::kRead) {
      ++open_reads;
    } else if (r.fanout.has_value()) {
      routed_open_write_tickets += r.fanout->tickets().size();
    } else if (spec->routed) {
      ++routed_open_write_tickets;
    }
  }
  const uint64_t read_callbacks = counters.read_callbacks.load();
  const uint64_t write_completions =
      spec->routed ? routed_open_write_tickets + closed.routed_write_tickets
                   : counters.write_callbacks.load();
  const bool reads_counted =
      read_callbacks == open_reads + closed.reads &&
      read_callbacks == totals.responses + totals.shed_reads;
  const bool writes_counted =
      write_completions == totals.updates_applied + totals.shed_writes;

  MetricSet e2e, layer;
  SpanLog spans;
  OpenLoopLayers(*spec, records, window, &spans, &layer);
  if (spec->routed) {
    layer.Add("router.create_s", Median(create_s), "s", create_s.size());
    const recsys::RouterStats rs = d.router()->stats();
    uint64_t busiest = 0, all = 0;
    for (const auto& w : rs.workers) {
      busiest = std::max(busiest, w.pipeline.responses);
      all += w.pipeline.responses;
    }
    if (all > 0) {
      layer.Add("router.busiest_share",
                static_cast<double>(busiest) / static_cast<double>(all),
                "ratio", all);
    }
  }
  const Inputs kept = inputs;
  deployment.reset();  // frees the live stack before the reference is built

  // ---- sampled differential parity ----------------------------------------
  const ParityResult parity = CheckParity(kept, args.seed, records);

  // ---- end-to-end metrics ---------------------------------------------------
  const OpenLoopTotals open = EndToEnd(records, &e2e);
  e2e.Add("read_capacity_rps", closed.capacity_rps, "req/s", closed.reads);
  e2e.Add("setup_s", Median(setup_s), "s", setup_s.size());

  bool layer_replay_ok = true;
  if (args.trace) {
    layer_replay_ok =
        LayerReplay(*spec, args.seed, events, records, &spans, &layer);
  }
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");

  const std::vector<std::pair<std::string, bool>> checks = {
      {"read_callbacks_match_stats", reads_counted},
      {"write_completions_match_stats", writes_counted},
      {"parity_staircase", parity.staircase_ok},
      {"parity_samples_match", parity.mismatches == 0},
      {"parity_sampled", parity.checked > 0},
      {"layer_replay_calls_match_cache_lookups", layer_replay_ok},
  };
  bool correct = true;
  for (const auto& [name, ok] : checks) {
    if (!ok) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", name.c_str());
    }
  }
  std::printf("parity: %zu sampled (%zu degraded), %zu mismatched\n",
              parity.checked, parity.degraded_checked, parity.mismatches);
  std::printf("callbacks: reads %llu (stats %llu), writes %llu (stats %llu)"
              "\n",
              static_cast<unsigned long long>(read_callbacks),
              static_cast<unsigned long long>(totals.responses +
                                              totals.shed_reads),
              static_cast<unsigned long long>(write_completions),
              static_cast<unsigned long long>(totals.updates_applied +
                                              totals.shed_writes));

  RunMeta meta;
  meta.source_id = args.source_id;
  meta.compiler = PERFBENCH_COMPILER;
  meta.build_type = PERFBENCH_BUILD_TYPE;
  meta.nproc = std::thread::hardware_concurrency();
  meta.cpu_model = CpuModel();
  meta.simd_backend = BackendName(spa::recsys::kernels::ActiveBackend());
  meta.seed = args.seed;
  meta.workload = spec->name;
  meta.stream_fingerprint = kept.fingerprint;
  meta.events = kept.events.size();
  meta.rate = spec->rate;
  meta.seconds = args.seconds;
  meta.trace = args.trace;

  const uint64_t attempted = open.attempted + closed.reads + closed.writes;
  const uint64_t failed = open.failed + closed.failed + (correct ? 0 : 1);
  PrintMetrics("end to end", e2e);
  if (args.trace) PrintMetrics("per layer", layer);
  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << ResultJson(meta, correct, attempted, failed, checks, e2e, layer)
        << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 2;
    }
  }
  if (args.trace && !args.spans.empty() && !spans.Write(args.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
