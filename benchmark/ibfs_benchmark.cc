// ibfs_benchmark: the workload driver of the repository benchmark.
//
// Runs one named workload against the public API of gen, graph, core,
// service and fleet, timing those calls from the outside, checks every
// answer against the reference BFS, and writes one JSON document with the
// per-trial end-to-end samples and, with --trace-out, the per-layer
// breakdown plus a Chrome trace of the driver's own spans. benchmark/run.py
// builds this program, runs it once per workload and aggregates the output;
// benchmark/README.md defines every workload and metric.
//
//   ibfs_benchmark --workload NAME --seed N --seconds S --out PATH
//                  [--trace-out TRACE.json]
//
// Host wall-clock and simulated seconds are reported side by side and never
// mixed. Load comes from one generator thread, and the program runs at most
// two executor threads per engine or service.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/reference_bfs.h"
#include "core/engine.h"
#include "core/group_plan.h"
#include "fleet/fleet.h"
#include "gen/benchmarks.h"
#include "gpusim/device.h"
#include "graph/components.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/checksum.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace ibfs::benchmark {
namespace {

using Clock = std::chrono::steady_clock;
using graph::VertexId;

// Set-up is repeated this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Sources of the batch workloads and sources checked against the reference
// after the timed batch runs.
constexpr int64_t kBatchSources = 8192;
constexpr int kBatchChecked = 256;
// Length of one online trial (steady phase + overload phase) at the default
// --seconds; shorter runs shrink it. Trials are short and many because
// other tenants of a shared host slow it down in bursts: run.py reports
// each timed metric from the least disturbed trial.
constexpr double kTrialSeconds = 0.625;
constexpr double kSteadyShare = 2.0 / 3.0;
// Online warm-up drive before timing: fills the caches and starts threads.
constexpr double kWarmupSeconds = 0.25;
// At most this many requests of a traced run get Chrome-trace spans; the
// per-layer metrics still use every request of the traced trials.
constexpr int kTracedRequests = 256;
constexpr int kEngineThreads = 2;

const Clock::time_point kProcessStart = Clock::now();

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double TraceUs(Clock::time_point t) { return Us(t - kProcessStart); }

// Linear interpolation between order statistics; p in [0, 100].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}
double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Prng prng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return prng.Next();
}

// Resident set of the process once free heap pages are returned to the
// kernel: what the loaded system holds, without the allocator's
// timing-dependent slack (which heap a freed block sat in), which moved the
// peak RSS of one workload by 4 MiB between identical runs.
double ResidentMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Everything one run reports. End-to-end metrics keep one sample per trial
// (or per set-up), which run.py reduces to the run's value; layer metrics
// are single values from the traced trials.
struct Report {
  struct Samples {
    std::string unit;
    std::vector<double> values;
  };
  struct Value {
    std::string unit;
    double value = 0.0;
  };
  std::map<std::string, Samples> e2e;
  std::map<std::string, Value> layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Sample(const std::string& name, const std::string& unit, double v) {
    Samples& s = e2e[name];
    s.unit = unit;
    s.values.push_back(v);
  }
  void Layer(const std::string& name, const std::string& unit, double v) {
    layers[name] = Value{unit, v};
  }
  // Counts one checked operation; a failed check is kept with its reason
  // (the first few only, so a systematic failure stays readable).
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }

  void WriteJson(std::ostream& os, std::string_view workload, uint64_t seed,
                 double seconds, bool traced) const {
    obs::JsonWriter w(os);
    w.BeginObject();
    w.Key("workload");
    w.String(workload);
    w.Key("seed");
    w.Uint(seed);
    w.Key("seconds");
    w.Double(seconds);
    w.Key("traced");
    w.Bool(traced);
    w.Key("attempted");
    w.Int(attempted);
    w.Key("failed");
    w.Int(failed);
    w.Key("errors");
    w.BeginArray();
    for (const std::string& e : errors) w.String(e);
    w.EndArray();
    w.Key("e2e");
    w.BeginObject();
    for (const auto& [name, s] : e2e) {
      w.Key(name);
      w.BeginObject();
      w.Key("unit");
      w.String(s.unit);
      w.Key("samples");
      w.BeginArray();
      for (double v : s.values) w.Double(v);
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
    w.Key("layers");
    w.BeginObject();
    for (const auto& [name, v] : layers) {
      w.Key(name);
      w.BeginObject();
      w.Key("unit");
      w.String(v.unit);
      w.Key("value");
      w.Double(v.value);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    os << '\n';
  }
};

// Driver-side spans on one Chrome-trace track per subject (a batch run or
// a sampled query); every span of a subject carries the same "id" arg.
class Spans {
 public:
  explicit Spans(obs::Tracer* tracer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->SetProcessName(kPid, "benchmark driver");
  }
  bool on() const { return tracer_ != nullptr; }
  // Opens a new track for `id`; returns its tid.
  int Track(const std::string& id) {
    const int tid = next_tid_++;
    if (tracer_ != nullptr) tracer_->SetThreadName(kPid, tid, id);
    return tid;
  }
  void Span(int tid, std::string_view name, const std::string& id,
            double start_us, double dur_us,
            std::vector<obs::TraceArg> args = {}) {
    if (tracer_ == nullptr) return;
    args.push_back(obs::Arg("id", id));
    tracer_->CompleteSpan({kPid, tid}, name, "benchmark", start_us,
                          std::max(0.0, dur_us), std::move(args));
  }

 private:
  static constexpr int kPid = 3000;
  obs::Tracer* tracer_;
  int next_tid_ = 0;
};

enum class Kind { kBatch, kServe, kFleet };

// One workload. README.md gives the reason each one exists.
struct Workload {
  std::string_view name;
  Kind kind;
  gen::BenchmarkId graph;
  // Online only: arrivals, hot-source pool (0 = whole giant component),
  // result cache budget, sources per request, offered request rates of the
  // steady and overload phases, and executors per service.
  service::ArrivalProcess arrival = service::ArrivalProcess::kPoisson;
  int64_t source_pool = 0;
  int64_t cache_bytes = 0;
  int sources_per_request = 1;
  double steady_rps = 0.0;
  double overload_rps = 0.0;
  int execute_threads = kEngineThreads;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "batch_powerlaw",
       .kind = Kind::kBatch,
       .graph = gen::BenchmarkId::kLJ},
      {.name = "batch_uniform",
       .kind = Kind::kBatch,
       .graph = gen::BenchmarkId::kRD},
      {.name = "serve_churn",
       .kind = Kind::kServe,
       .graph = gen::BenchmarkId::kLJ,
       .arrival = service::ArrivalProcess::kPoisson,
       .cache_bytes = int64_t{8} << 20,
       .steady_rps = 16000.0,
       .overload_rps = 64000.0},
      {.name = "serve_hot",
       .kind = Kind::kServe,
       .graph = gen::BenchmarkId::kLJ,
       .arrival = service::ArrivalProcess::kBursty,
       .source_pool = 64,
       .cache_bytes = int64_t{64} << 20,
       .steady_rps = 16000.0,
       .overload_rps = 128000.0},
      {.name = "fleet_scatter",
       .kind = Kind::kFleet,
       .graph = gen::BenchmarkId::kLJ,
       .arrival = service::ArrivalProcess::kPoisson,
       .cache_bytes = int64_t{8} << 20,
       .sources_per_request = 8,
       .steady_rps = 2000.0,
       .overload_rps = 16000.0,
       .execute_threads = 1},
  };
  return kWorkloads;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;
  std::string trace_out;
  bool traced() const { return !trace_out.empty(); }
};

template <typename T>
T Take(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------- batch --

bool SameCounters(const gpusim::KernelStats& a, const gpusim::KernelStats& b) {
  return a.mem.load_transactions == b.mem.load_transactions &&
         a.mem.store_transactions == b.mem.store_transactions &&
         a.mem.atomic_ops == b.mem.atomic_ops &&
         a.launch_count == b.launch_count;
}

void RunBatch(const Workload& w, const Args& args, Report& report,
              Spans& spans) {
  EngineOptions options;
  options.strategy = Strategy::kBitwise;
  options.grouping = GroupingPolicy::kGroupBy;
  options.keep_depths = false;
  options.threads = kEngineThreads;

  std::unique_ptr<graph::Csr> graph;
  std::vector<VertexId> sources;
  std::optional<EngineResult> reference;
  std::vector<double> generate_s, sample_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    graph = std::make_unique<graph::Csr>(
        Take(gen::GenerateBenchmark(w.graph), "generate"));
    const auto t1 = Clock::now();
    sources = graph::SampleConnectedSources(*graph, kBatchSources,
                                            SubSeed(args.seed, 2));
    const auto t2 = Clock::now();
    Engine engine(graph.get(), options);
    reference = Take(engine.Run(sources), "warm-up run");
    const auto t3 = Clock::now();
    report.Sample("setup_s", "s", Ms(t3 - t0) / 1e3);
    generate_s.push_back(Ms(t1 - t0) / 1e3);
    sample_s.push_back(Ms(t2 - t1) / 1e3);
    spans.Span(spans.Track("setup " + std::to_string(i)), "setup",
               "setup" + std::to_string(i), TraceUs(t0), Us(t3 - t0),
               {obs::Arg("generate_us", Us(t1 - t0)),
                obs::Arg("sample_us", Us(t2 - t1))});
  }
  const Engine engine(graph.get(), options);
  const double n_sources = static_cast<double>(sources.size());

  // Timed runs, one per trial: the batch job is the request here, so a
  // trial's p50_ms is one Engine::Run over all sources and peak_qps its BFS
  // instances per host second. Every run must reproduce the warm-up's
  // simulated seconds and device counters exactly: the simulator is
  // deterministic.
  std::vector<double> untraced_ms, traced_ms;
  const auto timed_start = Clock::now();
  const int min_trials = args.traced() ? 2 : 1;
  for (int trial = 0;
       trial < min_trials || SecondsSince(timed_start) < args.seconds;
       ++trial) {
    const bool traced = args.traced() && trial % 2 == 1;
    const auto t0 = Clock::now();
    Result<EngineResult> run = engine.Run(sources);
    const double wall_ms = Ms(Clock::now() - t0);
    const bool ok = run.ok() &&
                    run.value().sim_seconds == reference->sim_seconds &&
                    SameCounters(run.value().totals, reference->totals);
    report.Check(ok, run.ok() ? "run diverged from warm-up sim/counters"
                              : run.status().ToString());
    if (traced) {
      traced_ms.push_back(wall_ms);
      const std::string id = "run" + std::to_string(trial);
      spans.Span(spans.Track(id), "core.run", id, TraceUs(t0), wall_ms * 1e3,
                 {obs::Arg("sources", int64_t{kBatchSources})});
      continue;
    }
    untraced_ms.push_back(wall_ms);
    report.Sample("p50_ms", "ms", wall_ms);
    report.Sample("peak_qps", "1/s", n_sources / (wall_ms / 1e3));
    report.Sample("host_gteps", "GTEPS",
                  n_sources * static_cast<double>(graph->edge_count()) /
                      (wall_ms / 1e3) / 1e9);
  }
  report.Sample("sim_gteps", "GTEPS", reference->teps / 1e9);
  report.Sample("rss_mb", "MiB", ResidentMb());

  // Answers: one untimed run that keeps depths, checked source by source
  // against the reference BFS on a seeded sample.
  {
    EngineOptions keep = options;
    keep.keep_depths = true;
    const EngineResult full = Take(Engine(graph.get(), keep).Run(sources),
                                   "checked run");
    Prng pick(SubSeed(args.seed, 3));
    for (int i = 0; i < kBatchChecked; ++i) {
      const size_t g = pick.NextBounded(full.groups.size());
      const size_t k = pick.NextBounded(full.groups[g].depths.size());
      const VertexId source = full.group_sources[g][k];
      report.Check(baselines::DepthsMatchReference(
                       *graph, source, full.groups[g].depths[k],
                       options.traversal.max_level),
                   "depths differ from reference for source " +
                       std::to_string(source));
    }
  }
  if (!args.traced()) return;

  // Per-layer breakdown. The decomposed run repeats Engine::Run's steps
  // through public calls at one thread: plan, then each group on a fresh
  // device; its simulated seconds must sum to the engine's exactly. Each
  // step is timed kSetupRepeats times; like the end-to-end metrics, host
  // times come from the fastest repeat (and the fastest traced run).
  EngineOptions serial = options;
  serial.threads = 1;
  const Engine serial_engine(graph.get(), serial);
  std::vector<double> plan_ms, execute_ms, serial_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::string id = "decomposed" + std::to_string(r);
    const int tid = spans.Track(id);
    const auto plan_start = Clock::now();
    const GroupPlan plan = Take(GroupSources(*graph, sources, serial), "plan");
    plan_ms.push_back(Ms(Clock::now() - plan_start));
    spans.Span(tid, "core.plan", id, TraceUs(plan_start),
               plan_ms.back() * 1e3);
    double execute = 0.0;
    double sim_seconds = 0.0;
    for (size_t g = 0; g < plan.grouping.groups.size(); ++g) {
      gpusim::Device device(serial.device);
      const auto t0 = Clock::now();
      Result<GroupResult> group =
          serial_engine.ExecuteGroup(plan.grouping.groups[g], &device, {});
      const double ms = Ms(Clock::now() - t0);
      report.Check(group.ok(), "group " + std::to_string(g) + " failed");
      execute += ms;
      sim_seconds += device.elapsed_seconds();
      spans.Span(tid, "core.execute_group", id, TraceUs(t0), ms * 1e3,
                 {obs::Arg("group", static_cast<int64_t>(g)),
                  obs::Arg("sim_us", device.elapsed_seconds() * 1e6)});
    }
    execute_ms.push_back(execute);
    report.Check(sim_seconds == reference->sim_seconds,
                 "decomposed sim seconds differ from Engine::Run");
    const auto serial_start = Clock::now();
    Take(serial_engine.Run(sources), "1-thread run");
    serial_ms.push_back(Ms(Clock::now() - serial_start));
    spans.Span(tid, "core.run_1thread", id, TraceUs(serial_start),
               serial_ms.back() * 1e3);
  }

  const auto fastest = [](const std::vector<double>& ms) {
    return *std::min_element(ms.begin(), ms.end());
  };
  report.Layer("gen.generate_s", "s", Median(generate_s));
  report.Layer("graph.sample_sources_s", "s", Median(sample_s));
  report.Layer("core.plan_ms", "ms", fastest(plan_ms));
  report.Layer("core.execute_ms", "ms", fastest(execute_ms));
  report.Layer("core.merge_ms", "ms",
               fastest(serial_ms) - fastest(plan_ms) - fastest(execute_ms));
  report.Layer("core.pool_efficiency", "ratio",
               Ratio(fastest(serial_ms), kEngineThreads * fastest(traced_ms)));
  report.Layer("core.rule_matched_share", "ratio",
               static_cast<double>(reference->rule_matched) / n_sources);
  report.Layer("core.sharing_ratio", "ratio", reference->SharingRatio());
  report.Layer("ibfs.sim_gteps", "GTEPS", reference->teps / 1e9);
  for (const char* phase : {"td_inspect", "bu_inspect", "fq_gen"}) {
    const auto it = reference->phases.find(phase);
    const gpusim::KernelStats stats =
        it == reference->phases.end() ? gpusim::KernelStats{} : it->second;
    report.Layer(std::string("ibfs.") + phase + ".sim_ms", "ms",
                 stats.seconds * 1e3);
    report.Layer(std::string("ibfs.") + phase + ".launches", "count",
                 static_cast<double>(stats.launch_count));
  }
  const gpusim::KernelStats& totals = reference->totals;
  report.Layer("gpusim.load_transactions", "count",
               static_cast<double>(totals.mem.load_transactions));
  report.Layer("gpusim.store_transactions", "count",
               static_cast<double>(totals.mem.store_transactions));
  report.Layer("gpusim.atomic_ops", "count",
               static_cast<double>(totals.mem.atomic_ops));
  report.Layer("gpusim.launches", "count",
               static_cast<double>(totals.launch_count));
  report.Layer("gpusim.host_ns_per_load_txn", "ns",
               Ratio(fastest(execute_ms) * 1e6,
                     static_cast<double>(totals.mem.load_transactions)));
  report.Layer("trace.overhead_pct", "%",
               100.0 * Ratio(fastest(traced_ms) - fastest(untraced_ms),
                             fastest(untraced_ms)));
}

// --------------------------------------------------------------- online --

// One phase's requests, stored flat so that the pre-generated load adds
// little to the resident set the benchmark reports: request i is due at
// at_s[i] and asks for up to per_request sources from sources[i *
// per_request].
struct Phase {
  std::vector<double> at_s;
  std::vector<VertexId> sources;
  size_t per_request = 1;

  std::span<const VertexId> Sources(size_t i) const {
    const size_t first = i * per_request;
    return std::span<const VertexId>(sources).subspan(
        first, std::min(per_request, sources.size() - first));
  }
};

// One phase cut from the run's single arrival stream: events in
// [from_s, from_s + stream_s) of stream time, rebased to 0 and played
// `speedup` times faster, bundled `per_request` consecutive events at a
// time at the first one's due time.
Phase Slice(std::span<const service::WorkloadEvent> events, double from_s,
            double stream_s, double speedup, int per_request) {
  Phase phase;
  phase.per_request = static_cast<size_t>(per_request);
  for (const service::WorkloadEvent& e : events) {
    if (e.at_s < from_s || e.at_s >= from_s + stream_s) continue;
    if (phase.sources.size() % phase.per_request == 0) {
      phase.at_s.push_back((e.at_s - from_s) / speedup);
    }
    phase.sources.push_back(e.source);
  }
  return phase;
}

struct Phases {
  Phase warmup;
  std::vector<Phase> steady, overload;
};

Phases MakePhases(const graph::Csr& graph, const Workload& w, uint64_t seed,
                  int trials, double trial_s) {
  const double steady_s = trial_s * kSteadyShare;
  const double overload_s = trial_s - steady_s;
  const double speedup = w.overload_rps / w.steady_rps;
  service::WorkloadOptions options;
  options.arrival = w.arrival;
  options.qps = w.steady_rps * w.sources_per_request;
  options.source_pool = w.source_pool;
  options.seed = seed;
  options.duration_s =
      kWarmupSeconds + trials * (steady_s + overload_s * speedup);
  const std::vector<service::WorkloadEvent> events =
      Take(service::GenerateArrivals(graph, options), "arrivals");
  Phases phases;
  phases.warmup = Slice(events, 0.0, kWarmupSeconds, 1.0,
                        w.sources_per_request);
  double t = kWarmupSeconds;
  for (int i = 0; i < trials; ++i) {
    phases.steady.push_back(
        Slice(events, t, steady_s, 1.0, w.sources_per_request));
    t += steady_s;
    phases.overload.push_back(Slice(events, t, overload_s * speedup, speedup,
                                    w.sources_per_request));
    t += overload_s * speedup;
  }
  return phases;
}

// One request as the generator saw it (ms from phase start, which is
// start_us on the trace clock) and what it resolved to.
struct Outcome {
  double start_us = 0.0;
  double due_ms = 0.0;
  double entry_ms = 0.0;
  double submit_us = 0.0;
  std::vector<service::QueryResult> parts;
  int shards_touched = 0;
  bool ok = false;
  // Lateness plus the slowest part's service-measured latency.
  double e2e_ms = 0.0;
  double done_ms = 0.0;
};

void Resolve(std::future<service::QueryResult>& future, Outcome* out) {
  out->parts.push_back(future.get());
  out->ok = out->parts.back().status.ok();
}
void Resolve(std::future<fleet::MultiQueryResult>& future, Outcome* out) {
  fleet::MultiQueryResult multi = future.get();
  out->parts = std::move(multi.results);
  out->shards_touched = multi.shards_touched;
  out->ok = multi.status.ok();
}

std::future<service::QueryResult> Send(service::BfsService* svc,
                                       std::span<const VertexId> sources) {
  return svc->Submit(sources.front());
}
std::future<fleet::MultiQueryResult> Send(fleet::FleetFrontDoor* fleet,
                                          std::span<const VertexId> sources) {
  return fleet->SubmitMulti({sources.begin(), sources.end()});
}

// Open loop from this thread: each request is submitted at its due time
// whatever the system's progress, then every future is collected.
template <typename Front>
std::vector<Outcome> Drive(Front* front, const Phase& phase) {
  using Future = decltype(Send(front, phase.Sources(0)));
  const size_t requests = phase.at_s.size();
  std::vector<Outcome> outcomes(requests);
  std::vector<Future> futures;
  futures.reserve(requests);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < requests; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase.at_s[i]));
    if (due - Clock::now() > std::chrono::microseconds(200)) {
      std::this_thread::sleep_until(due - std::chrono::microseconds(100));
    }
    while (Clock::now() < due) {
    }
    const Clock::time_point entry = Clock::now();
    futures.push_back(Send(front, phase.Sources(i)));
    Outcome& out = outcomes[i];
    out.submit_us = Us(Clock::now() - entry);
    out.start_us = TraceUs(start);
    out.due_ms = Ms(due - start);
    out.entry_ms = Ms(entry - start);
  }
  for (size_t i = 0; i < requests; ++i) {
    Outcome& out = outcomes[i];
    Resolve(futures[i], &out);
    double slowest = 0.0;
    for (const service::QueryResult& part : out.parts) {
      slowest = std::max(slowest, part.latency.total_ms);
    }
    out.e2e_ms = out.entry_ms - out.due_ms + slowest;
    out.done_ms = out.entry_ms + slowest;
  }
  return outcomes;
}

// Counters an online front exposes, as a snapshot.
struct Snapshot {
  service::BfsService::Stats stats;
  service::CacheStats cache;  // single service only
  double imbalance = 0.0;     // fleet only
  int64_t load_transactions = 0, store_transactions = 0, atomic_ops = 0,
          launches = 0;       // traced fronts only
};

void ReadRegistry(const obs::MetricsRegistry* registry, Snapshot* s) {
  if (registry == nullptr) return;
  auto count = [registry](const char* name) {
    const obs::Counter* c = registry->FindCounter(name);
    return c == nullptr ? int64_t{0} : c->value();
  };
  s->load_transactions = count("gpusim.load_transactions");
  s->store_transactions = count("gpusim.store_transactions");
  s->atomic_ops = count("gpusim.atomic_ops");
  s->launches = count("gpusim.kernel_launches");
}
Snapshot Snap(service::BfsService* svc, const obs::MetricsRegistry* reg) {
  Snapshot s;
  s.stats = svc->stats();
  s.cache = svc->cache_stats();
  ReadRegistry(reg, &s);
  return s;
}
Snapshot Snap(fleet::FleetFrontDoor* fleet, const obs::MetricsRegistry* reg) {
  Snapshot s;
  const fleet::FleetStats stats = fleet->stats();
  s.stats = stats.totals;
  s.imbalance = stats.Imbalance();
  ReadRegistry(reg, &s);
  return s;
}

service::ServiceOptions ServiceTemplate(const Workload& w,
                                        obs::MetricsRegistry* registry) {
  service::ServiceOptions options;
  options.max_batch = 64;
  options.max_delay_ms = 2.0;
  options.execute_threads = w.execute_threads;
  options.keep_depths = false;
  options.cache.result_budget_bytes = w.cache_bytes;
  options.observer.metrics = registry;
  return options;
}

template <typename Front>
std::unique_ptr<Front> MakeFront(const graph::Csr* graph, const Workload& w,
                                 obs::MetricsRegistry* registry) {
  if constexpr (std::is_same_v<Front, fleet::FleetFrontDoor>) {
    fleet::FleetOptions options;
    options.shards = 4;
    options.vnodes = 128;
    options.replication = 1;
    options.service = ServiceTemplate(w, registry);
    return Take(fleet::FleetFrontDoor::Create(graph, options), "fleet");
  } else {
    return Take(
        service::BfsService::Create(graph, ServiceTemplate(w, registry)),
        "service");
  }
}

// One check per request (OK, and consistent with every earlier answer for
// its sources), then one per distinct source after the timed trials: its
// checksum against the reference BFS.
class AnswerCheck {
 public:
  void Add(const Outcome& out, Report& report) {
    bool consistent = out.ok;
    for (const service::QueryResult& part : out.parts) {
      if (!part.status.ok()) continue;
      const auto it =
          checksums_.try_emplace(part.source, part.depth_checksum).first;
      consistent = consistent && it->second == part.depth_checksum;
    }
    report.Check(consistent,
                 out.ok ? "two answers for one source differ"
                        : "request failed: " +
                              (out.parts.empty()
                                   ? std::string("no result")
                                   : out.parts.front().status.ToString()));
  }

  void Verify(const graph::Csr& graph, int max_level, Report& report) {
    const std::vector<std::pair<VertexId, uint64_t>> items(checksums_.begin(),
                                                           checksums_.end());
    std::vector<char> match(items.size(), 0);
    ThreadPool pool(kEngineThreads);
    pool.ParallelFor(static_cast<int64_t>(items.size()), [&](int64_t i) {
      const auto& [source, checksum] = items[static_cast<size_t>(i)];
      match[static_cast<size_t>(i)] =
          Fnv1a(baselines::ReferenceDepthsU8(graph, source, max_level)) ==
          checksum;
    });
    for (size_t i = 0; i < items.size(); ++i) {
      report.Check(match[i] != 0, "wrong depths for source " +
                                      std::to_string(items[i].first));
    }
  }

 private:
  std::unordered_map<VertexId, uint64_t> checksums_;
};

// Per-layer samples accumulated over the traced trials.
struct LayerSamples {
  std::vector<double> submit_us, late_ms, queue_ms, batch_ms, execute_ms,
      unattributed_ms, straggler_gap_ms, touched;
  double seconds = 0.0;
  // Front snapshots before the first and after the last traced trial.
  std::optional<Snapshot> first;
  Snapshot last;
};

// Capacity shown by one overload phase: OK sources answered per second
// while the backlog drains, between the completions of the 10th and the
// 90th percent of them, so neither the ramp-up nor the last stragglers of a
// short phase count.
double DrainRate(const std::vector<Outcome>& outcomes) {
  std::vector<double> done_ms;
  for (const Outcome& out : outcomes) {
    if (out.ok) done_ms.insert(done_ms.end(), out.parts.size(), out.done_ms);
  }
  std::sort(done_ms.begin(), done_ms.end());
  const size_t lo = done_ms.size() / 10;
  const size_t hi = done_ms.size() * 9 / 10;
  if (hi <= lo) return 0.0;
  return Ratio(static_cast<double>(hi - lo),
               (done_ms[hi] - done_ms[lo]) / 1e3);
}

// Adds one traced steady phase's requests to the layer samples, and gives
// the first kTracedRequests of the run Chrome-trace spans keyed by one id
// per request. The spans tile the request: late + queue + batch + execute
// + unattributed = e2e.
void TraceRequests(const std::vector<Outcome>& outcomes, bool fleet, int trial,
                   Spans& spans, int* sampled, LayerSamples* layer) {
  for (const Outcome& out : outcomes) {
    layer->submit_us.push_back(out.submit_us);
    layer->touched.push_back(out.shards_touched);
    layer->late_ms.push_back(out.entry_ms - out.due_ms);
    std::vector<double> totals;
    for (const service::QueryResult& q : out.parts) {
      const service::QueryLatency& l = q.latency;
      totals.push_back(l.total_ms);
      layer->unattributed_ms.push_back(l.total_ms - l.queue_ms - l.batch_ms -
                                       l.execute_ms);
      if (q.cached) continue;
      layer->queue_ms.push_back(l.queue_ms);
      layer->batch_ms.push_back(l.batch_ms);
      layer->execute_ms.push_back(l.execute_ms);
    }
    if (fleet && !totals.empty()) {
      layer->straggler_gap_ms.push_back(
          *std::max_element(totals.begin(), totals.end()) - Median(totals));
    }
    if (*sampled >= kTracedRequests || !spans.on() || out.parts.empty()) {
      continue;
    }
    const service::QueryResult& q = out.parts.front();
    const std::string id = "q" + std::to_string(trial) + "." +
                           std::to_string((*sampled)++) + "/" +
                           std::to_string(q.query_id);
    const int tid = spans.Track(id);
    const double due_us = out.start_us + out.due_ms * 1e3;
    const double entry_us = out.start_us + out.entry_ms * 1e3;
    spans.Span(tid, "request", id, due_us, out.e2e_ms * 1e3,
               {obs::Arg("sources", static_cast<int64_t>(out.parts.size()))});
    spans.Span(tid, "load.late", id, due_us, entry_us - due_us);
    spans.Span(tid, fleet ? "fleet.submit_multi" : "service.submit", id,
               entry_us, out.submit_us);
    double t = entry_us;
    const service::QueryLatency& l = q.latency;
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"service.queue", l.queue_ms},
          {"service.batch", l.batch_ms},
          {"service.execute", l.execute_ms},
          {"service.unattributed",
           l.total_ms - l.queue_ms - l.batch_ms - l.execute_ms}}) {
      spans.Span(tid, name, id, t, ms * 1e3);
      t += ms * 1e3;
    }
  }
}

template <typename Front>
void RunOnline(const Workload& w, const Args& args, Report& report,
               Spans& spans) {
  const bool fleet = w.kind == Kind::kFleet;
  const int plain_trials =
      std::max(1, static_cast<int>(std::lround(args.seconds / kTrialSeconds)));
  const int trials = args.traced() ? std::max(2, plain_trials) : plain_trials;
  const double trial_s = args.seconds / trials;

  // Members are destroyed in reverse order: the front before its graph.
  struct Setup {
    std::unique_ptr<graph::Csr> graph;
    Phases phases;
    std::unique_ptr<Front> front;
  };
  Setup setup;
  std::vector<double> generate_s, sample_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup{};
    const auto t0 = Clock::now();
    setup.graph = std::make_unique<graph::Csr>(
        Take(gen::GenerateBenchmark(w.graph), "generate"));
    const auto t1 = Clock::now();
    setup.phases =
        MakePhases(*setup.graph, w, SubSeed(args.seed, 2), trials, trial_s);
    const auto t2 = Clock::now();
    setup.front = MakeFront<Front>(setup.graph.get(), w, nullptr);
    Drive(setup.front.get(), setup.phases.warmup);
    const auto t3 = Clock::now();
    report.Sample("setup_s", "s", Ms(t3 - t0) / 1e3);
    generate_s.push_back(Ms(t1 - t0) / 1e3);
    sample_s.push_back(Ms(t2 - t1) / 1e3);
    spans.Span(spans.Track("setup " + std::to_string(i)), "setup",
               "setup" + std::to_string(i), TraceUs(t0), Us(t3 - t0),
               {obs::Arg("generate_us", Us(t1 - t0)),
                obs::Arg("sample_us", Us(t2 - t1))});
  }
  const graph::Csr& graph = *setup.graph;

  // Traced trials run on their own front with a metrics registry attached,
  // so untraced trials measure the untouched configuration. Every steady
  // phase runs before any overload phase, so the resident set read between
  // them does not depend on how large a backlog the host's speed lets the
  // overload build.
  obs::MetricsRegistry registry;
  std::unique_ptr<Front> traced_front;
  AnswerCheck answers;
  LayerSamples layer;
  std::vector<double> untraced_p50, traced_p50;
  int sampled = 0;
  for (const bool overload : {false, true}) {
    for (int trial = 0; trial < trials; ++trial) {
      const bool traced = args.traced() && trial % 2 == 1;
      Front* front = setup.front.get();
      if (traced) {
        if (traced_front == nullptr) {
          traced_front = MakeFront<Front>(&graph, w, &registry);
          Drive(traced_front.get(), setup.phases.warmup);
        }
        front = traced_front.get();
      }
      const Snapshot before = Snap(front, traced ? &registry : nullptr);
      const auto trial_start = Clock::now();
      const std::vector<Outcome> outcomes =
          Drive(front, (overload ? setup.phases.overload
                                 : setup.phases.steady)[static_cast<size_t>(
                           trial)]);
      const Snapshot after = Snap(front, traced ? &registry : nullptr);
      for (const Outcome& out : outcomes) answers.Add(out, report);
      if (overload) {
        if (!traced) report.Sample("peak_qps", "1/s", DrainRate(outcomes));
      } else {
        std::vector<double> e2e;
        for (const Outcome& out : outcomes) {
          if (out.ok) e2e.push_back(out.e2e_ms);
        }
        (traced ? traced_p50 : untraced_p50).push_back(Percentile(e2e, 50.0));
        if (!traced) {
          report.Sample("p50_ms", "ms", Percentile(e2e, 50.0));
          report.Sample("p99_ms", "ms", Percentile(e2e, 99.0));
          report.Sample("latency_samples", "count",
                        static_cast<double>(e2e.size()));
        }
      }
      if (!traced) continue;

      if (!layer.first.has_value()) layer.first = before;
      layer.last = after;
      layer.seconds += SecondsSince(trial_start);
      if (overload) continue;
      TraceRequests(outcomes, fleet, trial, spans, &sampled, &layer);
    }
    if (!overload) report.Sample("rss_mb", "MiB", ResidentMb());
  }
  answers.Verify(graph, service::ServiceOptions{}.engine.traversal.max_level,
                 report);
  if (!args.traced()) return;

  const Snapshot& a = *layer.first;
  const Snapshot& b = layer.last;
  const double queries = b.stats.queries - a.stats.queries;
  const double batches = b.stats.batches - a.stats.batches;
  const double executed =
      b.stats.executed_instances - a.stats.executed_instances;
  const double hits = b.stats.cache_hits - a.stats.cache_hits;
  const double sim_s = b.stats.sim_seconds - a.stats.sim_seconds;
  report.Layer("gen.generate_s", "s", Median(generate_s));
  report.Layer("graph.sample_sources_s", "s", Median(sample_s));
  report.Layer("ibfs.sim_gteps", "GTEPS",
               Ratio(executed * graph.edge_count(), sim_s) / 1e9);
  report.Layer("gpusim.load_transactions", "count",
               b.load_transactions - a.load_transactions);
  report.Layer("gpusim.store_transactions", "count",
               b.store_transactions - a.store_transactions);
  report.Layer("gpusim.atomic_ops", "count", b.atomic_ops - a.atomic_ops);
  report.Layer("gpusim.launches", "count", b.launches - a.launches);
  report.Layer(fleet ? "fleet.submit_multi_us.p50" : "service.submit_us.p50",
               "us", Percentile(layer.submit_us, 50.0));
  report.Layer(fleet ? "fleet.submit_multi_us.p99" : "service.submit_us.p99",
               "us", Percentile(layer.submit_us, 99.0));
  report.Layer("service.queue_ms.p50", "ms", Percentile(layer.queue_ms, 50.0));
  report.Layer("service.batch_ms.p50", "ms", Percentile(layer.batch_ms, 50.0));
  report.Layer("service.deadline_close_share", "ratio",
               Ratio(b.stats.deadline_closes - a.stats.deadline_closes,
                     batches));
  report.Layer("service.execute_ms.p50", "ms",
               Percentile(layer.execute_ms, 50.0));
  report.Layer("service.execute_ms.p99", "ms",
               Percentile(layer.execute_ms, 99.0));
  report.Layer("service.mean_batch_size", "count", Ratio(queries, batches));
  report.Layer("service.sharing_ratio", "ratio", [&] {
    service::BfsService::Stats d;
    d.groups = b.stats.groups - a.stats.groups;
    d.executed_instances = b.stats.executed_instances -
                           a.stats.executed_instances;
    d.private_fq_sum = b.stats.private_fq_sum - a.stats.private_fq_sum;
    d.jfq_sum = b.stats.jfq_sum - a.stats.jfq_sum;
    return d.SharingRatio();
  }());
  report.Layer("service.sim_ms_per_query", "ms", Ratio(sim_s * 1e3, executed));
  report.Layer("service.cache_hit_ratio", "ratio", Ratio(hits, hits + queries));
  report.Layer("service.unattributed_ms.p50", "ms",
               Percentile(layer.unattributed_ms, 50.0));
  if (fleet) {
    report.Layer("fleet.shards_touched_mean", "count",
                 Ratio(std::accumulate(layer.touched.begin(),
                                       layer.touched.end(), 0.0),
                       static_cast<double>(layer.touched.size())));
    report.Layer("fleet.imbalance", "ratio", b.imbalance);
    report.Layer("fleet.straggler_gap_ms.p50", "ms",
                 Percentile(layer.straggler_gap_ms, 50.0));
  } else {
    report.Layer("service.cache_evictions_per_s", "1/s",
                 Ratio(b.cache.evictions - a.cache.evictions, layer.seconds));
    report.Layer("service.plan_hit_ratio", "ratio",
                 Ratio(b.cache.plan_hits - a.cache.plan_hits,
                       (b.cache.plan_hits - a.cache.plan_hits) +
                           (b.cache.plan_misses - a.cache.plan_misses)));
  }
  report.Layer("load.late_ms.p99", "ms", Percentile(layer.late_ms, 99.0));
  report.Layer("load.late_ms.max", "ms", Percentile(layer.late_ms, 100.0));
  report.Layer("load.latency_samples", "count",
               static_cast<double>(layer.late_ms.size()));
  report.Layer("trace.overhead_pct", "%",
               100.0 * Ratio(Median(traced_p50) - Median(untraced_p50),
                             Median(untraced_p50)));
}

// ----------------------------------------------------------------- main --

int Usage() {
  std::fprintf(stderr,
               "usage: ibfs_benchmark --workload NAME --seed N --seconds S "
               "--out PATH [--trace-out PATH]\nworkloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  const auto it = std::find_if(
      Workloads().begin(), Workloads().end(),
      [&](const Workload& w) { return w.name == args.workload; });
  if (argc % 2 == 0 || it == Workloads().end() || args.out.empty() ||
      !(args.seconds > 0.0)) {
    return Usage();
  }
  const Workload& w = *it;

  obs::Tracer tracer;
  Spans spans(args.traced() ? &tracer : nullptr);
  Report report;
  switch (w.kind) {
    case Kind::kBatch:
      RunBatch(w, args, report, spans);
      break;
    case Kind::kServe:
      RunOnline<service::BfsService>(w, args, report, spans);
      break;
    case Kind::kFleet:
      RunOnline<fleet::FleetFrontDoor>(w, args, report, spans);
      break;
  }

  std::ofstream os(args.out, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  report.WriteJson(os, w.name, args.seed, args.seconds, args.traced());
  if (args.traced()) {
    const Status written = tracer.WriteFile(args.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 2;
    }
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ibfs::benchmark

int main(int argc, char** argv) {
  return ibfs::benchmark::Main(argc, argv);
}
