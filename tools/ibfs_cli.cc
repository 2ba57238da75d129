// ibfs_cli — command-line driver for the iBFS library.
//
//   ibfs_cli generate --benchmark FB --out fb.bin
//   ibfs_cli generate --rmat-scale 12 --edge-factor 16 --out g.bin
//   ibfs_cli stats    --graph g.bin
//   ibfs_cli run      --graph g.bin --strategy bitwise --grouping groupby
//                     --instances 256 --profile
//   ibfs_cli cluster  --benchmark RD --gpus 16 --instances 2048
//   ibfs_cli run      --benchmark FB --trace-out t.json --report-out r.json
//   ibfs_cli serve    --benchmark PK --qps 500 --duration 2 --max-batch 64
//                     --max-delay-ms 2 --arrival poisson
//   ibfs_cli check    --trace t.json --report r.json
//
// Graphs are read/written in the binary CSR format (graph/io.h); the
// `--benchmark` flag generates one of the paper's 13 presets instead.
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <fstream>
#include <iostream>

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "core/observe.h"
#include "core/trace_io.h"
#include "core/validate.h"
#include "gen/benchmarks.h"
#include "gen/rmat.h"
#include "gen/uniform.h"
#include "gpusim/fault.h"
#include "gpusim/report.h"
#include "graph/components.h"
#include "graph/degree_stats.h"
#include "graph/io.h"
#include "obs/flight.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "fleet/fleet.h"
#include "fleet/fleet_workload.h"
#include "service/chaos.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/flags.h"

namespace ibfs {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ibfs_cli "
               "<generate|stats|run|validate|traces|cluster|serve|chaos|"
               "fleet|check> [flags]\n"
               "  generate: --out PATH and one of --benchmark NAME |\n"
               "            --rmat-scale N [--edge-factor K] [--seed S] |\n"
               "            --uniform-vertices N [--outdegree K]\n"
               "  stats:    --graph PATH | --benchmark NAME\n"
               "  run:      --graph/--benchmark, --strategy "
               "sequential|naive|joint|bitwise,\n"
               "            --grouping inorder|random|groupby, --instances "
               "I, --group-size N,\n"
               "            [--q Q] [--no-early-termination] [--max-level "
               "K] [--profile]\n"
               "            [--threads T]  host worker threads (0 = one per "
               "hardware thread,\n"
               "            1 = serial; results are identical either way)\n"
               "  cluster:  run flags plus --gpus G [--lpt], or partitioned\n"
               "            execution: --partitions P\n"
               "            [--comm-model allgather|butterfly]\n"
               "            [--link-gbps B] [--link-us L]\n"
               "  serve:    run flags plus --qps Q --duration SECONDS\n"
               "            --max-batch N --max-delay-ms MS\n"
               "            --arrival poisson|bursty|uniform [--burst-size "
               "B]\n"
               "            (open-loop online serving; report via "
               "--report-out)\n"
               "            resilience: [--fault-spec SPEC] [--retries R]\n"
               "            [--deadline-ms MS] [--max-pending N]\n"
               "            [--breaker-threshold K] [--no-cpu-fallback]\n"
               "            caching: [--cache-mb MB] [--no-cache]\n"
               "            [--source-pool N]  restrict to N hot sources\n"
               "            live telemetry (serve and chaos):\n"
               "            [--access-log PATH]   per-query JSONL log\n"
               "            [--slo \"<class>:<ms>:<target>\"] latency SLO "
               "with\n"
               "            burn-rate alerts ([--slo-fast-s S] [--slo-slow-s "
               "S]\n"
               "            [--slo-burn X])\n"
               "            [--flight-out PATH]   flight-record dump on SLO "
               "breach,\n"
               "            breaker open, or quarantine "
               "([--flight-interval-s S])\n"
               "            [--live-out PATH]     periodic live snapshot "
               "JSON\n"
               "            [--prom-out PATH]     periodic Prometheus text "
               "file\n"
               "            [--live-interval-ms MS] [--live-window-s S]\n"
               "  chaos:    serve flags; injects --fault-spec, verifies "
               "every completed\n"
               "            query against a fault-free baseline, writes an\n"
               "            ibfs.resilience_report via --report-out; exits "
               "nonzero on\n"
               "            checksum mismatches. SPEC example:\n"
               "            \"seed=7,devices=4,p_fail=0.1,perm=1,"
               "straggle=2:8\"\n"
               "  fleet:    serve flags plus --shards N [--vnodes V]\n"
               "            [--ring-seed S] [--multi-source K]\n"
               "            [--shard-down I [--kill-at-s T]]\n"
               "            [--join-shards J [--join-at-s T] "
               "[--join-weight W]]\n"
               "            [--replication R]\n"
               "            (N-shard scatter-gather fleet; at R > 1 a failed "
               "read\n"
               "            fails over down the replica set; verifies every "
               "answer\n"
               "            against the CPU baseline, writes an "
               "ibfs.fleet_report\n"
               "            via --report-out; exits nonzero on mismatches "
               "or\n"
               "            unanswered futures)\n"
               "  check:    --trace PATH | --report PATH | --metrics PATH |\n"
               "            --service-report PATH | --resilience-report "
               "PATH |\n"
               "            --fleet-report PATH | --flight-record PATH\n"
               "            (validate telemetry files)\n"
               "telemetry (run and cluster):\n"
               "  --trace-out PATH    Chrome trace-event JSON "
               "(chrome://tracing, Perfetto)\n"
               "  --metrics-out PATH  metrics snapshot JSON\n"
               "  --report-out PATH   machine-readable run report JSON\n");
  return 2;
}

// Prints "<command>: <status>" to stderr and returns the failure exit code.
int Fail(const char* command, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", command, status.ToString().c_str());
  return 1;
}

// Telemetry sinks for one CLI invocation, driven by --trace-out,
// --metrics-out, and --report-out. The tracer is live only when a trace
// file was requested; metrics are live when either a metrics file or a
// report (which embeds the snapshot) was requested.
struct ObsSession {
  std::string trace_out;
  std::string metrics_out;
  std::string report_out;
  /// Set (before MakeObserver) by commands whose outputs need the registry
  /// even without --metrics-out/--report-out, e.g. serve --prom-out.
  bool force_metrics = false;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  explicit ObsSession(const Flags& flags)
      : trace_out(flags.GetString("trace-out")),
        metrics_out(flags.GetString("metrics-out")),
        report_out(flags.GetString("report-out")) {
    const int64_t cap = flags.GetInt("trace-max-events", 0);
    if (cap > 0) tracer.SetMaxEventsPerThread(static_cast<size_t>(cap));
  }

  bool want_metrics() const {
    return force_metrics || !metrics_out.empty() || !report_out.empty();
  }

  obs::Observer MakeObserver() {
    obs::Observer observer;
    if (!trace_out.empty()) observer.tracer = &tracer;
    if (want_metrics()) observer.metrics = &metrics;
    if (observer.tracer != nullptr && observer.metrics != nullptr) {
      // Ring-buffer overwrites in the tracer surface as a counter.
      tracer.SetDropCounter(metrics.GetCounter("trace.dropped_events"));
    }
    return observer;
  }

  // Writes the requested files; `report` is the command's own document
  // (run, service, resilience or fleet report). Returns 0 on success, 1 on
  // any write failure.
  template <typename Report>
  int Flush(const char* command, const Report& report) {
    int rc = 0;
    auto emit = [&](const Status& status, const std::string& path) {
      if (!status.ok()) {
        rc = Fail(command, status);
      } else {
        std::printf("wrote %s\n", path.c_str());
      }
    };
    if (!trace_out.empty()) emit(tracer.WriteFile(trace_out), trace_out);
    if (!metrics_out.empty()) {
      emit(metrics.WriteFile(metrics_out), metrics_out);
    }
    if (!report_out.empty()) {
      emit(report.WriteFile(report_out, want_metrics() ? &metrics : nullptr),
           report_out);
    }
    return rc;
  }
};

// Live serving telemetry for serve/chaos, driven by --access-log, --slo,
// --flight-out, --live-out, and --prom-out. Owns the sinks the service
// writes through (they must outlive it) and the periodic exporter.
struct LiveSession {
  std::unique_ptr<obs::AccessLog> access_log;
  std::unique_ptr<obs::SloTracker> slo;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::LiveExporter> exporter;
  std::string live_out;
  std::string prom_out;
  double interval_s = 0.25;

  // Parses the live flags into `service_options`' sink pointers. Must run
  // before session->MakeObserver(): a live/prom output forces the metrics
  // registry on.
  Status Setup(const Flags& flags, ObsSession* session,
               service::ServiceOptions* service_options) {
    const std::string access_path = flags.GetString("access-log");
    if (!access_path.empty()) {
      auto log = obs::AccessLog::Open(access_path);
      if (!log.ok()) return log.status();
      access_log = std::move(log.value());
      service_options->access_log = access_log.get();
    }
    const std::string slo_spec = flags.GetString("slo");
    if (!slo_spec.empty()) {
      auto spec = obs::SloSpec::Parse(slo_spec);
      if (!spec.ok()) return spec.status();
      obs::SloTracker::Options slo_options;
      slo_options.fast_window_s = flags.GetDouble("slo-fast-s", 60.0);
      slo_options.slow_window_s = flags.GetDouble("slo-slow-s", 600.0);
      slo_options.burn_threshold = flags.GetDouble("slo-burn", 2.0);
      slo = std::make_unique<obs::SloTracker>(spec.value(), slo_options);
      service_options->slo = slo.get();
    }
    const std::string flight_out = flags.GetString("flight-out");
    if (!flight_out.empty()) {
      obs::FlightRecorder::Options flight_options;
      flight_options.dump_path = flight_out;
      flight_options.min_dump_interval_s =
          flags.GetDouble("flight-interval-s", 5.0);
      flight = std::make_unique<obs::FlightRecorder>(flight_options);
      service_options->flight = flight.get();
    }
    service_options->live_window_s = flags.GetDouble("live-window-s", 10.0);
    live_out = flags.GetString("live-out");
    prom_out = flags.GetString("prom-out");
    interval_s = flags.GetDouble("live-interval-ms", 250.0) / 1e3;
    if (!live_out.empty() || !prom_out.empty()) {
      session->force_metrics = true;
    }
    return Status::OK();
  }

  // Starts the periodic publisher. `svc` may be null (chaos builds its
  // service internally): files still rewrite on the interval, only the
  // per-tick live-gauge refresh is skipped.
  void StartExporter(ObsSession* session, service::BfsService* svc) {
    if (live_out.empty() && prom_out.empty() && slo == nullptr) return;
    obs::LiveExporterOptions options;
    options.interval_s = interval_s;
    options.live_out = live_out;
    options.prom_out = prom_out;
    options.metrics_out = session->metrics_out;
    std::function<void(double)> on_tick;
    if (svc != nullptr) {
      on_tick = [svc](double) { svc->PublishLiveTelemetry(); };
    }
    exporter = std::make_unique<obs::LiveExporter>(
        options, &session->metrics, std::move(on_tick));
    exporter->Start();
  }

  // Final gauge refresh + last file rewrite, then the one-line summary.
  void Finish(const char* command, service::BfsService* svc) {
    if (svc != nullptr) svc->PublishLiveTelemetry();
    if (exporter != nullptr) {
      exporter->Stop();
      if (!live_out.empty()) std::printf("wrote %s\n", live_out.c_str());
      if (!prom_out.empty()) std::printf("wrote %s\n", prom_out.c_str());
    }
    if (access_log != nullptr) {
      std::printf("access log:      %lld queries\n",
                  static_cast<long long>(access_log->lines()));
    }
    if (slo != nullptr) {
      std::printf("slo %s: %lld good, %lld bad; alerts %lld fired, "
                  "%lld cleared%s\n",
                  slo->spec().ToString().c_str(),
                  static_cast<long long>(slo->good()),
                  static_cast<long long>(slo->bad()),
                  static_cast<long long>(slo->alerts_fired()),
                  static_cast<long long>(slo->alerts_cleared()),
                  slo->alert_active() ? " (ALERT ACTIVE)" : "");
    }
    if (flight != nullptr && flight->dumps() > 0) {
      std::printf("flight records:  %lld dumped to %s\n",
                  static_cast<long long>(flight->dumps()),
                  flight->options().dump_path.c_str());
    }
    (void)command;
  }
};

// Display label for the report: benchmark name when generated, else path.
std::string GraphLabel(const Flags& flags) {
  const std::string name = flags.GetString("benchmark");
  return name.empty() ? flags.GetString("graph") : name;
}

Result<graph::Csr> LoadGraphArg(const Flags& flags) {
  const std::string path = flags.GetString("graph");
  if (!path.empty()) return graph::LoadBinary(path);
  const std::string name = flags.GetString("benchmark");
  if (!name.empty()) {
    auto id = gen::BenchmarkByName(name);
    if (!id.has_value()) {
      return Status::InvalidArgument("unknown benchmark " + name);
    }
    return gen::GenerateBenchmark(
        *id, static_cast<int>(flags.GetInt("scale-delta", 0)));
  }
  return Status::InvalidArgument("need --graph PATH or --benchmark NAME");
}

Result<EngineOptions> OptionsFromFlags(const Flags& flags) {
  EngineOptions options;
  const std::string strategy = flags.GetString("strategy", "bitwise");
  if (strategy == "sequential") {
    options.strategy = Strategy::kSequential;
  } else if (strategy == "naive") {
    options.strategy = Strategy::kNaiveConcurrent;
  } else if (strategy == "joint") {
    options.strategy = Strategy::kJointTraversal;
  } else if (strategy == "bitwise") {
    options.strategy = Strategy::kBitwise;
  } else {
    return Status::InvalidArgument("unknown strategy " + strategy);
  }
  const std::string grouping = flags.GetString("grouping", "groupby");
  if (grouping == "inorder") {
    options.grouping = GroupingPolicy::kInOrder;
  } else if (grouping == "random") {
    options.grouping = GroupingPolicy::kRandom;
  } else if (grouping == "groupby") {
    options.grouping = GroupingPolicy::kGroupBy;
  } else {
    return Status::InvalidArgument("unknown grouping " + grouping);
  }
  options.group_size = static_cast<int>(flags.GetInt("group-size", 128));
  options.groupby.q = flags.GetInt("q", options.groupby.q);
  options.traversal.early_termination =
      !flags.GetBool("no-early-termination");
  options.traversal.max_level = static_cast<int>(
      flags.GetInt("max-level", TraversalOptions::kMaxTraversalLevel));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.keep_depths = false;
  options.traversal.collect_instance_stats = false;
  // Host worker threads for group execution; 0 = one per hardware thread.
  // Results are bit-identical at every setting (per-group devices, ordered
  // merge), so parallel is the safe default.
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  // Deterministic fault injection (run/serve/chaos): a fault-plan spec
  // string arms the injector; --retries adds attempts beyond the first.
  const std::string fault_spec = flags.GetString("fault-spec");
  if (!fault_spec.empty()) {
    Result<gpusim::FaultPlan> plan = gpusim::FaultPlan::Parse(fault_spec);
    if (!plan.ok()) return plan.status();
    options.faults = plan.value();
  }
  options.retry.max_attempts =
      1 + static_cast<int>(flags.GetInt(
              "retries", options.retry.max_attempts - 1));
  options.retry.seed = options.seed;
  return options;
}

// Shared by serve, chaos and fleet: the open-loop arrival workload.
Result<service::WorkloadOptions> WorkloadFromFlags(const Flags& flags) {
  service::WorkloadOptions workload;
  const std::string arrival = flags.GetString("arrival", "poisson");
  const auto parsed = service::ParseArrivalProcess(arrival);
  if (!parsed.has_value()) {
    return Status::InvalidArgument("unknown arrival process " + arrival);
  }
  workload.arrival = *parsed;
  workload.qps = flags.GetDouble("qps", 200.0);
  workload.duration_s = flags.GetDouble("duration", 1.0);
  workload.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  workload.burst_size = static_cast<int>(flags.GetInt("burst-size", 16));
  workload.source_pool = flags.GetInt("source-pool", 0);
  return workload;
}

// Shared by serve, chaos and fleet (per shard): the batcher, the
// resilience knobs, and the result/plan cache (default-on with a 64 MB
// budget; --no-cache restores the execute-everything behavior).
service::ServiceOptions ServiceOptionsFromFlags(const Flags& flags,
                                                const EngineOptions& engine) {
  service::ServiceOptions options;
  options.max_batch = static_cast<int>(flags.GetInt("max-batch", 64));
  options.max_delay_ms = flags.GetDouble("max-delay-ms", 2.0);
  options.execute_threads = static_cast<int>(flags.GetInt("threads", 0));
  options.keep_depths = false;  // depth checksums are the CLI's verdict
  options.engine = engine;
  options.resilience.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  options.resilience.max_pending =
      static_cast<int>(flags.GetInt("max-pending", 0));
  options.resilience.breaker_threshold =
      static_cast<int>(flags.GetInt("breaker-threshold", 3));
  options.resilience.cpu_fallback = !flags.GetBool("no-cpu-fallback");
  options.cache.enabled = !flags.GetBool("no-cache");
  options.cache.result_budget_bytes = flags.GetInt("cache-mb", 64) << 20;
  return options;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: missing --out PATH\n");
    return 2;
  }
  Result<graph::Csr> built = Status::InvalidArgument("no generator chosen");
  if (!flags.GetString("benchmark").empty()) {
    built = LoadGraphArg(flags);
  } else if (flags.Has("rmat-scale")) {
    gen::RmatParams params;
    params.scale = static_cast<int>(flags.GetInt("rmat-scale", 12));
    params.edge_factor = static_cast<int>(flags.GetInt("edge-factor", 16));
    params.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    built = gen::GenerateRmat(params);
  } else if (flags.Has("uniform-vertices")) {
    gen::UniformParams params;
    params.vertex_count = flags.GetInt("uniform-vertices", 4096);
    params.outdegree = static_cast<int>(flags.GetInt("outdegree", 16));
    params.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    built = gen::GenerateUniform(params);
  }
  if (!built.ok()) return Fail("generate", built.status());
  const Status saved = graph::SaveBinary(built.value(), out);
  if (!saved.ok()) return Fail("generate", saved);
  std::printf("wrote %s: %lld vertices, %lld directed edges\n", out.c_str(),
              static_cast<long long>(built.value().vertex_count()),
              static_cast<long long>(built.value().edge_count()));
  return 0;
}

int CmdStats(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("stats", graph.status());
  const auto stats = graph::ComputeDegreeStats(graph.value());
  const auto giant = graph::GiantComponent(graph.value());
  std::printf("vertices:        %lld\n",
              static_cast<long long>(stats.vertex_count));
  std::printf("directed edges:  %lld\n",
              static_cast<long long>(stats.edge_count));
  std::printf("avg outdegree:   %.2f\n", stats.avg_outdegree);
  std::printf("max outdegree:   %lld\n",
              static_cast<long long>(stats.max_outdegree));
  std::printf("degree stddev:   %.2f\n", stats.stddev_outdegree);
  std::printf("isolated:        %lld\n",
              static_cast<long long>(stats.zero_degree_count));
  std::printf("giant component: %zu vertices (%.1f%%)\n", giant.size(),
              100.0 * static_cast<double>(giant.size()) /
                  static_cast<double>(stats.vertex_count));
  const auto histogram = graph::DegreeHistogram(graph.value());
  std::printf("outdegree histogram (log2 buckets):\n");
  for (size_t b = 0; b < histogram.size(); ++b) {
    std::printf("  [%6lld, %6lld): %lld\n",
                static_cast<long long>(b == 0 ? 0 : int64_t{1} << b),
                static_cast<long long>(int64_t{1} << (b + 1)),
                static_cast<long long>(histogram[b]));
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("run", graph.status());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail("run", options.status());
  const int64_t instances = flags.GetInt("instances", 128);
  const auto sources = graph::SampleConnectedSources(
      graph.value(), instances,
      static_cast<uint64_t>(flags.GetInt("seed", 1)));
  ObsSession session(flags);
  EngineOptions opts = options.value();
  opts.observer = session.MakeObserver();
  Engine engine(&graph.value(), opts);
  auto result = engine.Run(sources);
  if (!result.ok()) return Fail("run", result.status());
  const EngineResult& res = result.value();
  std::printf("instances:       %lld in %zu groups\n",
              static_cast<long long>(instances), res.groups.size());
  std::printf("simulated time:  %.3f ms\n", res.sim_seconds * 1e3);
  std::printf("traversal rate:  %.2f GTEPS\n", res.teps / 1e9);
  std::printf("sharing ratio:   %.1f%% (td %.1f%%, bu %.1f%%)\n",
              100.0 * res.SharingRatio(), 100.0 * res.SharingRatio(0),
              100.0 * res.SharingRatio(1));
  if (flags.GetBool("profile")) {
    gpusim::KernelStats totals = res.totals;
    std::printf("%s", gpusim::FormatProfile(res.phases, totals,
                                            res.sim_seconds)
                          .c_str());
  }
  const obs::RunReport report = BuildRunReport(
      GraphLabel(flags), graph.value(), opts, instances, res);
  return session.Flush("run", report);
}

// Runs concurrent BFS and validates every instance's depths with the
// Graph500-style structural checks.
int CmdValidate(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("validate", graph.status());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail("validate", options.status());
  EngineOptions opts = options.value();
  opts.keep_depths = true;
  const int64_t instances = flags.GetInt("instances", 64);
  const auto sources = graph::SampleConnectedSources(
      graph.value(), instances,
      static_cast<uint64_t>(flags.GetInt("seed", 1)));
  Engine engine(&graph.value(), opts);
  auto result = engine.Run(sources);
  if (!result.ok()) return Fail("validate", result.status());
  int64_t checked = 0;
  for (size_t g = 0; g < result.value().groups.size(); ++g) {
    for (size_t j = 0; j < result.value().group_sources[g].size(); ++j) {
      const Status st = ValidateBfsDepths(
          graph.value(), result.value().group_sources[g][j],
          result.value().groups[g].depths[j], opts.traversal.max_level);
      if (!st.ok()) {
        std::fprintf(stderr, "validate: instance %lld FAILED: %s\n",
                     static_cast<long long>(checked),
                     st.ToString().c_str());
        return 1;
      }
      ++checked;
    }
  }
  std::printf("validated %lld BFS instances: all OK\n",
              static_cast<long long>(checked));
  return 0;
}

// Runs concurrent BFS and writes per-level traces as CSV (stdout or
// --out FILE) for offline plotting.
int CmdTraces(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("traces", graph.status());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail("traces", options.status());
  EngineOptions opts = options.value();
  opts.traversal.collect_instance_stats = true;
  const int64_t instances = flags.GetInt("instances", 128);
  const auto sources = graph::SampleConnectedSources(
      graph.value(), instances,
      static_cast<uint64_t>(flags.GetInt("seed", 1)));
  Engine engine(&graph.value(), opts);
  auto result = engine.Run(sources);
  if (!result.ok()) return Fail("traces", result.status());
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    WriteLevelTracesCsv(result.value(), std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "traces: cannot open %s\n", out_path.c_str());
      return 1;
    }
    WriteLevelTracesCsv(result.value(), out);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdCluster(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("cluster", graph.status());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail("cluster", options.status());
  const int64_t instances = flags.GetInt("instances", 1024);
  const int gpus = static_cast<int>(flags.GetInt("gpus", 4));
  const auto policy = flags.GetBool("lpt")
                          ? gpusim::PlacementPolicy::kLpt
                          : gpusim::PlacementPolicy::kRoundRobin;
  const auto sources = graph::SampleConnectedSources(
      graph.value(), instances,
      static_cast<uint64_t>(flags.GetInt("seed", 1)));
  ObsSession session(flags);
  EngineOptions opts = options.value();
  opts.observer = session.MakeObserver();

  // --partitions switches to the 1D edge-partitioned path: the graph is
  // spread over P devices and every BFS level ends in a modeled frontier
  // exchange, instead of placing whole (independent) groups onto GPUs.
  const int partitions = static_cast<int>(flags.GetInt("partitions", 0));
  if (partitions > 0) {
    PartitionRunOptions prun;
    prun.partitions = partitions;
    const std::string comm_model = flags.GetString("comm-model", "allgather");
    if (comm_model == "allgather") {
      prun.schedule = gpusim::CommSchedule::kAllGather;
    } else if (comm_model == "butterfly") {
      prun.schedule = gpusim::CommSchedule::kButterfly;
    } else {
      std::fprintf(stderr, "cluster: unknown --comm-model %s\n",
                   comm_model.c_str());
      return 1;
    }
    prun.link_gbps = flags.GetDouble("link-gbps", 0.0);
    prun.link_us = flags.GetDouble("link-us", -1.0);
    auto part_result = RunPartitioned(graph.value(), sources, opts, prun);
    if (!part_result.ok()) return Fail("cluster", part_result.status());
    const PartitionedRunResult& res = part_result.value();
    std::printf("partitions:      %d (%s, %.1f GB/s, %.1f us)\n",
                res.partitions, gpusim::CommScheduleName(res.schedule),
                res.link.bandwidth_gbps, res.link.latency_us);
    std::printf("edge imbalance:  %.3f\n", res.edge_imbalance);
    std::printf("compute time:    %.3f ms\n", res.compute_seconds * 1e3);
    std::printf("comm time:       %.3f ms (%lld supersteps, %lld rounds)\n",
                res.comm_seconds * 1e3,
                static_cast<long long>(res.supersteps),
                static_cast<long long>(res.comm_rounds));
    std::printf("bytes on wire:   %lld\n",
                static_cast<long long>(res.bytes_on_wire));
    std::printf("total time:      %.3f ms\n", res.sim_seconds * 1e3);
    std::printf("aggregate rate:  %.2f GTEPS\n", res.teps / 1e9);
    obs::RunReport report = BuildPartitionedRunReport(
        GraphLabel(flags), graph.value(), opts, instances, res);
    AttachPartitionSection(res, &report);
    return session.Flush("cluster", report);
  }

  auto result = RunOnCluster(graph.value(), sources, opts, gpus, policy);
  if (!result.ok()) return Fail("cluster", result.status());
  const ClusterRunResult& res = result.value();
  std::printf("groups:          %lld\n",
              static_cast<long long>(res.group_count));
  std::printf("1-GPU time:      %.3f ms\n",
              res.single_device_seconds * 1e3);
  std::printf("%d-GPU makespan: %.3f ms\n", gpus,
              res.schedule.makespan_seconds * 1e3);
  std::printf("speedup:         %.2fx\n", res.speedup);
  std::printf("aggregate rate:  %.2f GTEPS\n", res.teps / 1e9);
  obs::RunReport report = BuildRunReport(GraphLabel(flags), graph.value(),
                                         opts, instances, res.engine);
  AttachClusterSection(res, policy, &report);
  return session.Flush("cluster", report);
}

// Online serving: generates an open-loop workload, drives it through a
// BfsService, and reports the latency/throughput/sharing SLOs.
int CmdServe(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("serve", graph.status());
  auto engine_options = OptionsFromFlags(flags);
  if (!engine_options.ok()) return Fail("serve", engine_options.status());

  auto workload = WorkloadFromFlags(flags);
  if (!workload.ok()) return Fail("serve", workload.status());
  auto events = service::GenerateArrivals(graph.value(), workload.value());
  if (!events.ok()) return Fail("serve", events.status());

  ObsSession session(flags);
  service::ServiceOptions service_options =
      ServiceOptionsFromFlags(flags, engine_options.value());
  LiveSession live;
  const Status live_setup = live.Setup(flags, &session, &service_options);
  if (!live_setup.ok()) return Fail("serve", live_setup);
  service_options.observer = session.MakeObserver();
  auto svc = service::BfsService::Create(&graph.value(), service_options);
  if (!svc.ok()) return Fail("serve", svc.status());
  live.StartExporter(&session, svc.value().get());
  auto drive = service::DriveWorkload(svc.value().get(), events.value());
  if (!drive.ok()) return Fail("serve", drive.status());
  live.Finish("serve", svc.value().get());
  auto oracle = service::OracleSharingRatio(
      graph.value(), engine_options.value(), events.value());
  if (!oracle.ok()) return Fail("serve", oracle.status());

  const obs::ServiceReport report = service::BuildServiceReport(
      GraphLabel(flags), graph.value(), service_options, workload.value(),
      drive.value(), oracle.value());
  std::printf("queries:         %lld (%lld ok, %lld failed)\n",
              static_cast<long long>(report.queries),
              static_cast<long long>(report.completed),
              static_cast<long long>(report.failed));
  std::printf("offered load:    %.1f qps for %.2f s (%s)\n",
              report.offered_qps, report.duration_seconds,
              report.arrival.c_str());
  std::printf("achieved:        %.1f qps over %.2f s wall\n",
              report.achieved_qps, report.wall_seconds);
  std::printf("batches:         %lld (mean size %.1f; closes: %lld size, "
              "%lld deadline, %lld shutdown)\n",
              static_cast<long long>(report.batches),
              report.mean_batch_size,
              static_cast<long long>(report.size_closes),
              static_cast<long long>(report.deadline_closes),
              static_cast<long long>(report.shutdown_closes));
  std::printf("latency (total): p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              report.total_ms.p50, report.total_ms.p95, report.total_ms.p99);
  std::printf("latency (queue): p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              report.queue_ms.p50, report.queue_ms.p95, report.queue_ms.p99);
  std::printf("sharing ratio:   %.1f%% (oracle %.1f%%, fraction %.1f%%)\n",
              100.0 * report.sharing_ratio,
              100.0 * report.oracle_sharing_ratio,
              100.0 * report.sharing_fraction);
  std::printf("traversal rate:  %.2f GTEPS\n", report.teps / 1e9);
  if (report.cache_enabled) {
    std::printf("cache:           %lld hits / %lld misses (%.1f%%), "
                "%lld quarantined, %.1f MB resident; plans %lld/%lld\n",
                static_cast<long long>(report.cache_hits),
                static_cast<long long>(report.cache_misses),
                100.0 * report.cache_hit_ratio,
                static_cast<long long>(report.cache_quarantined),
                static_cast<double>(report.cache_bytes_resident) / 1048576.0,
                static_cast<long long>(report.plan_hits),
                static_cast<long long>(report.plan_misses));
  }
  const service::BfsService::Stats& stats = drive.value().stats;
  if (service_options.engine.faults.enabled() || stats.shed > 0 ||
      stats.deadline_exceeded > 0) {
    std::printf("resilience:      %lld shed, %lld deadline, %lld degraded, "
                "%lld retries, %lld faults, %lld corrupt, %lld breakers\n",
                static_cast<long long>(stats.shed),
                static_cast<long long>(stats.deadline_exceeded),
                static_cast<long long>(stats.degraded),
                static_cast<long long>(stats.retries),
                static_cast<long long>(stats.transient_faults),
                static_cast<long long>(stats.corruptions_detected),
                static_cast<long long>(stats.breaker_opened));
  }

  return session.Flush("serve", report);
}

// Chaos run: same open-loop workload as `serve`, but with the fault plan
// armed, and every completed query's depth checksum verified against a
// fault-free baseline. Exit 1 on any mismatch — resilience must never
// trade away correctness.
int CmdChaos(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("chaos", graph.status());
  auto engine_options = OptionsFromFlags(flags);
  if (!engine_options.ok()) return Fail("chaos", engine_options.status());

  service::ChaosOptions chaos;
  auto workload = WorkloadFromFlags(flags);
  if (!workload.ok()) return Fail("chaos", workload.status());
  chaos.workload = workload.value();

  ObsSession session(flags);
  chaos.service = ServiceOptionsFromFlags(flags, engine_options.value());
  LiveSession live;
  const Status live_setup = live.Setup(flags, &session, &chaos.service);
  if (!live_setup.ok()) return Fail("chaos", live_setup);
  chaos.service.observer = session.MakeObserver();

  // RunChaos builds its service internally, so the exporter only rewrites
  // the metrics/live files on the interval; the sinks above still see
  // every completion because chaos.service carries the pointers.
  live.StartExporter(&session, nullptr);
  auto run = service::RunChaos(GraphLabel(flags), graph.value(), chaos);
  live.Finish("chaos", nullptr);
  if (!run.ok()) return Fail("chaos", run.status());
  const obs::ResilienceReport& report = run.value();
  std::printf("fault plan:      %s\n", report.fault_spec.c_str());
  std::printf("queries:         %lld (%lld ok, %lld failed, %lld deadline, "
              "%lld shed)\n",
              static_cast<long long>(report.queries),
              static_cast<long long>(report.completed),
              static_cast<long long>(report.failed),
              static_cast<long long>(report.deadline_exceeded),
              static_cast<long long>(report.shed));
  std::printf("recovery:        %lld retries, %lld transient faults, "
              "%lld corruptions caught, %lld breakers opened\n",
              static_cast<long long>(report.retries),
              static_cast<long long>(report.transient_faults),
              static_cast<long long>(report.corruptions_detected),
              static_cast<long long>(report.breaker_opened));
  std::printf("degraded:        %lld queries via %lld CPU-fallback groups\n",
              static_cast<long long>(report.degraded),
              static_cast<long long>(report.fallback_groups));
  std::printf("verification:    %lld checksums compared, %lld mismatches\n",
              static_cast<long long>(report.checksums_compared),
              static_cast<long long>(report.checksum_mismatches));

  int rc = session.Flush("chaos", report);
  if (report.checksum_mismatches > 0) {
    std::fprintf(stderr,
                 "chaos: FAILED — %lld completed queries returned depths "
                 "different from the fault-free baseline\n",
                 static_cast<long long>(report.checksum_mismatches));
    rc = 1;
  }
  return rc;
}

// Distributed fleet run: N shared-nothing BfsService shards behind the
// consistent-hash scatter-gather front door, driven with the same
// open-loop workload as `serve`. Every completed answer is verified
// against the fault-free CPU baseline (depth checksums are a pure
// function of the graph, so N shards must answer bit-identically to
// one), and --shard-down rehearses losing a shard mid-drive. Exit 1 on
// any mismatch or unanswered future.
int CmdFleet(const Flags& flags) {
  auto graph = LoadGraphArg(flags);
  if (!graph.ok()) return Fail("fleet", graph.status());
  auto engine_options = OptionsFromFlags(flags);
  if (!engine_options.ok()) return Fail("fleet", engine_options.status());

  fleet::FleetWorkloadOptions workload;
  auto arrivals = WorkloadFromFlags(flags);
  if (!arrivals.ok()) return Fail("fleet", arrivals.status());
  workload.workload = arrivals.value();
  workload.multi_source =
      static_cast<int>(flags.GetInt("multi-source", 1));
  workload.kill_shard = static_cast<int>(flags.GetInt("shard-down", -1));
  workload.kill_at_s = flags.GetDouble("kill-at-s", -1.0);
  workload.join_shards = static_cast<int>(flags.GetInt("join-shards", 0));
  workload.join_at_s = flags.GetDouble("join-at-s", -1.0);
  workload.join_weight = static_cast<int>(flags.GetInt("join-weight", 1));

  ObsSession session(flags);
  fleet::FleetOptions fleet_options;
  fleet_options.shards = static_cast<int>(flags.GetInt("shards", 4));
  fleet_options.vnodes = static_cast<int>(flags.GetInt("vnodes", 128));
  fleet_options.ring_seed =
      static_cast<uint64_t>(flags.GetInt("ring-seed", 2016));
  fleet_options.service =
      ServiceOptionsFromFlags(flags, engine_options.value());
  fleet_options.cpu_fallback = !flags.GetBool("no-cpu-fallback");
  fleet_options.replication =
      static_cast<int>(flags.GetInt("replication", 1));
  fleet_options.service.observer = session.MakeObserver();

  auto run = fleet::RunFleetChaos(GraphLabel(flags), graph.value(),
                                  fleet_options, workload);
  if (!run.ok()) return Fail("fleet", run.status());
  const obs::FleetReport& report = run.value();
  std::printf("fleet:           %lld shards, %lld vnodes, ring seed %lld\n",
              static_cast<long long>(report.shards),
              static_cast<long long>(report.vnodes),
              static_cast<long long>(report.ring_seed));
  std::printf("queries:         %lld (%lld ok, %lld failed)\n",
              static_cast<long long>(report.queries),
              static_cast<long long>(report.completed),
              static_cast<long long>(report.failed));
  if (report.multi_source > 1) {
    std::printf("scatter-gather:  %lld multi-queries of up to %lld sources\n",
                static_cast<long long>(report.multi_queries),
                static_cast<long long>(report.multi_source));
  }
  std::printf("achieved:        %.1f qps over %.2f s wall\n",
              report.achieved_qps, report.wall_seconds);
  std::printf("latency (total): p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              report.total_ms.p50, report.total_ms.p95, report.total_ms.p99);
  std::printf("routing:         imbalance %.2f, %lld failover reroutes, "
              "%lld CPU-fallback answers\n",
              report.imbalance,
              static_cast<long long>(report.failover_reroutes),
              static_cast<long long>(report.fallback_answers));
  std::printf("health:          %d healthy, %d degraded, %d down%s\n",
              static_cast<int>(report.healthy),
              static_cast<int>(report.degraded),
              static_cast<int>(report.down),
              report.killed_shard >= 0 ? " (one killed mid-run)" : "");
  if (report.joined_shards > 0 || report.replication > 1) {
    std::printf("elasticity:      %lld joins (%lld warmup entries), "
                "R=%lld, %lld recoveries, %lld replica mismatches\n",
                static_cast<long long>(report.shard_joins),
                static_cast<long long>(report.warmup_entries),
                static_cast<long long>(report.replication),
                static_cast<long long>(report.recoveries),
                static_cast<long long>(report.replica_mismatches));
  }
  std::printf("verification:    %lld checksums compared, %lld mismatches, "
              "%lld unanswered\n",
              static_cast<long long>(report.checksums_compared),
              static_cast<long long>(report.checksum_mismatches),
              static_cast<long long>(report.unanswered));

  int rc = session.Flush("fleet", report);
  if (report.checksum_mismatches > 0) {
    std::fprintf(stderr,
                 "fleet: FAILED — %lld completed queries returned depths "
                 "different from the single-service baseline\n",
                 static_cast<long long>(report.checksum_mismatches));
    rc = 1;
  }
  if (report.unanswered > 0) {
    std::fprintf(stderr,
                 "fleet: FAILED — %lld futures never resolved\n",
                 static_cast<long long>(report.unanswered));
    rc = 1;
  }
  return rc;
}

// Validates telemetry files written by `run`/`cluster` (or anything else
// claiming the formats) without external tooling.
int CmdCheck(const Flags& flags) {
  int checked = 0;
  int rc = 0;
  // Each flag names a file holding the document its validator checks.
  auto check = [&](const char* flag,
                   const std::function<Status(const obs::JsonValue&)>&
                       validate) {
    const std::string path = flags.GetString(flag);
    if (path.empty()) return;
    ++checked;
    const Status status = obs::ValidateFile(path, validate);
    if (status.ok()) {
      std::printf("%s OK: %s\n", flag, path.c_str());
    } else {
      std::fprintf(stderr, "check: %s %s: %s\n", flag, path.c_str(),
                   status.ToString().c_str());
      rc = 1;
    }
  };
  check("trace", [&](const obs::JsonValue& doc) {
    return obs::ValidateTrace(doc, flags.GetBool("require-spans"));
  });
  check("report", obs::ValidateRunReport);
  check("metrics", obs::ValidateMetrics);
  check("service-report", obs::ValidateServiceReport);
  check("resilience-report", obs::ValidateResilienceReport);
  check("fleet-report", obs::ValidateFleetReport);
  check("flight-record", obs::ValidateFlightRecord);
  if (checked == 0) {
    std::fprintf(stderr,
                 "check: nothing to do; pass --trace, --report, "
                 "--metrics, --service-report, --resilience-report, "
                 "--fleet-report, and/or --flight-record\n");
    return 2;
  }
  return rc;
}

int Main(int argc, const char* const* argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok() || flags.value().positional().empty()) return Usage();
  const std::string command = flags.value().positional().front();
  if (command == "generate") return CmdGenerate(flags.value());
  if (command == "stats") return CmdStats(flags.value());
  if (command == "run") return CmdRun(flags.value());
  if (command == "validate") return CmdValidate(flags.value());
  if (command == "traces") return CmdTraces(flags.value());
  if (command == "cluster") return CmdCluster(flags.value());
  if (command == "serve") return CmdServe(flags.value());
  if (command == "chaos") return CmdChaos(flags.value());
  if (command == "fleet") return CmdFleet(flags.value());
  if (command == "check") return CmdCheck(flags.value());
  return Usage();
}

}  // namespace
}  // namespace ibfs

int main(int argc, char** argv) { return ibfs::Main(argc, argv); }
