#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/group_plan.h"
#include "core/resilient.h"
#include "ibfs/status_array.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ibfs {

double EngineResult::SharingRatio(int direction) const {
  int64_t private_sum = 0;
  int64_t joint_sum = 0;
  int64_t instances = 0;
  int64_t group_count = 0;
  for (const GroupResult& g : groups) {
    for (const LevelTrace& lt : g.trace.levels) {
      if (direction == 0 && lt.bottom_up) continue;
      if (direction == 1 && !lt.bottom_up) continue;
      private_sum += lt.private_fq_sum;
      joint_sum += lt.jfq_size;
    }
    instances += g.trace.instance_count;
    ++group_count;
  }
  if (joint_sum == 0 || group_count == 0 || instances == 0) return 0.0;
  const double avg_instances =
      static_cast<double>(instances) / static_cast<double>(group_count);
  const double sd =
      static_cast<double>(private_sum) / static_cast<double>(joint_sum);
  return sd / avg_instances;
}

int EngineResult::DepthOf(size_t g, size_t k, graph::VertexId v) const {
  IBFS_CHECK(g < groups.size());
  IBFS_CHECK(k < groups[g].depths.size());
  const uint8_t d = groups[g].depths[k][v];
  return d == kUnvisitedDepth ? -1 : d;
}

Engine::Engine(const graph::Csr* graph, EngineOptions options)
    : graph_(graph), options_(std::move(options)) {
  IBFS_CHECK(graph_ != nullptr);
}

int64_t Engine::MaxGroupSize(const graph::Csr& graph,
                             const gpusim::DeviceSpec& spec) {
  const int64_t m = spec.global_memory_bytes;
  const int64_t s = graph.StorageBytes();
  const int64_t jfq = graph.vertex_count() *
                      static_cast<int64_t>(sizeof(graph::VertexId));
  const int64_t sa = graph.vertex_count();  // one byte per vertex and instance
  if (m <= s + jfq || sa == 0) return 0;
  return (m - s - jfq) / sa;
}

Result<EngineResult> Engine::Run(
    std::span<const graph::VertexId> sources) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const obs::Observer& observer = options_.observer;
  const auto wall_us = [&wall_start] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - wall_start)
        .count();
  };
  if (observer.tracing()) {
    observer.tracer->SetProcessName(
        observer.track.pid, "GPU " + std::to_string(observer.track.pid) +
                                " (simulated time)");
    observer.tracer->SetProcessName(obs::kHostPid, "host (wall clock)");
  }

  IBFS_RETURN_NOT_OK(options_.Validate());

  const double grouping_start_us = wall_us();
  Result<GroupPlan> plan =
      GroupSources(*graph_, sources, options_, DuplicatePolicy::kAllow);
  if (!plan.ok()) return plan.status();
  Grouping grouping = std::move(plan.value().grouping);
  if (observer.tracing()) {
    observer.tracer->CompleteSpan(
        {obs::kHostPid, 0}, "grouping", "host", grouping_start_us,
        wall_us() - grouping_start_us,
        {obs::Arg("policy", GroupingPolicyName(options_.grouping)),
         obs::Arg("groups", static_cast<int64_t>(grouping.groups.size())),
         obs::Arg("rule_matched", grouping.rule_matched)});
  }
  if (observer.metering()) {
    observer.metrics->GetCounter("engine.groups")
        ->Increment(static_cast<int64_t>(grouping.groups.size()));
    observer.metrics->GetCounter("engine.rule_matched")
        ->Increment(grouping.rule_matched);
  }

  EngineResult result;
  result.rule_matched = grouping.rule_matched;
  result.group_hubs = std::move(grouping.group_hubs);

  // Each group runs on its own fresh device, so its simulated timeline and
  // counters start from zero no matter which worker (or how many) executes
  // it — that is what makes the parallel run bit-identical to the serial
  // one. Trace spans go to a per-group track (tid 1 + g on the engine's
  // pid) in group-local simulated time. Group g maps to fleet device
  // g % faults.device_count, and each attempt runs through the resilient
  // executor (retry + backoff + transfer checksum); with the default
  // disabled fault plan that is exactly one ExecuteGroup per group.
  const size_t group_count = grouping.groups.size();
  std::vector<ResilientOutcome> runs(group_count);
  auto run_group = [&](int64_t g) {
    const obs::Observer group_observer =
        observer.WithTrack(observer.track.pid, 1 + static_cast<int>(g));
    const int device_id =
        static_cast<int>(g % std::max(1, options_.faults.device_count));
    runs[static_cast<size_t>(g)] = ExecuteGroupResilient(
        *this, grouping.groups[static_cast<size_t>(g)], device_id,
        static_cast<uint64_t>(g), group_observer);
  };

  const int threads = ThreadPool::WorkerCount(
      options_.threads, static_cast<int64_t>(group_count));
  const double exec_start_us = wall_us();
  if (threads <= 1) {
    for (size_t g = 0; g < group_count; ++g) run_group(static_cast<int64_t>(g));
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(static_cast<int64_t>(group_count), run_group);
  }
  if (observer.tracing()) {
    observer.tracer->CompleteSpan(
        {obs::kHostPid, 0}, "run_groups", "host", exec_start_us,
        wall_us() - exec_start_us,
        {obs::Arg("threads", static_cast<int64_t>(threads)),
         obs::Arg("groups", static_cast<int64_t>(group_count))});
  }

  // Deterministic merge, strictly in group order on this thread: the first
  // failing group's status wins, sim_seconds is the in-order sum of the
  // per-group seconds, and counter/phase totals fold group by group.
  for (size_t g = 0; g < group_count; ++g) {
    ResilientOutcome& run = runs[g];
    result.retries += run.attempts - 1;
    result.transient_faults += run.transient_faults;
    result.corruptions_detected += run.corruptions_detected;
    result.wasted_sim_seconds += run.wasted_sim_seconds;
    IBFS_RETURN_NOT_OK(run.status);
    const gpusim::Device& device = run.devices.front();
    const double seconds = device.elapsed_seconds();
    if (observer.tracing()) {
      observer.tracer->SetThreadName(observer.track.pid,
                                     1 + static_cast<int>(g),
                                     "group " + std::to_string(g));
      std::vector<obs::TraceArg> span_args = {
          obs::Arg("instances",
                   static_cast<int64_t>(grouping.groups[g].size())),
          obs::Arg("levels",
                   static_cast<int64_t>(run.result.trace.levels.size())),
          obs::Arg("hub", g < result.group_hubs.size()
                              ? result.group_hubs[g]
                              : int64_t{-1})};
      if (!observer.context.empty()) {
        span_args.push_back(obs::Arg("ctx", observer.context));
      }
      observer.tracer->CompleteSpan(
          {observer.track.pid, 1 + static_cast<int>(g)},
          "group " + std::to_string(g), "group", 0.0, seconds * 1e6,
          std::move(span_args));
    }
    result.sim_seconds += seconds;
    result.totals.Add(device.totals());
    for (const auto& [phase, stats] : device.phases()) {
      result.phases[phase].Add(stats);
    }
    result.group_seconds.push_back(seconds);
    result.groups.push_back(std::move(run.result));
    result.group_sources.push_back(std::move(grouping.groups[g]));
  }

  const double edges = static_cast<double>(graph_->edge_count()) *
                       static_cast<double>(sources.size());
  result.teps = result.sim_seconds > 0.0 ? edges / result.sim_seconds : 0.0;
  result.wall_seconds = wall_us() * 1e-6;
  if (observer.metering()) {
    observer.metrics->GetGauge("engine.sim_seconds")
        ->Set(result.sim_seconds);
    observer.metrics->GetGauge("engine.teps")->Set(result.teps);
    observer.metrics->GetGauge("engine.threads")
        ->Set(static_cast<double>(threads));
  }
  return result;
}

Result<GroupResult> Engine::ExecuteGroup(
    std::span<const graph::VertexId> group, gpusim::Device* device,
    const obs::Observer& observer) const {
  IBFS_CHECK(device != nullptr);
  device->SetObserver(observer);
  TraversalOptions traversal = options_.traversal;
  traversal.record_depths = options_.keep_depths;
  traversal.observer = observer;
  return RunGroup(options_.strategy, *graph_, group, traversal, device);
}

Result<EngineResult> Engine::RunAllSources() const {
  std::vector<graph::VertexId> sources(
      static_cast<size_t>(graph_->vertex_count()));
  std::iota(sources.begin(), sources.end(), 0);
  return Run(sources);
}

}  // namespace ibfs
