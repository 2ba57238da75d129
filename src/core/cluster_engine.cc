#include "core/cluster_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/group_plan.h"
#include "core/resilient.h"
#include "ibfs/status_array.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace ibfs {
namespace {

// Cluster device tracks live in their own pid range so they never collide
// with the single-device track (engine pid, usually 0) or the host track
// (obs::kHostPid).
constexpr int kClusterPidBase = 100;

// Partitioned-run device tracks get their own pid range above the cluster's
// so a trace can hold both execution modes side by side.
constexpr int kPartitionPidBase = 200;

// One partitioned attempt's level accounting (compute sums the per-level
// makespans; steps counts supersteps).
struct LevelTally {
  double compute = 0.0, comm = 0.0;
  int64_t bytes = 0, rounds = 0, steps = 0;
};

}  // namespace

Result<ClusterRunResult> RunOnCluster(const graph::Csr& graph,
                                      std::span<const graph::VertexId> sources,
                                      const EngineOptions& options,
                                      int device_count,
                                      gpusim::PlacementPolicy policy) {
  if (device_count < 1) {
    return Status::InvalidArgument("device_count must be >= 1");
  }
  // Measurement pass: one single-device run yields the per-group costs the
  // placement policy needs up front (LPT sorts by cost before assigning).
  EngineOptions opts = options;
  opts.keep_depths = false;
  Engine engine(&graph, opts);
  Result<EngineResult> run = engine.Run(sources);
  IBFS_RETURN_NOT_OK(run.status());

  ClusterRunResult result;
  result.engine = std::move(run).value();
  const EngineResult& res = result.engine;
  result.single_device_seconds = res.sim_seconds;
  const size_t group_count = res.group_seconds.size();
  result.group_count = static_cast<int64_t>(group_count);
  gpusim::Cluster cluster(device_count, opts.device);
  const gpusim::ClusterRun placement = cluster.Place(res.group_seconds, policy);

  // Execution pass: run each device's placed unit list for real, one
  // simulated device per worker thread, instead of replaying the measured
  // timings. Units on one device execute back to back in placement order
  // (ascending planned start), on a continuous per-GPU timeline — so the
  // schedule below carries *measured* starts and busy times. Each device is
  // sequential within itself, so the measured numbers do not depend on the
  // worker count.
  std::vector<std::vector<size_t>> device_units(
      static_cast<size_t>(device_count));
  for (size_t g = 0; g < group_count; ++g) {
    device_units[static_cast<size_t>(placement.unit_device[g])].push_back(g);
  }
  for (auto& units : device_units) {
    std::sort(units.begin(), units.end(), [&](size_t a, size_t b) {
      if (placement.unit_start_seconds[a] != placement.unit_start_seconds[b]) {
        return placement.unit_start_seconds[a] <
               placement.unit_start_seconds[b];
      }
      return a < b;
    });
  }

  result.schedule.unit_device = placement.unit_device;
  result.schedule.total_seconds = placement.total_seconds;
  result.schedule.device_seconds.assign(static_cast<size_t>(device_count),
                                        0.0);
  result.schedule.unit_start_seconds.assign(group_count, 0.0);

  const obs::Observer& observer = options.observer;
  const char* policy_name =
      policy == gpusim::PlacementPolicy::kLpt ? "lpt" : "round-robin";
  if (observer.tracing()) {
    for (int d = 0; d < device_count; ++d) {
      observer.tracer->SetProcessName(
          kClusterPidBase + d,
          "cluster GPU " + std::to_string(d) + " (simulated time)");
    }
  }
  // The execution pass traces (kernel/level/cluster spans on the per-GPU
  // pids) but does not meter: the measurement run already counted every
  // kernel and level once, and executing the same groups again would double
  // the engine.* / gpusim.* counters.
  obs::Observer exec_observer;
  exec_observer.tracer = observer.tracer;

  std::vector<Status> device_status(static_cast<size_t>(device_count),
                                    Status::OK());
  auto run_device = [&](int64_t d) {
    gpusim::Device device(opts.device);
    const obs::Observer dev_observer =
        exec_observer.WithTrack(kClusterPidBase + static_cast<int>(d), 0);
    for (size_t g : device_units[static_cast<size_t>(d)]) {
      const double start = device.elapsed_seconds();
      Result<GroupResult> group_result =
          engine.ExecuteGroup(res.group_sources[g], &device, dev_observer);
      if (!group_result.ok()) {
        device_status[static_cast<size_t>(d)] = group_result.status();
        return;
      }
      result.schedule.unit_start_seconds[g] = start;
      if (dev_observer.tracing()) {
        dev_observer.tracer->CompleteSpan(
            dev_observer.track, "group " + std::to_string(g), "cluster",
            start * 1e6, (device.elapsed_seconds() - start) * 1e6,
            {obs::Arg("device", static_cast<int64_t>(d)),
             obs::Arg("policy", policy_name)});
      }
    }
    result.schedule.device_seconds[static_cast<size_t>(d)] =
        device.elapsed_seconds();
  };

  const int exec_threads = ThreadPool::WorkerCount(opts.threads, device_count);
  if (exec_threads <= 1) {
    for (int d = 0; d < device_count; ++d) run_device(d);
  } else {
    ThreadPool pool(exec_threads);
    pool.ParallelFor(device_count, run_device);
  }
  for (const Status& s : device_status) IBFS_RETURN_NOT_OK(s);

  result.schedule.makespan_seconds =
      result.schedule.device_seconds.empty()
          ? 0.0
          : *std::max_element(result.schedule.device_seconds.begin(),
                              result.schedule.device_seconds.end());
  if (result.schedule.makespan_seconds > 0.0) {
    result.speedup =
        result.single_device_seconds / result.schedule.makespan_seconds;
    const double edges = static_cast<double>(graph.edge_count()) *
                         static_cast<double>(sources.size());
    result.teps = edges / result.schedule.makespan_seconds;
  }

  if (observer.metering()) {
    observer.metrics->GetGauge("cluster.devices")
        ->Set(static_cast<double>(device_count));
    observer.metrics->GetGauge("cluster.makespan_seconds")
        ->Set(result.schedule.makespan_seconds);
    observer.metrics->GetGauge("cluster.speedup")->Set(result.speedup);
  }
  return result;
}

uint64_t DepthChecksum(std::span<const GroupResult> groups) {
  uint64_t state = kFnv1aOffsetBasis;
  for (const GroupResult& group : groups) {
    for (const std::vector<uint8_t>& depths : group.depths) {
      state = Fnv1aExtend(state, depths);
    }
  }
  return state;
}

Result<PartitionedRunResult> RunPartitioned(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const EngineOptions& options, const PartitionRunOptions& run) {
  IBFS_RETURN_NOT_OK(options.Validate());
  const auto wall_start = std::chrono::steady_clock::now();

  Result<graph::Partitioning> parted =
      graph::PartitionByEdges1D(graph, run.partitions);
  IBFS_RETURN_NOT_OK(parted.status());
  const graph::Partitioning& parts = parted.value();

  // Same single grouping code path as Engine::Run, so the partitioned run's
  // group structure matches the unpartitioned engine exactly.
  Result<GroupPlan> plan =
      GroupSources(graph, sources, options, DuplicatePolicy::kAllow);
  IBFS_RETURN_NOT_OK(plan.status());
  const std::vector<std::vector<graph::VertexId>>& groups =
      plan.value().grouping.groups;

  const int P = parts.partition_count();
  const int64_t vertices = graph.vertex_count();
  const int64_t words = (vertices + 63) / 64;

  gpusim::LinkSpec link{options.device.link_bandwidth_gbps,
                        options.device.link_latency_us};
  if (run.link_gbps > 0.0) link.bandwidth_gbps = run.link_gbps;
  if (run.link_us >= 0.0) link.latency_us = run.link_us;

  // Exchange payload: each rank ships the bitmap words covering its owned
  // range, padded to the widest partition's span — collectives move
  // symmetric slices, so the fleet pays for the worst rank.
  int64_t max_range_words = 0;
  for (const graph::GraphPartition& part : parts.parts) {
    const int64_t wbeg = part.range.begin / 64;
    const int64_t wend = (static_cast<int64_t>(part.range.end) + 63) / 64;
    max_range_words = std::max(max_range_words, wend - wbeg);
  }

  PartitionedRunResult result;
  result.partitions = P;
  result.schedule = run.schedule;
  result.link = link;
  result.edge_imbalance = parts.EdgeImbalance();
  result.device_seconds.assign(static_cast<size_t>(P), 0.0);
  for (const graph::GraphPartition& part : parts.parts) {
    result.partition_vertices.push_back(part.range.size());
    result.partition_edges.push_back(part.local.edge_count());
  }

  const obs::Observer& observer = options.observer;
  if (observer.tracing()) {
    for (int p = 0; p < P; ++p) {
      observer.tracer->SetProcessName(
          kPartitionPidBase + p,
          "partition GPU " + std::to_string(p) + " (simulated time)");
    }
  }

  const int max_level = options.traversal.max_level;

  const int threads = ThreadPool::WorkerCount(options.threads, P);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const auto for_partitions = [&](const std::function<void(int64_t)>& fn) {
    if (pool.has_value()) {
      pool->ParallelFor(P, fn);
    } else {
      for (int p = 0; p < P; ++p) fn(p);
    }
  };

  // Partition p draws its faults from fleet device p % faults.device_count,
  // matching the engine's "group g runs on device g % device_count"
  // convention.
  std::vector<int> device_ids(static_cast<size_t>(P));
  for (int p = 0; p < P; ++p) {
    device_ids[static_cast<size_t>(p)] =
        p % std::max(1, options.faults.device_count);
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<graph::VertexId>& group = groups[g];
    const size_t n = group.size();

    // Level accounting of the current attempt; folded into the result only
    // when the attempt succeeds.
    LevelTally tally;

    // One attempt: level-synchronous expansion over the fresh devices. It
    // returns full depths even when keep_depths is false, so the transfer
    // checksum always has a payload to guard.
    const auto level_loop =
        [&](std::span<gpusim::Device> devices) -> Result<GroupResult> {
      tally = {};
      std::vector<gpusim::PhaseId> expand_phase(static_cast<size_t>(P));
      std::vector<gpusim::PhaseId> comm_phase(static_cast<size_t>(P));
      for (int p = 0; p < P; ++p) {
        gpusim::Device& device = devices[static_cast<size_t>(p)];
        device.SetObserver(observer.WithTrack(kPartitionPidBase + p, 0));
        expand_phase[static_cast<size_t>(p)] =
            device.InternPhase("part_expand");
        comm_phase[static_cast<size_t>(p)] =
            device.InternPhase("part_exchange");
      }

      std::vector<std::vector<uint8_t>> depths(
          n, std::vector<uint8_t>(static_cast<size_t>(vertices),
                                  kUnvisitedDepth));
      std::vector<std::vector<uint64_t>> frontier(
          n, std::vector<uint64_t>(static_cast<size_t>(words), 0));
      for (size_t j = 0; j < n; ++j) {
        const graph::VertexId src = group[j];
        depths[j][src] = 0;
        frontier[j][src / 64] |= uint64_t{1} << (src % 64);
      }
      // Per-partition discovery bitmaps: partitions write disjoint buffers,
      // so the parallel expansion is race-free and the host merge below —
      // always in partition order — is deterministic for every thread count.
      std::vector<std::vector<std::vector<uint64_t>>> next(
          static_cast<size_t>(P),
          std::vector<std::vector<uint64_t>>(
              n, std::vector<uint64_t>(static_cast<size_t>(words), 0)));
      std::vector<double> level_seconds(static_cast<size_t>(P), 0.0);

      for (int level = 0; level < max_level; ++level) {
        bool any = false;
        for (size_t j = 0; j < n && !any; ++j) {
          for (int64_t w = 0; w < words; ++w) {
            if (frontier[j][static_cast<size_t>(w)] != 0) {
              any = true;
              break;
            }
          }
        }
        if (!any) break;

        const auto expand = [&](int64_t pi) {
          const auto p = static_cast<size_t>(pi);
          const graph::GraphPartition& part = parts.parts[p];
          gpusim::Device& device = devices[p];
          const double mark = device.elapsed_seconds();
          gpusim::KernelScope scope = device.BeginKernel(expand_phase[p]);
          const int64_t wbeg = part.range.begin / 64;
          const int64_t wend =
              (static_cast<int64_t>(part.range.end) + 63) / 64;
          for (size_t j = 0; j < n; ++j) {
            // One coalesced sweep over the owned slice of instance j's
            // frontier bitmap, then one work item per frontier vertex.
            scope.LoadContiguous(wbeg, wend - wbeg, 8);
            scope.BulkCompute(wend - wbeg, 1);
            std::vector<uint64_t>& out = next[p][j];
            const std::vector<uint64_t>& front = frontier[j];
            const std::vector<uint8_t>& depth = depths[j];
            for (int64_t w = wbeg; w < wend; ++w) {
              uint64_t word = front[static_cast<size_t>(w)];
              if (word == 0) continue;
              // Boundary words can carry neighbors' bits; mask to owned.
              if (w == wbeg && part.range.begin % 64 != 0) {
                word &= ~uint64_t{0} << (part.range.begin % 64);
              }
              if (w == wend - 1 && part.range.end % 64 != 0) {
                word &= (uint64_t{1} << (part.range.end % 64)) - 1;
              }
              while (word != 0) {
                const int bit = std::countr_zero(word);
                word &= word - 1;
                const int64_t v = w * 64 + bit;
                const int64_t r = v - part.range.begin;
                scope.BeginItem();
                scope.LoadContiguous(
                    r, 2, static_cast<int>(sizeof(graph::EdgeIndex)));
                const std::span<const graph::VertexId> adj =
                    part.local.OutNeighbors(r);
                scope.LoadContiguous(
                    static_cast<int64_t>(part.local.row_offsets
                                             [static_cast<size_t>(r)]),
                    static_cast<int64_t>(adj.size()),
                    static_cast<int>(sizeof(graph::VertexId)));
                scope.Compute(static_cast<int64_t>(adj.size()));
                for (const graph::VertexId u : adj) {
                  if (depth[u] != kUnvisitedDepth) continue;
                  uint64_t& nw = out[u / 64];
                  const uint64_t ubit = uint64_t{1} << (u % 64);
                  if ((nw & ubit) == 0) {
                    nw |= ubit;
                    scope.Atomic(1);
                  }
                }
                scope.EndItem();
              }
            }
          }
          scope.End();
          level_seconds[p] = device.elapsed_seconds() - mark;
        };
        for_partitions(expand);

        // Level-synchronous: the step takes as long as the slowest rank.
        tally.compute +=
            *std::max_element(level_seconds.begin(), level_seconds.end());
        ++tally.steps;

        // Frontier exchange: every rank ends the level holding the merged
        // bitmap, priced once and charged to every device's timeline (they
        // sit synchronized in the collective). Zero-cost at P = 1.
        const int64_t bytes_per_rank =
            max_range_words * 8 * static_cast<int64_t>(n);
        const gpusim::CommCost cost = gpusim::FrontierExchangeCost(
            run.schedule, P, bytes_per_rank, link);
        for (int p = 0; p < P; ++p) {
          devices[static_cast<size_t>(p)].ChargeCommSeconds(
              comm_phase[static_cast<size_t>(p)], cost.seconds);
        }
        tally.comm += cost.seconds;
        tally.bytes += cost.bytes_on_wire;
        tally.rounds += cost.rounds;

        // Host-side merge in partition order; loop bound level < max_level
        // keeps the deepest assigned depth at max_level, exactly like the
        // single-device runners.
        const auto next_depth = static_cast<uint8_t>(level + 1);
        for (size_t j = 0; j < n; ++j) {
          std::vector<uint8_t>& depth = depths[j];
          std::vector<uint64_t>& front = frontier[j];
          for (int64_t w = 0; w < words; ++w) {
            const auto wi = static_cast<size_t>(w);
            uint64_t merged = 0;
            for (int p = 0; p < P; ++p) {
              merged |= next[static_cast<size_t>(p)][j][wi];
              next[static_cast<size_t>(p)][j][wi] = 0;
            }
            uint64_t fresh = 0;
            while (merged != 0) {
              const int bit = std::countr_zero(merged);
              merged &= merged - 1;
              const size_t u = wi * 64 + static_cast<size_t>(bit);
              if (depth[u] == kUnvisitedDepth) {
                depth[u] = next_depth;
                fresh |= uint64_t{1} << bit;
              }
            }
            front[wi] = fresh;
          }
        }

        // A fault latches on the device and surfaces at the next sync
        // point — the end of the level — where the attempt is abandoned.
        if (std::any_of(devices.begin(), devices.end(),
                        [](const gpusim::Device& d) { return d.faulted(); })) {
          break;
        }
      }

      GroupResult group_result;
      group_result.depths = std::move(depths);
      return group_result;
    };

    ResilientOutcome outcome = RunResilient(
        options, device_ids, static_cast<uint64_t>(g), observer, level_loop);
    result.retries += outcome.attempts - 1;
    result.transient_faults += outcome.transient_faults;
    result.corruptions_detected += outcome.corruptions_detected;
    result.wasted_sim_seconds += outcome.wasted_sim_seconds;
    IBFS_RETURN_NOT_OK(outcome.status);

    result.compute_seconds += tally.compute;
    result.comm_seconds += tally.comm;
    result.bytes_on_wire += tally.bytes;
    result.comm_rounds += tally.rounds;
    result.supersteps += tally.steps;
    for (int p = 0; p < P; ++p) {
      const gpusim::Device& device = outcome.devices[static_cast<size_t>(p)];
      result.device_seconds[static_cast<size_t>(p)] += device.elapsed_seconds();
      result.totals.Add(device.totals());
      for (const auto& [name, stats] : device.phases()) {
        result.phases[name].Add(stats);
      }
    }
    if (!options.keep_depths) outcome.result.depths.clear();
    result.groups.push_back(std::move(outcome.result));
    result.group_sources.push_back(group);
  }

  result.sim_seconds = result.compute_seconds + result.comm_seconds;
  if (result.sim_seconds > 0.0) {
    result.teps = static_cast<double>(graph.edge_count()) *
                  static_cast<double>(sources.size()) / result.sim_seconds;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (observer.metering()) {
    obs::MetricsRegistry* metrics = observer.metrics;
    metrics->GetGauge("comm.partitions")->Set(static_cast<double>(P));
    metrics->GetGauge("comm.seconds")->Set(result.comm_seconds);
    metrics->GetGauge("comm.edge_imbalance")->Set(result.edge_imbalance);
    metrics->GetCounter("comm.bytes_on_wire")->Increment(result.bytes_on_wire);
    metrics->GetCounter("comm.rounds")->Increment(result.comm_rounds);
    metrics->GetCounter("comm.supersteps")->Increment(result.supersteps);
  }
  return result;
}

}  // namespace ibfs
