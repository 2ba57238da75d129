#include "fleet/fleet_workload.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "baselines/reference_bfs.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "util/checksum.h"

namespace ibfs::fleet {
namespace {

using Clock = std::chrono::steady_clock;

/// How long the drain waits on one future before declaring it unanswered.
/// The fleet's contract makes every future resolve during Shutdown, so
/// this only fires on a genuine availability bug.
constexpr std::chrono::seconds kDrainTimeout{60};

}  // namespace

Status FleetWorkloadOptions::Validate() const {
  IBFS_RETURN_NOT_OK(workload.Validate());
  if (multi_source < 1) {
    return Status::InvalidArgument("multi_source must be >= 1");
  }
  if (kill_shard < -1) {
    return Status::InvalidArgument("kill_shard must be >= -1");
  }
  if (join_shards < 0) {
    return Status::InvalidArgument("join_shards must be >= 0");
  }
  if (join_weight < 1) {
    return Status::InvalidArgument("join_weight must be >= 1");
  }
  return Status::OK();
}

Result<FleetDriveResult> DriveFleet(
    FleetFrontDoor* fleet, std::span<const service::WorkloadEvent> events,
    const FleetWorkloadOptions& options) {
  if (fleet == nullptr) {
    return Status::InvalidArgument("no fleet to drive");
  }
  if (events.empty()) {
    return Status::InvalidArgument("no workload events");
  }
  IBFS_RETURN_NOT_OK(options.Validate());
  if (options.kill_shard >= fleet->options().shards) {
    return Status::InvalidArgument("kill_shard outside the fleet");
  }
  if (options.join_shards > 0 &&
      !HashRing::PointsFit(fleet->options().vnodes, options.join_weight)) {
    return Status::InvalidArgument("join_weight x vnodes exceeds " +
                                   std::to_string(HashRing::kMaxShardPoints) +
                                   " ring points");
  }

  bool kill_pending = options.kill_shard >= 0;
  const double kill_at_s = options.kill_at_s >= 0.0
                               ? options.kill_at_s
                               : events.back().at_s * 0.5;
  int joins_pending = options.join_shards;
  const double join_at_s = options.join_at_s >= 0.0
                               ? options.join_at_s
                               : events.back().at_s * 0.75;
  const auto run_joins = [&] {
    while (joins_pending > 0) {
      // A join failure (shard spin-up error) must not abort the drive —
      // elasticity is best-effort while traffic keeps flowing.
      if (!fleet->AddShard(options.join_weight).ok()) break;
      --joins_pending;
    }
  };

  const size_t bundle = static_cast<size_t>(options.multi_source);
  std::vector<std::future<service::QueryResult>> singles;
  std::vector<std::future<MultiQueryResult>> multis;
  std::vector<size_t> multi_sizes;
  const auto start = Clock::now();
  for (size_t i = 0; i < events.size();) {
    const service::WorkloadEvent& event = events[i];
    if (kill_pending && event.at_s >= kill_at_s) {
      fleet->KillShard(options.kill_shard);
      kill_pending = false;
    }
    if (joins_pending > 0 && event.at_s >= join_at_s) run_joins();
    // Open loop: hold to the schedule even if the fleet is behind.
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(event.at_s)));
    if (bundle <= 1) {
      singles.push_back(fleet->Submit(event.source));
      ++i;
    } else {
      // A scatter bundle takes the next `multi_source` arrivals at the
      // first one's time — the queried source multiset matches the
      // single-source drive exactly.
      const size_t take = std::min(bundle, events.size() - i);
      std::vector<graph::VertexId> sources;
      sources.reserve(take);
      for (size_t k = 0; k < take; ++k) {
        sources.push_back(events[i + k].source);
      }
      multis.push_back(fleet->SubmitMulti(std::move(sources)));
      multi_sizes.push_back(take);
      i += take;
    }
  }
  if (kill_pending) fleet->KillShard(options.kill_shard);
  run_joins();
  // Probe health while the survivors are still serving (post-shutdown
  // error counts would pollute the probe); the marks persist into the
  // final snapshot below.
  fleet->CheckHealth();
  FleetDriveResult drive;
  fleet->Shutdown();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  drive.results.reserve(events.size());
  drive.multi_queries = static_cast<int64_t>(multis.size());
  auto drain_single = [&](std::future<service::QueryResult>& future) {
    if (future.wait_for(kDrainTimeout) != std::future_status::ready) {
      ++drive.unanswered;
      service::QueryResult lost;
      lost.status = Status::Internal("future never resolved");
      drive.results.push_back(std::move(lost));
      return;
    }
    drive.results.push_back(future.get());
  };
  if (bundle <= 1) {
    for (auto& future : singles) drain_single(future);
  } else {
    for (size_t m = 0; m < multis.size(); ++m) {
      if (multis[m].wait_for(kDrainTimeout) != std::future_status::ready) {
        drive.unanswered += static_cast<int64_t>(multi_sizes[m]);
        for (size_t k = 0; k < multi_sizes[m]; ++k) {
          service::QueryResult lost;
          lost.status = Status::Internal("future never resolved");
          drive.results.push_back(std::move(lost));
        }
        continue;
      }
      MultiQueryResult multi = multis[m].get();
      for (service::QueryResult& result : multi.results) {
        drive.results.push_back(std::move(result));
      }
    }
  }

  uint64_t checksum = kFnv1aOffsetBasis;
  int64_t completed = 0;
  for (const service::QueryResult& result : drive.results) {
    if (!result.status.ok()) continue;
    checksum = FoldChecksum(checksum, result.depth_checksum);
    ++completed;
  }
  drive.checksum = checksum;
  drive.wall_seconds = wall_seconds;
  drive.achieved_qps =
      wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds
                         : 0.0;
  // Snapshot after the drain: Shutdown resolved every future, and each
  // shard accounts before completing, so the per-shard counters are final.
  drive.stats = fleet->stats();
  return drive;
}

obs::FleetReport BuildFleetReport(const std::string& graph_name,
                                  const graph::Csr& graph,
                                  const FleetOptions& fleet_options,
                                  const FleetWorkloadOptions& workload,
                                  const FleetDriveResult& drive) {
  obs::FleetReport report;
  report.graph = graph_name;
  report.vertex_count = graph.vertex_count();
  report.edge_count = graph.edge_count();
  report.strategy = StrategyName(fleet_options.service.engine.strategy);
  report.grouping =
      GroupingPolicyName(fleet_options.service.engine.grouping);
  report.shards = fleet_options.shards;
  report.vnodes = fleet_options.vnodes;
  report.ring_seed = static_cast<int64_t>(fleet_options.ring_seed);

  report.arrival = service::ArrivalProcessName(workload.workload.arrival);
  report.offered_qps = workload.workload.qps;
  report.duration_seconds = workload.workload.duration_s;
  report.queries = static_cast<int64_t>(drive.results.size());
  report.multi_source = workload.multi_source;
  report.multi_queries = drive.multi_queries;
  report.killed_shard = workload.kill_shard;

  const FleetStats& stats = drive.stats;
  report.joined_shards = stats.shard_joins;
  report.replication = stats.replication;
  report.shard_joins = stats.shard_joins;
  report.warmup_entries = stats.warmup_entries;
  report.replica_mismatches = stats.replica_mismatches;
  report.replica_cache_writes = stats.replica_cache_writes;
  report.recoveries = stats.recoveries;
  for (size_t s = 0; s < stats.shard.size(); ++s) {
    obs::FleetReportShard row;
    row.shard = static_cast<int>(s);
    row.health = ShardHealthName(s < stats.health.size()
                                     ? stats.health[s]
                                     : ShardHealth::kHealthy);
    row.weight = s < stats.weight.size() ? stats.weight[s] : 0;
    row.routed = s < stats.routed.size() ? stats.routed[s] : 0;
    row.queries = stats.shard[s].queries;
    row.completed = stats.shard[s].completed;
    row.failed = stats.shard[s].failed;
    row.degraded = stats.shard[s].degraded;
    row.cache_hits = stats.shard[s].cache_hits;
    row.batches = stats.shard[s].batches;
    row.groups = stats.shard[s].groups;
    row.sim_seconds = stats.shard[s].sim_seconds;
    report.shard_rows.push_back(std::move(row));
  }

  report.completed = stats.totals.completed;
  report.failed = stats.totals.failed;
  report.achieved_qps = drive.achieved_qps;
  report.wall_seconds = drive.wall_seconds;
  report.imbalance = stats.Imbalance();
  report.failover_reroutes = stats.failover_reroutes;
  report.fallback_answers = stats.fallback_answers;
  report.healthy = stats.healthy;
  report.degraded = stats.degraded;
  report.down = stats.down;

  report.checksum = drive.checksum;
  report.unanswered = drive.unanswered;

  const std::vector<double> bounds = obs::PowerOfTwoBounds(0.001, 32);
  obs::Histogram total("total_ms", bounds);
  for (const service::QueryResult& result : drive.results) {
    if (!result.status.ok()) continue;
    total.Observe(result.latency.total_ms);
  }
  report.total_ms.p50 = total.Percentile(0.50);
  report.total_ms.p95 = total.Percentile(0.95);
  report.total_ms.p99 = total.Percentile(0.99);
  report.total_ms.mean = total.Mean();
  report.total_ms.max = total.max();
  return report;
}

Result<obs::FleetReport> RunFleetChaos(
    const std::string& graph_name, const graph::Csr& graph,
    const FleetOptions& fleet_options,
    const FleetWorkloadOptions& workload) {
  IBFS_RETURN_NOT_OK(fleet_options.Validate());
  IBFS_RETURN_NOT_OK(workload.Validate());
  Result<std::vector<service::WorkloadEvent>> events =
      service::GenerateArrivals(graph, workload.workload);
  if (!events.ok()) return events.status();

  // Fault-free baseline: BFS depths are unique per source, so whatever
  // path the fleet takes to an OK answer — home shard, failover survivor,
  // survivor cache, or the front door's CPU fallback — its depth checksum
  // must equal the sequential reference's.
  std::vector<graph::VertexId> sources;
  sources.reserve(events.value().size());
  for (const service::WorkloadEvent& event : events.value()) {
    sources.push_back(event.source);
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  std::unordered_map<graph::VertexId, uint64_t> expected;
  expected.reserve(sources.size());
  for (graph::VertexId source : sources) {
    expected[source] = Fnv1a(baselines::ReferenceDepthsU8(
        graph, source, fleet_options.service.engine.traversal.max_level));
  }

  Result<std::unique_ptr<FleetFrontDoor>> fleet =
      FleetFrontDoor::Create(&graph, fleet_options);
  if (!fleet.ok()) return fleet.status();
  Result<FleetDriveResult> driven =
      DriveFleet(fleet.value().get(), events.value(), workload);
  if (!driven.ok()) return driven.status();
  const FleetDriveResult& drive = driven.value();

  obs::FleetReport report = BuildFleetReport(graph_name, graph,
                                             fleet_options, workload, drive);
  for (const service::QueryResult& result : drive.results) {
    if (!result.status.ok()) continue;
    const auto it = expected.find(result.source);
    if (it == expected.end()) continue;  // unreachable: all sources ran
    ++report.checksums_compared;
    if (result.depth_checksum != it->second) ++report.checksum_mismatches;
  }
  return report;
}

}  // namespace ibfs::fleet
