#ifndef IBFS_CORE_CLUSTER_ENGINE_H_
#define IBFS_CORE_CLUSTER_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.h"
#include "gpusim/cluster.h"
#include "gpusim/memory_model.h"
#include "graph/csr.h"
#include "graph/partition.h"

namespace ibfs {

/// Result of running a concurrent-BFS workload on a simulated GPU cluster
/// (the paper's Section 8.3 experiment as a first-class API).
struct ClusterRunResult {
  /// Time if all groups ran on one device.
  double single_device_seconds = 0.0;
  /// Placement of groups onto devices and the resulting makespan (the
  /// paper reports the slowest device's time). Starts, busy times, and the
  /// makespan are *measured* by actually executing each device's unit list
  /// on its own simulated device (one host worker per device), not replayed
  /// from the measurement run.
  gpusim::ClusterRun schedule;
  /// single_device_seconds / makespan.
  double speedup = 0.0;
  /// Aggregate traversal rate at this device count.
  double teps = 0.0;
  /// Number of schedulable groups (the placement granularity; speedup is
  /// capped by group_count / max-groups-per-device).
  int64_t group_count = 0;
  /// The single-device run the schedule was derived from (depths dropped);
  /// feeds the run report's per-group and per-phase sections.
  EngineResult engine;
};

/// Runs the engine once to obtain per-group simulated times (the
/// measurement pass — depths are dropped via keep_depths=false), places the
/// groups onto `device_count` devices, then executes each device's placed
/// unit list for real on its own host worker thread (the execution pass).
/// `options.threads` sizes both passes' worker pools (0 = hardware
/// concurrency). Since iBFS groups are fully independent, no inter-GPU
/// communication is modeled — matching the paper's multi-GPU design.
Result<ClusterRunResult> RunOnCluster(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const EngineOptions& options, int device_count,
    gpusim::PlacementPolicy policy = gpusim::PlacementPolicy::kRoundRobin);

/// Configuration for the 1D edge-partitioned execution path — the scenario
/// where one graph is spread over P devices and every BFS level ends in a
/// frontier exchange, instead of the shared-nothing group placement of
/// RunOnCluster.
struct PartitionRunOptions {
  /// Number of partitions P (devices holding one vertex range each).
  int partitions = 2;
  /// Exchange schedule priced by gpusim::FrontierExchangeCost.
  gpusim::CommSchedule schedule = gpusim::CommSchedule::kAllGather;
  /// Link overrides; link_gbps <= 0 / link_us < 0 fall back to the
  /// DeviceSpec's link_bandwidth_gbps / link_latency_us.
  double link_gbps = 0.0;
  double link_us = -1.0;
};

/// Result of a partitioned run. Depths are merged in partition order every
/// level, so they are bit-identical to the unpartitioned Engine for every
/// (P, schedule, threads) setting — the comm model only shapes *time*.
struct PartitionedRunResult {
  /// One entry per executed group (parallel to group_sources); depths are
  /// full-width per instance, exactly as Engine::Run reports them.
  std::vector<GroupResult> groups;
  std::vector<std::vector<graph::VertexId>> group_sources;

  int partitions = 0;
  gpusim::CommSchedule schedule = gpusim::CommSchedule::kAllGather;
  /// Link actually priced (spec defaults or overrides).
  gpusim::LinkSpec link;

  /// Per-level makespans over partitions, summed (kernel time only).
  double compute_seconds = 0.0;
  /// Frontier-exchange time, summed over supersteps (zero when P = 1).
  double comm_seconds = 0.0;
  /// compute_seconds + comm_seconds; the partitioned wall clock.
  double sim_seconds = 0.0;
  /// i x |E| / sim_seconds.
  double teps = 0.0;

  /// Fleet-wide exchange bytes, latency-bound rounds, and superstep count
  /// (a superstep is one BFS level of one group).
  int64_t bytes_on_wire = 0;
  int64_t comm_rounds = 0;
  int64_t supersteps = 0;

  /// Cut quality: max owned edges / ideal share (1.0 = perfect).
  double edge_imbalance = 0.0;
  std::vector<int64_t> partition_vertices;
  std::vector<int64_t> partition_edges;
  /// Per-partition device clock over successful attempts (compute + comm).
  std::vector<double> device_seconds;

  /// Device counter totals and per-phase aggregates summed over every
  /// partition's successful attempts ("part_expand" kernels plus
  /// "part_exchange" comm entries) — feeds the run report's profile table.
  gpusim::KernelStats totals;
  gpusim::PhaseMap phases;

  /// Fault accounting, mirroring EngineResult's recovery fields.
  int64_t retries = 0;
  int64_t transient_faults = 0;
  int64_t corruptions_detected = 0;
  double wasted_sim_seconds = 0.0;

  double wall_seconds = 0.0;
};

/// Runs the workload 1D-partitioned over `run.partitions` simulated devices:
/// sources are grouped through GroupSources (the same single code path
/// Engine::Run plans through, so groups match the unpartitioned engine
/// exactly), then each group executes level-synchronously — every partition
/// expands its owned slice of the frontier against its local CSR, the
/// per-partition discoveries are exchanged (priced by FrontierExchangeCost
/// and charged to every device's timeline), and the host merges them in
/// partition order. Merging is order-deterministic, so depths are
/// bit-identical to the unpartitioned engine regardless of P, schedule, or
/// host threads. Every partition runs the one top-down "part_expand"
/// kernel whatever options.strategy is, so simulated seconds do not compare
/// with the engine's strategies. Each group retries through RunResilient,
/// the loop Engine::Run and BfsService use, with one attempt spanning the P
/// devices; partition p draws from fleet device p % faults.device_count.
Result<PartitionedRunResult> RunPartitioned(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const EngineOptions& options, const PartitionRunOptions& run);

/// FNV-1a digest of every group's depth payload in order — the parity
/// currency of the partitioned path: equal checksums mean bit-identical
/// depths. Works on EngineResult::groups and PartitionedRunResult::groups.
uint64_t DepthChecksum(std::span<const GroupResult> groups);

}  // namespace ibfs

#endif  // IBFS_CORE_CLUSTER_ENGINE_H_
