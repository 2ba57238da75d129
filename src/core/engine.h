#ifndef IBFS_CORE_ENGINE_H_
#define IBFS_CORE_ENGINE_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "gpusim/device.h"
#include "graph/csr.h"
#include "ibfs/runner.h"

namespace ibfs {

/// Result of running i concurrent BFS instances through the engine.
struct EngineResult {
  /// One entry per executed group, in execution order.
  std::vector<GroupResult> groups;
  /// Sources of each group (parallel to `groups`).
  std::vector<std::vector<graph::VertexId>> group_sources;
  /// Simulated seconds per group (parallel to `groups`) — the unit costs
  /// the multi-GPU scalability study schedules (Figure 17).
  std::vector<double> group_seconds;

  /// Total simulated seconds on one device (sum over groups).
  double sim_seconds = 0.0;
  /// Traversal rate: i x |E| directed edges / sim_seconds (the paper's
  /// TEPS metric — every instance's search counts every directed edge).
  double teps = 0.0;
  /// Device counter totals across the whole run.
  gpusim::KernelStats totals;
  /// Per-phase ("td_inspect", "bu_inspect", "fq_gen") aggregates.
  gpusim::PhaseMap phases;
  /// Sources placed by the GroupBy rules (0 unless grouping == kGroupBy).
  int64_t rule_matched = 0;
  /// Hub vertex each group was bucketed on (-1 = no hub), parallel to
  /// `groups`; surfaces the grouping decisions in the run report.
  std::vector<int64_t> group_hubs;
  /// Host wall-clock seconds spent inside Engine::Run.
  double wall_seconds = 0.0;

  /// Recovery accounting, nonzero only when options.faults is enabled:
  /// extra execution attempts beyond the first, injected launch failures
  /// observed, transfer corruptions caught by the checksum, and simulated
  /// seconds burned by failed attempts (successful-attempt timing is what
  /// sim_seconds/teps report, so fault-free numbers are unchanged).
  int64_t retries = 0;
  int64_t transient_faults = 0;
  int64_t corruptions_detected = 0;
  double wasted_sim_seconds = 0.0;

  /// Aggregate sharing ratio over all groups, optionally restricted to one
  /// traversal direction (pass -1 for both, 0 for top-down, 1 for
  /// bottom-up).
  double SharingRatio(int direction = -1) const;

  /// Looks up the depth of `v` from source instance (group g, member k).
  /// Convenience for examples/tests; prefer iterating `groups` in bulk.
  int DepthOf(size_t g, size_t k, graph::VertexId v) const;
};

/// The iBFS engine: groups the requested source vertices (GroupBy, random,
/// or in-order), runs each group with the configured strategy on a
/// simulated device, and aggregates timing, counters, and traces.
///
/// Groups are independent (separate status arrays, separate simulated
/// kernels), so with `options.threads > 1` the engine executes them on a
/// work-stealing host thread pool, one fresh `gpusim::Device` per group,
/// and merges the per-group results in group order on the calling thread.
/// Every thread count — including 1 — takes the per-group-device path, so
/// depths, traces, counters, `sim_seconds`, and `teps` are bit-identical
/// regardless of parallelism; only `wall_seconds` reflects the speedup.
class Engine {
 public:
  /// The graph must outlive the engine.
  Engine(const graph::Csr* graph, EngineOptions options);

  /// Runs concurrent BFS from every vertex in `sources`.
  Result<EngineResult> Run(std::span<const graph::VertexId> sources) const;

  /// Runs all-pairs (APSP): one BFS from every vertex of the graph.
  Result<EngineResult> RunAllSources() const;

  /// Runs one already-formed group on `device` with this engine's strategy
  /// and traversal configuration, attaching `observer` to both the device
  /// (kernel spans) and the runner (level spans). The device's simulated
  /// clock keeps whatever offset it has — the cluster engine uses this to
  /// execute placed groups back-to-back on continuous per-GPU timelines.
  Result<GroupResult> ExecuteGroup(std::span<const graph::VertexId> group,
                                   gpusim::Device* device,
                                   const obs::Observer& observer) const;

  const EngineOptions& options() const { return options_; }

  /// The paper's group-size bound (Section 3):
  /// N <= (M - S - |JFQ|) / |SA|, with M the device memory, S the graph
  /// storage, |JFQ| the joint queue and |SA| one instance's status column.
  static int64_t MaxGroupSize(const graph::Csr& graph,
                              const gpusim::DeviceSpec& spec);

 private:
  const graph::Csr* graph_;
  EngineOptions options_;
};

}  // namespace ibfs

#endif  // IBFS_CORE_ENGINE_H_
