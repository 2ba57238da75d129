#include "core/observe.h"

#include <utility>
#include <vector>

#include "gpusim/report.h"
#include "ibfs/runner.h"

namespace ibfs {
namespace {

obs::ReportPhase ToReportPhase(const gpusim::ProfileRow& row) {
  obs::ReportPhase phase;
  phase.name = row.phase;
  phase.seconds = row.seconds;
  phase.launches = row.launches;
  phase.load_transactions = row.load_transactions;
  phase.store_transactions = row.store_transactions;
  phase.load_requests = row.load_requests;
  phase.store_requests = row.store_requests;
  phase.load_transactions_per_request = row.load_transactions_per_request;
  phase.atomic_ops = row.atomic_ops;
  phase.shared_bytes = row.shared_bytes;
  return phase;
}

// The fields both run reports share: workload, headline results, the
// profile table, and one group row (index and sources) per executed group.
template <typename RunResult>
obs::RunReport ReportBody(const std::string& graph_name,
                          const graph::Csr& graph,
                          const EngineOptions& options, int64_t instances,
                          const RunResult& result) {
  obs::RunReport report;
  report.graph = graph_name;
  report.vertex_count = graph.vertex_count();
  report.edge_count = graph.edge_count();
  report.strategy = StrategyName(options.strategy);
  report.grouping = GroupingPolicyName(options.grouping);
  report.instances = instances;
  report.group_size = options.group_size;

  report.sim_seconds = result.sim_seconds;
  report.wall_seconds = result.wall_seconds;
  report.teps = result.teps;

  report.groups.resize(result.group_sources.size());
  for (size_t g = 0; g < report.groups.size(); ++g) {
    const std::vector<graph::VertexId>& sources = result.group_sources[g];
    obs::ReportGroup& out = report.groups[g];
    out.index = static_cast<int>(g);
    out.instance_count = static_cast<int>(sources.size());
    out.sources.assign(sources.begin(), sources.end());
  }

  std::vector<gpusim::ProfileRow> rows =
      gpusim::ProfileRows(result.phases, result.totals, result.sim_seconds);
  for (gpusim::ProfileRow& row : rows) {
    if (row.phase == gpusim::kTotalRowName) {
      report.totals = ToReportPhase(row);
    } else {
      report.phases.push_back(ToReportPhase(row));
    }
  }
  return report;
}

}  // namespace

obs::RunReport BuildRunReport(const std::string& graph_name,
                              const graph::Csr& graph,
                              const EngineOptions& options, int64_t instances,
                              const EngineResult& result) {
  obs::RunReport report =
      ReportBody(graph_name, graph, options, instances, result);
  report.sharing_ratio = result.SharingRatio();
  report.sharing_ratio_top_down = result.SharingRatio(0);
  report.sharing_ratio_bottom_up = result.SharingRatio(1);
  report.rule_matched = result.rule_matched;

  // Engine::Run fills groups, group_sources and group_seconds in parallel.
  for (size_t g = 0; g < report.groups.size(); ++g) {
    const GroupResult& gr = result.groups[g];
    obs::ReportGroup& out = report.groups[g];
    out.instance_count = gr.trace.instance_count;
    out.sim_seconds = result.group_seconds[g];
    out.sharing_degree = gr.trace.SharingDegree();
    out.sharing_ratio = gr.trace.SharingRatio();
    out.hub = g < result.group_hubs.size() ? result.group_hubs[g] : -1;
    out.levels.reserve(gr.trace.levels.size());
    for (const LevelTrace& lt : gr.trace.levels) {
      obs::ReportLevel level;
      level.level = lt.level;
      level.bottom_up = lt.bottom_up;
      level.jfq_size = lt.jfq_size;
      level.private_fq_sum = lt.private_fq_sum;
      level.edges_inspected = lt.edges_inspected;
      level.new_visits = lt.new_visits;
      out.levels.push_back(std::move(level));
    }
  }
  return report;
}

obs::RunReport BuildPartitionedRunReport(const std::string& graph_name,
                                         const graph::Csr& graph,
                                         const EngineOptions& options,
                                         int64_t instances,
                                         const PartitionedRunResult& result) {
  return ReportBody(graph_name, graph, options, instances, result);
}

void AttachPartitionSection(const PartitionedRunResult& result,
                            obs::RunReport* report) {
  report->has_comm = true;
  obs::ReportComm& comm = report->comm;
  comm.partitions = result.partitions;
  comm.schedule = gpusim::CommScheduleName(result.schedule);
  comm.link_gbps = result.link.bandwidth_gbps;
  comm.link_us = result.link.latency_us;
  comm.compute_seconds = result.compute_seconds;
  comm.comm_seconds = result.comm_seconds;
  comm.bytes_on_wire = result.bytes_on_wire;
  comm.rounds = result.comm_rounds;
  comm.supersteps = result.supersteps;
  comm.edge_imbalance = result.edge_imbalance;
  comm.partition_vertices = result.partition_vertices;
  comm.partition_edges = result.partition_edges;
  comm.device_seconds = result.device_seconds;
}

void AttachClusterSection(const ClusterRunResult& cluster,
                          gpusim::PlacementPolicy policy,
                          obs::RunReport* report) {
  report->has_cluster = true;
  report->cluster.device_count =
      static_cast<int>(cluster.schedule.device_seconds.size());
  report->cluster.policy =
      policy == gpusim::PlacementPolicy::kLpt ? "lpt" : "round-robin";
  report->cluster.makespan_seconds = cluster.schedule.makespan_seconds;
  report->cluster.speedup = cluster.speedup;
  report->cluster.teps = cluster.teps;
  report->cluster.device_seconds = cluster.schedule.device_seconds;
}

}  // namespace ibfs
