// Table 1: time to construct a 3-hop reachability index (the first k = 3
// levels of BFS from a large set of vertices) on FB, KG0, OR and TW, for
// MS-BFS, CPU-iBFS, B40C and GPU-iBFS. The paper's GPU-iBFS is 21x faster
// than B40C, 3.3x than MS-BFS and 2.2x than CPU-iBFS.
#include <iostream>

#include "apps/reachability_index.h"
#include "baselines/cpu_bfs.h"
#include "bench/common.h"
#include "ibfs/groupby.h"
#include "util/csv.h"

namespace ibfs::bench {
namespace {

constexpr int kHops = 3;

double CpuBuildSeconds(const graph::Csr& graph,
                       std::span<const graph::VertexId> sources,
                       bool ibfs_variant) {
  Grouping grouping;
  if (ibfs_variant) {
    GroupByParams params;
    grouping = GroupByOutdegree(graph, sources, params);
  } else {
    grouping = ChunkGrouping(sources, 128);
  }
  baselines::CpuCostModel cpu;
  TraversalOptions options;
  options.max_level = kHops;
  for (const auto& group : grouping.groups) {
    auto result = ibfs_variant
                      ? baselines::RunCpuIbfs(graph, group, options, &cpu)
                      : baselines::RunMsBfs(graph, group, options, &cpu);
    IBFS_CHECK(result.ok());
  }
  return cpu.Seconds();
}

double GpuBuildSeconds(const graph::Csr& graph,
                       std::span<const graph::VertexId> sources,
                       Strategy strategy, GroupingPolicy policy) {
  EngineOptions options = BaseOptions(strategy, policy);
  options.keep_depths = true;
  auto index =
      apps::KHopReachabilityIndex::Build(graph, sources, kHops, options);
  IBFS_CHECK(index.ok()) << index.status().ToString();
  return index.value().build_seconds();
}

int Main() {
  PrintHeader("Table 1",
              "3-hop reachability index construction time (milliseconds, "
              "simulated)");
  const int64_t instances = InstanceCount(1024);

  CsvTable table({"graph", "MS-BFS_ms", "CPU-iBFS_ms", "B40C_ms",
                  "GPU-iBFS_ms", "gpu_vs_b40c_x"});
  for (const LoadedGraph& lg : LoadNamed({"FB", "KG0", "OR", "TW"})) {
    const auto sources = Sources(lg.graph, instances);
    const double ms_bfs = CpuBuildSeconds(lg.graph, sources, false);
    const double cpu_ibfs = CpuBuildSeconds(lg.graph, sources, true);
    // B40C models one single-source BFS per launch (Section 8.6).
    const double b40c = GpuBuildSeconds(lg.graph, sources,
                                        Strategy::kSequential,
                                        GroupingPolicy::kInOrder);
    const double gpu_ibfs = GpuBuildSeconds(lg.graph, sources,
                                            Strategy::kBitwise,
                                            GroupingPolicy::kGroupBy);
    table.Row()
        .Add(lg.name)
        .Add(ms_bfs * 1e3, 3)
        .Add(cpu_ibfs * 1e3, 3)
        .Add(b40c * 1e3, 3)
        .Add(gpu_ibfs * 1e3, 3)
        .Add(b40c / gpu_ibfs, 1);
  }
  table.Print(std::cout);
  std::printf(
      "(paper, in hours at full scale: GPU-iBFS 21x vs B40C, 3.3x vs "
      "MS-BFS, 2.2x vs CPU-iBFS)\n");
  return 0;
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
