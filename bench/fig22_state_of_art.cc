// Figure 22: comparison against the state of the art on FB, HW, KG0, LJ,
// OR and TW — MS-BFS and CPU-iBFS on the modeled CPU, B40C (single-BFS
// GPU), SpMM-BC (top-down-only concurrent GPU), and GPU iBFS. The paper:
// CPU-iBFS beats MS-BFS by ~45%+, GPU iBFS is ~2x SpMM-BC, ~19x B40C, and
// ~2x the CPU implementation.
#include <iostream>

#include "baselines/cpu_bfs.h"
#include "bench/common.h"
#include "ibfs/groupby.h"
#include "util/csv.h"

namespace ibfs::bench {
namespace {

// Runs a CPU-modeled concurrent BFS group by group (GroupBy batches for
// CPU-iBFS, plain chunks for MS-BFS which has no grouping notion).
template <typename Fn>
double CpuTeps(const graph::Csr& graph,
               std::span<const graph::VertexId> sources, int group_size,
               bool use_groupby, Fn run) {
  Grouping grouping;
  if (use_groupby) {
    GroupByParams params;
    params.group_size = group_size;
    grouping = GroupByOutdegree(graph, sources, params);
  } else {
    grouping = ChunkGrouping(sources, group_size);
  }
  baselines::CpuCostModel cpu;
  TraversalOptions options;
  options.record_depths = true;
  for (const auto& group : grouping.groups) {
    auto result = run(graph, group, options, &cpu);
    IBFS_CHECK(result.ok()) << result.status().ToString();
  }
  const double edges = static_cast<double>(graph.edge_count()) *
                       static_cast<double>(sources.size());
  return edges / cpu.Seconds();
}

double GpuTeps(const graph::Csr& graph,
               std::span<const graph::VertexId> sources, Strategy strategy,
               GroupingPolicy policy, bool force_top_down) {
  EngineOptions options = BaseOptions(strategy, policy);
  options.traversal.force_top_down = force_top_down;
  return MustRun(graph, options, sources).teps;
}

int Main() {
  PrintHeader("Figure 22",
              "MS-BFS / CPU-iBFS / B40C / SpMM-BC / GPU-iBFS (GTEPS)");
  const int64_t instances = InstanceCount(512);
  const int group_size = 128;

  CsvTable table({"graph", "MS-BFS", "CPU-iBFS", "B40C", "SpMM-BC",
                  "GPU-iBFS"});
  for (const LoadedGraph& lg :
       LoadNamed({"FB", "HW", "KG0", "LJ", "OR", "TW"})) {
    const auto sources = Sources(lg.graph, instances);
    const double ms_bfs =
        CpuTeps(lg.graph, sources, group_size, /*use_groupby=*/false,
                [](const auto& g, const auto& s, const auto& o, auto* cpu) {
                  return baselines::RunMsBfs(g, s, o, cpu);
                });
    const double cpu_ibfs =
        CpuTeps(lg.graph, sources, group_size, /*use_groupby=*/true,
                [](const auto& g, const auto& s, const auto& o, auto* cpu) {
                  return baselines::RunCpuIbfs(g, s, o, cpu);
                });
    // B40C models one single-source BFS per launch (Section 8.6).
    const double b40c = GpuTeps(lg.graph, sources, Strategy::kSequential,
                                GroupingPolicy::kRandom, false);
    // SpMM-BC models a joint traversal that is top-down only (Section 9).
    const double spmm = GpuTeps(lg.graph, sources, Strategy::kJointTraversal,
                                GroupingPolicy::kRandom,
                                /*force_top_down=*/true);
    const double gpu_ibfs = GpuTeps(lg.graph, sources, Strategy::kBitwise,
                                    GroupingPolicy::kGroupBy, false);
    table.Row()
        .Add(lg.name)
        .Add(ToBillions(ms_bfs), 2)
        .Add(ToBillions(cpu_ibfs), 2)
        .Add(ToBillions(b40c), 2)
        .Add(ToBillions(spmm), 2)
        .Add(ToBillions(gpu_ibfs), 2);
  }
  table.Print(std::cout);
  std::printf(
      "(paper: GPU-iBFS ~2x CPU-iBFS, ~2x SpMM-BC, ~19x B40C; CPU-iBFS > "
      "MS-BFS)\n");
  return 0;
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
