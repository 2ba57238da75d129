// Microbenchmark (google-benchmark) of the joint status array's row scan —
// the byte-per-instance inspection that Section 6's bitwise rows replace.
// The bitwise kernel itself is timed end to end by gpusim_bench.
#include <benchmark/benchmark.h>

#include "ibfs/status_array.h"

namespace ibfs {
namespace {

// One inspection row scan: byte statuses of all instances of one vertex.
void BM_JsaRowScan(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  JointStatusArray jsa(1024, instances);
  for (int j = 0; j < instances; j += 3) jsa.SetDepth(5, j, 2);
  for (auto _ : state) {
    int frontier_hits = 0;
    const auto row = jsa.Row(5);
    for (int j = 0; j < instances; ++j) frontier_hits += row[j] == 2;
    benchmark::DoNotOptimize(frontier_hits);
  }
  state.SetItemsProcessed(state.iterations() * instances);
}
BENCHMARK(BM_JsaRowScan)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
}  // namespace ibfs

BENCHMARK_MAIN();
