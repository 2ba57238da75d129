#include <vector>

#include "ibfs/level_driver.h"
#include "ibfs/single_bfs.h"
#include "ibfs/strategies.h"

namespace ibfs::internal_strategies {

// All instances in flight at once as separate kernels (Hyper-Q style), with
// fully private data structures: the paper's "naive" concurrent BFS. The
// kernels of one level overlap on the device (the simulator folds their work
// into one accounting scope per phase), but nothing is shared, each instance
// still pays its own launch, and at direction-switch levels every instance
// wants the whole machine — which is why the paper measures it at roughly
// sequential speed (Section 2). Each instance keeps its own level driver;
// this runner steps them all one level at a time.
Result<GroupResult> RunNaiveGroup(const graph::Csr& graph,
                                  std::span<const graph::VertexId> sources,
                                  const TraversalOptions& options,
                                  gpusim::Device* device) {
  struct Instance {
    SingleBfs bfs;
    LevelDriver driver;
  };
  std::vector<Instance> instances;
  instances.reserve(sources.size());
  for (const graph::VertexId& source : sources) {
    instances.push_back({SingleBfs(graph, source, options),
                         LevelDriver(graph, {&source, 1}, options)});
  }

  GroupResult result;
  result.trace.instance_count = static_cast<int>(sources.size());
  const LevelPhases phases(device);
  LevelObserver observer(options.observer, device);
  for (;;) {
    // Active instances, counted by the direction their level runs in.
    int64_t active[2] = {0, 0};
    LevelTrace lt;
    for (Instance& in : instances) {
      if (in.driver.finished()) continue;
      in.driver.Open(in.bfs, &lt);
      ++active[in.driver.bottom_up()];
    }
    if (active[0] + active[1] == 0) break;
    observer.LevelStart(lt.jfq_size);

    // Expansion + inspection: one overlapping kernel per active instance,
    // in the scope of its direction. A direction no instance takes this
    // level launches nothing.
    for (const bool bottom_up : {false, true}) {
      if (active[bottom_up] == 0) continue;
      auto scope = device->BeginKernel(phases.Inspect(bottom_up));
      for (Instance& in : instances) {
        if (!in.driver.finished() && in.driver.bottom_up() == bottom_up) {
          in.driver.Inspect(in.bfs, &scope, &lt);
        }
      }
      scope.ExtraLaunches(active[bottom_up] - 1);
    }
    // Frontier queue generation, again one kernel per active instance.
    bool next_bottom_up = false;
    bool finished = true;
    {
      auto scope = device->BeginKernel(phases.fq_gen);
      for (Instance& in : instances) {
        if (in.driver.finished()) continue;
        in.driver.Advance(in.bfs, &scope, &lt);
        if (in.driver.finished()) continue;
        finished = false;
        next_bottom_up = next_bottom_up || in.driver.bottom_up();
      }
      scope.ExtraLaunches(active[0] + active[1] - 1);
    }
    observer.LevelEnd(lt, next_bottom_up, finished);
    result.trace.levels.push_back(lt);
  }

  for (Instance& in : instances) in.bfs.Export(&result);
  return result;
}

}  // namespace ibfs::internal_strategies
