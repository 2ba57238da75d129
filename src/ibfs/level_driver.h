#ifndef IBFS_IBFS_LEVEL_DRIVER_H_
#define IBFS_IBFS_LEVEL_DRIVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "graph/csr.h"
#include "ibfs/level_observer.h"
#include "ibfs/runner.h"
#include "ibfs/trace.h"

namespace ibfs {

/// Beamer's direction-optimizing rule, the one switch every traversal
/// takes. After a level that discovered `new_visits` (vertex, instance)
/// pairs whose out-degrees sum to `frontier_edges`, with `unexplored_edges`
/// left on the still-unvisited pairs out of `pairs` (= instances x |V|),
/// returns whether the next level runs bottom-up. Both thresholds truncate
/// to int64_t.
inline bool NextBottomUp(bool bottom_up, int64_t frontier_edges,
                         int64_t unexplored_edges, int64_t new_visits,
                         int64_t pairs, const TraversalOptions& options) {
  if (options.force_top_down) return false;
  if (!bottom_up) {
    // The frontier is hot enough that scanning unvisited vertices is
    // cheaper.
    return frontier_edges >
           static_cast<int64_t>(static_cast<double>(unexplored_edges) /
                                options.alpha);
  }
  // Unless the frontier (the newly visited set) has shrunk: then go back
  // to top-down.
  return !(new_visits <
           static_cast<int64_t>(static_cast<double>(pairs) / options.beta));
}

/// What a kernel's frontier sweep reports about the level that just ran.
struct LevelSweep {
  /// (vertex, instance) pairs discovered at the level.
  int64_t new_visits = 0;
  /// Sum of out-degrees over those pairs: the next top-down frontier's
  /// edge count.
  int64_t frontier_edges = 0;
};

/// The level loop's three kernels, interned once per run so per-level
/// opens are index lookups.
struct LevelPhases {
  explicit LevelPhases(gpusim::Device* device)
      : td_inspect(device->InternPhase("td_inspect")),
        bu_inspect(device->InternPhase("bu_inspect")),
        fq_gen(device->InternPhase("fq_gen")) {}

  gpusim::PhaseId Inspect(bool bottom_up) const {
    return bottom_up ? bu_inspect : td_inspect;
  }

  const gpusim::PhaseId td_inspect;
  const gpusim::PhaseId bu_inspect;
  const gpusim::PhaseId fq_gen;
};

/// Adds one traversal's share of a level to the group trace's slot for
/// that level. A sequential group's instances share slots level by level.
inline void AddLevel(const LevelTrace& lt, std::vector<LevelTrace>* levels) {
  if (static_cast<size_t>(lt.level) > levels->size()) {
    levels->resize(static_cast<size_t>(lt.level));
  }
  LevelTrace& sum = (*levels)[lt.level - 1];
  sum.level = lt.level;
  sum.bottom_up = sum.bottom_up || lt.bottom_up;
  sum.jfq_size += lt.jfq_size;
  sum.private_fq_sum += lt.private_fq_sum;
  sum.edges_inspected += lt.edges_inspected;
  sum.new_visits += lt.new_visits;
}

/// The direction-optimizing level loop of one traversal (a whole group for
/// the joint and bitwise strategies, one instance for the sequential and
/// naive ones). The driver owns the level counter, the direction, the stop
/// test and the unexplored-edge count the direction rule reads. A kernel
/// supplies only each level's work:
///
///   int64_t queue_size() const;  // entries the next level inspects
///   // Inspection in one direction; returns the edges it inspected.
///   int64_t TopDown(int level, gpusim::KernelScope* scope);
///   int64_t BottomUp(int level, gpusim::KernelScope* scope);
///   // The level's new visits and their out-edges.
///   LevelSweep Sweep(int level, gpusim::KernelScope* scope);
///   // Next level's queue for the chosen direction; returns its private
///   // frontier sum (Eq. 1's numerator).
///   int64_t BuildQueue(bool bottom_up, int level, gpusim::KernelScope*);
///
/// Run() is the whole loop; Open, Inspect and Advance are its steps, for a
/// caller that interleaves several traversals' levels (the naive runner).
class LevelDriver {
 public:
  /// `sources` holds one source per instance; the kernel was seeded with
  /// the same sources.
  LevelDriver(const graph::Csr& graph,
              std::span<const graph::VertexId> sources,
              const TraversalOptions& options)
      : options_(options),
        pairs_(static_cast<int64_t>(sources.size()) * graph.vertex_count()),
        unexplored_edges_(static_cast<int64_t>(sources.size()) *
                          graph.edge_count()),
        private_fq_sum_(static_cast<int64_t>(sources.size())) {
    for (graph::VertexId s : sources) unexplored_edges_ -= graph.OutDegree(s);
  }

  bool finished() const { return finished_; }
  /// Direction of the level about to run.
  bool bottom_up() const { return bottom_up_; }

  /// Adds the level about to run (its number, direction and queue sizes)
  /// to `lt`.
  template <typename Kernel>
  void Open(const Kernel& kernel, LevelTrace* lt) const {
    lt->level = level_;
    lt->bottom_up = lt->bottom_up || bottom_up_;
    lt->jfq_size += kernel.queue_size();
    lt->private_fq_sum += private_fq_sum_;
  }

  /// Runs the level's inspection into `scope`, a kernel of bottom_up()'s
  /// phase.
  template <typename Kernel>
  void Inspect(Kernel& kernel, gpusim::KernelScope* scope, LevelTrace* lt) {
    lt->edges_inspected += bottom_up_ ? kernel.BottomUp(level_, scope)
                                      : kernel.TopDown(level_, scope);
  }

  /// Frontier generation into `scope`: sweeps the level, stops when it
  /// found nothing or reached max_level, else picks the next direction and
  /// builds its queue (an empty queue stops too).
  template <typename Kernel>
  void Advance(Kernel& kernel, gpusim::KernelScope* scope, LevelTrace* lt) {
    const LevelSweep sweep = kernel.Sweep(level_, scope);
    lt->new_visits += sweep.new_visits;
    unexplored_edges_ -= sweep.frontier_edges;
    if (sweep.new_visits == 0 || level_ >= options_.max_level) {
      finished_ = true;
      return;
    }
    bottom_up_ = NextBottomUp(bottom_up_, sweep.frontier_edges,
                              unexplored_edges_, sweep.new_visits, pairs_,
                              options_);
    private_fq_sum_ = kernel.BuildQueue(bottom_up_, level_, scope);
    finished_ = kernel.queue_size() == 0;
    ++level_;
  }

  /// Runs `kernel` to the end on `device`: per level, one inspection
  /// kernel in the level's direction and one frontier-generation kernel,
  /// with the level's span and metrics, its trace added into `levels`.
  template <typename Kernel>
  void Run(Kernel& kernel, gpusim::Device* device,
           std::vector<LevelTrace>* levels) {
    const LevelPhases phases(device);
    internal_strategies::LevelObserver observer(options_.observer, device);
    while (!finished_) {
      LevelTrace lt;
      Open(kernel, &lt);
      observer.LevelStart(lt.jfq_size);
      {
        auto scope = device->BeginKernel(phases.Inspect(bottom_up_));
        Inspect(kernel, &scope, &lt);
      }
      {
        auto scope = device->BeginKernel(phases.fq_gen);
        Advance(kernel, &scope, &lt);
      }
      observer.LevelEnd(lt, bottom_up_, finished_);
      AddLevel(lt, levels);
    }
  }

 private:
  const TraversalOptions& options_;
  const int64_t pairs_;
  int64_t unexplored_edges_;
  int64_t private_fq_sum_;
  int level_ = 1;
  bool bottom_up_ = false;
  bool finished_ = false;
};

/// Runs one group through a kernel that traverses all its instances at
/// once (joint, bitwise): builds the kernel from the group's sources,
/// drives it to the end, and lets its Export(GroupResult*) fill the result.
template <typename Kernel>
GroupResult DriveGroup(const graph::Csr& graph,
                       std::span<const graph::VertexId> sources,
                       const TraversalOptions& options,
                       gpusim::Device* device) {
  Kernel kernel(graph, sources, options, device);
  GroupResult result;
  LevelDriver(graph, sources, options).Run(kernel, device,
                                           &result.trace.levels);
  kernel.Export(&result);
  return result;
}

}  // namespace ibfs

#endif  // IBFS_IBFS_LEVEL_DRIVER_H_
