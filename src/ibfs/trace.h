#ifndef IBFS_IBFS_TRACE_H_
#define IBFS_IBFS_TRACE_H_

#include <cstdint>
#include <vector>

#include "util/stats_math.h"

namespace ibfs {

/// Per-level record of one group traversal.
struct LevelTrace {
  int level = 0;
  bool bottom_up = false;
  /// Entries in the joint frontier queue at this level (shared frontiers
  /// appear once). For private-queue strategies this equals the union size.
  int64_t jfq_size = 0;
  /// Sum over instances of their private frontier counts at this level
  /// (shared frontiers counted once per instance) — the numerator of Eq. 1.
  int64_t private_fq_sum = 0;
  /// Neighbor checks performed at this level across all instances.
  int64_t edges_inspected = 0;
  /// (vertex, instance) pairs newly visited at this level.
  int64_t new_visits = 0;
};

/// Trace of one group's traversal: levels, per-instance counters, and the
/// sharing statistics of Section 5.1.
struct GroupTrace {
  int instance_count = 0;
  std::vector<LevelTrace> levels;
  /// Per-instance bottom-up inspection totals.
  std::vector<int64_t> bottom_up_inspections_per_instance;
  /// Distribution of bottom-up parent-search lengths: for each (frontier,
  /// instance) search, how many neighbors were scanned before a parent was
  /// found (or the full in-degree when none was). Figure 11 reports this
  /// distribution's standard deviation — GroupBy shrinks it because
  /// grouped instances discover shared parents at similar positions
  /// (Section 5.3).
  IntegerMoments bottom_up_search_lengths;
  /// Simulated seconds spent on this group.
  double sim_seconds = 0.0;

  /// Sharing Degree, Eq. (1): SD = (sum_k sum_j |FQ_j(k)|) / (sum_k |JFQ(k)|).
  /// On average, each joint frontier is shared by SD instances.
  double SharingDegree() const;

  /// SD divided by the instance count: the fraction of instances sharing an
  /// average joint frontier (Figures 2 and 9 report this as a percentage).
  double SharingRatio() const;

  /// Sharing degree restricted to one direction's levels.
  double DirectionSharingDegree(bool bottom_up) const;
  /// Sharing ratio restricted to one direction's levels.
  double DirectionSharingRatio(bool bottom_up) const;

  /// Sharing degree at a single level (Figure 6's per-level trend);
  /// returns 0 when the level was not traversed.
  double LevelSharingDegree(int level) const;

  /// Total edges inspected (all levels, all instances).
  int64_t TotalInspections() const;
};

}  // namespace ibfs

#endif  // IBFS_IBFS_TRACE_H_
