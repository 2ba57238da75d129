#include <algorithm>
#include <cstring>
#include <vector>

#include "gpusim/device_spec.h"
#include "ibfs/frontier_queue.h"
#include "ibfs/level_driver.h"
#include "ibfs/status_array.h"
#include "ibfs/strategies.h"
#include "util/bitops.h"

namespace ibfs::internal_strategies {
namespace {

using graph::VertexId;

// Neighbors per schedulable top-down expansion item (Enterprise-style
// parallel expansion of high-degree frontiers).
constexpr int64_t kExpandChunk = 256;

// Bytes of `row[0..n)` equal to `target`, counted eight at a time with the
// exact SWAR zero-byte test (no false positives from borrow propagation).
// This is the frontier predicate of every JSA row scan; one word op per 8
// instances replaces 8 byte compares.
inline int CountEqualBytes(const uint8_t* row, int n, uint8_t target) {
  constexpr uint64_t kLow = 0x0101010101010101ULL;
  constexpr uint64_t kMask7f = 0x7f7f7f7f7f7f7f7fULL;
  const uint64_t broadcast = kLow * target;
  int count = 0;
  int k = 0;
  for (; k + 8 <= n; k += 8) {
    uint64_t x;
    std::memcpy(&x, row + k, 8);
    const uint64_t z = x ^ broadcast;
    // Byte of y is 0x80 iff the corresponding byte of z is zero.
    const uint64_t y = ~((((z & kMask7f) + kMask7f) | z) | kMask7f);
    count += PopCount(y);
  }
  for (; k < n; ++k) count += row[k] == target;
  return count;
}

// Joint-traversal kernel (Section 4): one kernel per level over a Joint
// Frontier Queue, with the Joint Status Array providing coalesced
// per-vertex status rows. LevelDriver runs its levels.
//
// Accounting discipline: the per-neighbor row loads/stores run through
// ContiguousRunAggregators (all rows share one shape: n_ one-byte
// elements) and compute ops accumulate in plain integers, flushed at every
// item boundary — bit-identical totals to the former per-call charges.
class JointKernel {
 public:
  JointKernel(const graph::Csr& graph,
              std::span<const graph::VertexId> sources,
              const TraversalOptions& options, gpusim::Device* device)
      : graph_(graph),
        options_(options),
        n_(static_cast<int>(sources.size())),
        jsa_(graph.vertex_count(), n_),
        row_loads_(n_, 1, device->spec().transaction_bytes,
                   device->spec().warp_size),
        row_stores_(n_, 1, device->spec().transaction_bytes,
                    device->spec().warp_size),
        bu_inspections_per_instance_(n_, 0) {
    for (int j = 0; j < n_; ++j) {
      const VertexId s = sources[j];
      if (!jsa_.IsVisited(s, j)) {
        // A vertex may serve as source for several instances; enqueue once.
        bool already_queued = false;
        for (VertexId q : jfq_.vertices()) already_queued |= (q == s);
        if (!already_queued) jfq_.Push(s);
      }
      jsa_.SetDepth(s, j, 0);
    }
  }

  int64_t queue_size() const { return jfq_.size(); }
  // Expansion + inspection over the JFQ for the current level.
  int64_t TopDown(int level, gpusim::KernelScope* scope);
  int64_t BottomUp(int level, gpusim::KernelScope* scope);
  // Inspection already counted the level's discoveries.
  LevelSweep Sweep(int /*level*/, gpusim::KernelScope* /*scope*/) {
    const LevelSweep sweep{new_visits_, frontier_edges_};
    new_visits_ = 0;
    frontier_edges_ = 0;
    return sweep;
  }
  // Scans the JSA and rebuilds the JFQ for the chosen direction.
  int64_t BuildQueue(bool bottom_up, int level, gpusim::KernelScope* scope);
  void Export(GroupResult* result);

 private:
  const graph::Csr& graph_;
  const TraversalOptions& options_;
  const int n_;
  JointStatusArray jsa_;
  // Status rows all have the same transaction shape; the aggregators
  // memoize per-residue counts across the whole run.
  gpusim::ContiguousRunAggregator row_loads_;
  gpusim::ContiguousRunAggregator row_stores_;
  FrontierQueue jfq_;
  IntegerMoments search_lengths_;
  std::vector<int64_t> bu_inspections_per_instance_;
  // Pairs discovered by the level being inspected, and Σ of their
  // outdegrees (the candidate top-down frontier's edge count).
  int64_t new_visits_ = 0;
  int64_t frontier_edges_ = 0;
};

int64_t JointKernel::TopDown(int level, gpusim::KernelScope* scope) {
  int64_t inspections = 0;
  if (options_.adjacency_cache) {
    scope->SetCtaSharedBytes(options_.cache_tile_bytes);
  }
  std::vector<int> active;
  active.reserve(n_);
  for (VertexId f : jfq_.vertices()) {
    scope->BeginItem();
    // All N contiguous threads read the frontier's status row: coalesced.
    scope->LoadContiguous(jsa_.ElementIndex(f, 0), n_, 1);
    active.clear();
    const auto row_f = jsa_.Row(f);
    for (int j = 0; j < n_; ++j) {
      if (row_f[j] == static_cast<uint8_t>(level - 1)) active.push_back(j);
    }
    scope->Compute(n_);
    if (active.empty()) {
      scope->EndItem();
      continue;
    }

    const auto neighbors = graph_.OutNeighbors(f);
    // The adjacency list is loaded from global memory once and served to
    // every instance from the shared-memory cache (Section 4). Without the
    // cache, each instance's threads reload it.
    const int64_t adj_start = static_cast<int64_t>(graph_.row_offsets()[f]);
    const int64_t deg = static_cast<int64_t>(neighbors.size());
    if (options_.adjacency_cache) {
      scope->LoadContiguous(adj_start, deg, sizeof(VertexId));
      scope->SharedBytes(deg * static_cast<int64_t>(sizeof(VertexId)));
    } else {
      for (size_t rep = 0; rep < active.size(); ++rep) {
        scope->LoadContiguous(adj_start, deg, sizeof(VertexId));
      }
    }

    // Per-neighbor charges accumulate below and flush at item boundaries:
    // one coalesced row load + 2 ops per active instance each, plus a row
    // store for neighbors that took an update.
    const int64_t ops_per_neighbor = 2 * static_cast<int64_t>(active.size());
    int64_t in_chunk = 0;
    const auto flush_chunk = [&] {
      scope->LoadRuns(row_loads_);
      row_loads_.Reset();
      scope->StoreRuns(row_stores_);
      row_stores_.Reset();
      scope->BulkCompute(in_chunk, ops_per_neighbor);
      in_chunk = 0;
    };
    for (VertexId w : neighbors) {
      // Large frontiers are expanded by many thread groups in parallel
      // (Enterprise's workload classification); re-open the schedulable
      // item every kExpandChunk neighbors so a hub does not serialize.
      if (in_chunk == kExpandChunk) {
        flush_chunk();
        scope->EndItem();
        scope->BeginItem();
      }
      ++in_chunk;
      // N contiguous threads inspect w's status row: one coalesced request.
      row_loads_.Observe(jsa_.ElementIndex(w, 0));
      auto row_w = jsa_.MutableRow(w);
      int updates = 0;
      for (int j : active) {
        if (row_w[j] == kUnvisitedDepth) {
          row_w[j] = static_cast<uint8_t>(level);
          ++updates;
        }
      }
      if (updates > 0) {
        const int64_t d = graph_.OutDegree(w);
        new_visits_ += updates;
        frontier_edges_ += static_cast<int64_t>(updates) * d;
        // Updates from contiguous threads coalesce into one store request.
        row_stores_.Observe(jsa_.ElementIndex(w, 0));
      }
    }
    flush_chunk();
    inspections +=
        static_cast<int64_t>(active.size()) * static_cast<int64_t>(deg);
    scope->EndItem();
  }
  return inspections;
}

int64_t JointKernel::BottomUp(int level, gpusim::KernelScope* scope) {
  int64_t inspections = 0;
  if (options_.adjacency_cache) {
    scope->SetCtaSharedBytes(options_.cache_tile_bytes);
  }
  std::vector<int> active;
  active.reserve(n_);
  for (VertexId f : jfq_.vertices()) {
    scope->BeginItem();
    scope->LoadContiguous(jsa_.ElementIndex(f, 0), n_, 1);
    active.clear();
    auto row_f = jsa_.MutableRow(f);
    for (int j = 0; j < n_; ++j) {
      if (row_f[j] == kUnvisitedDepth) active.push_back(j);
    }
    scope->Compute(n_);

    const int64_t deg_f = graph_.OutDegree(f);
    const auto neighbors = graph_.InNeighbors(f);
    int64_t scanned = 0;
    int64_t item_ops = 0;
    int64_t updates = 0;
    for (VertexId w : neighbors) {
      // Each instance's thread exits as soon as it finds a parent; the
      // frontier is done when every instance has.
      if (active.empty()) break;
      ++scanned;
      row_loads_.Observe(jsa_.ElementIndex(w, 0));
      item_ops += 2 * static_cast<int64_t>(active.size());
      inspections += static_cast<int64_t>(active.size());
      const auto row_w = jsa_.Row(w);
      size_t i = 0;
      while (i < active.size()) {
        const int j = active[i];
        if (options_.collect_instance_stats) {
          ++bu_inspections_per_instance_[j];
        }
        if (row_w[j] < static_cast<uint8_t>(level)) {
          row_f[j] = static_cast<uint8_t>(level);
          ++updates;
          if (options_.collect_instance_stats) {
            // Parent found after `scanned` probes: one sample of the
            // bottom-up search-length distribution (Figure 11).
            search_lengths_.Add(scanned);
          }
          active[i] = active.back();
          active.pop_back();
        } else {
          ++i;
        }
      }
    }
    scope->LoadRuns(row_loads_);
    row_loads_.Reset();
    scope->Compute(item_ops);
    new_visits_ += updates;
    frontier_edges_ += updates * deg_f;
    if (options_.collect_instance_stats) {
      // Searches that exhausted the neighbor list without finding a parent
      // also contribute their full scan length.
      for (size_t i = 0; i < active.size(); ++i) {
        search_lengths_.Add(scanned);
      }
    }
    scope->LoadContiguous(static_cast<int64_t>(graph_.in_row_offsets()[f]),
                          scanned, sizeof(VertexId));
    if (options_.adjacency_cache) {
      scope->SharedBytes(scanned * static_cast<int64_t>(sizeof(VertexId)));
    }
    if (updates > 0) {
      scope->StoreContiguous(jsa_.ElementIndex(f, 0), n_, 1);
    }
    scope->EndItem();
  }
  return inspections;
}

int64_t JointKernel::BuildQueue(bool bottom_up, int level,
                                gpusim::KernelScope* scope) {
  const int64_t n_vertices = graph_.vertex_count();
  jfq_.Clear();
  int64_t private_sum = 0;
  const uint8_t target =
      bottom_up ? kUnvisitedDepth : static_cast<uint8_t>(level);
  for (int64_t v = 0; v < n_vertices; ++v) {
    const auto vid = static_cast<VertexId>(v);
    // One warp scans each vertex's status row (Figure 4) and votes: the
    // SWAR byte match is the whole row's predicates + __any in word ops.
    row_loads_.Observe(jsa_.ElementIndex(vid, 0));
    const int hits = CountEqualBytes(jsa_.Row(vid).data(), n_, target);
    if (hits > 0) {
      jfq_.Push(vid);
      private_sum += hits;
    }
  }
  scope->LoadRuns(row_loads_);
  row_loads_.Reset();
  scope->BulkCompute(n_vertices, n_);
  // Shared frontiers are enqueued exactly once: the store (and its atomic
  // cursor bump) happens per JFQ entry, not per instance — the saving of
  // Figure 18.
  scope->StoreContiguous(0, jfq_.size(), sizeof(VertexId));
  scope->Atomic((jfq_.size() + gpusim::kWarpSize - 1) / gpusim::kWarpSize);
  return private_sum;
}

void JointKernel::Export(GroupResult* result) {
  result->trace.instance_count = n_;
  result->trace.bottom_up_search_lengths = search_lengths_;
  if (options_.collect_instance_stats) {
    result->trace.bottom_up_inspections_per_instance =
        std::move(bu_inspections_per_instance_);
  }
  if (options_.record_depths) {
    result->depths.assign(n_, {});
    for (int j = 0; j < n_; ++j) {
      auto& d = result->depths[j];
      d.resize(static_cast<size_t>(graph_.vertex_count()));
      for (int64_t v = 0; v < graph_.vertex_count(); ++v) {
        d[v] = jsa_.Depth(static_cast<VertexId>(v), j);
      }
    }
  }
}

}  // namespace

Result<GroupResult> RunJointGroup(const graph::Csr& graph,
                                  std::span<const graph::VertexId> sources,
                                  const TraversalOptions& options,
                                  gpusim::Device* device) {
  return DriveGroup<JointKernel>(graph, sources, options, device);
}

}  // namespace ibfs::internal_strategies
