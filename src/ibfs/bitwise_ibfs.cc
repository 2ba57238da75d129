#include <algorithm>
#include <vector>

#include "gpusim/device_spec.h"
#include "ibfs/bitwise_status_array.h"
#include "ibfs/level_driver.h"
#include "ibfs/status_array.h"
#include "ibfs/strategies.h"
#include "util/bitops.h"

namespace ibfs::internal_strategies {
namespace {

using graph::VertexId;

// Neighbors per schedulable top-down expansion item: high-degree frontiers
// are expanded by many thread groups in parallel (Enterprise-style
// classification), unlike bottom-up where one thread owns a frontier's
// serial parent scan — the imbalance Figure 11 measures.
constexpr int64_t kExpandChunk = 256;

// Bitwise iBFS kernel (Section 6): the status of a vertex for all N
// instances is packed into ceil(N/64) words, so a single thread inspects a
// vertex for the whole group with a couple of OR instructions (Algorithm
// 1), and frontier identification is XOR / NOT over whole rows (Algorithm
// 2).
// Because the array accumulates *all* visited bits across levels, bottom-up
// inspection can stop as soon as a frontier's row is all ones — the early
// termination that MS-BFS's per-level reset forecloses. LevelDriver runs
// its levels.
//
// Accounting discipline: the inner loops charge nothing per neighbor —
// they count events in plain integers and flush through the scope's Bulk*
// / LoadRuns entry points at every item boundary, so the batched totals
// (and therefore max_item_cycles and the simulated seconds) are
// bit-identical to the former one-call-per-neighbor accounting.
//
// The kernel is templated on the row width: kW = 1 or 2 (groups of up to 64
// or 128 instances) compiles to fixed-width word loops, kW = 0 reads the
// runtime words_. RunBitwiseGroup picks the instantiation once per group,
// so no per-neighbor code branches on the width.
template <int kW>
class BitwiseKernel {
 public:
  BitwiseKernel(const graph::Csr& graph,
                std::span<const graph::VertexId> sources,
                const TraversalOptions& options, gpusim::Device* device);

  int64_t queue_size() const { return static_cast<int64_t>(jfq_.size()); }
  int64_t TopDown(int level, gpusim::KernelScope* scope);
  int64_t BottomUp(int level, gpusim::KernelScope* scope);
  LevelSweep Sweep(int level, gpusim::KernelScope* scope);
  int64_t BuildQueue(bool bottom_up, int level, gpusim::KernelScope* scope);
  void Export(GroupResult* result);

 private:
  // Re-establishes prev_ == cur_ after a level: swaps the buffers (prev_
  // then holds the up-to-date state) and patches cur_'s stale rows — only
  // `changed` rows can differ, because every mutation this level happened
  // on a row the XOR sweep collected.
  void SyncShadow(const std::vector<VertexId>& changed) {
    std::swap(cur_, prev_);
    for (VertexId v : changed) {
      const auto src = prev_.Row(v);
      auto dst = cur_.MutableRow(v);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  int Words() const { return kW != 0 ? kW : words_; }
  // Valid bits of word w in a `words`-word row.
  uint64_t ValidMask(int w, int words) const {
    return w + 1 == words ? cur_.LastWordMask() : ~uint64_t{0};
  }

  // Share mask of JFQ entry i (which instances claim it — the paper's
  // per-frontier __ballot variable).
  std::span<const uint64_t> JfqMask(size_t i) const {
    return {jfq_masks_.data() + i * words_, static_cast<size_t>(words_)};
  }

  const graph::Csr& graph_;
  const TraversalOptions& options_;
  gpusim::Device* device_;
  const int n_;
  const int words_;
  BitwiseStatusArray cur_;
  BitwiseStatusArray prev_;
  std::vector<VertexId> jfq_;
  std::vector<uint64_t> jfq_masks_;
  // Scratch for the fused frontier-generation sweep: the speculative
  // top-down queue (swapped into jfq_ when top-down wins) and its masks.
  std::vector<VertexId> next_jfq_;
  std::vector<uint64_t> next_masks_;
  // Bottom-up candidate queue collected *inside* BottomUp: each
  // item owns its row, so it knows at EndItem whether the row is still
  // unsaturated. When consecutive levels run bottom-up the frontier
  // generation swaps this in instead of rescanning every vertex (rows only
  // gain bits, so unsaturated rows are always a subset of the current
  // bottom-up queue — identical to the full scan's result).
  std::vector<VertexId> bu_next_jfq_;
  std::vector<uint64_t> bu_next_masks_;
  int64_t bu_private_sum_ = 0;
  // Whether the level just inspected ran bottom-up, i.e. whether the
  // bottom-up candidate queue above is the current one.
  bool bu_queue_ready_ = false;
  // One bit per vertex, set by the level kernels the moment a row gains a
  // bit. The frontier sweep walks only these rows (in ascending vertex
  // order, same as a full scan) instead of XOR-scanning all V*words words;
  // cleared after each sweep. Purely a host-side shortcut — the simulated
  // kernel still bills both full status-array reads.
  std::vector<uint64_t> changed_rows_bm_;
  // Depth matrix in vertex-major order, depth of (v, j) at [v*n_ + j]:
  // the fused sweep discovers new bits row by row, so recording a row's
  // depths touches adjacent bytes instead of n_ distinct per-instance
  // arrays. Transposed into GroupResult's instance-major layout once in
  // Export.
  std::vector<uint8_t> depth_matrix_;
  IntegerMoments search_lengths_;
  // (vertex, instance) pairs discovered at the level that just ran,
  // counted once by the fused sweep (the level kernels never popcount
  // their updates for it).
  int64_t new_visits_ = 0;
};

template <int kW>
BitwiseKernel<kW>::BitwiseKernel(const graph::Csr& graph,
                                 std::span<const graph::VertexId> sources,
                                 const TraversalOptions& options,
                                 gpusim::Device* device)
    : graph_(graph),
      options_(options),
      device_(device),
      n_(static_cast<int>(sources.size())),
      words_(static_cast<int>(CeilDiv(static_cast<uint64_t>(n_), 64))),
      cur_(graph.vertex_count(), n_),
      prev_(graph.vertex_count(), n_),
      changed_rows_bm_(
          CeilDiv(static_cast<uint64_t>(graph.vertex_count()), 64), 0) {
  // Queue entries are unique vertices, so V (and V*words for the masks)
  // bounds every frontier vector; reserving once spares the hot push_back
  // paths all reallocation for the rest of the run.
  const auto v_cap = static_cast<size_t>(graph_.vertex_count());
  const size_t mask_cap = v_cap * static_cast<size_t>(words_);
  jfq_.reserve(v_cap);
  next_jfq_.reserve(v_cap);
  bu_next_jfq_.reserve(v_cap);
  jfq_masks_.reserve(mask_cap);
  next_masks_.reserve(mask_cap);
  bu_next_masks_.reserve(mask_cap);
  if (options_.record_depths) {
    depth_matrix_.assign(
        static_cast<size_t>(graph_.vertex_count()) * n_, kUnvisitedDepth);
  }
  for (int j = 0; j < n_; ++j) {
    const VertexId s = sources[j];
    if (cur_.RowAllClear(s)) {
      jfq_.push_back(s);
      jfq_masks_.resize(jfq_masks_.size() + words_, 0);
    }
    cur_.SetBit(s, j);
    if (options_.record_depths) {
      depth_matrix_[static_cast<size_t>(s) * n_ + j] = 0;
    }
  }
  // Source share masks: all bits the source holds in cur_.
  for (size_t i = 0; i < jfq_.size(); ++i) {
    const auto row = cur_.Row(jfq_[i]);
    std::copy(row.begin(), row.end(), jfq_masks_.begin() + i * words_);
  }
  prev_.CopyFrom(cur_);
}

template <int kW>
int64_t BitwiseKernel<kW>::TopDown(int /*level*/,
                                   gpusim::KernelScope* scope) {
  const int words = Words();
  bu_queue_ready_ = false;
  int64_t inspections = 0;
  if (options_.adjacency_cache) {
    scope->SetCtaSharedBytes(options_.cache_tile_bytes);
  }
  // Status rows all share one transaction shape (words x 8 bytes); their
  // loads run through the memoizing aggregator and drain at item
  // boundaries.
  gpusim::ContiguousRunAggregator row_loads(
      words, 8, device_->spec().transaction_bytes,
      device_->spec().warp_size);
  const bool uniform_rows = row_loads.UniformAligned();
  uint64_t* const cw = cur_.MutableWords().data();
  const uint64_t* const pw = prev_.Words().data();
  uint64_t* const bm = changed_rows_bm_.data();
  for (size_t i = 0; i < jfq_.size(); ++i) {
    const VertexId f = jfq_[i];
    scope->BeginItem();
    // One thread serves the whole group: load the frontier's full visited
    // mask (Algorithm 1 line 5 ORs BSA_k[f], not just the new bits — the
    // extra bits are harmless because their neighbors are already visited).
    if (uniform_rows) {
      row_loads.ObserveAlignedRuns(1);
    } else {
      row_loads.Observe(prev_.ElementIndex(f, 0));
    }
    // With a fixed width the mask is copied into locals: the neighbor-row
    // stores below may not alias them, so the compiler keeps the mask in
    // registers instead of reloading it after every store.
    uint64_t mask_copy[kW != 0 ? kW : 1];
    const uint64_t* mask = pw + static_cast<int64_t>(f) * words;
    if constexpr (kW != 0) {
      std::copy(mask, mask + kW, mask_copy);
      mask = mask_copy;
    }

    // Logical inspections: each instance sharing f inspects each edge.
    int share_count = 0;
    for (uint64_t word : JfqMask(i)) share_count += PopCount(word);

    const auto neighbors = graph_.OutNeighbors(f);
    scope->LoadContiguous(static_cast<int64_t>(graph_.row_offsets()[f]),
                          static_cast<int64_t>(neighbors.size()),
                          sizeof(VertexId));
    if (options_.adjacency_cache) {
      scope->SharedBytes(static_cast<int64_t>(neighbors.size()) *
                         static_cast<int64_t>(sizeof(VertexId)));
    }

    // Updates are merged in shared memory within the CTA first (the
    // paper's scheme for avoiding per-neighbor atomic overhead); only
    // words that actually change are pushed to global memory with an
    // atomic OR — the synchronization MS-BFS's single-thread formulation
    // does not need (Section 6). Per neighbor that is 8*words shared
    // bytes + words ops + the changed-word atomics, accumulated here and
    // flushed at each item boundary.
    int64_t in_chunk = 0;
    int64_t chunk_atomics = 0;
    const auto flush_chunk = [&] {
      scope->LoadRuns(row_loads);
      row_loads.Reset();
      scope->BulkShared(in_chunk, 8 * words);
      scope->BulkCompute(in_chunk, words);
      scope->BulkAtomics(chunk_atomics);
      in_chunk = 0;
      chunk_atomics = 0;
    };
    // The chunk boundary is hoisted out of the per-neighbor loop: process
    // min(kExpandChunk - in_chunk, remaining) neighbors back to back, then
    // flush — the same item brackets the per-neighbor form produces. The
    // OR itself is branch-free; new visits are counted later, once, by
    // the frontier sweep.
    const VertexId* const nb = neighbors.data();
    const int64_t n_nbrs = static_cast<int64_t>(neighbors.size());
    int64_t pos = 0;
    while (pos < n_nbrs) {
      if (in_chunk == kExpandChunk) {
        flush_chunk();
        scope->EndItem();
        scope->BeginItem();
      }
      const int64_t stop = std::min(n_nbrs, pos + (kExpandChunk - in_chunk));
      in_chunk += stop - pos;
      for (; pos < stop; ++pos) {
        const VertexId v = nb[pos];
        uint64_t* const row = cw + static_cast<int64_t>(v) * words;
        uint64_t row_gained = 0;
        for (int w = 0; w < words; ++w) {
          const uint64_t gained = mask[w] & ~row[w];
          row[w] |= gained;
          chunk_atomics += gained != 0;
          row_gained |= gained;
        }
        bm[static_cast<uint64_t>(v) >> 6] |=
            static_cast<uint64_t>(row_gained != 0) << (v & 63);
      }
    }
    flush_chunk();
    inspections += static_cast<int64_t>(share_count) *
                   static_cast<int64_t>(neighbors.size());
    scope->EndItem();
  }
  return inspections;
}

template <int kW>
int64_t BitwiseKernel<kW>::BottomUp(int /*level*/,
                                    gpusim::KernelScope* scope) {
  const int words = Words();
  bu_queue_ready_ = true;
  int64_t inspections = 0;
  const bool can_terminate_early =
      options_.early_termination && !options_.msbfs_reset;
  bu_next_jfq_.clear();
  bu_next_masks_.clear();
  bu_private_sum_ = 0;
  // Per-neighbor row loads all have the same shape (words elements of 8
  // bytes); the aggregator memoizes their transaction counts by residue
  // and drains before each EndItem.
  gpusim::ContiguousRunAggregator row_loads(
      words, 8, device_->spec().transaction_bytes,
      device_->spec().warp_size);
  // Row starts are always multiples of words, so when the row span
  // divides the segment the whole neighbor scan is charged with one
  // ObserveAlignedRuns(scanned) call instead of one Observe per parent.
  const bool uniform_rows = row_loads.UniformAligned();
  uint64_t* const cw = cur_.MutableWords().data();
  const uint64_t* const pw = prev_.Words().data();
  for (VertexId f : jfq_) {
    scope->BeginItem();
    uint64_t* const row = cw + static_cast<int64_t>(f) * words;

    // Unset valid bits of row f: the logical inspections each parent scan
    // performs.
    int64_t unset_bits = 0;
    for (int w = 0; w < words; ++w) {
      unset_bits += PopCount(~row[w] & ValidMask(w, words));
    }
    const int64_t initial_unset = unset_bits;

    // One pass per parent, branching on nothing but the exit: the parent
    // is inspected at the row's current unset count, its row is ORed in,
    // and the bits it adds are taken off the count. Parent rows hold only
    // valid bits, so every gained bit was an unset one. Rows entering the
    // bottom-up queue are unsaturated by construction (both queue builders
    // filter all-ones rows and bits only accumulate), so the count first
    // reaches zero on the parent that completes the row. Early termination
    // stops there: every instance has found f's parent and the thread is
    // freed for other frontiers (Section 6).
    const auto neighbors = graph_.InNeighbors(f);
    const VertexId* const nb = neighbors.data();
    const int64_t n_nbrs = static_cast<int64_t>(neighbors.size());
    int64_t idx = 0;
    for (; idx < n_nbrs; ++idx) {
      const uint64_t* const p = pw + static_cast<int64_t>(nb[idx]) * words;
      inspections += unset_bits;
      for (int w = 0; w < words; ++w) {
        unset_bits -= PopCount(p[w] & ~row[w]);
        row[w] |= p[w];
      }
      if (can_terminate_early && unset_bits == 0) {
        ++idx;
        break;
      }
    }
    const int64_t scanned = idx;
    // The row gained bits exactly when its unset count moved.
    const bool changed = unset_bits != initial_unset;

    if (unset_bits > 0) {
      // Row f is still unsaturated: it stays on the bottom-up frontier.
      // Recording it here (with its unvisited mask) is what lets a
      // bottom-up -> bottom-up transition skip the full-vertex rescan.
      bu_next_jfq_.push_back(f);
      for (int w = 0; w < words; ++w) {
        bu_next_masks_.push_back(~row[w] & ValidMask(w, words));
      }
      bu_private_sum_ += unset_bits;
    }
    if (uniform_rows) {
      // scanned parent-row loads + the initial load of row f itself.
      row_loads.ObserveAlignedRuns(scanned + 1);
    } else {
      // Rows straddle segments unevenly: every scanned parent is charged
      // at its own residue.
      row_loads.Observe(cur_.ElementIndex(f, 0));
      for (int64_t k = 0; k < scanned; ++k) {
        row_loads.Observe(prev_.ElementIndex(nb[k], 0));
      }
    }
    scope->BulkCompute(scanned, words);
    scope->LoadRuns(row_loads);
    row_loads.Reset();
    scope->LoadContiguous(static_cast<int64_t>(graph_.in_row_offsets()[f]),
                          scanned, sizeof(VertexId));
    if (changed) {
      // One thread owns row f: plain (non-atomic) write-back, as the
      // paper's warp/CTA tree-merging avoids atomics in bottom-up.
      scope->StoreContiguous(cur_.ElementIndex(f, 0), words, 8);
      changed_rows_bm_[static_cast<uint64_t>(f) >> 6] |=
          uint64_t{1} << (f & 63);
    }
    if (options_.collect_instance_stats) {
      // One thread's bottom-up workload for this frontier: the number of
      // neighbors it scanned before early termination (or exhaustion).
      // The spread of these scan lengths is the warp imbalance Figure 11
      // reports; GroupBy narrows it because grouped instances fill the
      // row early and together.
      search_lengths_.Add(scanned);
    }
    scope->EndItem();
  }
  return inspections;
}

template <int kW>
LevelSweep BitwiseKernel<kW>::Sweep(int level, gpusim::KernelScope* scope) {
  const int words = Words();
  const int64_t n_vertices = graph_.vertex_count();

  // Fused sweep — newly visited bits (XOR of the level's BSAs,
  // Algorithm 2): one pass records depths, counts the level's new visits
  // and their out-edges for the direction rule, AND builds the candidate
  // top-down JFQ. This used to be two full O(V*words) sweeps (the second
  // recomputed every XOR after the direction choice); the direction
  // cannot be chosen mid-sweep, so the top-down queue is built
  // speculatively into next_jfq_/next_masks_ and swapped in when top-down
  // wins. The simulated cost is unchanged — the kernel already billed both
  // status-array reads below.
  scope->LoadContiguous(0, n_vertices * words, 8);
  scope->LoadContiguous(0, n_vertices * words, 8);
  scope->Compute(n_vertices * words);
  next_jfq_.clear();
  next_masks_.clear();
  // Σ popcount(cur ^ prev): the level's new visits, which is also the
  // top-down private frontier sum.
  LevelSweep sweep;
  // The level kernels marked every row they changed in changed_rows_bm_,
  // so the host walks exactly those rows (ascending vertex order — the
  // order a flat scan would visit them) instead of XOR-scanning all
  // V*words words. A marked row always holds a changed word: marks are
  // set only when an OR actually added bits, and bits are never cleared
  // within a level.
  const uint64_t* const cw = cur_.Words().data();
  const uint64_t* const pw = prev_.Words().data();
  const int64_t bm_words = static_cast<int64_t>(changed_rows_bm_.size());
  for (int64_t bwi = 0; bwi < bm_words; ++bwi) {
    uint64_t marks = changed_rows_bm_[bwi];
    if (marks == 0) continue;
    changed_rows_bm_[bwi] = 0;
    while (marks != 0) {
      const int64_t v = bwi * 64 + LowestSetBit(marks);
      marks &= marks - 1;
      const int64_t base = v * words;
      const auto vid = static_cast<VertexId>(v);
      int new_bits = 0;
      uint8_t* const depth_row =
          options_.record_depths ? depth_matrix_.data() + v * n_ : nullptr;
      for (int w = 0; w < words; ++w) {
        uint64_t diff = cw[base + w] ^ pw[base + w];
        next_masks_.push_back(diff);
        new_bits += PopCount(diff);
        if (depth_row != nullptr) {
          while (diff != 0) {
            const int bit = LowestSetBit(diff);
            diff &= diff - 1;
            depth_row[w * 64 + bit] = static_cast<uint8_t>(level);
          }
        }
      }
      // new_bits > 0 by construction: this row contains a changed word.
      sweep.frontier_edges +=
          static_cast<int64_t>(new_bits) * graph_.OutDegree(vid);
      next_jfq_.push_back(vid);
      sweep.new_visits += new_bits;
      if (options_.record_depths) {
        // Depth write-out: one coalesced store touching v's depth row.
        scope->StoreContiguous(static_cast<int64_t>(v) * n_, new_bits, 1);
      }
    }
  }

  // Depths are recorded above even when the driver stops here, so a
  // max_level truncation (the k-hop reachability workload) keeps its last
  // level.
  new_visits_ = sweep.new_visits;
  return sweep;
}

template <int kW>
int64_t BitwiseKernel<kW>::BuildQueue(bool bottom_up, int /*level*/,
                                      gpusim::KernelScope* scope) {
  const int words = Words();
  const int64_t n_vertices = graph_.vertex_count();
  const uint64_t* const cw = cur_.Words().data();
  int64_t private_sum = 0;
  if (!bottom_up) {
    // Top-down frontier: any bit changed this level (XOR != 0) — exactly
    // the queue the fused sweep built. Swapping keeps the old vectors as
    // scratch capacity for the next level.
    jfq_.swap(next_jfq_);
    jfq_masks_.swap(next_masks_);
    private_sum = new_visits_;
  } else if (bu_queue_ready_) {
    // Bottom-up again: the level just run already recorded every row that
    // stayed unsaturated (rows only gain bits, so no vertex outside the
    // old queue can have become a candidate). Same queue, same masks, same
    // order as the full scan below — without re-reading V rows.
    jfq_.swap(bu_next_jfq_);
    jfq_masks_.swap(bu_next_masks_);
    private_sum = bu_private_sum_;
  } else {
    // Top-down -> bottom-up switch: any instance still unvisited (NOT
    // all-ones). This predicate reads cur_ only, so it cannot ride the XOR
    // sweep, and after a top-down level no per-row record exists — scan.
    jfq_.clear();
    jfq_masks_.clear();
    for (int64_t v = 0; v < n_vertices; ++v) {
      const uint64_t* const row = cw + v * words;
      uint64_t open = 0;
      for (int w = 0; w < words; ++w) open |= ~row[w] & ValidMask(w, words);
      if (open == 0) continue;
      jfq_.push_back(static_cast<VertexId>(v));
      for (int w = 0; w < words; ++w) {
        const uint64_t mask = ~row[w] & ValidMask(w, words);
        jfq_masks_.push_back(mask);
        private_sum += PopCount(mask);
      }
    }
  }

  // JFQ write-out: one enqueue per entry regardless of sharing.
  scope->StoreContiguous(0, static_cast<int64_t>(jfq_.size()),
                         sizeof(VertexId));
  scope->Atomic((static_cast<int64_t>(jfq_.size()) + gpusim::kWarpSize - 1) /
                gpusim::kWarpSize);

  // BSA_{k+1} <- BSA_k (Algorithm 1 line 1). The simulated device streams
  // the whole array (charged below); the host gets away with a buffer swap
  // plus re-copying only the rows this level changed — the list the fused
  // sweep just built (swapped into jfq_ when top-down won).
  SyncShadow(bottom_up ? next_jfq_ : jfq_);
  scope->LoadContiguous(0, n_vertices * words, 8);
  scope->StoreContiguous(0, n_vertices * words, 8);
  if (options_.msbfs_reset) {
    // MS-BFS-style per-level reset of the visit array: extra streaming
    // store (and the loss of early termination, handled in bottom-up).
    scope->StoreContiguous(0, n_vertices * words, 8);
  }
  return private_sum;
}

template <int kW>
void BitwiseKernel<kW>::Export(GroupResult* result) {
  result->trace.instance_count = n_;
  result->trace.bottom_up_search_lengths = search_lengths_;
  if (options_.record_depths) {
    // Blocked transpose of the vertex-major depth matrix into the
    // instance-major result layout: a 64-vertex block's rows (<= 4 KiB for
    // group sizes up to 64) stay cached across all n_ output columns.
    const int64_t n_vertices = graph_.vertex_count();
    result->depths.assign(
        n_, std::vector<uint8_t>(static_cast<size_t>(n_vertices)));
    constexpr int64_t kBlock = 64;
    for (int64_t v0 = 0; v0 < n_vertices; v0 += kBlock) {
      const int64_t v1 = std::min(n_vertices, v0 + kBlock);
      for (int j = 0; j < n_; ++j) {
        uint8_t* const out = result->depths[j].data();
        const uint8_t* const in = depth_matrix_.data() + j;
        for (int64_t v = v0; v < v1; ++v) {
          out[v] = in[static_cast<size_t>(v) * n_];
        }
      }
    }
  }
}

}  // namespace

Result<GroupResult> RunBitwiseGroup(const graph::Csr& graph,
                                    std::span<const graph::VertexId> sources,
                                    const TraversalOptions& options,
                                    gpusim::Device* device) {
  switch (CeilDiv(static_cast<uint64_t>(sources.size()), 64)) {
    case 1:
      return DriveGroup<BitwiseKernel<1>>(graph, sources, options, device);
    case 2:
      return DriveGroup<BitwiseKernel<2>>(graph, sources, options, device);
    default:
      return DriveGroup<BitwiseKernel<0>>(graph, sources, options, device);
  }
}

}  // namespace ibfs::internal_strategies
