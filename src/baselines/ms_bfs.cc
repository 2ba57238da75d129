#include <algorithm>
#include <vector>

#include "baselines/cpu_bfs.h"
#include "ibfs/level_driver.h"
#include "ibfs/status_array.h"
#include "util/bitops.h"

namespace ibfs::baselines {
namespace {

using graph::VertexId;

// Bit-matrix helper over W words per vertex.
class BitRows {
 public:
  BitRows(int64_t vertices, int words) : words_(words) {
    data_.assign(static_cast<size_t>(vertices) * words, 0);
  }
  uint64_t* Row(VertexId v) {
    return data_.data() + static_cast<int64_t>(v) * words_;
  }
  const uint64_t* Row(VertexId v) const {
    return data_.data() + static_cast<int64_t>(v) * words_;
  }
  void Clear() { std::fill(data_.begin(), data_.end(), 0); }
  int64_t bytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(uint64_t));
  }

 private:
  int words_;
  std::vector<uint64_t> data_;
};

}  // namespace

Result<CpuRunResult> RunMsBfs(const graph::Csr& graph,
                              std::span<const graph::VertexId> sources,
                              const TraversalOptions& options,
                              CpuCostModel* cpu) {
  if (cpu == nullptr) return Status::InvalidArgument("cpu model is null");
  if (sources.empty()) return Status::InvalidArgument("no sources");
  for (VertexId s : sources) {
    if (static_cast<int64_t>(s) >= graph.vertex_count()) {
      return Status::OutOfRange("source outside vertex range");
    }
  }
  const int n = static_cast<int>(sources.size());
  const int words = static_cast<int>(CeilDiv(static_cast<uint64_t>(n), 64));
  const uint64_t last_mask =
      n % 64 == 0 ? ~uint64_t{0} : LowMask(n % 64);
  const int64_t v_count = graph.vertex_count();

  const double seconds_before = cpu->Seconds();
  CpuRunResult result;
  result.depths.assign(
      n, std::vector<uint8_t>(static_cast<size_t>(v_count), kUnvisitedDepth));

  BitRows seen(v_count, words);
  BitRows visit(v_count, words);
  BitRows visit_next(v_count, words);

  int64_t unexplored_edges = static_cast<int64_t>(n) * graph.edge_count();
  for (int j = 0; j < n; ++j) {
    const VertexId s = sources[j];
    seen.Row(s)[j / 64] |= Bit(j % 64);
    visit.Row(s)[j / 64] |= Bit(j % 64);
    result.depths[j][s] = 0;
    unexplored_edges -= graph.OutDegree(s);
  }

  bool bottom_up = false;
  for (int level = 1; level <= options.max_level; ++level) {
    cpu->ParallelSection();
    int64_t new_pairs = 0;
    int64_t next_frontier_edges = 0;

    if (!bottom_up) {
      // Top-down: propagate visit bits along out-edges.
      // Streaming scan to find non-empty visit rows.
      cpu->SequentialBytes(visit.bytes());
      for (int64_t v = 0; v < v_count; ++v) {
        const auto vid = static_cast<VertexId>(v);
        const uint64_t* row_visit = visit.Row(vid);
        bool any = false;
        for (int w = 0; w < words; ++w) any |= row_visit[w] != 0;
        if (!any) continue;
        const auto neighbors = graph.OutNeighbors(vid);
        cpu->SequentialBytes(static_cast<int64_t>(neighbors.size()) *
                             static_cast<int64_t>(sizeof(VertexId)));
        for (VertexId nb : neighbors) {
          // seen[nb] and visitNext[nb] are pointer-chased lines.
          cpu->RandomLines(2);
          cpu->Compute(3 * words);
          uint64_t* row_seen = seen.Row(nb);
          uint64_t* row_next = visit_next.Row(nb);
          for (int w = 0; w < words; ++w) {
            const uint64_t d = row_visit[w] & ~row_seen[w];
            ++result.edges_inspected;  // one logical word-check
            if (d != 0) {
              row_next[w] |= d;
              row_seen[w] |= d;
              new_pairs += PopCount(d);
              next_frontier_edges +=
                  static_cast<int64_t>(PopCount(d)) * graph.OutDegree(nb);
              uint64_t bits = d;
              while (bits != 0) {
                const int b = LowestSetBit(bits);
                bits &= bits - 1;
                result.depths[w * 64 + b][nb] =
                    static_cast<uint8_t>(level);
              }
            }
          }
        }
      }
    } else {
      // Bottom-up: every not-fully-seen vertex scans ALL in-neighbors — the
      // per-level reset of `visit` forecloses iBFS-style early termination.
      cpu->SequentialBytes(seen.bytes());
      for (int64_t v = 0; v < v_count; ++v) {
        const auto vid = static_cast<VertexId>(v);
        uint64_t* row_seen = seen.Row(vid);
        bool full = true;
        for (int w = 0; w < words; ++w) {
          const uint64_t valid = w + 1 == words ? last_mask : ~uint64_t{0};
          full &= (row_seen[w] & valid) == valid;
        }
        if (full) continue;
        const auto neighbors = graph.InNeighbors(vid);
        cpu->SequentialBytes(static_cast<int64_t>(neighbors.size()) *
                             static_cast<int64_t>(sizeof(VertexId)));
        uint64_t* row_next = visit_next.Row(vid);
        for (VertexId nb : neighbors) {
          cpu->RandomLines(1);
          cpu->Compute(3 * words);
          const uint64_t* row_visit = visit.Row(nb);
          for (int w = 0; w < words; ++w) {
            ++result.edges_inspected;
            const uint64_t d = row_visit[w] & ~row_seen[w];
            if (d != 0) {
              row_next[w] |= d;
              row_seen[w] |= d;
              new_pairs += PopCount(d);
              next_frontier_edges +=
                  static_cast<int64_t>(PopCount(d)) * graph.OutDegree(vid);
              uint64_t bits = d;
              while (bits != 0) {
                const int b = LowestSetBit(bits);
                bits &= bits - 1;
                result.depths[w * 64 + b][vid] =
                    static_cast<uint8_t>(level);
              }
            }
          }
        }
      }
    }

    if (new_pairs == 0) break;
    unexplored_edges -= next_frontier_edges;

    // Level change: visit <- visitNext, visitNext <- 0. This per-level
    // rebuild is the "reset" Section 6 contrasts with iBFS's cumulative
    // status array.
    std::swap(visit, visit_next);
    visit_next.Clear();
    cpu->SequentialBytes(2 * visit.bytes());

    bottom_up = NextBottomUp(bottom_up, next_frontier_edges, unexplored_edges,
                             new_pairs, n * v_count, options);
  }

  result.seconds = cpu->Seconds() - seconds_before;
  return result;
}

}  // namespace ibfs::baselines
