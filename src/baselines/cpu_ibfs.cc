#include <algorithm>
#include <vector>

#include "baselines/cpu_bfs.h"
#include "ibfs/level_driver.h"
#include "ibfs/status_array.h"
#include "util/bitops.h"

namespace ibfs::baselines {
namespace {

using graph::VertexId;

}  // namespace

Result<CpuRunResult> RunCpuIbfs(const graph::Csr& graph,
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
  const uint64_t last_mask = n % 64 == 0 ? ~uint64_t{0} : LowMask(n % 64);
  const int64_t v_count = graph.vertex_count();
  const int64_t row_bytes = static_cast<int64_t>(words) * 8;

  const double seconds_before = cpu->Seconds();
  CpuRunResult result;
  result.depths.assign(
      n, std::vector<uint8_t>(static_cast<size_t>(v_count), kUnvisitedDepth));

  // Cumulative bitwise status arrays (current and previous level), as on
  // the GPU (Section 7: the design carries over; atomics are the cost).
  std::vector<uint64_t> cur(static_cast<size_t>(v_count) * words, 0);
  std::vector<uint64_t> prev;
  std::vector<VertexId> jfq;

  auto row = [&](std::vector<uint64_t>& a, VertexId v) {
    return a.data() + static_cast<int64_t>(v) * words;
  };
  auto crow = [&](const std::vector<uint64_t>& a, VertexId v) {
    return a.data() + static_cast<int64_t>(v) * words;
  };
  auto row_full = [&](const uint64_t* r) {
    for (int w = 0; w + 1 < words; ++w) {
      if (r[w] != ~uint64_t{0}) return false;
    }
    return (r[words - 1] & last_mask) == last_mask;
  };

  int64_t unexplored_edges = static_cast<int64_t>(n) * graph.edge_count();
  for (int j = 0; j < n; ++j) {
    const VertexId s = sources[j];
    if (std::find(jfq.begin(), jfq.end(), s) == jfq.end()) jfq.push_back(s);
    row(cur, s)[j / 64] |= Bit(j % 64);
    result.depths[j][s] = 0;
    unexplored_edges -= graph.OutDegree(s);
  }
  prev = cur;

  bool bottom_up = false;
  for (int level = 1; level <= options.max_level && !jfq.empty(); ++level) {
    cpu->ParallelSection();
    int64_t new_pairs = 0;
    int64_t next_frontier_edges = 0;

    auto record_new_bits = [&](VertexId v, uint64_t diff, int w) {
      new_pairs += PopCount(diff);
      next_frontier_edges +=
          static_cast<int64_t>(PopCount(diff)) * graph.OutDegree(v);
      while (diff != 0) {
        const int b = LowestSetBit(diff);
        diff &= diff - 1;
        result.depths[w * 64 + b][v] = static_cast<uint8_t>(level);
      }
    };

    if (!bottom_up) {
      for (VertexId f : jfq) {
        cpu->RandomLines(CeilDiv(static_cast<uint64_t>(row_bytes), 64));
        const uint64_t* mask_f = crow(prev, f);
        const auto neighbors = graph.OutNeighbors(f);
        cpu->SequentialBytes(static_cast<int64_t>(neighbors.size()) *
                             static_cast<int64_t>(sizeof(VertexId)));
        int share = 0;
        for (int w = 0; w < words; ++w) share += PopCount(mask_f[w]);
        for (VertexId nb : neighbors) {
          // Multi-threaded bitwise OR into a shared row: CPU atomics — the
          // cost MS-BFS's single-thread formulation avoids (Section 7).
          cpu->RandomLines(1);
          cpu->Atomic(words);
          cpu->Compute(2 * words);
          result.edges_inspected += share;
          uint64_t* row_nb = row(cur, nb);
          for (int w = 0; w < words; ++w) {
            const uint64_t after = row_nb[w] | mask_f[w];
            const uint64_t diff = after ^ row_nb[w];
            if (diff != 0) {
              row_nb[w] = after;
              record_new_bits(nb, diff, w);
            }
          }
        }
      }
    } else {
      for (VertexId f : jfq) {
        cpu->RandomLines(1);
        uint64_t* row_f = row(cur, f);
        const auto neighbors = graph.InNeighbors(f);
        int64_t scanned = 0;
        for (VertexId nb : neighbors) {
          if (options.early_termination && row_full(row_f)) {
            break;  // early termination: all instances have a parent for f
          }
          ++scanned;
          cpu->RandomLines(1);
          cpu->Compute(2 * words);
          const uint64_t* row_nb = crow(prev, nb);
          for (int w = 0; w < words; ++w) {
            const uint64_t valid = w + 1 == words ? last_mask : ~uint64_t{0};
            result.edges_inspected += PopCount(~row_f[w] & valid);
            const uint64_t after = row_f[w] | row_nb[w];
            const uint64_t diff = after ^ row_f[w];
            if (diff != 0) {
              row_f[w] = after;
              record_new_bits(f, diff, w);
            }
          }
        }
        cpu->SequentialBytes(scanned *
                             static_cast<int64_t>(sizeof(VertexId)));
      }
    }

    if (new_pairs == 0) break;
    unexplored_edges -= next_frontier_edges;
    bottom_up = NextBottomUp(bottom_up, next_frontier_edges, unexplored_edges,
                             new_pairs, n * v_count, options);

    // Joint frontier identification (XOR / NOT scans) + BSA copy.
    cpu->SequentialBytes(3 * static_cast<int64_t>(cur.size()) * 8);
    jfq.clear();
    for (int64_t v = 0; v < v_count; ++v) {
      const auto vid = static_cast<VertexId>(v);
      const uint64_t* rc = crow(cur, vid);
      const uint64_t* rp = crow(prev, vid);
      bool is_frontier = false;
      if (!bottom_up) {
        for (int w = 0; w < words; ++w) is_frontier |= (rc[w] ^ rp[w]) != 0;
      } else {
        is_frontier = !row_full(rc);
      }
      if (is_frontier) jfq.push_back(vid);
    }
    prev = cur;
  }

  result.seconds = cpu->Seconds() - seconds_before;
  return result;
}

}  // namespace ibfs::baselines
