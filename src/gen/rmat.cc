#include "gen/rmat.h"

#include <vector>

#include "graph/builder.h"
#include "util/prng.h"

namespace ibfs::gen {

Result<graph::Csr> GenerateRmat(const RmatParams& params) {
  if (params.scale < 1 || params.scale > 30) {
    return Status::InvalidArgument("rmat scale out of range [1, 30]");
  }
  if (params.edge_factor < 1) {
    return Status::InvalidArgument("edge_factor must be >= 1");
  }
  const double abc = params.a + params.b + params.c;
  if (params.a < 0 || params.b < 0 || params.c < 0 || abc > 1.0) {
    return Status::InvalidArgument("rmat quadrant probabilities invalid");
  }

  const int64_t n = int64_t{1} << params.scale;
  const int64_t m = n * params.edge_factor;
  Prng prng(params.seed);
  graph::GraphBuilder builder(n);

  // Recursive quadrant descent: at each of `scale` levels pick the quadrant
  // of the adjacency matrix with probability (a, b, c, d), with a little
  // noise per level (as in the Graph500 reference) to avoid exact
  // self-similarity artifacts.
  for (int64_t e = 0; e < m; ++e) {
    uint64_t src = 0;
    uint64_t dst = 0;
    for (int level = 0; level < params.scale; ++level) {
      const double noise = 0.9 + 0.2 * prng.NextDouble();
      const double a = params.a * noise;
      const double r = prng.NextDouble() * (a + params.b + params.c +
                                            (1.0 - abc));
      // Quadrants A (0, 0), B (0, 1), C (1, 0) and D (1, 1) split r's range
      // at a, a + b and a + b + c. The bits come from the three comparisons
      // through bitwise operators only: `&&`/`||` compile to branches here,
      // and a random quadrant choice makes every branch unpredictable.
      const uint64_t past_a = r >= a;
      const uint64_t past_ab = r >= a + params.b;
      const uint64_t past_abc = r >= a + params.b + params.c;
      const uint64_t src_bit = past_ab;                             // C, D
      const uint64_t dst_bit = (past_a & (past_ab ^ 1)) | past_abc;  // B, D
      src = (src << 1) | src_bit;
      dst = (dst << 1) | dst_bit;
    }
    const auto u = static_cast<graph::VertexId>(src);
    const auto v = static_cast<graph::VertexId>(dst);
    if (params.undirected) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
  }
  return std::move(builder).Build();
}

}  // namespace ibfs::gen
