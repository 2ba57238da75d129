// Microbenchmark: the serving layer's two digests over 8 KiB depth vectors
// (the LJ preset's vertex count). Byte-wise FNV-1a is the answer checksum;
// Fnv1aWords is the result cache's residency seal, verified on every hit.
// Also times the miss path's batched checksum (Fnv1aEach over a 48-vector
// group vs 48 serial Fnv1a calls plus reached scans) and the result cache
// on an LJ-shaped answer (depths up to 6, so three bit-planes): Put (width
// scan, pack and seal), a hit without depths (seal check only) and a hit
// with depths (seal check and unpack).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ibfs/status_array.h"
#include "service/cache.h"
#include "util/checksum.h"
#include "util/prng.h"

namespace ibfs {
namespace {

constexpr size_t kDepthBytes = 8192;
constexpr size_t kGroup = 48;

// Depths below `depth_bound`, one vertex in ten unvisited.
std::vector<uint8_t> MakeDepths(uint64_t seed, uint64_t depth_bound = 12) {
  Prng prng(seed);
  std::vector<uint8_t> depths(kDepthBytes);
  for (uint8_t& d : depths) {
    d = prng.NextBool(0.1)
            ? kUnvisitedDepth
            : static_cast<uint8_t>(prng.NextBounded(depth_bound));
  }
  return depths;
}

void BM_Fnv1a(benchmark::State& state) {
  const std::vector<uint8_t> depths = MakeDepths(1);
  for (auto _ : state) benchmark::DoNotOptimize(Fnv1a(depths));
  state.SetBytesProcessed(state.iterations() * kDepthBytes);
}
BENCHMARK(BM_Fnv1a);

void BM_Fnv1aWords(benchmark::State& state) {
  const std::vector<uint8_t> depths = MakeDepths(1);
  for (auto _ : state) benchmark::DoNotOptimize(Fnv1aWords(depths));
  state.SetBytesProcessed(state.iterations() * kDepthBytes);
}
BENCHMARK(BM_Fnv1aWords);

std::vector<std::vector<uint8_t>> MakeGroup() {
  std::vector<std::vector<uint8_t>> group;
  for (size_t v = 0; v < kGroup; ++v) group.push_back(MakeDepths(v));
  return group;
}

void BM_Fnv1aSerialGroup(benchmark::State& state) {
  const std::vector<std::vector<uint8_t>> group = MakeGroup();
  std::vector<Fnv1aCounted> out(kGroup);
  for (auto _ : state) {
    for (size_t v = 0; v < kGroup; ++v) {
      int64_t reached = 0;
      for (uint8_t d : group[v]) reached += d != kUnvisitedDepth;
      out[v] = {Fnv1a(group[v]), reached};
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kGroup * kDepthBytes);
}
BENCHMARK(BM_Fnv1aSerialGroup);

void BM_Fnv1aEachGroup(benchmark::State& state) {
  const std::vector<std::vector<uint8_t>> group = MakeGroup();
  std::vector<Fnv1aCounted> out(kGroup);
  for (auto _ : state) {
    Fnv1aEach(group, kUnvisitedDepth, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kGroup * kDepthBytes);
}
BENCHMARK(BM_Fnv1aEachGroup);

void BM_ResultCachePut(benchmark::State& state) {
  service::ResultCache cache(/*graph_fingerprint=*/1, Strategy::kBitwise,
                             service::CacheOptions{});
  const std::vector<uint8_t> depths = MakeDepths(2, /*depth_bound=*/7);
  const uint64_t checksum = Fnv1a(depths);
  for (auto _ : state) cache.Put(7, depths, checksum, 0);
  state.SetBytesProcessed(state.iterations() * kDepthBytes);
}
BENCHMARK(BM_ResultCachePut);

// Arg: 1 = the hit unpacks depths (keep_depths), 0 = checksum and reached
// only.
void BM_ResultCacheGetHit(benchmark::State& state) {
  service::ResultCache cache(/*graph_fingerprint=*/1, Strategy::kBitwise,
                             service::CacheOptions{});
  const std::vector<uint8_t> depths = MakeDepths(2, /*depth_bound=*/7);
  cache.Put(7, depths, Fnv1a(depths), 0);
  const bool with_depths = state.range(0) != 0;
  for (auto _ : state) {
    auto hit = cache.Get(7, with_depths);
    benchmark::DoNotOptimize(hit->checksum);
    benchmark::DoNotOptimize(hit->depths.data());
  }
  state.SetBytesProcessed(state.iterations() * kDepthBytes);
}
BENCHMARK(BM_ResultCacheGetHit)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ibfs

BENCHMARK_MAIN();
