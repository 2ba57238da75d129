// Simulator fast-path microbench: wall-clock cost of the gpusim
// accounting layer and of the two shared-status traversal kernels whose
// inner loops dominate serving latency. Writes BENCH_gpusim.json.
//
// Sections:
//   accounting     tight BeginKernel/LoadContiguous/Compute/Atomic/End
//                  loop — ns per accounted call, the per-call overhead the
//                  batched entry points exist to avoid.
//   bitwise_sweep  Engine run, bitwise strategy (fused frontier sweep) —
//                  the fast path's ">= 2x wall-clock" target. The
//                  timed runs skip depth materialization (the serve-path
//                  configuration); an untimed depth-recording pass pins
//                  the checksum.
//   joint_sweep    Engine run, joint-traversal strategy, same scheme.
//
// Every section also records simulation-identity fingerprints (depth
// checksums, transaction counts, simulated seconds): a fast path that
// changes any of them is a broken fast path, and tools/check_bench.py
// fails the bench_smoke ctest on any fingerprint drift vs the committed
// BENCH_gpusim.json (wall clock fails only beyond a fixed 4x band).
//
// Environment knobs (all optional):
//   IBFS_GPUSIM_BENCH_SCALE      RMAT scale of the micro graphs (def 14)
//   IBFS_GPUSIM_BENCH_EDGES      RMAT edge factor (def 16)
//   IBFS_GPUSIM_BENCH_INSTANCES  BFS instances per engine run (def 256)
//   IBFS_GPUSIM_BENCH_GROUP     group size N (def 64)
//   IBFS_GPUSIM_BENCH_REPEATS    timed repetitions, best-of (def 3)
//   IBFS_GPUSIM_BENCH_OUT        output path (def BENCH_gpusim.json)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "gen/rmat.h"
#include "obs/json.h"
#include "util/checksum.h"

namespace ibfs::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepResult {
  double best_seconds = 0.0;
  double mean_seconds = 0.0;
  double sim_seconds = 0.0;
  uint64_t depth_checksum = 0;
  uint64_t load_transactions = 0;
  uint64_t store_transactions = 0;
  uint64_t atomic_ops = 0;
};

SweepResult RunSweep(const graph::Csr& graph,
                     std::span<const graph::VertexId> sources,
                     Strategy strategy, int group_size, int repeats) {
  // The timed loop runs keep_depths=false: what the fast path optimizes is
  // the traversal/accounting inner loops, and the serve path (the latency
  // consumer) runs without depth materialization too. Depth correctness is
  // still part of the fingerprint — a separate untimed keep_depths=true
  // pass below supplies the checksum that check_bench.py pins.
  EngineOptions options = BaseOptions(strategy, GroupingPolicy::kGroupBy);
  options.group_size = group_size;
  options.keep_depths = false;
  options.threads = 1;  // measure the kernel loops, not host parallelism
  SweepResult sweep;
  sweep.best_seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double start = Now();
    const EngineResult result = MustRun(graph, options, sources);
    const double elapsed = Now() - start;
    sweep.best_seconds = std::min(sweep.best_seconds, elapsed);
    sweep.mean_seconds += elapsed / repeats;
    if (r == 0) {
      sweep.sim_seconds = result.sim_seconds;
      sweep.load_transactions = result.totals.mem.load_transactions;
      sweep.store_transactions = result.totals.mem.store_transactions;
      sweep.atomic_ops = result.totals.mem.atomic_ops;
    } else {
      IBFS_CHECK(result.sim_seconds == sweep.sim_seconds &&
                 result.totals.mem.load_transactions ==
                     sweep.load_transactions)
          << "simulation not deterministic across repeats";
    }
  }
  // Untimed verification pass with depth recording on: the FNV checksum
  // over every group's depth vectors is the cross-binary identity witness
  // (bit-identical before/after the fast path, or the bench gate fails).
  options.keep_depths = true;
  const EngineResult verify = MustRun(graph, options, sources);
  uint64_t state = kFnv1aOffsetBasis;
  for (const GroupResult& group : verify.groups) {
    for (const std::vector<uint8_t>& depths : group.depths) {
      state = Fnv1aExtend(state, depths);
    }
  }
  sweep.depth_checksum = state;
  return sweep;
}

struct AccountingResult {
  double seconds = 0.0;
  int64_t calls = 0;
  double ns_per_call = 0.0;
  double sim_seconds = 0.0;
  uint64_t load_transactions = 0;
};

// The accounting layer in isolation: kernels that only account (no graph
// work), shaped like a bottom-up inner loop — one small contiguous row
// load plus a word's worth of compute per "neighbor".
AccountingResult RunAccounting() {
  constexpr int kKernels = 2000;
  constexpr int kCallsPerKernel = 2000;
  gpusim::Device device;
  const double start = Now();
  for (int k = 0; k < kKernels; ++k) {
    auto scope = device.BeginKernel(k % 2 == 0 ? "td_inspect" : "bu_inspect");
    scope.BeginItem();
    for (int c = 0; c < kCallsPerKernel; ++c) {
      scope.LoadContiguous(static_cast<int64_t>(c) * 3, 2, 8);
      scope.Compute(2);
      scope.SharedBytes(16);
      if ((c & 15) == 0) scope.Atomic(1);
    }
    scope.EndItem();
  }
  AccountingResult result;
  result.seconds = Now() - start;
  result.calls = int64_t{kKernels} * kCallsPerKernel * 4;
  result.ns_per_call = result.seconds * 1e9 / result.calls;
  result.sim_seconds = device.elapsed_seconds();
  result.load_transactions = device.totals().mem.load_transactions;
  return result;
}

void WriteHex(obs::JsonWriter* w, uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  w->String(buf);
}

void WriteSweep(obs::JsonWriter* w, const SweepResult& sweep) {
  w->BeginObject();
  w->Key("wall_seconds_best");
  w->Double(sweep.best_seconds);
  w->Key("wall_seconds_mean");
  w->Double(sweep.mean_seconds);
  w->Key("sim_seconds");
  w->Double(sweep.sim_seconds);
  w->Key("depth_checksum");
  WriteHex(w, sweep.depth_checksum);
  w->Key("load_transactions");
  w->Int(static_cast<int64_t>(sweep.load_transactions));
  w->Key("store_transactions");
  w->Int(static_cast<int64_t>(sweep.store_transactions));
  w->Key("atomic_ops");
  w->Int(static_cast<int64_t>(sweep.atomic_ops));
  w->EndObject();
}

int Main() {
  PrintHeader("gpusim fast path",
              "accounting overhead + traversal-kernel wall clock");
  const int scale = EnvInt("IBFS_GPUSIM_BENCH_SCALE", 14);
  const int edge_factor = EnvInt("IBFS_GPUSIM_BENCH_EDGES", 16);
  const int64_t instances = EnvInt64("IBFS_GPUSIM_BENCH_INSTANCES", 256);
  const int group_size = EnvInt("IBFS_GPUSIM_BENCH_GROUP", 64);
  const int repeats = EnvInt("IBFS_GPUSIM_BENCH_REPEATS", 3);

  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = 42;
  auto generated = gen::GenerateRmat(params);
  IBFS_CHECK(generated.ok()) << generated.status().ToString();
  const graph::Csr graph = std::move(generated).value();
  const std::vector<graph::VertexId> sources = Sources(graph, instances);

  const AccountingResult accounting = RunAccounting();
  std::printf("accounting:    %7.3f s for %lld calls (%.1f ns/call)\n",
              accounting.seconds,
              static_cast<long long>(accounting.calls),
              accounting.ns_per_call);

  const SweepResult bitwise =
      RunSweep(graph, sources, Strategy::kBitwise, group_size, repeats);
  std::printf("bitwise sweep: %7.3f s best of %d (sim %.6f s, checksum "
              "%016" PRIx64 ")\n",
              bitwise.best_seconds, repeats, bitwise.sim_seconds,
              bitwise.depth_checksum);

  const SweepResult joint =
      RunSweep(graph, sources, Strategy::kJointTraversal, group_size,
               repeats);
  std::printf("joint sweep:   %7.3f s best of %d (sim %.6f s, checksum "
              "%016" PRIx64 ")\n",
              joint.best_seconds, repeats, joint.sim_seconds,
              joint.depth_checksum);

  const std::string out =
      EnvString("IBFS_GPUSIM_BENCH_OUT", "BENCH_gpusim.json");
  std::ofstream os(out, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("bench");
  w.String("gpusim_fastpath");
  w.Key("schema_version");
  w.Int(1);
  w.Key("config");
  w.BeginObject();
  w.Key("rmat_scale");
  w.Int(scale);
  w.Key("edge_factor");
  w.Int(edge_factor);
  w.Key("instances");
  w.Int(instances);
  w.Key("group_size");
  w.Int(group_size);
  w.Key("repeats");
  w.Int(repeats);
  w.EndObject();
  w.Key("accounting");
  w.BeginObject();
  w.Key("calls");
  w.Int(accounting.calls);
  w.Key("seconds");
  w.Double(accounting.seconds);
  w.Key("ns_per_call");
  w.Double(accounting.ns_per_call);
  w.Key("sim_seconds");
  w.Double(accounting.sim_seconds);
  w.Key("load_transactions");
  w.Int(static_cast<int64_t>(accounting.load_transactions));
  w.EndObject();
  w.Key("bitwise_sweep");
  WriteSweep(&w, bitwise);
  w.Key("joint_sweep");
  WriteSweep(&w, joint);
  w.EndObject();
  os << '\n';
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
