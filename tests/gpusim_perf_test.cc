// Timing-model equivalence goldens for the gpusim fast path.
//
// The simulator's accounting was refactored (phase-tag interning, integer
// op accumulators, bulk/batched hot-loop entry points, the roofline timing
// model evaluated once per kernel at FinishKernel) with a hard contract:
// the observable simulation — result depths, transaction counters, and
// simulated seconds — is BIT-IDENTICAL to the original per-call
// accounting. Every golden below was captured from the pre-refactor
// implementation and is compared with EXPECT_EQ, never near-equality.
// The same contract holds the bitwise kernel to its per-width
// predecessor: the two- and three-word configs and the level-trace sums
// were captured from that kernel before it became one width-generic path.
// The accounting-loop and R-MAT scale 14 sweep goldens were captured when
// the fast path landed.
//
// The arithmetic argument for why exact equality is achievable: all issue
// costs in DeviceSpec are dyadic rationals (8.0, 32.0, 0.5, 0.125), so
// every cycle quantity is an exact multiple of 1/8 far below 2^53 and
// double addition is associative over the values that occur; batching
// per-neighbor charges into per-item totals therefore cannot change a bit.
//
// Regenerate goldens (only when the workload itself changes, never to
// paper over a timing diff):
//   IBFS_PRINT_GOLDENS=1 ./gpusim_perf_test
//       --gtest_filter=GpusimPerfEquivalence.PrintGoldens  (one line)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "gpusim/device.h"
#include "graph/components.h"
#include "test_util.h"
#include "util/checksum.h"

namespace ibfs {
namespace {

using ::ibfs::testing::MakeRmatGraph;

// Option variants layered on the BaseOptions defaults, covering the
// accounting paths that batching touched: the MS-BFS reset store, the
// early-termination branch, uncached adjacency reloads, forced top-down,
// and k-hop truncation.
enum class Variant {
  kDefault,
  kMsbfsReset,
  kNoEarlyTermination,
  kNoAdjacencyCache,
  kForceTopDown,
  kMaxLevel3,
};

struct Config {
  Strategy strategy;
  GroupingPolicy grouping;
  Variant variant;
  // Groups above 64 instances make multi-word bitwise rows: 128 is two
  // words (16-byte rows, segment-aligned), 192 is three (24-byte rows, on
  // the aggregator's non-aligned path). Those configs run kWideSources.
  int group_size = 16;
};

constexpr int kNarrowSources = 48;
constexpr int kWideSources = 384;

// 4 strategies x 3 groupings with defaults, plus targeted variants, plus
// the bitwise kernel at two and three status words per vertex.
const Config kConfigs[] = {
    {Strategy::kSequential, GroupingPolicy::kInOrder, Variant::kDefault},
    {Strategy::kSequential, GroupingPolicy::kRandom, Variant::kDefault},
    {Strategy::kSequential, GroupingPolicy::kGroupBy, Variant::kDefault},
    {Strategy::kNaiveConcurrent, GroupingPolicy::kInOrder, Variant::kDefault},
    {Strategy::kNaiveConcurrent, GroupingPolicy::kRandom, Variant::kDefault},
    {Strategy::kNaiveConcurrent, GroupingPolicy::kGroupBy, Variant::kDefault},
    {Strategy::kJointTraversal, GroupingPolicy::kInOrder, Variant::kDefault},
    {Strategy::kJointTraversal, GroupingPolicy::kRandom, Variant::kDefault},
    {Strategy::kJointTraversal, GroupingPolicy::kGroupBy, Variant::kDefault},
    {Strategy::kBitwise, GroupingPolicy::kInOrder, Variant::kDefault},
    {Strategy::kBitwise, GroupingPolicy::kRandom, Variant::kDefault},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kDefault},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kMsbfsReset},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy,
     Variant::kNoEarlyTermination},
    {Strategy::kJointTraversal, GroupingPolicy::kGroupBy,
     Variant::kNoAdjacencyCache},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kForceTopDown},
    {Strategy::kJointTraversal, GroupingPolicy::kGroupBy,
     Variant::kMaxLevel3},
    {Strategy::kBitwise, GroupingPolicy::kInOrder, Variant::kDefault, 128},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kDefault, 128},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kMsbfsReset, 128},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy,
     Variant::kNoEarlyTermination, 128},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kForceTopDown,
     128},
    {Strategy::kBitwise, GroupingPolicy::kInOrder, Variant::kDefault, 192},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kDefault, 192},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kMsbfsReset, 192},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy,
     Variant::kNoEarlyTermination, 192},
    {Strategy::kBitwise, GroupingPolicy::kGroupBy, Variant::kForceTopDown,
     192},
};

// Everything the simulation observably produces for one config, folded to
// fixed-width numbers. Doubles are compared bit-for-bit.
struct Observed {
  uint64_t depth_checksum = 0;
  double sim_seconds = 0.0;
  uint64_t load_transactions = 0;
  uint64_t store_transactions = 0;
  uint64_t load_requests = 0;
  uint64_t store_requests = 0;
  uint64_t atomic_ops = 0;
  uint64_t shared_bytes = 0;
  double compute_cycles = 0.0;
  double max_item_cycles = 0.0;
  int64_t item_count = 0;
  int64_t launch_count = 0;
  // Per-phase slices (zeros when the phase never ran).
  uint64_t td_load_txn = 0, td_store_txn = 0, td_atomics = 0, td_shared = 0;
  uint64_t bu_load_txn = 0, bu_store_txn = 0, bu_atomics = 0, bu_shared = 0;
  uint64_t fq_load_txn = 0, fq_store_txn = 0, fq_atomics = 0, fq_shared = 0;
  double td_seconds = 0.0, bu_seconds = 0.0, fq_seconds = 0.0;
  // Level traces summed over every level of every group, and the bottom-up
  // search-length distribution's count and sum.
  int64_t edges_inspected = 0;
  int64_t new_visits = 0;
  int64_t private_fq_sum = 0;
  int64_t jfq_size = 0;
  int64_t search_count = 0;
  double search_sum = 0.0;
};

EngineOptions OptionsFor(const Config& config, int threads) {
  EngineOptions options;
  options.strategy = config.strategy;
  options.grouping = config.grouping;
  options.group_size = config.group_size;
  options.seed = 7;
  options.keep_depths = true;
  options.threads = threads;
  switch (config.variant) {
    case Variant::kDefault:
      break;
    case Variant::kMsbfsReset:
      options.traversal.msbfs_reset = true;
      break;
    case Variant::kNoEarlyTermination:
      options.traversal.early_termination = false;
      break;
    case Variant::kNoAdjacencyCache:
      options.traversal.adjacency_cache = false;
      break;
    case Variant::kForceTopDown:
      options.traversal.force_top_down = true;
      break;
    case Variant::kMaxLevel3:
      options.traversal.max_level = 3;
      break;
  }
  return options;
}

Observed RunConfig(const graph::Csr& graph,
                   std::span<const graph::VertexId> sources,
                   const Config& config, int threads) {
  Engine engine(&graph, OptionsFor(config, threads));
  auto run = engine.Run(sources);
  IBFS_CHECK(run.ok()) << run.status().ToString();
  const EngineResult& result = run.value();

  Observed observed;
  uint64_t state = kFnv1aOffsetBasis;
  for (const GroupResult& group : result.groups) {
    for (const std::vector<uint8_t>& depths : group.depths) {
      state = Fnv1aExtend(state, depths);
    }
  }
  observed.depth_checksum = state;
  observed.sim_seconds = result.sim_seconds;
  observed.load_transactions = result.totals.mem.load_transactions;
  observed.store_transactions = result.totals.mem.store_transactions;
  observed.load_requests = result.totals.mem.load_requests;
  observed.store_requests = result.totals.mem.store_requests;
  observed.atomic_ops = result.totals.mem.atomic_ops;
  observed.shared_bytes = result.totals.mem.shared_bytes;
  observed.compute_cycles = result.totals.compute_cycles;
  observed.max_item_cycles = result.totals.max_item_cycles;
  observed.item_count = result.totals.item_count;
  observed.launch_count = result.totals.launch_count;
  const auto phase = [&result](const char* tag) {
    auto it = result.phases.find(std::string(tag));
    return it == result.phases.end() ? gpusim::KernelStats{} : it->second;
  };
  const gpusim::KernelStats td = phase("td_inspect");
  const gpusim::KernelStats bu = phase("bu_inspect");
  const gpusim::KernelStats fq = phase("fq_gen");
  observed.td_load_txn = td.mem.load_transactions;
  observed.td_store_txn = td.mem.store_transactions;
  observed.td_atomics = td.mem.atomic_ops;
  observed.td_shared = td.mem.shared_bytes;
  observed.bu_load_txn = bu.mem.load_transactions;
  observed.bu_store_txn = bu.mem.store_transactions;
  observed.bu_atomics = bu.mem.atomic_ops;
  observed.bu_shared = bu.mem.shared_bytes;
  observed.fq_load_txn = fq.mem.load_transactions;
  observed.fq_store_txn = fq.mem.store_transactions;
  observed.fq_atomics = fq.mem.atomic_ops;
  observed.fq_shared = fq.mem.shared_bytes;
  observed.td_seconds = td.seconds;
  observed.bu_seconds = bu.seconds;
  observed.fq_seconds = fq.seconds;
  for (const GroupResult& group : result.groups) {
    for (const LevelTrace& level : group.trace.levels) {
      observed.edges_inspected += level.edges_inspected;
      observed.new_visits += level.new_visits;
      observed.private_fq_sum += level.private_fq_sum;
      observed.jfq_size += level.jfq_size;
    }
    observed.search_count += group.trace.bottom_up_search_lengths.count();
    observed.search_sum += group.trace.bottom_up_search_lengths.sum();
  }
  return observed;
}

class Workload {
 public:
  Workload()
      : graph_(MakeRmatGraph(/*scale=*/10, /*edge_factor=*/8, /*seed=*/42)),
        narrow_(graph::SampleConnectedSources(graph_, kNarrowSources, 2016)),
        wide_(graph::SampleConnectedSources(graph_, kWideSources, 2016)) {}

  const graph::Csr& graph() const { return graph_; }
  std::span<const graph::VertexId> sources(const Config& config) const {
    return config.group_size > 64 ? wide_ : narrow_;
  }

 private:
  graph::Csr graph_;
  std::vector<graph::VertexId> narrow_;
  std::vector<graph::VertexId> wide_;
};

const Workload& SharedWorkload() {
  static const Workload* workload = new Workload();
  return *workload;
}

// Golden table, parallel to kConfigs. Captured from the pre-refactor
// per-call accounting (see file comment); doubles in hexfloat so the
// round-trip is exact.
#include "gpusim_perf_goldens.inc"

std::string ConfigName(const Config& config) {
  std::string name = StrategyName(config.strategy);
  name += "/";
  name += GroupingPolicyName(config.grouping);
  switch (config.variant) {
    case Variant::kDefault:
      break;
    case Variant::kMsbfsReset:
      name += "/msbfs_reset";
      break;
    case Variant::kNoEarlyTermination:
      name += "/no_early_termination";
      break;
    case Variant::kNoAdjacencyCache:
      name += "/no_adjacency_cache";
      break;
    case Variant::kForceTopDown:
      name += "/force_top_down";
      break;
    case Variant::kMaxLevel3:
      name += "/max_level_3";
      break;
  }
  if (config.group_size != 16) {
    name += "/group=" + std::to_string(config.group_size);
  }
  return name;
}

void ExpectMatchesGolden(const Observed& observed, const Observed& golden,
                         const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(observed.depth_checksum, golden.depth_checksum);
  EXPECT_EQ(observed.sim_seconds, golden.sim_seconds);
  EXPECT_EQ(observed.load_transactions, golden.load_transactions);
  EXPECT_EQ(observed.store_transactions, golden.store_transactions);
  EXPECT_EQ(observed.load_requests, golden.load_requests);
  EXPECT_EQ(observed.store_requests, golden.store_requests);
  EXPECT_EQ(observed.atomic_ops, golden.atomic_ops);
  EXPECT_EQ(observed.shared_bytes, golden.shared_bytes);
  EXPECT_EQ(observed.compute_cycles, golden.compute_cycles);
  EXPECT_EQ(observed.max_item_cycles, golden.max_item_cycles);
  EXPECT_EQ(observed.item_count, golden.item_count);
  EXPECT_EQ(observed.launch_count, golden.launch_count);
  EXPECT_EQ(observed.td_load_txn, golden.td_load_txn);
  EXPECT_EQ(observed.td_store_txn, golden.td_store_txn);
  EXPECT_EQ(observed.td_atomics, golden.td_atomics);
  EXPECT_EQ(observed.td_shared, golden.td_shared);
  EXPECT_EQ(observed.bu_load_txn, golden.bu_load_txn);
  EXPECT_EQ(observed.bu_store_txn, golden.bu_store_txn);
  EXPECT_EQ(observed.bu_atomics, golden.bu_atomics);
  EXPECT_EQ(observed.bu_shared, golden.bu_shared);
  EXPECT_EQ(observed.fq_load_txn, golden.fq_load_txn);
  EXPECT_EQ(observed.fq_store_txn, golden.fq_store_txn);
  EXPECT_EQ(observed.fq_atomics, golden.fq_atomics);
  EXPECT_EQ(observed.fq_shared, golden.fq_shared);
  EXPECT_EQ(observed.td_seconds, golden.td_seconds);
  EXPECT_EQ(observed.bu_seconds, golden.bu_seconds);
  EXPECT_EQ(observed.fq_seconds, golden.fq_seconds);
  EXPECT_EQ(observed.edges_inspected, golden.edges_inspected);
  EXPECT_EQ(observed.new_visits, golden.new_visits);
  EXPECT_EQ(observed.private_fq_sum, golden.private_fq_sum);
  EXPECT_EQ(observed.jfq_size, golden.jfq_size);
  EXPECT_EQ(observed.search_count, golden.search_count);
  EXPECT_EQ(observed.search_sum, golden.search_sum);
}

TEST(GpusimPerfEquivalence, MatchesPreRefactorGoldensSerial) {
  const Workload& workload = SharedWorkload();
  for (size_t i = 0; i < std::size(kConfigs); ++i) {
    const Observed observed =
        RunConfig(workload.graph(), workload.sources(kConfigs[i]), kConfigs[i],
                  /*threads=*/1);
    ExpectMatchesGolden(observed, kGoldens[i],
                        ConfigName(kConfigs[i]) + "/threads=1");
  }
}

TEST(GpusimPerfEquivalence, MatchesPreRefactorGoldensParallel) {
  const Workload& workload = SharedWorkload();
  for (size_t i = 0; i < std::size(kConfigs); ++i) {
    const Observed observed =
        RunConfig(workload.graph(), workload.sources(kConfigs[i]), kConfigs[i],
                  /*threads=*/8);
    ExpectMatchesGolden(observed, kGoldens[i],
                        ConfigName(kConfigs[i]) + "/threads=8");
  }
}

// The accounting layer alone: 2000 kernels of 2000 calls each, shaped like
// a bottom-up inner loop (one small contiguous row load, a word of
// compute, shared traffic, an atomic every 16th call) with no graph work.
TEST(GpusimPerfEquivalence, AccountingLoopMatchesGolden) {
  gpusim::Device device;
  for (int k = 0; k < 2000; ++k) {
    auto scope = device.BeginKernel(k % 2 == 0 ? "td_inspect" : "bu_inspect");
    scope.BeginItem();
    for (int c = 0; c < 2000; ++c) {
      scope.LoadContiguous(static_cast<int64_t>(c) * 3, 2, 8);
      scope.Compute(2);
      scope.SharedBytes(16);
      if ((c & 15) == 0) scope.Atomic(1);
    }
    scope.EndItem();
  }
  EXPECT_EQ(device.elapsed_seconds(), 0.072883221476510773);
  EXPECT_EQ(device.totals().mem.load_transactions, 4250000u);
}

// The bitwise and joint kernels on a larger graph than the golden table's:
// R-MAT scale 14, edge factor 16, 256 giant-component sources in GroupBy
// groups of 64, one host thread. Both strategies must give the same depths.
TEST(GpusimPerfEquivalence, Rmat14SweepsMatchGoldens) {
  const graph::Csr graph =
      MakeRmatGraph(/*scale=*/14, /*edge_factor=*/16, /*seed=*/42);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 256, 2016);
  struct Sweep {
    Strategy strategy;
    double sim_seconds;
    uint64_t load_transactions;
    uint64_t store_transactions;
    uint64_t atomic_ops;
  };
  const Sweep kSweeps[] = {
      {Strategy::kBitwise, 0.00025630287099179716, 654100, 99151, 224980},
      {Strategy::kJointTraversal, 0.00087487674869500391, 3393170, 584582,
       4160},
  };
  for (const Sweep& sweep : kSweeps) {
    SCOPED_TRACE(StrategyName(sweep.strategy));
    EngineOptions options;
    options.strategy = sweep.strategy;
    options.grouping = GroupingPolicy::kGroupBy;
    options.group_size = 64;
    options.threads = 1;
    options.traversal.collect_instance_stats = false;
    // Counters come from the serve-path configuration, which records no
    // depths (bitwise then skips its depth stores); a second run with
    // depth recording supplies the checksum.
    options.keep_depths = false;
    auto run = Engine(&graph, options).Run(sources);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const EngineResult& result = run.value();
    EXPECT_EQ(result.sim_seconds, sweep.sim_seconds);
    EXPECT_EQ(result.totals.mem.load_transactions, sweep.load_transactions);
    EXPECT_EQ(result.totals.mem.store_transactions, sweep.store_transactions);
    EXPECT_EQ(result.totals.mem.atomic_ops, sweep.atomic_ops);
    options.keep_depths = true;
    auto depths = Engine(&graph, options).Run(sources);
    ASSERT_TRUE(depths.ok()) << depths.status().ToString();
    EXPECT_EQ(DepthChecksum(depths.value().groups), 0x08733d27aae1c926ULL);
  }
}

// Regenerates the golden table (gated so a plain test run never prints).
TEST(GpusimPerfEquivalence, PrintGoldens) {
  if (std::getenv("IBFS_PRINT_GOLDENS") == nullptr) {
    GTEST_SKIP() << "set IBFS_PRINT_GOLDENS=1 to regenerate";
  }
  const Workload& workload = SharedWorkload();
  std::printf("const Observed kGoldens[] = {\n");
  for (const Config& config : kConfigs) {
    const Observed o =
        RunConfig(workload.graph(), workload.sources(config), config, 1);
    std::printf("    // %s\n", ConfigName(config).c_str());
    std::printf("    {0x%016llxULL, %a,\n",
                static_cast<unsigned long long>(o.depth_checksum),
                o.sim_seconds);
    std::printf("     %lluULL, %lluULL, %lluULL, %lluULL, %lluULL, "
                "%lluULL,\n",
                static_cast<unsigned long long>(o.load_transactions),
                static_cast<unsigned long long>(o.store_transactions),
                static_cast<unsigned long long>(o.load_requests),
                static_cast<unsigned long long>(o.store_requests),
                static_cast<unsigned long long>(o.atomic_ops),
                static_cast<unsigned long long>(o.shared_bytes));
    std::printf("     %a, %a, %lld, %lld,\n", o.compute_cycles,
                o.max_item_cycles, static_cast<long long>(o.item_count),
                static_cast<long long>(o.launch_count));
    std::printf("     %lluULL, %lluULL, %lluULL, %lluULL,\n",
                static_cast<unsigned long long>(o.td_load_txn),
                static_cast<unsigned long long>(o.td_store_txn),
                static_cast<unsigned long long>(o.td_atomics),
                static_cast<unsigned long long>(o.td_shared));
    std::printf("     %lluULL, %lluULL, %lluULL, %lluULL,\n",
                static_cast<unsigned long long>(o.bu_load_txn),
                static_cast<unsigned long long>(o.bu_store_txn),
                static_cast<unsigned long long>(o.bu_atomics),
                static_cast<unsigned long long>(o.bu_shared));
    std::printf("     %lluULL, %lluULL, %lluULL, %lluULL,\n",
                static_cast<unsigned long long>(o.fq_load_txn),
                static_cast<unsigned long long>(o.fq_store_txn),
                static_cast<unsigned long long>(o.fq_atomics),
                static_cast<unsigned long long>(o.fq_shared));
    std::printf("     %a, %a, %a,\n", o.td_seconds, o.bu_seconds,
                o.fq_seconds);
    std::printf("     %lld, %lld, %lld, %lld, %lld, %a},\n",
                static_cast<long long>(o.edges_inspected),
                static_cast<long long>(o.new_visits),
                static_cast<long long>(o.private_fq_sum),
                static_cast<long long>(o.jfq_size),
                static_cast<long long>(o.search_count), o.search_sum);
  }
  std::printf("};\n");
}

}  // namespace
}  // namespace ibfs
