// Fault-path goldens for resilient execution.
//
// Four seeded fault plans run through Engine::Run and through
// RunPartitioned at P in {1, 2, 4}, each with keep_depths on and off.
// Everything the retry loop decides is pinned: the status, the depth
// checksum, the recovery counts, the device counter totals, the retry and
// fault metric counters, and the simulated seconds (exact, as hexfloat).
// Every configuration runs at one and four host threads against the same
// row, so the goldens also pin thread-count invariance.
//
// wasted_sim_seconds (simulated seconds of failed attempts) is compared
// with EXPECT_DOUBLE_EQ: it is a sum over devices and groups whose fold
// order is not part of the contract.
//
// Regenerate goldens (only when the workload itself changes, never to
// paper over a diff):
//   IBFS_PRINT_GOLDENS=1 ./resilient_golden_test
//       --gtest_filter=ResilientGolden.PrintGoldens  (one line)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "gpusim/fault.h"
#include "graph/components.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace ibfs {
namespace {

constexpr const char* kPlans[] = {
    "seed=11,devices=4,p_fail=0.02,corrupt=0.1,straggle=1:3",
    "seed=3,devices=2,p_fail=0.05",
    "seed=5,devices=4,corrupt=0.3",
    "seed=7,devices=2,perm=0",  // device 0 always fails: retries exhaust
};

// 0 = Engine::Run; otherwise RunPartitioned with that many partitions.
constexpr int kModes[] = {0, 1, 2, 4};

struct Observed {
  int status_code;
  uint64_t depth_checksum;
  int64_t retries;
  int64_t transient_faults;
  int64_t corruptions_detected;
  uint64_t load_transactions;
  uint64_t store_transactions;
  uint64_t load_requests;
  uint64_t store_requests;
  uint64_t atomic_ops;
  uint64_t shared_bytes;
  int64_t item_count;
  int64_t launch_count;
  double totals_seconds;
  int64_t retry_attempts;
  int64_t failed_attempts;
  int64_t corruptions_metric;
  int64_t retry_exhausted;
  double sim_seconds;
  double compute_seconds;
  double comm_seconds;
  double wasted_sim_seconds;
  // Per-partition device clocks (RunPartitioned) or per-group simulated
  // seconds (Engine::Run).
  std::vector<double> device_seconds;
};

#include "resilient_goldens.inc"

std::string ConfigName(size_t plan, bool keep_depths, int mode) {
  return "plan" + std::to_string(plan) +
         (keep_depths ? "/keep" : "/drop") +
         (mode == 0 ? std::string("/engine")
                    : "/P=" + std::to_string(mode));
}

void CopyTotals(const gpusim::KernelStats& totals, Observed* o) {
  o->load_transactions = totals.mem.load_transactions;
  o->store_transactions = totals.mem.store_transactions;
  o->load_requests = totals.mem.load_requests;
  o->store_requests = totals.mem.store_requests;
  o->atomic_ops = totals.mem.atomic_ops;
  o->shared_bytes = totals.mem.shared_bytes;
  o->item_count = totals.item_count;
  o->launch_count = totals.launch_count;
  o->totals_seconds = totals.seconds;
}

Observed RunConfig(size_t plan, bool keep_depths, int mode, int threads) {
  static const graph::Csr graph = testing::MakeRmatGraph(7, 8);
  static const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 64, 1);

  EngineOptions options;
  options.strategy = Strategy::kBitwise;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 16;
  options.keep_depths = keep_depths;
  options.threads = threads;
  options.traversal.collect_instance_stats = false;
  auto parsed = gpusim::FaultPlan::Parse(kPlans[plan]);
  IBFS_CHECK(parsed.ok());
  options.faults = parsed.value();
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  obs::MetricsRegistry metrics;
  options.observer.metrics = &metrics;

  Observed o{};
  Status status;
  if (mode == 0) {
    Engine engine(&graph, options);
    Result<EngineResult> run = engine.Run(sources);
    status = run.status();
    if (run.ok()) {
      const EngineResult& r = run.value();
      o.depth_checksum = DepthChecksum(r.groups);
      o.retries = r.retries;
      o.transient_faults = r.transient_faults;
      o.corruptions_detected = r.corruptions_detected;
      CopyTotals(r.totals, &o);
      o.sim_seconds = r.sim_seconds;
      o.wasted_sim_seconds = r.wasted_sim_seconds;
      o.device_seconds = r.group_seconds;
    }
  } else {
    PartitionRunOptions prun;
    prun.partitions = mode;
    Result<PartitionedRunResult> run =
        RunPartitioned(graph, sources, options, prun);
    status = run.status();
    if (run.ok()) {
      const PartitionedRunResult& r = run.value();
      o.depth_checksum = DepthChecksum(r.groups);
      o.retries = r.retries;
      o.transient_faults = r.transient_faults;
      o.corruptions_detected = r.corruptions_detected;
      CopyTotals(r.totals, &o);
      o.sim_seconds = r.sim_seconds;
      o.compute_seconds = r.compute_seconds;
      o.comm_seconds = r.comm_seconds;
      o.wasted_sim_seconds = r.wasted_sim_seconds;
      o.device_seconds = r.device_seconds;
    }
  }
  o.status_code = static_cast<int>(status.code());
  o.retry_attempts = metrics.GetCounter("retry.attempts")->value();
  o.failed_attempts = metrics.GetCounter("fault.failed_attempts")->value();
  o.corruptions_metric =
      metrics.GetCounter("fault.corruptions_detected")->value();
  o.retry_exhausted = metrics.GetCounter("retry.exhausted")->value();
  return o;
}

void ExpectMatchesGolden(const Observed& got, const Observed& want,
                         const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(got.status_code, want.status_code);
  EXPECT_EQ(got.depth_checksum, want.depth_checksum);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.transient_faults, want.transient_faults);
  EXPECT_EQ(got.corruptions_detected, want.corruptions_detected);
  EXPECT_EQ(got.load_transactions, want.load_transactions);
  EXPECT_EQ(got.store_transactions, want.store_transactions);
  EXPECT_EQ(got.load_requests, want.load_requests);
  EXPECT_EQ(got.store_requests, want.store_requests);
  EXPECT_EQ(got.atomic_ops, want.atomic_ops);
  EXPECT_EQ(got.shared_bytes, want.shared_bytes);
  EXPECT_EQ(got.item_count, want.item_count);
  EXPECT_EQ(got.launch_count, want.launch_count);
  EXPECT_EQ(got.totals_seconds, want.totals_seconds);
  EXPECT_EQ(got.retry_attempts, want.retry_attempts);
  EXPECT_EQ(got.failed_attempts, want.failed_attempts);
  EXPECT_EQ(got.corruptions_metric, want.corruptions_metric);
  EXPECT_EQ(got.retry_exhausted, want.retry_exhausted);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_EQ(got.compute_seconds, want.compute_seconds);
  EXPECT_EQ(got.comm_seconds, want.comm_seconds);
  EXPECT_DOUBLE_EQ(got.wasted_sim_seconds, want.wasted_sim_seconds);
  EXPECT_EQ(got.device_seconds, want.device_seconds);
}

TEST(ResilientGolden, FaultPathMatchesGoldens) {
  size_t row = 0;
  for (size_t plan = 0; plan < std::size(kPlans); ++plan) {
    for (const bool keep_depths : {true, false}) {
      for (const int mode : kModes) {
        ASSERT_LT(row, std::size(kGoldens));
        for (const int threads : {1, 4}) {
          ExpectMatchesGolden(
              RunConfig(plan, keep_depths, mode, threads), kGoldens[row],
              ConfigName(plan, keep_depths, mode) + "/threads=" +
                  std::to_string(threads));
        }
        ++row;
      }
    }
  }
  EXPECT_EQ(row, std::size(kGoldens));
}

// The goldens must cover both outcomes of the loop.
TEST(ResilientGolden, GoldensCoverRecoveryAndExhaustion) {
  int recovered = 0;
  int exhausted = 0;
  for (const Observed& o : kGoldens) {
    if (o.status_code == 0 && o.retries + o.corruptions_detected > 0) {
      ++recovered;
    }
    if (o.retry_exhausted > 0) ++exhausted;
  }
  EXPECT_GT(recovered, 0);
  EXPECT_GT(exhausted, 0);
}

// Regenerates the golden table (gated so a plain test run never prints).
TEST(ResilientGolden, PrintGoldens) {
  if (std::getenv("IBFS_PRINT_GOLDENS") == nullptr) {
    GTEST_SKIP() << "set IBFS_PRINT_GOLDENS=1 to regenerate";
  }
  std::printf("const Observed kGoldens[] = {\n");
  for (size_t plan = 0; plan < std::size(kPlans); ++plan) {
    for (const bool keep_depths : {true, false}) {
      for (const int mode : kModes) {
        const Observed o = RunConfig(plan, keep_depths, mode, 1);
        std::printf("    // %s\n",
                    ConfigName(plan, keep_depths, mode).c_str());
        std::printf("    {%d, 0x%016llxULL, %lld, %lld, %lld,\n",
                    o.status_code,
                    static_cast<unsigned long long>(o.depth_checksum),
                    static_cast<long long>(o.retries),
                    static_cast<long long>(o.transient_faults),
                    static_cast<long long>(o.corruptions_detected));
        std::printf("     %lluULL, %lluULL, %lluULL, %lluULL, %lluULL, "
                    "%lluULL,\n",
                    static_cast<unsigned long long>(o.load_transactions),
                    static_cast<unsigned long long>(o.store_transactions),
                    static_cast<unsigned long long>(o.load_requests),
                    static_cast<unsigned long long>(o.store_requests),
                    static_cast<unsigned long long>(o.atomic_ops),
                    static_cast<unsigned long long>(o.shared_bytes));
        std::printf("     %lld, %lld, %a,\n",
                    static_cast<long long>(o.item_count),
                    static_cast<long long>(o.launch_count), o.totals_seconds);
        std::printf("     %lld, %lld, %lld, %lld,\n",
                    static_cast<long long>(o.retry_attempts),
                    static_cast<long long>(o.failed_attempts),
                    static_cast<long long>(o.corruptions_metric),
                    static_cast<long long>(o.retry_exhausted));
        std::printf("     %a, %a, %a, %a,\n     {", o.sim_seconds,
                    o.compute_seconds, o.comm_seconds, o.wasted_sim_seconds);
        for (size_t i = 0; i < o.device_seconds.size(); ++i) {
          std::printf("%s%a", i == 0 ? "" : ", ", o.device_seconds[i]);
        }
        std::printf("}},\n");
      }
    }
  }
  std::printf("};\n");
}

}  // namespace
}  // namespace ibfs
