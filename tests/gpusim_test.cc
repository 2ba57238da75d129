#include <vector>

#include "gpusim/cluster.h"
#include "gpusim/device.h"
#include "gpusim/device_spec.h"
#include "gpusim/memory_model.h"
#include "gtest/gtest.h"

namespace ibfs::gpusim {
namespace {

TEST(MemoryModelTest, ContiguousWithinOneSegment) {
  // 32 x 4-byte elements starting at 0 span exactly one 128B segment.
  EXPECT_EQ(ContiguousTransactions(0, 32, 4, 128), 1);
  EXPECT_EQ(ContiguousTransactions(0, 33, 4, 128), 2);
}

TEST(MemoryModelTest, ContiguousUnalignedStart) {
  // Crossing a segment boundary costs a second transaction.
  EXPECT_EQ(ContiguousTransactions(31, 2, 4, 128), 2);
  EXPECT_EQ(ContiguousTransactions(30, 2, 4, 128), 1);
}

TEST(MemoryModelTest, ContiguousZeroOrNegativeCount) {
  EXPECT_EQ(ContiguousTransactions(0, 0, 4, 128), 0);
  EXPECT_EQ(ContiguousTransactions(5, -3, 4, 128), 0);
}

TEST(MemoryModelTest, ContiguousByteElements) {
  // Coalescing is per 32-lane warp request: 128 one-byte lanes are four
  // warps, four transactions — the JSA-vs-BSA asymmetry of Section 6.
  EXPECT_EQ(ContiguousTransactions(0, 128, 1, 128), 4);
  EXPECT_EQ(ContiguousTransactions(0, 129, 1, 128), 5);
  EXPECT_EQ(ContiguousTransactions(127, 2, 1, 128), 2);
  // One thread reading the same 128 statuses as two packed words: 1 txn.
  EXPECT_EQ(ContiguousTransactions(0, 2, 8, 128), 1);
}

TEST(MemoryModelTest, WarpChunkingNeverMergesAcrossWarps) {
  // 64 x 4-byte lanes: two warps, two 128B segments, two transactions.
  EXPECT_EQ(ContiguousTransactions(0, 64, 4, 128), 2);
  // Unaligned: each warp straddles a boundary.
  EXPECT_EQ(ContiguousTransactions(16, 64, 4, 128), 4);
}

TEST(MemoryModelTest, GatherAllSameSegment) {
  std::vector<int64_t> idx(32, 5);
  EXPECT_EQ(GatherTransactions(idx, 4, 128), 1);
}

TEST(MemoryModelTest, GatherFullyScattered) {
  std::vector<int64_t> idx;
  for (int i = 0; i < 32; ++i) idx.push_back(i * 1000);
  EXPECT_EQ(GatherTransactions(idx, 4, 128), 32);
}

TEST(MemoryModelTest, GatherMasksInactiveLanes) {
  std::vector<int64_t> idx(32, kInactiveLane);
  EXPECT_EQ(GatherTransactions(idx, 4, 128), 0);
  idx[3] = 7;
  EXPECT_EQ(GatherTransactions(idx, 4, 128), 1);
}

TEST(MemoryModelTest, CountersAddAndDerive) {
  MemCounters a;
  a.load_transactions = 10;
  a.load_requests = 2;
  a.store_transactions = 4;
  a.atomic_ops = 1;
  MemCounters b;
  b.load_transactions = 5;
  b.load_requests = 3;
  b.Add(a);
  EXPECT_EQ(b.load_transactions, 15u);
  EXPECT_EQ(b.load_requests, 5u);
  EXPECT_EQ(b.DramBytes(128), (15 + 4 + 1) * 128);
  EXPECT_DOUBLE_EQ(b.LoadTransactionsPerRequest(), 3.0);
}

TEST(DeviceSpecTest, PresetsAreDistinct) {
  const DeviceSpec k40 = DeviceSpec::K40();
  const DeviceSpec k20 = DeviceSpec::K20();
  EXPECT_EQ(k40.sm_count, 15);
  EXPECT_EQ(k20.sm_count, 13);
  EXPECT_GT(k40.mem_bandwidth_gbps, k20.mem_bandwidth_gbps);
}

TEST(DeviceTest, KernelAccumulatesCountersAndTime) {
  Device device;
  {
    auto scope = device.BeginKernel("phase_a");
    scope.LoadContiguous(0, 1024, 4);
    scope.StoreContiguous(0, 256, 4);
    scope.Compute(1000);
    scope.Atomic(3);
  }
  EXPECT_GT(device.elapsed_seconds(), 0.0);
  const KernelStats totals = device.totals();
  EXPECT_EQ(totals.mem.load_transactions, 32u);
  EXPECT_EQ(totals.mem.store_transactions, 8u);
  EXPECT_EQ(totals.mem.atomic_ops, 3u);
  EXPECT_EQ(totals.launch_count, 1);
}

TEST(DeviceTest, PhasesTrackedSeparately) {
  Device device;
  {
    auto scope = device.BeginKernel("a");
    scope.LoadContiguous(0, 32, 4);
  }
  {
    auto scope = device.BeginKernel("b");
    scope.StoreContiguous(0, 32, 4);
  }
  EXPECT_EQ(device.PhaseStats("a").mem.load_transactions, 1u);
  EXPECT_EQ(device.PhaseStats("a").mem.store_transactions, 0u);
  EXPECT_EQ(device.PhaseStats("b").mem.store_transactions, 1u);
  EXPECT_EQ(device.PhaseStats("missing").mem.load_transactions, 0u);
}

TEST(DeviceTest, LaunchOverheadChargedPerLaunch) {
  Device device;
  { auto scope = device.BeginKernel("k"); }
  const double one = device.elapsed_seconds();
  EXPECT_NEAR(one, device.spec().kernel_launch_overhead_s, 1e-12);
  {
    auto scope = device.BeginKernel("k");
    scope.ExtraLaunches(9);
  }
  EXPECT_NEAR(device.elapsed_seconds(), 11 * one, 1e-12);
}

TEST(DeviceTest, SlowestItemBoundsKernelTime) {
  Device fast;
  Device slow;
  // Same total work; one device has it concentrated in a single item.
  {
    auto scope = fast.BeginKernel("k");
    for (int i = 0; i < 1000; ++i) {
      scope.BeginItem();
      scope.Compute(3200);
      scope.EndItem();
    }
  }
  {
    auto scope = slow.BeginKernel("k");
    scope.BeginItem();
    scope.Compute(3200 * 1000);
    scope.EndItem();
  }
  EXPECT_GT(slow.elapsed_seconds(), fast.elapsed_seconds() * 10);
}

TEST(DeviceTest, BandwidthBoundsMemoryHeavyKernels) {
  DeviceSpec spec;
  spec.mem_bandwidth_gbps = 1.0;  // deliberately tiny
  Device device(spec);
  {
    auto scope = device.BeginKernel("k");
    scope.LoadContiguous(0, 1 << 20, 4);
  }
  const double bytes = static_cast<double>(
      device.totals().mem.DramBytes(device.spec().dram_sector_bytes));
  EXPECT_GE(device.elapsed_seconds(), bytes / 1e9);
}

TEST(DeviceTest, ResetClearsEverything) {
  Device device;
  {
    auto scope = device.BeginKernel("k");
    scope.Compute(100);
  }
  device.ResetStats();
  EXPECT_EQ(device.elapsed_seconds(), 0.0);
  EXPECT_EQ(device.totals().mem.load_transactions, 0u);
  EXPECT_TRUE(device.phases().empty());
}


TEST(DeviceTest, SharedFootprintCostsOccupancy) {
  // Same work; one kernel declares a per-CTA shared footprint so large
  // that occupancy (and thus effective parallelism) collapses.
  Device small;
  Device big;
  {
    auto scope = small.BeginKernel("k");
    scope.SetCtaSharedBytes(1024);
    for (int i = 0; i < 512; ++i) {
      scope.BeginItem();
      scope.Compute(6400);
      scope.EndItem();
    }
  }
  {
    auto scope = big.BeginKernel("k");
    scope.SetCtaSharedBytes(48 * 1024);  // one CTA per SM -> low occupancy
    for (int i = 0; i < 512; ++i) {
      scope.BeginItem();
      scope.Compute(6400);
      scope.EndItem();
    }
  }
  EXPECT_GT(big.elapsed_seconds(), small.elapsed_seconds() * 2);
}

TEST(DeviceTest, ModestSharedFootprintIsFree) {
  // Below the saturation point the footprint must not slow anything.
  Device none;
  Device tile;
  auto run = [](Device* d, int64_t cta_bytes) {
    auto scope = d->BeginKernel("k");
    if (cta_bytes > 0) scope.SetCtaSharedBytes(cta_bytes);
    scope.Compute(640000);
  };
  run(&none, 0);
  run(&tile, 8 * 1024);
  EXPECT_DOUBLE_EQ(none.elapsed_seconds(), tile.elapsed_seconds());
}

TEST(DeviceTest, MoreWorkTakesMoreTime) {
  // Cost-model monotonicity: strictly more of any charged quantity never
  // makes a kernel faster.
  auto time_for = [](int64_t loads, int64_t ops, int64_t atomics) {
    Device device;
    auto scope = device.BeginKernel("k");
    scope.LoadContiguous(0, loads, 4);
    scope.Compute(ops);
    scope.Atomic(atomics);
    scope.End();
    return device.elapsed_seconds();
  };
  EXPECT_LE(time_for(1000, 1000, 10), time_for(2000, 1000, 10));
  EXPECT_LE(time_for(1000, 1000, 10), time_for(1000, 50000, 10));
  EXPECT_LE(time_for(1000, 1000, 10), time_for(1000, 1000, 1000));
}

TEST(ClusterTest, RoundRobinAndLptPlacement) {
  const std::vector<double> costs = {4, 3, 2, 1};
  Cluster cluster(2);
  const ClusterRun rr = cluster.Place(costs, PlacementPolicy::kRoundRobin);
  EXPECT_DOUBLE_EQ(rr.device_seconds[0], 6.0);  // 4 + 2
  EXPECT_DOUBLE_EQ(rr.device_seconds[1], 4.0);  // 3 + 1
  EXPECT_DOUBLE_EQ(rr.makespan_seconds, 6.0);
  EXPECT_DOUBLE_EQ(rr.total_seconds, 10.0);

  const ClusterRun lpt = cluster.Place(costs, PlacementPolicy::kLpt);
  EXPECT_DOUBLE_EQ(lpt.makespan_seconds, 5.0);  // {4,1} and {3,2}
}

TEST(ClusterTest, SpeedupNeverExceedsDeviceCount) {
  std::vector<double> costs(128, 1.0);
  for (int g : {1, 2, 7, 16, 100}) {
    const double s = ClusterSpeedup(costs, g, PlacementPolicy::kRoundRobin);
    EXPECT_LE(s, static_cast<double>(g) + 1e-9);
    EXPECT_GT(s, 0.0);
  }
}

TEST(ClusterTest, UniformWorkScalesLinearly) {
  std::vector<double> costs(128, 1.0);
  EXPECT_DOUBLE_EQ(ClusterSpeedup(costs, 4, PlacementPolicy::kRoundRobin),
                   4.0);
}

TEST(ClusterTest, ImbalanceCapsSpeedup) {
  // One huge unit dominates: no amount of devices helps beyond total/max.
  std::vector<double> costs(31, 1.0);
  costs.push_back(31.0);
  const double s = ClusterSpeedup(costs, 16, PlacementPolicy::kLpt);
  EXPECT_LE(s, 2.0 + 1e-9);
}

}  // namespace
}  // namespace ibfs::gpusim
