#ifndef IBFS_GPUSIM_DEVICE_SPEC_H_
#define IBFS_GPUSIM_DEVICE_SPEC_H_

#include <cstdint>
#include <string>

namespace ibfs::gpusim {

/// Lanes per warp (CUDA SIMT width). The kernels size their per-warp lane
/// buffers and per-warp atomic counts with it.
inline constexpr int kWarpSize = 32;

/// Static description of a simulated GPU. Defaults model the NVIDIA Tesla
/// K40 the paper evaluates on (15 SMXs, 2880 cores, 288 GB/s GDDR5, 12 GB);
/// K20() models the Stampede nodes of the scalability study.
///
/// The simulator is a throughput model, not cycle-accurate silicon: kernel
/// time is max(compute makespan, DRAM bandwidth bound) + launch overheads.
/// All paper effects we reproduce (coalescing, shared frontiers, bitwise
/// packing, early termination, load imbalance) express themselves through
/// the counted quantities, so relative results are robust to the constants.
struct DeviceSpec {
  std::string name = "K40-sim";
  /// Number of streaming multiprocessors.
  int sm_count = 15;
  /// Lanes per warp (CUDA SIMT width).
  int warp_size = kWarpSize;
  /// Warps the device can issue truly in parallel (cores / warp_size).
  int parallel_warp_slots = 90;
  /// Core clock in GHz.
  double clock_ghz = 0.745;
  /// Global-memory bandwidth in GB/s.
  double mem_bandwidth_gbps = 288.0;
  /// Global-memory transaction granularity in bytes (L2 segment); the
  /// coalescer merges lane accesses within this window.
  int transaction_bytes = 128;
  /// DRAM bytes moved per transaction for the bandwidth roofline. Kepler
  /// fetches 32-byte sectors; charging one sector per counted transaction
  /// keeps scattered byte probes from being billed a full 128B line each.
  int dram_sector_bytes = 32;
  /// Device memory capacity in bytes (caps the group size N, Section 3).
  int64_t global_memory_bytes = int64_t{12} * 1024 * 1024 * 1024;
  /// Shared memory per SM (K40: 48 KiB). Kernels that declare per-CTA
  /// shared usage (the adjacency cache) lose occupancy when
  /// cta_shared * resident-CTAs exceeds this.
  int64_t shared_mem_per_sm_bytes = 48 * 1024;
  /// Warps per CTA assumed by the occupancy model (256 threads).
  int warps_per_cta = 8;
  /// Resident warps per SM at full occupancy (K40: 64).
  int resident_warps_per_sm = 64;
  /// Fraction of full occupancy needed to keep the issue pipeline
  /// saturated (latency hiding); below it, effective slots scale down.
  double saturation_occupancy = 0.5;

  /// Issue-cost model, in cycles consumed by one warp.
  double cycles_per_load_transaction = 8.0;
  double cycles_per_store_transaction = 8.0;
  double cycles_per_atomic = 32.0;
  /// Per *scalar* (lane) op. Kernels report one "op" per logical
  /// inspection step (load + compare + branch + bookkeeping, ~16
  /// instructions); a warp retires 32 lanes per issue cycle, so one op
  /// costs 16/32 = 0.5 warp-cycles. This makes per-instance inspection
  /// work the dominant cost for byte-status kernels — the regime the
  /// paper's 11x bitwise speedup lives in (one word op serves 64
  /// instances).
  double cycles_per_compute_op = 0.5;
  double cycles_per_shared_byte = 0.125;

  /// Host-side cost of one kernel launch, in seconds. Stream-pipelined
  /// launches overlap issue with execution, so the marginal cost is well
  /// under the ~5us of an isolated synchronous launch.
  double kernel_launch_overhead_s = 2e-7;

  /// Inter-device link for partitioned execution's frontier exchange
  /// (gpusim::FrontierExchangeCost). Defaults model PCIe 3.0 x16 between
  /// boards in one box: ~12 GB/s effective, ~5us one-way. The K20 Stampede
  /// nodes talk over InfiniBand FDR instead (see K20()).
  double link_bandwidth_gbps = 12.0;
  double link_latency_us = 5.0;

  /// The K40 configuration used throughout the single-GPU evaluation.
  static DeviceSpec K40();
  /// The K20 configuration of the 112-GPU Stampede experiment (Fig. 17).
  static DeviceSpec K20();
};

}  // namespace ibfs::gpusim

#endif  // IBFS_GPUSIM_DEVICE_SPEC_H_
