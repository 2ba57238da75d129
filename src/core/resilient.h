#ifndef IBFS_CORE_RESILIENT_H_
#define IBFS_CORE_RESILIENT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/engine.h"
#include "util/status.h"

namespace ibfs {

/// Resilient execution over the fault-injectable device simulator: one
/// call = up to retry.max_attempts attempts of one unit of work, each on
/// fresh simulated devices carrying deterministic FaultInjectors, with
/// exponential-backoff-plus-jitter sleeps between attempts and a transfer
/// checksum that quarantines corrupted payloads (a poisoned attempt counts
/// as failed and is re-executed). One loop serves every caller:
/// Engine::Run's per-group workers (batch path), BfsService's executor
/// tasks (online path, which adds circuit breaking and a CPU fallback on
/// top) and RunPartitioned (one attempt spans P devices). See
/// docs/RESILIENCE.md.

/// What one resilient execution did. On final failure `status` carries
/// the last attempt's error, `result` is empty and `devices` is empty.
struct ResilientOutcome {
  Status status;
  GroupResult result;
  /// The successful attempt's devices, one per fleet id in call order:
  /// their clocks, counters and phases are the successful attempt's only,
  /// so fault-free timing is unchanged by the retry machinery.
  std::vector<gpusim::Device> devices;
  /// Simulated seconds burned by failed attempts (retry waste).
  double wasted_sim_seconds = 0.0;
  int attempts = 0;
  /// Injected launch failures observed (transient or permanent).
  int transient_faults = 0;
  /// Transfer corruptions caught by the checksum.
  int corruptions_detected = 0;
  /// Host milliseconds slept in backoff.
  double backoff_ms = 0.0;

  /// The first device's simulated seconds (the group time of one-device
  /// callers); 0 on failure.
  double sim_seconds() const {
    return devices.empty() ? 0.0 : devices.front().elapsed_seconds();
  }
};

/// One attempt: runs the work on `devices` (fresh, one per fleet id) and
/// returns its result. The loop fails the attempt on the returned error or
/// on the first latched device fault, in device order.
using ResilientAttempt =
    std::function<Result<GroupResult>(std::span<gpusim::Device> devices)>;

/// Runs `attempt` under options.retry against options.faults, on one fresh
/// device per entry of `device_ids` (the fleet ordinals whose fault
/// profiles apply). `salt` decorrelates the fault/jitter streams across
/// units of work (callers pass a stable value such as the group index or
/// batch*1000+group). A successful attempt's depths pass the transfer
/// checksum, each device's injector drawing once in device order; an
/// attempt without depths skips it. Fault-free fast path: when the plan is
/// disabled this is exactly one attempt, without injectors.
ResilientOutcome RunResilient(const EngineOptions& options,
                              std::span<const int> device_ids, uint64_t salt,
                              const obs::Observer& observer,
                              const ResilientAttempt& attempt);

/// Executes `group` with the engine's strategy on fleet device
/// `device_id`: RunResilient over one device running
/// Engine::ExecuteGroup.
ResilientOutcome ExecuteGroupResilient(const Engine& engine,
                                       std::span<const graph::VertexId> group,
                                       int device_id, uint64_t salt,
                                       const obs::Observer& observer);

/// Round-robin router over the simulated device fleet with one circuit
/// breaker per device: `failure_threshold` consecutive failures open a
/// device's breaker and Acquire stops returning it (a success anywhere
/// before that resets its count). Opened breakers stay open — the injected
/// permanent failures this guards against do not heal — so when every
/// breaker is open Acquire returns kNoDevice and the caller degrades to
/// its fallback. Thread-safe.
class DeviceRouter {
 public:
  static constexpr int kNoDevice = -1;

  DeviceRouter(int device_count, int failure_threshold);

  /// Next healthy device ordinal, or kNoDevice when all breakers are open.
  int Acquire();

  /// Report one attempt's outcome on `device_id`; failures may open the
  /// breaker. Returns true when this call opened it.
  bool ReportFailure(int device_id);
  void ReportSuccess(int device_id);

  bool IsOpen(int device_id) const;
  int healthy_count() const;
  /// Breakers opened since construction.
  int64_t opened_total() const;

 private:
  mutable std::mutex mu_;
  std::vector<int> consecutive_failures_;
  std::vector<bool> open_;
  int failure_threshold_;
  size_t next_ = 0;
  int64_t opened_total_ = 0;
};

}  // namespace ibfs

#endif  // IBFS_CORE_RESILIENT_H_
