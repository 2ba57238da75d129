#include "core/resilient.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "gpusim/fault.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs {
namespace {

std::span<const double> BackoffBoundsMs() {
  static const std::vector<double> bounds = obs::PowerOfTwoBounds(0.125, 12);
  return bounds;
}

}  // namespace

ResilientOutcome RunResilient(const EngineOptions& options,
                              std::span<const int> device_ids, uint64_t salt,
                              const obs::Observer& observer,
                              const ResilientAttempt& attempt) {
  const bool faulty = options.faults.enabled();
  const int max_attempts = faulty ? options.retry.max_attempts : 1;
  obs::MetricsRegistry* metrics =
      observer.metering() ? observer.metrics : nullptr;

  ResilientOutcome outcome;
  for (int attempt_no = 1; attempt_no <= max_attempts; ++attempt_no) {
    if (attempt_no > 1) {
      const double backoff_ms = options.retry.BackoffMs(salt, attempt_no);
      outcome.backoff_ms += backoff_ms;
      if (metrics != nullptr) {
        metrics->GetCounter("retry.attempts")->Increment();
        metrics->GetHistogram("retry.backoff_ms", BackoffBoundsMs())
            ->Observe(backoff_ms);
      }
      if (backoff_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
    ++outcome.attempts;

    // Reserved up front: each device keeps a raw pointer into `injectors`.
    std::vector<gpusim::Device> devices;
    devices.reserve(device_ids.size());
    std::vector<gpusim::FaultInjector> injectors;
    if (faulty) injectors.reserve(device_ids.size());
    for (const int device_id : device_ids) {
      gpusim::Device& device = devices.emplace_back(options.device);
      if (faulty) {
        device.SetFaultInjector(&injectors.emplace_back(
            options.faults, device_id,
            salt * 131ULL + static_cast<uint64_t>(attempt_no)));
      }
    }

    Result<GroupResult> executed = attempt(devices);
    Status attempt_status = executed.status();
    size_t culprit = 0;  // device the failure is reported on
    for (size_t d = 0; attempt_status.ok() && d < devices.size(); ++d) {
      attempt_status = devices[d].fault_status();
      culprit = d;
    }

    if (attempt_status.ok()) {
      GroupResult result = std::move(executed).value();
      // Transfer integrity: the checksum computed "on the devices" (before
      // the simulated copy back) must match the payload the host received.
      // An injected transfer corruption flips depth words in between, the
      // checksums disagree, and the attempt is quarantined and re-run.
      if (faulty && !result.depths.empty()) {
        const uint64_t device_checksum = Fnv1aOfDepths(result.depths);
        bool corrupted = false;
        for (size_t d = 0; d < injectors.size(); ++d) {
          if (injectors[d].ShouldCorruptTransfer()) {
            injectors[d].CorruptDepths(&result.depths);
            if (!corrupted) culprit = d;
            corrupted = true;
          }
        }
        if (Fnv1aOfDepths(result.depths) != device_checksum) {
          attempt_status = Status::DataLoss(
              "depth payload checksum mismatch on device " +
              std::to_string(device_ids[culprit]) +
              " (injected transfer corruption)");
          ++outcome.corruptions_detected;
          if (metrics != nullptr) {
            metrics->GetCounter("fault.corruptions_detected")->Increment();
          }
        }
      }
      if (attempt_status.ok()) {
        // The injectors die with this attempt; the devices outlive it.
        for (gpusim::Device& device : devices) {
          device.SetFaultInjector(nullptr);
        }
        outcome.status = Status::OK();
        outcome.result = std::move(result);
        outcome.devices = std::move(devices);
        return outcome;
      }
    } else if (attempt_status.code() == StatusCode::kUnavailable) {
      ++outcome.transient_faults;
    }

    outcome.status = std::move(attempt_status);
    for (const gpusim::Device& device : devices) {
      outcome.wasted_sim_seconds += device.elapsed_seconds();
    }
    if (metrics != nullptr) {
      metrics->GetCounter("fault.failed_attempts")->Increment();
    }
    if (observer.tracing()) {
      std::vector<obs::TraceArg> instant_args = {
          obs::Arg("device", static_cast<int64_t>(device_ids[culprit])),
          obs::Arg("attempt", static_cast<int64_t>(attempt_no)),
          obs::Arg("status", outcome.status.ToString())};
      if (!observer.context.empty()) {
        instant_args.push_back(obs::Arg("ctx", observer.context));
      }
      observer.tracer->Instant(observer.track, "attempt_failed", 0.0,
                               std::move(instant_args));
    }
  }
  if (metrics != nullptr) {
    metrics->GetCounter("retry.exhausted")->Increment();
  }
  return outcome;
}

ResilientOutcome ExecuteGroupResilient(const Engine& engine,
                                       std::span<const graph::VertexId> group,
                                       int device_id, uint64_t salt,
                                       const obs::Observer& observer) {
  return RunResilient(
      engine.options(), std::span<const int>(&device_id, 1), salt, observer,
      [&](std::span<gpusim::Device> devices) {
        return engine.ExecuteGroup(group, &devices[0], observer);
      });
}

DeviceRouter::DeviceRouter(int device_count, int failure_threshold)
    : consecutive_failures_(static_cast<size_t>(std::max(1, device_count)),
                            0),
      open_(static_cast<size_t>(std::max(1, device_count)), false),
      failure_threshold_(std::max(1, failure_threshold)) {}

int DeviceRouter::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t probe = 0; probe < open_.size(); ++probe) {
    const size_t id = (next_ + probe) % open_.size();
    if (!open_[id]) {
      next_ = id + 1;
      return static_cast<int>(id);
    }
  }
  return kNoDevice;
}

bool DeviceRouter::ReportFailure(int device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (device_id < 0 || static_cast<size_t>(device_id) >= open_.size()) {
    return false;
  }
  const auto id = static_cast<size_t>(device_id);
  if (open_[id]) return false;
  if (++consecutive_failures_[id] >= failure_threshold_) {
    open_[id] = true;
    ++opened_total_;
    return true;
  }
  return false;
}

void DeviceRouter::ReportSuccess(int device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (device_id < 0 || static_cast<size_t>(device_id) >= open_.size()) {
    return;
  }
  consecutive_failures_[static_cast<size_t>(device_id)] = 0;
}

bool DeviceRouter::IsOpen(int device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (device_id < 0 || static_cast<size_t>(device_id) >= open_.size()) {
    return false;
  }
  return open_[static_cast<size_t>(device_id)];
}

int DeviceRouter::healthy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int healthy = 0;
  for (const bool open : open_) {
    if (!open) ++healthy;
  }
  return healthy;
}

int64_t DeviceRouter::opened_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opened_total_;
}

}  // namespace ibfs
