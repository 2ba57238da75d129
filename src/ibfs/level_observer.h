#ifndef IBFS_IBFS_LEVEL_OBSERVER_H_
#define IBFS_IBFS_LEVEL_OBSERVER_H_

#include <string>

#include "gpusim/device.h"
#include "ibfs/trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ibfs::internal_strategies {

/// Per-level telemetry of the level loop (level_driver.h), for every
/// strategy: one span per traversal level (cat "level", simulated time), a
/// jfq_size counter track, direction-switch instant markers, and the
/// engine.* metrics.
/// Every method reduces to a null check when observability is disabled, so
/// the uninstrumented hot path stays unmeasurably close to free.
class LevelObserver {
 public:
  LevelObserver(const obs::Observer& observer, gpusim::Device* device)
      : observer_(observer), device_(device) {
    if (observer_.metering()) {
      metric_levels_ = observer_.metrics->GetCounter("engine.levels");
      metric_new_visits_ =
          observer_.metrics->GetCounter("engine.new_visits");
      metric_edges_ =
          observer_.metrics->GetCounter("engine.edges_inspected");
      metric_switches_ =
          observer_.metrics->GetCounter("engine.direction_switches");
      metric_jfq_ = observer_.metrics->GetHistogram(
          "engine.jfq_size", obs::PowerOfTwoBounds(1.0, 24));
    }
  }

  /// Before the level's kernels run.
  void LevelStart(int64_t jfq_size) {
    if (!observer_.enabled()) return;
    start_us_ = device_->elapsed_seconds() * 1e6;
    if (observer_.tracing()) {
      observer_.tracer->CounterValue(observer_.track, "jfq_size", start_us_,
                                     static_cast<double>(jfq_size));
    }
  }

  /// After the level's kernels (inspection + frontier generation).
  /// `next_bottom_up` is the direction chosen for the following level.
  void LevelEnd(const LevelTrace& lt, bool next_bottom_up, bool finished) {
    if (!observer_.enabled()) return;
    const double end_us = device_->elapsed_seconds() * 1e6;
    const bool switched = !finished && next_bottom_up != lt.bottom_up;
    if (observer_.tracing()) {
      observer_.tracer->CompleteSpan(
          observer_.track, "level " + std::to_string(lt.level), "level",
          start_us_, end_us - start_us_,
          {obs::Arg("direction", lt.bottom_up ? "bottom_up" : "top_down"),
           obs::Arg("jfq_size", lt.jfq_size),
           obs::Arg("private_fq_sum", lt.private_fq_sum),
           obs::Arg("edges_inspected", lt.edges_inspected),
           obs::Arg("new_visits", lt.new_visits)});
      if (switched) {
        observer_.tracer->Instant(
            observer_.track, "direction_switch", end_us,
            {obs::Arg("after_level", lt.level),
             obs::Arg("to", next_bottom_up ? "bottom_up" : "top_down")});
      }
    }
    if (observer_.metering()) {
      metric_levels_->Increment();
      metric_new_visits_->Increment(lt.new_visits);
      metric_edges_->Increment(lt.edges_inspected);
      metric_jfq_->Observe(static_cast<double>(lt.jfq_size));
      if (switched) metric_switches_->Increment();
    }
  }

 private:
  obs::Observer observer_;
  gpusim::Device* device_;
  double start_us_ = 0.0;
  obs::Counter* metric_levels_ = nullptr;
  obs::Counter* metric_new_visits_ = nullptr;
  obs::Counter* metric_edges_ = nullptr;
  obs::Counter* metric_switches_ = nullptr;
  obs::Histogram* metric_jfq_ = nullptr;
};

}  // namespace ibfs::internal_strategies

#endif  // IBFS_IBFS_LEVEL_OBSERVER_H_
