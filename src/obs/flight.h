#ifndef IBFS_OBS_FLIGHT_H_
#define IBFS_OBS_FLIGHT_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/live.h"
#include "obs/report.h"
#include "util/status.h"

namespace ibfs::obs {

/// Flight recorder: bounded rings of the most recent per-query access
/// records and notable service events, dumped as one schema-validated
/// `ibfs.flight_record` JSON document when something goes wrong (SLO
/// burn-rate alert, circuit-breaker open, cache quarantine). The point is
/// post-hoc debuggability of a bad minute without having had full tracing
/// on: the recorder is always armed, costs O(capacity) memory, and the
/// dump captures what led up to the trigger. Dumps are rate-limited so a
/// sustained breach produces one fresh file per interval, not one per
/// query; each dump atomically overwrites `dump_path` with the latest
/// window (the newest dump is the one you want). Thread-safe; explicit
/// `now_s` timestamps as in obs/live.h.

/// A notable moment worth keeping alongside the query ring — breaker
/// opens, fallbacks, quarantines, SLO transitions.
struct FlightEvent {
  double ts_s = 0.0;
  /// Short machine-readable kind: "breaker_opened", "slo_alert_fired", ...
  std::string name;
  /// Free-form human detail ("device 2", "query 17 checksum mismatch").
  std::string detail;
};

/// One dump: the `ibfs.flight_record` document, a snapshot of the rings.
struct FlightRecord : JsonDocument<FlightRecord> {
  static constexpr const char* kSchema = "ibfs.flight_record";
  static constexpr int kSchemaVersion = 1;

  /// What caused the dump ("slo_alert", "breaker_open", ...).
  std::string trigger;
  double ts_s = 0.0;
  /// Dumps written before this one.
  int64_t dump_index = 0;
  std::deque<AccessRecord> queries;
  std::deque<FlightEvent> events;
};

class FlightRecorder {
 public:
  struct Options {
    /// Ring capacities.
    size_t max_queries = 256;
    size_t max_events = 128;
    /// Where Trigger writes the dump; empty disables dumping (the rings
    /// still record, for tests and future inspection endpoints).
    std::string dump_path;
    /// Minimum seconds between dumps (0 = every trigger dumps).
    double min_dump_interval_s = 5.0;
  };

  explicit FlightRecorder(Options options);

  /// Appends to the query ring (oldest record evicted at capacity).
  void RecordQuery(const AccessRecord& record);
  /// Appends to the event ring.
  void RecordEvent(double now_s, std::string name, std::string detail);

  /// A dump-worthy condition occurred. Writes the flight record to
  /// dump_path unless a dump happened less than min_dump_interval_s ago
  /// (or dump_path is empty). Returns true when a file was written; IO
  /// errors are reported through `error` when non-null (best-effort —
  /// the serving path never fails because the flight dump could not be
  /// written).
  bool Trigger(std::string_view reason, double now_s,
               Status* error = nullptr);

  /// Serializes the current rings as an `ibfs.flight_record` document
  /// (single line + newline). `reason` names the trigger.
  void WriteJson(std::ostream& os, std::string_view reason,
                 double now_s) const;

  int64_t dumps() const;
  size_t query_count() const;
  size_t event_count() const;
  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::deque<AccessRecord> queries_;
  std::deque<FlightEvent> events_;
  int64_t dumps_ = 0;
  double last_dump_s_ = -1.0;
};

}  // namespace ibfs::obs

#endif  // IBFS_OBS_FLIGHT_H_
