#ifndef IBFS_OBS_LIVE_H_
#define IBFS_OBS_LIVE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ibfs::obs {

class MetricsRegistry;

/// Live serving telemetry: rolling time-windowed statistics (rates and
/// percentiles over "the last N seconds", not since boot), the structured
/// per-query access log, the Prometheus text renderer, and the periodic
/// snapshot exporter. The cumulative MetricsRegistry answers "what happened
/// this run"; this module answers "what is happening right now", which is
/// what a long-running `serve` needs on a dashboard. See
/// docs/OBSERVABILITY.md ("Live telemetry").
///
/// Clock model: every read/write takes an explicit `now_s` timestamp
/// (seconds on any monotonic timeline — the service passes seconds since
/// its start). Nothing here calls a clock, so window rotation is exactly
/// testable with a fake clock. Times should be non-decreasing, but a stale
/// `now_s` is tolerated, never corrupting: a stale read sees the window as
/// of the latest time already seen, a stale write still inside the window
/// lands in its own slot, and a write older than the window is counted at
/// the latest time (it must not reset the slot holding the newest data).

/// Slotted sliding-window accumulator: the window [now - window_s, now] is
/// covered by `slots` ring slots of window_s / slots seconds each; Add
/// lands in the current slot and Sum totals the slots still inside the
/// window (expired slots are skipped, giving O(slots) reads and O(1)
/// writes with no timer thread). Resolution is one slot width: a sample
/// leaves the window somewhere within its slot's width of the exact
/// expiry instant. Thread-safe.
class RollingWindow {
 public:
  explicit RollingWindow(double window_seconds, int slots = 16);

  void Add(double now_s, double delta = 1.0);
  /// Total of the samples still in the window at `now_s`.
  double Sum(double now_s) const;
  /// Sum / window_seconds — the windowed event rate.
  double RatePerSec(double now_s) const;

  double window_seconds() const { return window_seconds_; }
  int slots() const { return static_cast<int>(ring_.size()); }

 private:
  struct Slot {
    int64_t epoch = -1;  // floor(t / slot_width) when last written
    double sum = 0.0;
  };

  int64_t EpochOf(double t_s) const;

  double window_seconds_;
  double slot_width_s_;
  mutable std::mutex mu_;
  std::vector<Slot> ring_;
  int64_t latest_epoch_ = -1;
};

/// Sliding-window histogram over fixed bucket bounds (same layout as
/// obs::Histogram): per-slot bucket counts merged at read time, with
/// percentiles interpolated by the shared BucketPercentile estimator.
/// An empty window reports count 0 and percentile 0. Thread-safe.
class RollingHistogram {
 public:
  RollingHistogram(double window_seconds, std::span<const double> bounds,
                   int slots = 16);

  void Observe(double now_s, double value);
  int64_t Count(double now_s) const;
  double Percentile(double now_s, double p) const;
  double Min(double now_s) const;
  double Max(double now_s) const;

  double window_seconds() const { return window_seconds_; }

 private:
  struct Slot {
    int64_t epoch = -1;
    std::vector<int64_t> counts;
    int64_t count = 0;
    double min = 0.0;
    double max = 0.0;
  };
  /// Live slots merged into one distribution.
  struct Merged {
    std::vector<int64_t> counts;
    int64_t count = 0;
    double min = 0.0;
    double max = 0.0;
  };

  int64_t EpochOf(double t_s) const;
  Merged MergeLocked(double now_s) const;

  double window_seconds_;
  double slot_width_s_;
  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<Slot> ring_;
  /// Newest epoch ever written; clamps stale reads (a stale `now_s` reads
  /// as of the latest time seen) and over-stale writes (which would
  /// otherwise reset the newest slot), mirroring RollingWindow.
  int64_t latest_epoch_ = -1;
};

/// One completed query, as the access log and the flight recorder see it.
/// Plain scalars/strings only: the obs layer stays below service, which
/// fills this from its QueryResult at completion time.
struct AccessRecord {
  /// Completion time, seconds since service start.
  double ts_s = 0.0;
  int64_t query_id = -1;
  int64_t source = -1;
  /// StatusCodeName of the outcome ("OK", "DeadlineExceeded", ...).
  std::string status = "OK";
  bool ok = true;
  bool cached = false;
  bool degraded = false;
  /// Device execution attempts (0 = never reached a device).
  int64_t attempts = 0;
  int64_t batch_id = -1;
  int64_t group_index = -1;
  double queue_ms = 0.0;
  double batch_ms = 0.0;
  double execute_ms = 0.0;
  double total_ms = 0.0;
  int64_t reached = 0;

  /// One JSON object, single line, no trailing newline — the JSONL row.
  /// The same object is the flight record's queries[] entry.
  void WriteJson(std::ostream& os) const;
};

/// Structured per-query access log: one JSON line per completed query,
/// appended under a mutex so concurrent executor threads never interleave
/// bytes. Lines are flushed per append — the log must be readable while
/// the server is up (that is its point).
class AccessLog {
 public:
  /// Opens `path` for appending.
  static Result<std::unique_ptr<AccessLog>> Open(const std::string& path);
  /// Logs into a caller-owned stream (tests; must outlive the log).
  explicit AccessLog(std::ostream* os);
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  void Append(const AccessRecord& record);
  int64_t lines() const { return lines_.load(std::memory_order_relaxed); }

 private:
  AccessLog() = default;

  std::mutex mu_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_ = nullptr;
  std::atomic<int64_t> lines_{0};
};

/// Rolling-window service statistics published as `live.*` gauges:
/// completion rate, error ratio, and total-latency percentiles over the
/// last `window_seconds` — the numbers a dashboard polls, as opposed to
/// the cumulative `service.*` counters. Thread-safe.
class LiveStats {
 public:
  LiveStats(double window_seconds, int slots = 20);

  void RecordQuery(double now_s, double total_ms, bool ok);

  double QueryRate(double now_s) const;
  double ErrorRatio(double now_s) const;
  double PercentileMs(double now_s, double p) const;
  int64_t WindowCount(double now_s) const;

  /// Writes live.qps, live.error_ratio, live.p50_ms/p95_ms/p99_ms, and
  /// live.window_seconds into `metrics` (no-op when null).
  void PublishTo(MetricsRegistry* metrics, double now_s) const;

  double window_seconds() const { return completions_.window_seconds(); }

 private:
  RollingWindow completions_;
  RollingWindow errors_;
  RollingHistogram total_ms_;
};

/// Renders the registry in the Prometheus text exposition format (v0.0.4):
/// names are `ibfs_` + the dotted metric name with dots replaced by
/// underscores; counters gain the conventional `_total` suffix; histograms
/// expand to cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
/// See the naming table in docs/OBSERVABILITY.md.
std::string RenderPrometheusText(const MetricsRegistry& registry);

/// The dotted-name -> Prometheus-name mapping used by the renderer
/// (without the counter `_total` suffix).
std::string PrometheusName(std::string_view metric_name);

/// Writes `content` to `path` via a temp file + rename, so a concurrent
/// reader (dashboard scraper, tail) never observes a half-written file.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// What the exporter rewrites each tick. Empty path = that output is off.
struct LiveExporterOptions {
  double interval_s = 0.25;
  /// "ibfs.live_snapshot" JSON: uptime plus the full metrics snapshot.
  std::string live_out;
  /// Prometheus text exposition of the same registry.
  std::string prom_out;
  /// Plain metrics snapshot (the --metrics-out format), rewritten
  /// periodically so the file is useful for a server that never exits.
  std::string metrics_out;
};

/// Periodic snapshot publisher: a background thread that every
/// `interval_s` calls the caller's `on_tick(now_s)` hook (where the
/// service refreshes live.* gauges and re-evaluates its SLO) and then
/// atomically rewrites the configured files. `now_s` is seconds since
/// Start. Stop() (or destruction) performs one final tick + write, so
/// short runs still leave fresh files behind.
class LiveExporter {
 public:
  LiveExporter(LiveExporterOptions options, const MetricsRegistry* metrics,
               std::function<void(double now_s)> on_tick = {});
  ~LiveExporter();

  LiveExporter(const LiveExporter&) = delete;
  LiveExporter& operator=(const LiveExporter&) = delete;

  void Start();
  void Stop();

  /// One tick's publication, also used directly by tests: on_tick, then
  /// every configured file. Returns the first write error.
  Status WriteOnce(double now_s);

  int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  bool running() const { return running_; }

 private:
  void Loop();

  LiveExporterOptions options_;
  const MetricsRegistry* metrics_;
  std::function<void(double)> on_tick_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<int64_t> ticks_{0};
};

}  // namespace ibfs::obs

#endif  // IBFS_OBS_LIVE_H_
