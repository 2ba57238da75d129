#include "obs/live.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace ibfs::obs {

namespace {

/// Latency-style bounds for the rolling total-latency histogram: 0.25 ms ..
/// ~8 s in powers of two, matching the cumulative service.total_ms layout.
std::vector<double> LiveLatencyBounds() { return PowerOfTwoBounds(0.25, 16); }

}  // namespace

// ---------------------------------------------------------------------------
// RollingWindow

RollingWindow::RollingWindow(double window_seconds, int slots)
    : window_seconds_(window_seconds),
      slot_width_s_(window_seconds / std::max(1, slots)),
      ring_(static_cast<size_t>(std::max(1, slots))) {
  IBFS_CHECK(window_seconds > 0.0) << "window must be positive";
}

int64_t RollingWindow::EpochOf(double t_s) const {
  return static_cast<int64_t>(std::floor(t_s / slot_width_s_));
}

void RollingWindow::Add(double now_s, double delta) {
  int64_t epoch = EpochOf(now_s);
  std::lock_guard<std::mutex> lock(mu_);
  // Backwards clock: a write within the live window lands in its own slot
  // (still distinct from every newer epoch's ring index), but one older
  // than the window would reset a slot that currently holds the *newest*
  // data and stamp it with an ancient epoch. Clamp such writes to the
  // latest time already seen — the write-side twin of Sum's read clamp.
  if (epoch < latest_epoch_ - static_cast<int64_t>(ring_.size()) + 1) {
    epoch = latest_epoch_;
  }
  latest_epoch_ = std::max(latest_epoch_, epoch);
  Slot& slot = ring_[static_cast<size_t>(epoch % static_cast<int64_t>(
                         ring_.size()))];
  if (slot.epoch != epoch) {
    // The ring wrapped: this slot last held data from >= window_seconds ago.
    slot.epoch = epoch;
    slot.sum = 0.0;
  }
  slot.sum += delta;
}

double RollingWindow::Sum(double now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t epoch = std::max(latest_epoch_, EpochOf(now_s));
  const int64_t oldest = epoch - static_cast<int64_t>(ring_.size()) + 1;
  double sum = 0.0;
  for (const Slot& slot : ring_) {
    if (slot.epoch >= oldest && slot.epoch <= epoch) sum += slot.sum;
  }
  return sum;
}

double RollingWindow::RatePerSec(double now_s) const {
  return Sum(now_s) / window_seconds_;
}

// ---------------------------------------------------------------------------
// RollingHistogram

RollingHistogram::RollingHistogram(double window_seconds,
                                   std::span<const double> bounds, int slots)
    : window_seconds_(window_seconds),
      slot_width_s_(window_seconds / std::max(1, slots)),
      bounds_(bounds.begin(), bounds.end()),
      ring_(static_cast<size_t>(std::max(1, slots))) {
  IBFS_CHECK(window_seconds > 0.0) << "window must be positive";
  IBFS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  for (Slot& slot : ring_) slot.counts.assign(bounds_.size() + 1, 0);
}

int64_t RollingHistogram::EpochOf(double t_s) const {
  return static_cast<int64_t>(std::floor(t_s / slot_width_s_));
}

void RollingHistogram::Observe(double now_s, double value) {
  int64_t epoch = EpochOf(now_s);
  std::lock_guard<std::mutex> lock(mu_);
  // Same backwards-clock clamp as RollingWindow::Add: an over-stale write
  // must not reset the slot holding the newest samples.
  if (epoch < latest_epoch_ - static_cast<int64_t>(ring_.size()) + 1) {
    epoch = latest_epoch_;
  }
  latest_epoch_ = std::max(latest_epoch_, epoch);
  Slot& slot = ring_[static_cast<size_t>(epoch % static_cast<int64_t>(
                         ring_.size()))];
  if (slot.epoch != epoch) {
    slot.epoch = epoch;
    std::fill(slot.counts.begin(), slot.counts.end(), 0);
    slot.count = 0;
    slot.min = 0.0;
    slot.max = 0.0;
  }
  if (slot.count == 0) {
    slot.min = value;
    slot.max = value;
  } else {
    slot.min = std::min(slot.min, value);
    slot.max = std::max(slot.max, value);
  }
  ++slot.count;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++slot.counts[static_cast<size_t>(it - bounds_.begin())];
}

RollingHistogram::Merged RollingHistogram::MergeLocked(double now_s) const {
  Merged merged;
  merged.counts.assign(bounds_.size() + 1, 0);
  // Stale reads see the window as of the latest time already written,
  // matching RollingWindow::Sum — without the clamp a backwards `now_s`
  // would silently hide the newest slots (slot.epoch > epoch).
  const int64_t epoch = std::max(latest_epoch_, EpochOf(now_s));
  const int64_t oldest = epoch - static_cast<int64_t>(ring_.size()) + 1;
  for (const Slot& slot : ring_) {
    if (slot.epoch < oldest || slot.epoch > epoch || slot.count == 0) continue;
    for (size_t i = 0; i < merged.counts.size(); ++i) {
      merged.counts[i] += slot.counts[i];
    }
    if (merged.count == 0) {
      merged.min = slot.min;
      merged.max = slot.max;
    } else {
      merged.min = std::min(merged.min, slot.min);
      merged.max = std::max(merged.max, slot.max);
    }
    merged.count += slot.count;
  }
  return merged;
}

int64_t RollingHistogram::Count(double now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return MergeLocked(now_s).count;
}

double RollingHistogram::Percentile(double now_s, double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Merged m = MergeLocked(now_s);
  return BucketPercentile(bounds_, m.counts, m.count, m.min, m.max, p);
}

double RollingHistogram::Min(double now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return MergeLocked(now_s).min;
}

double RollingHistogram::Max(double now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return MergeLocked(now_s).max;
}

// ---------------------------------------------------------------------------
// AccessLog (AccessRecord::WriteJson walks its description in obs/schema.cc)

Result<std::unique_ptr<AccessLog>> AccessLog::Open(const std::string& path) {
  auto stream = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!*stream) {
    return Status::IoError("cannot open access log " + path + " for append");
  }
  auto log = std::unique_ptr<AccessLog>(new AccessLog());
  log->os_ = stream.get();
  log->owned_ = std::move(stream);
  return log;
}

AccessLog::AccessLog(std::ostream* os) : os_(os) {}

AccessLog::~AccessLog() = default;

void AccessLog::Append(const AccessRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.WriteJson(*os_);
  *os_ << '\n';
  os_->flush();
  lines_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// LiveStats

LiveStats::LiveStats(double window_seconds, int slots)
    : completions_(window_seconds, slots),
      errors_(window_seconds, slots),
      total_ms_(window_seconds, LiveLatencyBounds(), slots) {}

void LiveStats::RecordQuery(double now_s, double total_ms, bool ok) {
  completions_.Add(now_s);
  if (!ok) errors_.Add(now_s);
  total_ms_.Observe(now_s, total_ms);
}

double LiveStats::QueryRate(double now_s) const {
  return completions_.RatePerSec(now_s);
}

double LiveStats::ErrorRatio(double now_s) const {
  const double total = completions_.Sum(now_s);
  if (total <= 0.0) return 0.0;
  return errors_.Sum(now_s) / total;
}

double LiveStats::PercentileMs(double now_s, double p) const {
  return total_ms_.Percentile(now_s, p);
}

int64_t LiveStats::WindowCount(double now_s) const {
  return total_ms_.Count(now_s);
}

void LiveStats::PublishTo(MetricsRegistry* metrics, double now_s) const {
  if (metrics == nullptr) return;
  metrics->GetGauge("live.qps")->Set(QueryRate(now_s));
  metrics->GetGauge("live.error_ratio")->Set(ErrorRatio(now_s));
  metrics->GetGauge("live.p50_ms")->Set(PercentileMs(now_s, 0.50));
  metrics->GetGauge("live.p95_ms")->Set(PercentileMs(now_s, 0.95));
  metrics->GetGauge("live.p99_ms")->Set(PercentileMs(now_s, 0.99));
  metrics->GetGauge("live.window_seconds")->Set(window_seconds());
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

std::string PrometheusName(std::string_view metric_name) {
  std::string out = "ibfs_";
  out.reserve(out.size() + metric_name.size());
  for (char c : metric_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

/// Prometheus floats: integers print bare, +Inf for the overflow bound.
void AppendNumber(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

}  // namespace

std::string RenderPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const Counter* counter : registry.Counters()) {
    const std::string name = PrometheusName(counter->name()) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + " ";
    AppendNumber(out, static_cast<double>(counter->value()));
    out += '\n';
  }
  for (const Gauge* gauge : registry.Gauges()) {
    const std::string name = PrometheusName(gauge->name());
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    AppendNumber(out, gauge->value());
    out += '\n';
  }
  for (const Histogram* histogram : registry.Histograms()) {
    const std::string name = PrometheusName(histogram->name());
    out += "# TYPE " + name + " histogram\n";
    const std::vector<double>& bounds = histogram->bounds();
    const std::vector<int64_t> counts = histogram->bucket_counts();
    int64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      const double le =
          i < bounds.size() ? bounds[i]
                            : std::numeric_limits<double>::infinity();
      out += name + "_bucket{le=\"";
      AppendNumber(out, le);
      out += "\"} ";
      AppendNumber(out, static_cast<double>(cumulative));
      out += '\n';
    }
    out += name + "_sum ";
    AppendNumber(out, histogram->sum());
    out += '\n';
    out += name + "_count ";
    AppendNumber(out, static_cast<double>(histogram->count()));
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Atomic file publication

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    if (!out) return Status::IoError("write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// LiveExporter

LiveExporter::LiveExporter(LiveExporterOptions options,
                           const MetricsRegistry* metrics,
                           std::function<void(double)> on_tick)
    : options_(std::move(options)),
      metrics_(metrics),
      on_tick_(std::move(on_tick)) {}

LiveExporter::~LiveExporter() { Stop(); }

void LiveExporter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  started_ = std::chrono::steady_clock::now();
  thread_ = std::thread(&LiveExporter::Loop, this);
}

void LiveExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
}

void LiveExporter::Loop() {
  const auto interval = std::chrono::duration<double>(options_.interval_s);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // True when woken by Stop: publish one final tick, then exit, so
    // even an immediately-stopped exporter leaves fresh files behind.
    const bool stopping =
        cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    const double now_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    lock.unlock();
    const Status st = WriteOnce(now_s);
    if (!st.ok()) {
      IBFS_LOG(Warning) << "live exporter: " << st.ToString();
    }
    if (stopping) return;
    lock.lock();
  }
}

Status LiveExporter::WriteOnce(double now_s) {
  if (on_tick_) on_tick_(now_s);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  Status first = Status::OK();
  auto note = [&first](Status st) {
    if (first.ok() && !st.ok()) first = std::move(st);
  };
  if (metrics_ == nullptr) return first;
  if (!options_.live_out.empty()) {
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginObject();
    w.Key("schema");
    w.String("ibfs.live_snapshot");
    w.Key("schema_version");
    w.Int(1);
    w.Key("uptime_s");
    w.Double(now_s);
    w.Key("metrics");
    w.Raw(metrics_->ToJson());
    w.EndObject();
    os << '\n';
    note(WriteFileAtomic(options_.live_out, os.str()));
  }
  if (!options_.prom_out.empty()) {
    note(WriteFileAtomic(options_.prom_out, RenderPrometheusText(*metrics_)));
  }
  if (!options_.metrics_out.empty()) {
    note(WriteFileAtomic(options_.metrics_out, metrics_->ToJson() + "\n"));
  }
  return first;
}

}  // namespace ibfs::obs
