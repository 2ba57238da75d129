// Tests of the live-telemetry layer (obs/live.h, obs/slo.h): rolling
// window rotation and decay against a fake clock, windowed-histogram
// percentiles, SLO spec parsing and multi-window burn-rate alerting
// (fire/clear transitions, empty-window behaviour), the access log's
// JSONL rows, the Prometheus text renderer, atomic file publication, and
// the periodic exporter. No test here reads a real clock: timestamps are
// explicit, which is the module's contract.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace ibfs::obs {
namespace {

// ------------------------------------------------------ rolling window --

TEST(LiveWindow, SumsWithinWindow) {
  RollingWindow w(10.0, 10);
  w.Add(0.0, 1.0);
  w.Add(0.5, 2.0);
  w.Add(4.0, 3.0);
  EXPECT_DOUBLE_EQ(w.Sum(4.0), 6.0);
  EXPECT_DOUBLE_EQ(w.RatePerSec(4.0), 0.6);
}

TEST(LiveWindow, OldSamplesAgeOut) {
  RollingWindow w(10.0, 10);
  w.Add(0.0, 5.0);
  w.Add(9.0, 1.0);
  // At t=9 both samples are inside the 10 s window.
  EXPECT_DOUBLE_EQ(w.Sum(9.0), 6.0);
  // At t=15 the t=0 sample has expired; the t=9 sample remains.
  EXPECT_DOUBLE_EQ(w.Sum(15.0), 1.0);
  // Far in the future everything has aged out.
  EXPECT_DOUBLE_EQ(w.Sum(100.0), 0.0);
}

TEST(LiveWindow, RotationBoundaryReusesSlots) {
  // 4 slots of 1 s each: writing more epochs than slots must recycle the
  // ring without double counting.
  RollingWindow w(4.0, 4);
  for (int t = 0; t < 12; ++t) {
    w.Add(static_cast<double>(t), 1.0);
  }
  // At t=11 the window [7, 11] holds the samples from t=8..11 (the t=7
  // slot was recycled by the t=11 write).
  EXPECT_DOUBLE_EQ(w.Sum(11.0), 4.0);
}

TEST(LiveWindow, StaleReadUsesLatestTime) {
  // Reads never travel back in time: a reader with a slightly older
  // timestamp sees the window as of the newest write.
  RollingWindow w(10.0, 10);
  w.Add(20.0, 1.0);
  EXPECT_DOUBLE_EQ(w.Sum(0.0), 1.0);
}

TEST(LiveWindow, StaleWriteInsideWindowLandsInItsOwnSlot) {
  // 10 slots of 1 s. A write 5 s behind the newest one is still inside
  // the window: it must keep its own timestamp (own slot) so it ages out
  // 5 s earlier than the newest sample, not be counted at the wrong time.
  RollingWindow w(10.0, 10);
  w.Add(50.0, 1.0);
  w.Add(45.0, 2.0);
  EXPECT_DOUBLE_EQ(w.Sum(50.0), 3.0);
  // At t=56 the t=45 sample has expired; the t=50 one remains.
  EXPECT_DOUBLE_EQ(w.Sum(56.0), 1.0);
}

TEST(LiveWindow, OverStaleWriteDoesNotDestroyTheNewestSlot) {
  // Regression: epochs 50 and 10 map to the same ring index (both mod 10
  // = 0). Before the write-side clamp, the t=10 write reset that slot and
  // stamped it with the ancient epoch — silently destroying the newest
  // sample AND losing its own. Now a write older than the window is
  // counted at the latest time already seen.
  RollingWindow w(10.0, 10);
  w.Add(50.0, 1.0);
  w.Add(10.0, 2.0);
  EXPECT_DOUBLE_EQ(w.Sum(50.0), 3.0);
  // The clamped sample expires with the newest slot, not before.
  EXPECT_DOUBLE_EQ(w.Sum(59.0), 3.0);
  EXPECT_DOUBLE_EQ(w.Sum(100.0), 0.0);
}

TEST(LiveWindow, EmptyWindowIsZero) {
  RollingWindow w(5.0);
  EXPECT_DOUBLE_EQ(w.Sum(123.0), 0.0);
  EXPECT_DOUBLE_EQ(w.RatePerSec(123.0), 0.0);
}

// --------------------------------------------------- rolling histogram --

TEST(LiveHistogram, PercentileOverRecentSamples) {
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 10);
  RollingHistogram h(10.0, bounds, 10);
  for (int i = 0; i < 100; ++i) {
    h.Observe(1.0, 2.0);
  }
  EXPECT_EQ(h.Count(1.0), 100);
  // All samples sit in one bucket; the estimate stays within it.
  const double p99 = h.Percentile(1.0, 0.99);
  EXPECT_GE(p99, 1.0);
  EXPECT_LE(p99, 2.0);
}

TEST(LiveHistogram, EmptyWindowPercentileIsZero) {
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 10);
  RollingHistogram h(10.0, bounds, 10);
  EXPECT_EQ(h.Count(0.0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0, 0.5), 0.0);
  // Samples expire: observed at t=0, gone by t=30.
  h.Observe(0.0, 4.0);
  EXPECT_EQ(h.Count(0.0), 1);
  EXPECT_EQ(h.Count(30.0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(30.0, 0.5), 0.0);
}

TEST(LiveHistogram, MinMaxTrackWindow) {
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 10);
  RollingHistogram h(4.0, bounds, 4);
  h.Observe(0.0, 100.0);
  h.Observe(3.0, 2.0);
  EXPECT_DOUBLE_EQ(h.Max(3.0), 100.0);
  // After the t=0 slot expires only the small sample remains.
  EXPECT_DOUBLE_EQ(h.Max(6.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Min(6.0), 2.0);
}

TEST(LiveHistogram, StaleReadSeesTheWindowAsOfTheNewestWrite) {
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 10);
  RollingHistogram h(10.0, bounds, 10);
  h.Observe(50.0, 4.0);
  // Readers never travel back in time: a stale now_s reads the window as
  // of the latest write, mirroring RollingWindow::Sum.
  EXPECT_EQ(h.Count(0.0), 1);
  EXPECT_DOUBLE_EQ(h.Max(0.0), 4.0);
  EXPECT_GT(h.Percentile(0.0, 0.5), 0.0);
}

TEST(LiveHistogram, OverStaleObserveDoesNotDestroyTheNewestSlot) {
  // Same regression as the RollingWindow twin: epochs 50 and 10 share a
  // ring index, so before the clamp an over-stale Observe zeroed the slot
  // holding the newest samples. Now it is counted at the latest time.
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 10);
  RollingHistogram h(10.0, bounds, 10);
  h.Observe(50.0, 4.0);
  h.Observe(10.0, 100.0);
  EXPECT_EQ(h.Count(50.0), 2);
  EXPECT_DOUBLE_EQ(h.Min(50.0), 4.0);
  EXPECT_DOUBLE_EQ(h.Max(50.0), 100.0);
  // Both expire together with the newest slot.
  EXPECT_EQ(h.Count(100.0), 0);
}

// ------------------------------------------------------------ LiveStats --

TEST(LiveStats, RatesAndErrorRatioDecay) {
  LiveStats stats(10.0, 10);
  for (int i = 0; i < 20; ++i) {
    stats.RecordQuery(1.0, 5.0, /*ok=*/i % 2 == 0);
  }
  EXPECT_EQ(stats.WindowCount(1.0), 20);
  EXPECT_DOUBLE_EQ(stats.QueryRate(1.0), 2.0);
  EXPECT_DOUBLE_EQ(stats.ErrorRatio(1.0), 0.5);
  // Everything decays out of the window.
  EXPECT_EQ(stats.WindowCount(60.0), 0);
  EXPECT_DOUBLE_EQ(stats.QueryRate(60.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.ErrorRatio(60.0), 0.0);
}

TEST(LiveStats, PublishesGauges) {
  LiveStats stats(10.0, 10);
  stats.RecordQuery(0.0, 3.0, true);
  MetricsRegistry metrics;
  stats.PublishTo(&metrics, 0.0);
  EXPECT_GT(metrics.GetGauge("live.qps")->value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("live.error_ratio")->value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("live.window_seconds")->value(), 10.0);
  EXPECT_GT(metrics.GetGauge("live.p99_ms")->value(), 0.0);
  // Null registry is a no-op, not a crash.
  stats.PublishTo(nullptr, 0.0);
}

// ------------------------------------------------------------ SLO spec --

TEST(SloSpecTest, ParsesClassObjectiveTarget) {
  auto spec = SloSpec::Parse("interactive:250:0.99");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().class_name, "interactive");
  EXPECT_DOUBLE_EQ(spec.value().objective_ms, 250.0);
  EXPECT_DOUBLE_EQ(spec.value().target, 0.99);
  EXPECT_EQ(spec.value().ToString(), "interactive:250:0.99");
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(SloSpec::Parse("").ok());
  EXPECT_FALSE(SloSpec::Parse("no-colons").ok());
  EXPECT_FALSE(SloSpec::Parse("a:b:c").ok());
  EXPECT_FALSE(SloSpec::Parse("x:100").ok());
  EXPECT_FALSE(SloSpec::Parse("x:100:0.5:extra").ok());
  EXPECT_FALSE(SloSpec::Parse("x:-5:0.9").ok());   // objective must be > 0
  EXPECT_FALSE(SloSpec::Parse("x:100:0").ok());    // target in (0,1)
  EXPECT_FALSE(SloSpec::Parse("x:100:1").ok());
  EXPECT_FALSE(SloSpec::Parse("x:100:1.5").ok());
}

// ------------------------------------------------------ SLO burn rates --

SloTracker::Options FastSloOptions() {
  SloTracker::Options options;
  options.fast_window_s = 60.0;
  options.slow_window_s = 600.0;
  options.burn_threshold = 2.0;
  return options;
}

TEST(SloBurnRate, EmptyWindowsBurnZero) {
  SloTracker tracker(SloSpec{}, FastSloOptions());
  EXPECT_DOUBLE_EQ(tracker.BurnRateFast(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tracker.BurnRateSlow(0.0), 0.0);
  EXPECT_FALSE(tracker.alert_active());
  EXPECT_EQ(tracker.Evaluate(0.0), SloTransition::kNone);
}

TEST(SloBurnRate, GoodTrafficNeverFires) {
  SloSpec spec;
  spec.objective_ms = 100.0;
  spec.target = 0.9;  // error budget 0.1
  SloTracker tracker(spec, FastSloOptions());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(tracker.Record(1.0, 10.0, true), SloTransition::kNone);
  }
  EXPECT_DOUBLE_EQ(tracker.BurnRateFast(1.0), 0.0);
  EXPECT_EQ(tracker.good(), 100);
  EXPECT_EQ(tracker.bad(), 0);
  EXPECT_FALSE(tracker.alert_active());
}

TEST(SloBurnRate, BurnIsBadFractionOverBudget) {
  SloSpec spec;
  spec.objective_ms = 100.0;
  spec.target = 0.9;  // budget 0.1
  SloTracker tracker(spec, FastSloOptions());
  // 20% of queries miss the objective -> burn = 0.2 / 0.1 = 2.
  for (int i = 0; i < 10; ++i) {
    tracker.Record(1.0, i < 2 ? 500.0 : 10.0, true);
  }
  EXPECT_NEAR(tracker.BurnRateFast(1.0), 2.0, 1e-9);
  EXPECT_NEAR(tracker.BurnRateSlow(1.0), 2.0, 1e-9);
}

TEST(SloBurnRate, FailuresCountAsBadRegardlessOfLatency) {
  SloSpec spec;
  spec.objective_ms = 100.0;
  spec.target = 0.5;
  SloTracker tracker(spec, FastSloOptions());
  tracker.Record(1.0, 1.0, /*ok=*/false);  // fast but failed
  EXPECT_EQ(tracker.bad(), 1);
  EXPECT_GT(tracker.BurnRateFast(1.0), 0.0);
}

TEST(SloAlert, FiresWhenBothWindowsBurnAndClearsOnFastRecovery) {
  SloSpec spec;
  spec.objective_ms = 100.0;
  spec.target = 0.9;
  SloTracker tracker(spec, FastSloOptions());
  // Sustained 100% bad traffic: burn 10 in both windows -> fires once.
  SloTransition fired = SloTransition::kNone;
  for (int i = 0; i < 10; ++i) {
    const SloTransition t = tracker.Record(1.0, 500.0, true);
    if (t == SloTransition::kFired) fired = t;
  }
  EXPECT_EQ(fired, SloTransition::kFired);
  EXPECT_TRUE(tracker.alert_active());
  EXPECT_EQ(tracker.alerts_fired(), 1);
  // More bad traffic while active does not re-fire.
  EXPECT_EQ(tracker.Record(2.0, 500.0, true), SloTransition::kNone);
  EXPECT_EQ(tracker.alerts_fired(), 1);
  // 90 s later the fast window (60 s) has forgotten the breach while the
  // slow window (600 s) still remembers: the alert clears on fast alone.
  EXPECT_EQ(tracker.Evaluate(95.0), SloTransition::kCleared);
  EXPECT_FALSE(tracker.alert_active());
  EXPECT_EQ(tracker.alerts_cleared(), 1);
  EXPECT_GT(tracker.BurnRateSlow(95.0), 2.0);
}

TEST(SloAlert, FastSpikeAloneDoesNotFire) {
  // A burst of bad queries inflates the fast burn, but with a long prior
  // history of good traffic the slow window stays below threshold.
  SloSpec spec;
  spec.objective_ms = 100.0;
  spec.target = 0.9;
  SloTracker tracker(spec, FastSloOptions());
  // 540 s of good traffic (one per second) fills the slow window.
  for (int t = 0; t < 540; ++t) {
    tracker.Record(static_cast<double>(t), 10.0, true);
  }
  // A 20-query bad burst at t=545: the fast window holds roughly one
  // good sample per second plus the burst (bad fraction ~0.27, burn
  // ~2.7) while the slow window dilutes it (20/560 / 0.1 = 0.36 < 2).
  SloTransition worst = SloTransition::kNone;
  for (int i = 0; i < 20; ++i) {
    const SloTransition t = tracker.Record(545.0, 500.0, true);
    if (t != SloTransition::kNone) worst = t;
  }
  EXPECT_EQ(worst, SloTransition::kNone);
  EXPECT_GT(tracker.BurnRateFast(545.0), 2.0);
  EXPECT_LT(tracker.BurnRateSlow(545.0), 2.0);
  EXPECT_FALSE(tracker.alert_active());
}

TEST(SloAlert, PublishesMetricSet) {
  SloSpec spec;
  spec.objective_ms = 100.0;
  spec.target = 0.9;
  SloTracker tracker(spec, FastSloOptions());
  for (int i = 0; i < 10; ++i) tracker.Record(1.0, 500.0, true);
  MetricsRegistry metrics;
  tracker.PublishTo(&metrics, 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("slo.objective_ms")->value(), 100.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("slo.target")->value(), 0.9);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("slo.alert_active")->value(), 1.0);
  EXPECT_GT(metrics.GetGauge("slo.burn_rate_fast")->value(), 2.0);
  EXPECT_EQ(metrics.GetGauge("slo.bad")->value(), 10.0);
  EXPECT_EQ(metrics.GetGauge("slo.alerts_fired")->value(), 1.0);
}

// ----------------------------------------------------------- access log --

TEST(LiveAccessLog, WritesOneParseableJsonLinePerQuery) {
  std::ostringstream os;
  AccessLog log(&os);
  AccessRecord record;
  record.ts_s = 1.5;
  record.query_id = 42;
  record.source = 7;
  record.status = "OK";
  record.ok = true;
  record.cached = false;
  record.degraded = true;
  record.attempts = 2;
  record.batch_id = 3;
  record.group_index = 1;
  record.queue_ms = 0.5;
  record.total_ms = 4.25;
  record.reached = 100;
  log.Append(record);
  record.query_id = 43;
  log.Append(record);
  EXPECT_EQ(log.lines(), 2);

  std::istringstream lines(os.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString() << ": " << line;
    const JsonValue* id = doc.value().Find("query_id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(static_cast<int64_t>(id->number_value()), 42 + parsed);
    EXPECT_NE(doc.value().Find("total_ms"), nullptr);
    EXPECT_NE(doc.value().Find("degraded"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

TEST(LiveAccessLog, OpenAppendsToFile) {
  const std::string path =
      ::testing::TempDir() + "/live_access_test.jsonl";
  std::remove(path.c_str());
  {
    auto log = AccessLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    log.value()->Append(AccessRecord{});
  }
  {
    // Re-opening appends — an access log must survive restarts.
    auto log = AccessLog::Open(path);
    ASSERT_TRUE(log.ok());
    log.value()->Append(AccessRecord{});
  }
  std::ifstream in(path);
  int count = 0;
  std::string line;
  while (std::getline(in, line)) ++count;
  EXPECT_EQ(count, 2);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- Prometheus --

TEST(LivePrometheus, NameMapping) {
  EXPECT_EQ(PrometheusName("service.completed"), "ibfs_service_completed");
  EXPECT_EQ(PrometheusName("latency.total_ms"), "ibfs_latency_total_ms");
  EXPECT_EQ(PrometheusName("slo.burn_rate_fast"), "ibfs_slo_burn_rate_fast");
}

TEST(LivePrometheus, RendersCountersGaugesHistograms) {
  MetricsRegistry metrics;
  metrics.GetCounter("service.completed")->Increment(5);
  metrics.GetGauge("live.qps")->Set(12.5);
  const std::vector<double> bounds = {1.0, 2.0};
  auto* h = metrics.GetHistogram("latency.total_ms", bounds);
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(99.0);

  const std::string text = RenderPrometheusText(metrics);
  EXPECT_NE(text.find("# TYPE ibfs_service_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ibfs_service_completed_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ibfs_live_qps gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ibfs_live_qps 12.5\n"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf with the total count.
  EXPECT_NE(text.find("ibfs_latency_total_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ibfs_latency_total_ms_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ibfs_latency_total_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ibfs_latency_total_ms_count 3\n"),
            std::string::npos);
}

// ------------------------------------------------------ atomic publish --

TEST(LiveExporterTest, WriteFileAtomicReplacesContent) {
  const std::string path = ::testing::TempDir() + "/live_atomic_test.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(LiveExporterTest, WriteFileAtomicFailsOnBadDirectory) {
  EXPECT_FALSE(
      WriteFileAtomic("/nonexistent-dir-xyz/file.txt", "data").ok());
}

TEST(LiveExporterTest, WriteOncePublishesSnapshotAndProm) {
  MetricsRegistry metrics;
  metrics.GetCounter("service.completed")->Increment(3);
  LiveExporterOptions options;
  options.live_out = ::testing::TempDir() + "/live_snapshot_test.json";
  options.prom_out = ::testing::TempDir() + "/live_prom_test.txt";
  int tick_count = 0;
  LiveExporter exporter(options, &metrics,
                        [&tick_count](double) { ++tick_count; });
  ASSERT_TRUE(exporter.WriteOnce(1.0).ok());
  EXPECT_EQ(tick_count, 1);

  auto doc = ParseJsonFile(options.live_out);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* schema = doc.value().Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value(), "ibfs.live_snapshot");
  EXPECT_NE(doc.value().Find("metrics"), nullptr);

  std::ifstream prom(options.prom_out);
  std::string text((std::istreambuf_iterator<char>(prom)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("ibfs_service_completed_total 3"),
            std::string::npos);
  std::remove(options.live_out.c_str());
  std::remove(options.prom_out.c_str());
}

TEST(LiveExporterTest, StartStopTicksAtLeastOnce) {
  MetricsRegistry metrics;
  LiveExporterOptions options;
  options.interval_s = 0.01;
  options.prom_out = ::testing::TempDir() + "/live_loop_prom_test.txt";
  LiveExporter exporter(options, &metrics);
  exporter.Start();
  EXPECT_TRUE(exporter.running());
  exporter.Stop();  // final tick on stop
  EXPECT_FALSE(exporter.running());
  EXPECT_GE(exporter.ticks(), 1);
  std::ifstream prom(options.prom_out);
  EXPECT_TRUE(prom.good());
  std::remove(options.prom_out.c_str());
}

}  // namespace
}  // namespace ibfs::obs
