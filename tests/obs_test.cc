#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/observe.h"
#include "gen/benchmarks.h"
#include "graph/components.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "util/logging.h"

namespace ibfs::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, WriterProducesParseableDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("name");
  w.String("a \"quoted\" value\nwith newline");
  w.Key("count");
  w.Int(-42);
  w.Key("big");
  w.Uint(uint64_t{1} << 63);
  w.Key("ratio");
  w.Double(0.125);
  w.Key("flag");
  w.Bool(true);
  w.Key("nothing");
  w.Null();
  w.Key("items");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.BeginObject();
  w.Key("nested");
  w.Bool(false);
  w.EndObject();
  w.EndArray();
  w.EndObject();

  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("name")->string_value(),
            "a \"quoted\" value\nwith newline");
  EXPECT_EQ(doc.Find("count")->number_value(), -42.0);
  EXPECT_EQ(doc.Find("ratio")->number_value(), 0.125);
  EXPECT_TRUE(doc.Find("flag")->bool_value());
  EXPECT_TRUE(doc.Find("nothing")->is_null());
  ASSERT_TRUE(doc.Find("items")->is_array());
  ASSERT_EQ(doc.Find("items")->array().size(), 3u);
  EXPECT_FALSE(doc.Find("items")->array()[2].Find("nested")->bool_value());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

TEST(Json, ParserHandlesEscapesAndNumbers) {
  auto parsed = ParseJson("{\"s\":\"tab\\tu\\u0041\",\"n\":-1.5e2}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("s")->string_value(), "tab\tuA");
  EXPECT_EQ(parsed.value().Find("n")->number_value(), -150.0);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("engine.levels");
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5);
  // Create-on-first-use returns the same handle.
  EXPECT_EQ(registry.GetCounter("engine.levels"), c);
  EXPECT_EQ(registry.FindCounter("engine.levels"), c);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);

  Gauge* g = registry.GetGauge("engine.teps");
  g->Set(2.5);
  g->Set(3.5);
  EXPECT_EQ(g->value(), 3.5);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Metrics, HistogramBucketPlacement) {
  MetricsRegistry registry;
  const auto bounds = PowerOfTwoBounds(1.0, 4);  // 1, 2, 4, 8
  ASSERT_EQ(bounds.size(), 4u);
  Histogram* h = registry.GetHistogram("ibfs.jfq_size", bounds);
  h->Observe(1.0);   // bucket 0 (v <= 1)
  h->Observe(2.0);   // bucket 1
  h->Observe(3.0);   // bucket 2
  h->Observe(8.0);   // bucket 3
  h->Observe(100.0); // overflow
  EXPECT_EQ(h->count(), 5);
  EXPECT_EQ(h->sum(), 114.0);
  EXPECT_EQ(h->min(), 1.0);
  EXPECT_EQ(h->max(), 100.0);
  ASSERT_EQ(h->bucket_counts().size(), 5u);
  EXPECT_EQ(h->bucket_counts()[0], 1);
  EXPECT_EQ(h->bucket_counts()[1], 1);
  EXPECT_EQ(h->bucket_counts()[2], 1);
  EXPECT_EQ(h->bucket_counts()[3], 1);
  EXPECT_EQ(h->bucket_counts()[4], 1);
}

TEST(Metrics, PercentileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("empty", PowerOfTwoBounds(1.0, 4));
  EXPECT_EQ(h->Percentile(0.0), 0.0);
  EXPECT_EQ(h->Percentile(0.5), 0.0);
  EXPECT_EQ(h->Percentile(1.0), 0.0);
}

TEST(Metrics, PercentileInterpolatesWithinBucket) {
  // Bounds {1, 2, 4, 8}; 4 samples all land in the (2, 4] bucket, so the
  // bucket's span is clamped to [min, max] = [2.5, 4.0] and the rank is
  // interpolated linearly across it.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", PowerOfTwoBounds(1.0, 4));
  h->Observe(2.5);
  h->Observe(3.0);
  h->Observe(3.5);
  h->Observe(4.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 4.0);
  // rank 2 of 4 -> halfway through the only occupied bucket.
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 2.5 + 0.5 * (4.0 - 2.5));
  EXPECT_DOUBLE_EQ(h->Percentile(0.25), 2.5 + 0.25 * (4.0 - 2.5));
}

TEST(Metrics, PercentileWalksCumulativeCounts) {
  // 90 samples in bucket (<= 1], 10 in (4, 8]: p50 must sit in the first
  // bucket, p99 in the second, and the estimates must stay within the
  // observed [min, max] range.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("skew", PowerOfTwoBounds(1.0, 4));
  for (int i = 0; i < 90; ++i) h->Observe(1.0);
  for (int i = 0; i < 10; ++i) h->Observe(8.0);
  EXPECT_LE(h->Percentile(0.5), 1.0);
  EXPECT_GT(h->Percentile(0.95), 1.0);
  EXPECT_LE(h->Percentile(0.99), 8.0);
  EXPECT_GE(h->Percentile(0.99), 4.0);
  // Monotone in p.
  EXPECT_LE(h->Percentile(0.50), h->Percentile(0.95));
  EXPECT_LE(h->Percentile(0.95), h->Percentile(0.99));
}

TEST(Metrics, PercentileOverflowBucketClampsToMax) {
  // All mass beyond the last bound: the overflow bucket's upper edge is
  // the observed max, so no percentile can exceed it.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("over", PowerOfTwoBounds(1.0, 2));
  h->Observe(100.0);
  h->Observe(200.0);
  h->Observe(300.0);
  EXPECT_LE(h->Percentile(0.99), 300.0);
  EXPECT_GE(h->Percentile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 300.0);
  // Out-of-range p is clamped, not UB.
  EXPECT_DOUBLE_EQ(h->Percentile(2.0), 300.0);
  EXPECT_DOUBLE_EQ(h->Percentile(-1.0), h->Percentile(0.0));
}

TEST(Metrics, PercentileSaturatedOverflowBucketIsExactlyMax) {
  // Every sample in the overflow bucket (bounds {1, 2}): its upper edge is
  // the observed max and its lower edge clamps to the observed min, so the
  // whole percentile curve interpolates [min, max] exactly — p=1.0 must be
  // the max itself, not an extrapolation past the last bound.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("sat", PowerOfTwoBounds(1.0, 2));
  h->Observe(10.0);
  h->Observe(20.0);
  h->Observe(30.0);
  h->Observe(40.0);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 10.0);
  // rank p*4 of 4 across the clamped [10, 40] span.
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 10.0 + 0.5 * 30.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.75), 10.0 + 0.75 * 30.0);
}

TEST(Metrics, PercentileOfSingleSampleIsTheSampleAtEveryP) {
  // One observation: min == max == the sample, so every percentile —
  // including the boundary p values — must return it exactly.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("one", PowerOfTwoBounds(1.0, 4));
  h->Observe(3.0);
  for (double p : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h->Percentile(p), 3.0) << "p=" << p;
  }
}

TEST(Metrics, PercentileSampleExactlyOnBucketBoundStaysInLowerBucket) {
  // Buckets are right-inclusive — bucket i covers (bounds[i-1], bounds[i]]
  // — so a sample exactly on a bound counts in the bucket it bounds from
  // above, and a single such sample reads back exactly.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("edge", PowerOfTwoBounds(1.0, 4));
  h->Observe(4.0);  // exactly bounds[2] -> bucket (2, 4]
  ASSERT_EQ(h->bucket_counts()[2], 1);
  EXPECT_EQ(h->bucket_counts()[3], 0);
  for (double p : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h->Percentile(p), 4.0) << "p=" << p;
  }
  // Two on-bound samples in different buckets: the interpolated median
  // never leaves the observed [min, max] range.
  h->Observe(2.0);  // exactly bounds[1] -> bucket (1, 2]
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 4.0);
  EXPECT_GE(h->Percentile(0.5), 2.0);
  EXPECT_LE(h->Percentile(0.5), 4.0);
}

TEST(Metrics, BucketPercentileSingleOccupiedBucketSpansMinToMax) {
  // Direct pin of the free estimator that windowed histograms share with
  // Histogram::Percentile. One occupied interior bucket: the curve must
  // interpolate exactly [min, max] with p=0 the min and p=100% the max.
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 4);  // {1,2,4,8}
  std::vector<int64_t> counts(bounds.size() + 1, 0);
  counts[2] = 5;  // all mass in (2, 4]
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 5, 2.5, 3.5, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 5, 2.5, 3.5, 1.0), 3.5);
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 5, 2.5, 3.5, 0.5),
                   2.5 + 0.5 * (3.5 - 2.5));
  // A count of one collapses the span: every p returns the sample.
  std::vector<int64_t> one(bounds.size() + 1, 0);
  one[2] = 1;
  for (double p : {0.0, 0.3, 1.0}) {
    EXPECT_DOUBLE_EQ(BucketPercentile(bounds, one, 1, 3.0, 3.0, p), 3.0);
  }
}

TEST(Metrics, BucketPercentileBoundaryPsAndEmptyInput) {
  const std::vector<double> bounds = PowerOfTwoBounds(1.0, 3);  // {1,2,4}
  const std::vector<int64_t> empty(bounds.size() + 1, 0);
  EXPECT_EQ(BucketPercentile(bounds, empty, 0, 0.0, 0.0, 0.5), 0.0);
  // Mass split across first bucket and overflow: p=0 pins the observed
  // min, p=100% the observed max, out-of-range p is clamped not UB, and
  // the curve stays inside [min, max] everywhere between.
  std::vector<int64_t> counts(bounds.size() + 1, 0);
  counts[0] = 3;
  counts[bounds.size()] = 3;
  const double min = 0.5;
  const double max = 9.0;
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 6, min, max, 0.0), min);
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 6, min, max, 1.0), max);
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 6, min, max, -0.5), min);
  EXPECT_DOUBLE_EQ(BucketPercentile(bounds, counts, 6, min, max, 2.0), max);
  for (double p : {0.1, 0.5, 0.9}) {
    const double v = BucketPercentile(bounds, counts, 6, min, max, p);
    EXPECT_GE(v, min) << "p=" << p;
    EXPECT_LE(v, max) << "p=" << p;
  }
}

TEST(Metrics, SnapshotRoundTripsThroughValidator) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(7);
  registry.GetGauge("a.gauge")->Set(1.25);
  Histogram* h = registry.GetHistogram("a.hist", PowerOfTwoBounds(1.0, 3));
  h->Observe(2.0);
  h->Observe(16.0);

  auto parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateMetrics(parsed.value()).ok());
  const JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("a.count")->number_value(), 7.0);
}

// ------------------------------------------------------------- tracing --

TEST(Trace, SpanNestingBalancesPerTrack) {
  Tracer tracer;
  const TraceTrack track{0, 0};
  tracer.BeginSpan(track, "outer", "host", 0.0);
  tracer.BeginSpan(track, "inner", "host", 10.0);
  EXPECT_EQ(tracer.OpenSpans(track), 2u);
  tracer.EndSpan(track, 20.0, {Arg("k", int64_t{1})});
  tracer.EndSpan(track, 30.0);
  EXPECT_EQ(tracer.OpenSpans(track), 0u);
  // Unmatched End is dropped, not fatal.
  tracer.EndSpan(track, 40.0);
  EXPECT_EQ(tracer.event_count(), 2u);
}

TEST(Trace, WriteJsonIsValidChromeTrace) {
  Tracer tracer;
  tracer.SetProcessName(0, "GPU 0 (simulated time)");
  tracer.SetThreadName(0, 0, "traversal");
  tracer.CompleteSpan({0, 0}, "level 0", "level", 0.0, 5.0,
                      {Arg("direction", "top_down"),
                       Arg("jfq_size", int64_t{12}), Arg("ratio", 0.5),
                       Arg("finished", false)});
  tracer.Instant({0, 0}, "direction_switch", 5.0,
                 {Arg("to", "bottom_up")});
  tracer.CounterValue({0, 0}, "jfq_size", 0.0, 12.0);

  std::ostringstream os;
  tracer.WriteJson(os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateTrace(parsed.value(), /*require_spans=*/true).ok());

  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 metadata + 1 span + 1 instant + 1 counter.
  EXPECT_EQ(events->array().size(), 5u);
  bool saw_span = false;
  for (const JsonValue& e : events->array()) {
    if (e.Find("ph")->string_value() != "X") continue;
    saw_span = true;
    EXPECT_EQ(e.Find("name")->string_value(), "level 0");
    EXPECT_EQ(e.Find("cat")->string_value(), "level");
    EXPECT_EQ(e.Find("dur")->number_value(), 5.0);
    const JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->Find("direction")->string_value(), "top_down");
    EXPECT_EQ(args->Find("jfq_size")->number_value(), 12.0);
    EXPECT_FALSE(args->Find("finished")->bool_value());
  }
  EXPECT_TRUE(saw_span);
}

TEST(Trace, ValidatorRejectsNonTraceDocuments) {
  auto not_object = ParseJson("[1,2]");
  ASSERT_TRUE(not_object.ok());
  EXPECT_FALSE(ValidateTrace(not_object.value()).ok());

  auto no_events = ParseJson("{\"foo\":1}");
  ASSERT_TRUE(no_events.ok());
  EXPECT_FALSE(ValidateTrace(no_events.value()).ok());

  // Empty trace is structurally fine unless spans are required.
  auto empty = ParseJson("{\"traceEvents\":[]}");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(ValidateTrace(empty.value()).ok());
  EXPECT_FALSE(ValidateTrace(empty.value(), /*require_spans=*/true).ok());
}

// ---------------------------------------------------------- run report --

RunReport SampleReport() {
  RunReport report;
  report.graph = "FB";
  report.vertex_count = 1024;
  report.edge_count = 8192;
  report.strategy = "bitwise";
  report.grouping = "groupby";
  report.instances = 64;
  report.group_size = 32;
  report.sim_seconds = 0.25;
  report.wall_seconds = 0.01;
  report.teps = 2e6;
  report.sharing_ratio = 0.5;
  report.rule_matched = 48;

  ReportGroup group;
  group.index = 0;
  group.instance_count = 32;
  group.sim_seconds = 0.125;
  group.sharing_degree = 16.0;
  group.sharing_ratio = 0.5;
  group.hub = 7;
  group.sources = {1, 2, 3};
  ReportLevel level;
  level.level = 0;
  level.bottom_up = false;
  level.jfq_size = 3;
  level.private_fq_sum = 3;
  level.edges_inspected = 24;
  level.new_visits = 21;
  group.levels.push_back(level);
  report.groups.push_back(group);

  ReportPhase phase;
  phase.name = "td_inspect";
  phase.seconds = 0.2;
  phase.launches = 4;
  phase.load_transactions = 100;
  phase.store_transactions = 50;
  report.phases.push_back(phase);
  report.totals = phase;
  report.totals.name = "TOTAL";
  return report;
}

TEST(Report, RoundTripsThroughValidator) {
  const RunReport report = SampleReport();
  std::ostringstream os;
  report.WriteJson(os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateRunReport(parsed.value()).ok())
      << ValidateRunReport(parsed.value()).ToString();

  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("schema")->string_value(), "ibfs.run_report");
  EXPECT_EQ(doc.Find("workload")->Find("graph")->string_value(), "FB");
  EXPECT_EQ(doc.Find("workload")->Find("instances")->number_value(), 64.0);
  EXPECT_EQ(doc.Find("results")->Find("sharing_ratio")->number_value(), 0.5);
  ASSERT_EQ(doc.Find("groups")->array().size(), 1u);
  const JsonValue& group = doc.Find("groups")->array()[0];
  EXPECT_EQ(group.Find("hub")->number_value(), 7.0);
  ASSERT_EQ(group.Find("levels")->array().size(), 1u);
  EXPECT_EQ(group.Find("levels")->array()[0].Find("direction")->string_value(),
            "top_down");
}

TEST(Report, EmbedsMetricsWhenGiven) {
  MetricsRegistry registry;
  registry.GetCounter("engine.levels")->Increment(3);
  const RunReport report = SampleReport();
  std::ostringstream os;
  report.WriteJson(os, &registry);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateRunReport(parsed.value()).ok());
  const JsonValue* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(ValidateMetrics(*metrics).ok());
  EXPECT_EQ(metrics->Find("counters")->Find("engine.levels")->number_value(),
            3.0);
}

TEST(Report, ClusterSectionValidates) {
  RunReport report = SampleReport();
  report.has_cluster = true;
  report.cluster.device_count = 4;
  report.cluster.policy = "round-robin";
  report.cluster.makespan_seconds = 0.08;
  report.cluster.speedup = 3.1;
  report.cluster.teps = 8e6;
  report.cluster.device_seconds = {0.08, 0.07, 0.06, 0.04};
  std::ostringstream os;
  report.WriteJson(os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateRunReport(parsed.value()).ok())
      << ValidateRunReport(parsed.value()).ToString();
  EXPECT_EQ(parsed.value().Find("cluster")->Find("device_count")
                ->number_value(),
            4.0);
}

// ------------------------------------------------------ service report --

ServiceReport SampleServiceReport() {
  ServiceReport report;
  report.graph = "PK";
  report.vertex_count = 4096;
  report.edge_count = 65536;
  report.strategy = "bitwise";
  report.grouping = "groupby";
  report.arrival = "poisson";
  report.offered_qps = 500.0;
  report.duration_seconds = 2.0;
  report.queries = 1000;
  report.max_batch = 64;
  report.max_delay_ms = 2.0;
  report.execute_threads = 4;
  report.batches = 20;
  report.groups = 40;
  report.size_closes = 12;
  report.deadline_closes = 7;
  report.shutdown_closes = 1;
  report.mean_batch_size = 50.0;
  report.completed = 998;
  report.failed = 2;
  report.achieved_qps = 490.0;
  report.wall_seconds = 2.04;
  report.sim_seconds = 0.5;
  report.teps = 1e8;
  report.sharing_ratio = 0.45;
  report.oracle_sharing_ratio = 0.5;
  report.sharing_fraction = 0.9;
  report.queue_ms = {0.5, 1.5, 1.9, 0.8, 2.2};
  report.execute_ms = {1.0, 2.0, 2.5, 1.2, 3.0};
  report.total_ms = {1.5, 3.5, 4.4, 2.0, 5.2};
  return report;
}

TEST(ServiceReportJson, RoundTripsThroughValidator) {
  const ServiceReport report = SampleServiceReport();
  std::ostringstream os;
  report.WriteJson(os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateServiceReport(parsed.value()).ok())
      << ValidateServiceReport(parsed.value()).ToString();

  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("schema")->string_value(), "ibfs.service_report");
  EXPECT_EQ(doc.Find("workload")->Find("arrival")->string_value(),
            "poisson");
  EXPECT_EQ(doc.Find("service")->Find("max_batch")->number_value(), 64.0);
  EXPECT_EQ(doc.Find("results")->Find("sharing_fraction")->number_value(),
            0.9);
  const JsonValue* total = doc.Find("latency_ms")->Find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->Find("p50")->number_value(), 1.5);
  EXPECT_EQ(total->Find("p99")->number_value(), 4.4);
}

TEST(ServiceReportJson, EmbedsMetricsWhenGiven) {
  MetricsRegistry registry;
  registry.GetCounter("service.queries")->Increment(7);
  const ServiceReport report = SampleServiceReport();
  std::ostringstream os;
  report.WriteJson(os, &registry);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateServiceReport(parsed.value()).ok());
  const JsonValue* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(ValidateMetrics(*metrics).ok());
}

TEST(ServiceReportJson, ValidatorRejectsBrokenDocuments) {
  // Wrong schema string.
  auto wrong = ParseJson("{\"schema\":\"ibfs.run_report\",\"version\":1}");
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(ValidateServiceReport(wrong.value()).ok());

  // Structurally valid document with out-of-order percentiles must fail.
  ServiceReport report = SampleServiceReport();
  report.total_ms.p50 = 9.0;  // > p95
  std::ostringstream os;
  report.WriteJson(os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(ValidateServiceReport(parsed.value()).ok());

  // Missing sections.
  auto bare = ParseJson(
      "{\"schema\":\"ibfs.service_report\",\"version\":1}");
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(ValidateServiceReport(bare.value()).ok());
}

// ------------------------------------------------------ writer goldens --
//
// Every writer's exact output for fully populated documents, so a change
// to how reports are serialized cannot move a byte unnoticed. The values
// exercise every JSON kind the writers emit: negative and unsigned
// integers beyond int64, non-integral doubles, both directions, both
// bools, empty and escaped strings.

RunReport GoldenRunReport() {
  RunReport report;
  report.graph = "LJ \"scaled\"";
  report.vertex_count = 4847571;
  report.edge_count = 68993773;
  report.strategy = "bitwise";
  report.grouping = "groupby";
  report.instances = 256;
  report.group_size = 128;
  report.sim_seconds = 0.012345678901234;
  report.wall_seconds = 1.5;
  report.teps = 3.25e10;
  report.sharing_ratio = 0.4375;
  report.sharing_ratio_top_down = 0.125;
  report.sharing_ratio_bottom_up = 0.8;
  report.rule_matched = 236;
  for (int g = 0; g < 2; ++g) {
    ReportGroup group;
    group.index = g;
    group.instance_count = 128;
    group.sim_seconds = 0.006 + g * 1e-4;
    group.sharing_degree = 17.5 - g;
    group.sharing_ratio = 0.25 * (g + 1);
    group.hub = g == 0 ? 42 : -1;
    group.sources = {int64_t{7} + g, 11, 4847570};
    for (int l = 0; l < 2; ++l) {
      ReportLevel level;
      level.level = l;
      level.bottom_up = l == 1;
      level.jfq_size = 3 + l;
      level.private_fq_sum = 384 * (l + 1);
      level.edges_inspected = int64_t{1} << (33 + l);
      level.new_visits = 1000 - g;
      group.levels.push_back(level);
    }
    report.groups.push_back(group);
  }
  ReportPhase phase;
  phase.name = "td_inspect";
  phase.seconds = 0.0025;
  phase.launches = 12;
  phase.load_transactions = 18446744073709551615ULL;
  phase.store_transactions = 9223372036854775808ULL;
  phase.load_requests = 400;
  phase.store_requests = 90;
  phase.load_transactions_per_request = 2.375;
  phase.atomic_ops = 77;
  phase.shared_bytes = 4096;
  report.phases.push_back(phase);
  phase.name = "bu_inspect";
  phase.seconds = 0.0075;
  phase.launches = 3;
  report.phases.push_back(phase);
  report.totals = phase;
  report.totals.name = "TOTAL";
  report.totals.seconds = 0.01;
  report.has_cluster = true;
  report.cluster.device_count = 2;
  report.cluster.policy = "lpt";
  report.cluster.makespan_seconds = 0.0061;
  report.cluster.speedup = 1.97;
  report.cluster.teps = 6.4e10;
  report.cluster.device_seconds = {0.0061, 0.006};
  report.has_comm = true;
  report.comm.partitions = 2;
  report.comm.schedule = "butterfly";
  report.comm.link_gbps = 12.5;
  report.comm.link_us = 1.25;
  report.comm.compute_seconds = 0.01;
  report.comm.comm_seconds = 0.0023;
  report.comm.bytes_on_wire = 1234567;
  report.comm.rounds = 9;
  report.comm.supersteps = 9;
  report.comm.edge_imbalance = 1.0625;
  report.comm.partition_vertices = {2423785, 2423786};
  report.comm.partition_edges = {34496886, 34496887};
  report.comm.device_seconds = {0.0123, 0.0121};
  return report;
}

ServiceReport GoldenServiceReport() {
  ServiceReport report = SampleServiceReport();
  report.cache_enabled = true;
  report.cache_hits = 300;
  report.cache_misses = 700;
  report.cache_insertions = 650;
  report.cache_evictions = 20;
  report.cache_quarantined = 1;
  report.cache_entries = 629;
  report.cache_bytes_resident = 8388608;
  report.cache_hit_ratio = 0.3;
  report.plan_hits = 5;
  report.plan_misses = 15;
  return report;
}

ResilienceReport GoldenResilienceReport() {
  ResilienceReport report;
  report.graph = "PK";
  report.vertex_count = 4096;
  report.edge_count = 65536;
  report.strategy = "bitwise";
  report.grouping = "groupby";
  report.queries = 400;
  report.offered_qps = 200.0;
  report.duration_seconds = 2.0;
  report.fault_spec = "seed=7,devices=4,p_fail=0.1,perm=1,straggle=2:8";
  report.device_count = 4;
  report.fault_seed = 7;
  report.max_attempts = 3;
  report.deadline_ms = 12.5;
  report.max_pending = 256;
  report.cpu_fallback = true;
  report.completed = 390;
  report.failed = 4;
  report.deadline_exceeded = 3;
  report.shed = 3;
  report.degraded = 11;
  report.retries = 40;
  report.transient_faults = 38;
  report.corruptions_detected = 2;
  report.breaker_opened = 1;
  report.fallback_groups = 6;
  report.wall_seconds = 2.0625;
  report.checksums_compared = 390;
  report.checksum_mismatches = 0;
  return report;
}

FleetReport GoldenFleetReport() {
  FleetReport report;
  report.graph = "RD";
  report.vertex_count = 8192;
  report.edge_count = 131072;
  report.strategy = "joint";
  report.grouping = "random";
  report.shards = 2;
  report.vnodes = 128;
  report.ring_seed = 2016;
  report.arrival = "bursty";
  report.offered_qps = 800.0;
  report.duration_seconds = 1.5;
  report.queries = 1200;
  report.multi_source = 8;
  report.multi_queries = 150;
  report.killed_shard = -1;
  report.joined_shards = 1;
  report.replication = 2;
  report.shard_joins = 1;
  report.warmup_entries = 33;
  report.replica_mismatches = 0;
  report.replica_cache_writes = 71;
  report.recoveries = 1;
  for (int s = 0; s < 2; ++s) {
    FleetReportShard row;
    row.shard = s;
    row.health = s == 0 ? "healthy" : "degraded";
    row.weight = 1 + s;
    row.routed = 600 + s;
    row.queries = 600 - s;
    row.completed = 598 - s;
    row.failed = 2;
    row.degraded = s;
    row.cache_hits = 100 * s;
    row.batches = 40;
    row.groups = 80;
    row.sim_seconds = 0.03125 * (s + 1);
    report.shard_rows.push_back(row);
  }
  report.completed = 1195;
  report.failed = 5;
  report.achieved_qps = 797.3333333333334;
  report.wall_seconds = 1.505;
  report.imbalance = 1.0016;
  report.failover_reroutes = 0;
  report.fallback_answers = 0;
  report.healthy = 1;
  report.degraded = 1;
  report.down = 0;
  report.checksum = 0xcbf29ce484222325ULL;
  report.unanswered = 0;
  report.checksums_compared = 1195;
  report.checksum_mismatches = 0;
  report.total_ms = {2.5, 7.75, 9.0, 3.1, 14.2};
  return report;
}

// A registry holding one metric of each kind.
void FillGoldenRegistry(MetricsRegistry* registry) {
  registry->GetCounter("service.queries")->Increment(1200);
  registry->GetGauge("fleet.imbalance")->Set(1.0016);
  const double bounds[] = {1.0, 4.0};
  Histogram* latency = registry->GetHistogram("service.total_ms", bounds);
  latency->Observe(0.5);
  latency->Observe(2.5);
  latency->Observe(9.0);
}

AccessRecord GoldenAccessRecord() {
  AccessRecord record;
  record.ts_s = 12.75;
  record.query_id = 41;
  record.source = 1234;
  record.status = "DeadlineExceeded";
  record.ok = false;
  record.cached = false;
  record.degraded = true;
  record.attempts = 2;
  record.batch_id = 9;
  record.group_index = 1;
  record.queue_ms = 0.25;
  record.batch_ms = 1.5;
  record.execute_ms = 3.125;
  record.total_ms = 4.875;
  record.reached = 4095;
  return record;
}

template <typename Report>
std::string Written(const Report& report, const MetricsRegistry* metrics) {
  std::ostringstream os;
  report.WriteJson(os, metrics);
  return os.str();
}

#include "report_goldens.inc"

TEST(ReportGolden, RunReportBytesArePinned) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  EXPECT_EQ(Written(GoldenRunReport(), nullptr), kRunReportGolden);
  EXPECT_EQ(Written(GoldenRunReport(), &registry),
            kRunReportWithMetricsGolden);
}

TEST(ReportGolden, ServiceReportBytesArePinned) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  EXPECT_EQ(Written(GoldenServiceReport(), nullptr), kServiceReportGolden);
  EXPECT_EQ(Written(GoldenServiceReport(), &registry),
            kServiceReportWithMetricsGolden);
}

TEST(ReportGolden, ResilienceReportBytesArePinned) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  EXPECT_EQ(Written(GoldenResilienceReport(), nullptr),
            kResilienceReportGolden);
  EXPECT_EQ(Written(GoldenResilienceReport(), &registry),
            kResilienceReportWithMetricsGolden);
}

TEST(ReportGolden, FleetReportBytesArePinned) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  EXPECT_EQ(Written(GoldenFleetReport(), nullptr), kFleetReportGolden);
  EXPECT_EQ(Written(GoldenFleetReport(), &registry),
            kFleetReportWithMetricsGolden);
}

TEST(ReportGolden, AccessRecordLineIsPinned) {
  std::ostringstream os;
  GoldenAccessRecord().WriteJson(os);
  EXPECT_EQ(os.str(), kAccessRecordGolden);
}

// A two-query, two-event flight-recorder dump.
std::string GoldenFlightDump() {
  FlightRecorder recorder(FlightRecorder::Options{});
  recorder.RecordQuery(GoldenAccessRecord());
  AccessRecord ok;
  ok.ts_s = 13.0;
  ok.query_id = 42;
  ok.source = 7;
  ok.cached = true;
  ok.total_ms = 0.0625;
  recorder.RecordQuery(ok);
  recorder.RecordEvent(12.5, "breaker_opened", "device 2");
  recorder.RecordEvent(12.8, "slo_alert_fired", "");
  std::ostringstream os;
  recorder.WriteJson(os, "slo_alert", 13.5);
  return os.str();
}

TEST(ReportGolden, FlightRecordDumpIsPinned) {
  EXPECT_EQ(GoldenFlightDump(), kFlightRecordGolden);
}

// -------------------------------------------------------- schema drift --
//
// Every member a writer emits must be one its validator checks: deleting
// it, or giving it a value of another JSON kind, has to make the document
// invalid. Only the optional sections may go missing. The embedded
// metrics snapshot is checked as a whole; its own members belong to
// ValidateMetrics.

// One step into a parsed document: an object key, or an array index when
// `key` is empty.
struct Step {
  std::string key;
  size_t index = 0;
};
using Path = std::vector<Step>;

std::string PathName(const Path& path) {
  std::string name;
  for (const Step& step : path) {
    if (!name.empty()) name += '.';
    name += step.key.empty() ? std::to_string(step.index) : step.key;
  }
  return name;
}

// Every member and array element below `node`, parents before children.
void CollectPaths(const JsonValue& node, Path* prefix,
                  std::vector<Path>* out) {
  auto visit = [&](const JsonValue& child, Step step) {
    prefix->push_back(std::move(step));
    out->push_back(*prefix);
    if (PathName(*prefix) != "metrics") CollectPaths(child, prefix, out);
    prefix->pop_back();
  };
  if (node.is_object()) {
    for (const auto& [key, child] : node.object()) visit(child, {key});
  } else if (node.is_array()) {
    for (size_t i = 0; i < node.array().size(); ++i) {
      visit(node.array()[i], {"", i});
    }
  }
}

const JsonValue& At(const JsonValue& node, const Path& path) {
  const JsonValue* at = &node;
  for (const Step& step : path) {
    at = step.key.empty() ? &at->array()[step.index] : at->Find(step.key);
  }
  return *at;
}

// A copy of `node` with the value at `path` replaced by `replacement`, or
// deleted when `replacement` is null.
JsonValue Edited(const JsonValue& node, const Path& path,
                 const JsonValue* replacement, size_t depth = 0) {
  const Step& step = path[depth];
  const bool last = depth + 1 == path.size();
  if (step.key.empty()) {
    std::vector<JsonValue> items = node.array();
    if (!last) {
      items[step.index] =
          Edited(items[step.index], path, replacement, depth + 1);
    } else if (replacement != nullptr) {
      items[step.index] = *replacement;
    } else {
      items.erase(items.begin() + static_cast<ptrdiff_t>(step.index));
    }
    return JsonValue::Array(std::move(items));
  }
  std::map<std::string, JsonValue> members = node.object();
  if (!last) {
    members[step.key] =
        Edited(members.at(step.key), path, replacement, depth + 1);
  } else if (replacement != nullptr) {
    members[step.key] = *replacement;
  } else {
    members.erase(step.key);
  }
  return JsonValue::Object(std::move(members));
}

using Validator = Status (*)(const JsonValue&);

void ExpectEveryMemberChecked(const std::string& written,
                              Validator validate,
                              const std::set<std::string>& optional) {
  auto parsed = ParseJson(written);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(validate(doc).ok()) << validate(doc).ToString();
  std::vector<Path> paths;
  Path prefix;
  CollectPaths(doc, &prefix, &paths);
  for (const Path& path : paths) {
    const std::string name = PathName(path);
    const JsonValue other = At(doc, path).is_number()
                                ? JsonValue::String("0")
                                : JsonValue::Number(0.0);
    EXPECT_FALSE(validate(Edited(doc, path, &other)).ok())
        << name << " accepted a value of another kind";
    if (path.back().key.empty()) continue;  // array lengths are free
    const bool may_go = optional.count(name) > 0;
    EXPECT_EQ(validate(Edited(doc, path, nullptr)).ok(), may_go)
        << name << (may_go ? " is optional" : " may be deleted");
  }
}

TEST(ObsSchemaDrift, EveryRunReportMemberIsChecked) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  ExpectEveryMemberChecked(Written(GoldenRunReport(), &registry),
                           ValidateRunReport, {"cluster", "comm", "metrics"});
}

TEST(ObsSchemaDrift, EveryServiceReportMemberIsChecked) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  ExpectEveryMemberChecked(Written(GoldenServiceReport(), &registry),
                           ValidateServiceReport, {"metrics"});
}

TEST(ObsSchemaDrift, EveryResilienceReportMemberIsChecked) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  ExpectEveryMemberChecked(Written(GoldenResilienceReport(), &registry),
                           ValidateResilienceReport, {"metrics"});
}

TEST(ObsSchemaDrift, EveryFleetReportMemberIsChecked) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  ExpectEveryMemberChecked(Written(GoldenFleetReport(), &registry),
                           ValidateFleetReport, {"metrics"});
}

TEST(ObsSchemaDrift, EveryFlightRecordMemberIsChecked) {
  ExpectEveryMemberChecked(GoldenFlightDump(), ValidateFlightRecord, {});
}

// Members a later schema version added stay optional in documents that
// declare the earlier version.
TEST(ObsSchemaDrift, VersionOneDocumentsWithoutLaterMembersValidate) {
  const JsonValue one = JsonValue::Number(1.0);
  const Path version = {{"schema_version"}};

  auto service = ParseJson(Written(GoldenServiceReport(), nullptr));
  ASSERT_TRUE(service.ok());
  JsonValue service_v1 = Edited(service.value(), version, &one);
  service_v1 = Edited(service_v1, {{"cache"}}, nullptr);
  const Status service_status = ValidateServiceReport(service_v1);
  EXPECT_TRUE(service_status.ok()) << service_status.ToString();

  auto fleet = ParseJson(Written(GoldenFleetReport(), nullptr));
  ASSERT_TRUE(fleet.ok());
  JsonValue fleet_v1 = Edited(fleet.value(), version, &one);
  fleet_v1 = Edited(fleet_v1, {{"elasticity"}}, nullptr);
  fleet_v1 = Edited(fleet_v1, {{"workload"}, {"joined_shards"}}, nullptr);
  for (size_t row = 0; row < 2; ++row) {
    fleet_v1 =
        Edited(fleet_v1, {{"shards_detail"}, {"", row}, {"weight"}}, nullptr);
  }
  const Status fleet_status = ValidateFleetReport(fleet_v1);
  EXPECT_TRUE(fleet_status.ok()) << fleet_status.ToString();
}

// Members a later schema version dropped are ignored in documents that
// still carry them: a v2 fleet report with its hedging and rebalancing
// counters validates.
TEST(ObsSchemaDrift, VersionTwoFleetReportStillValidates) {
  auto fleet_v2 = ParseJson(kFleetReportV2Golden);
  ASSERT_TRUE(fleet_v2.ok()) << fleet_v2.status().ToString();
  const Status status = ValidateFleetReport(fleet_v2.value());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ------------------------------------------------ engine integration --

class ObsEngineTest : public ::testing::Test {
 protected:
  static constexpr int kInstances = 64;

  graph::Csr MakeGraph() {
    auto result = gen::GenerateBenchmark(gen::BenchmarkId::kPK, 0);
    IBFS_CHECK(result.ok());
    return std::move(result).value();
  }
};

TEST_F(ObsEngineTest, InstrumentedRunEmitsSpansPerLevelAndValidates) {
  const graph::Csr graph = MakeGraph();
  const auto sources = graph::SampleConnectedSources(graph, kInstances, 1);
  for (const Strategy strategy :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    SCOPED_TRACE(StrategyName(strategy));
    Tracer tracer;
    MetricsRegistry metrics;
    EngineOptions options;
    options.strategy = strategy;
    options.grouping = GroupingPolicy::kGroupBy;
    options.group_size = 32;
    options.keep_depths = false;
    options.observer.tracer = &tracer;
    options.observer.metrics = &metrics;

    Engine engine(&graph, options);
    auto result = engine.Run(sources);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const EngineResult& res = result.value();
    EXPECT_GT(res.wall_seconds, 0.0);

    // One "level" span per traversal level, plus group spans, kernel
    // spans, and the host-side grouping span. A level is a group level for
    // naive, joint and bitwise; sequential runs its instances one after
    // another, so it emits a span per level of each instance.
    int64_t total_levels = 0;
    if (strategy == Strategy::kSequential) {
      for (const graph::VertexId& source : sources) {
        gpusim::Device device;
        auto single =
            RunGroup(Strategy::kSequential, graph, {&source, 1}, {}, &device);
        ASSERT_TRUE(single.ok());
        total_levels +=
            static_cast<int64_t>(single.value().trace.levels.size());
      }
    } else {
      for (const GroupResult& g : res.groups) {
        total_levels += static_cast<int64_t>(g.trace.levels.size());
      }
    }
    ASSERT_GT(total_levels, 0);

    std::ostringstream os;
    tracer.WriteJson(os);
    auto parsed = ParseJson(os.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(ValidateTrace(parsed.value(), /*require_spans=*/true).ok());

    int64_t level_spans = 0;
    int64_t group_spans = 0;
    int64_t kernel_spans = 0;
    // A kernel span folds the overlapping launches of one phase (naive
    // runs one kernel per instance); its "launches" arg counts them.
    int64_t kernel_launches = 0;
    int64_t host_spans = 0;
    for (const JsonValue& e : parsed.value().Find("traceEvents")->array()) {
      const JsonValue* cat = e.Find("cat");
      if (cat == nullptr || e.Find("ph")->string_value() != "X") continue;
      if (cat->string_value() == "level") ++level_spans;
      if (cat->string_value() == "group") ++group_spans;
      if (cat->string_value() == "kernel") {
        ++kernel_spans;
        kernel_launches += static_cast<int64_t>(
            e.Find("args")->Find("launches")->number_value());
      }
      if (cat->string_value() == "host") ++host_spans;
    }
    EXPECT_EQ(level_spans, total_levels);
    EXPECT_EQ(group_spans, static_cast<int64_t>(res.groups.size()));
    EXPECT_GT(kernel_spans, 0);
    EXPECT_GE(host_spans, 1);  // the grouping phase

    // Metrics agree with the trace.
    const Counter* levels = metrics.FindCounter("engine.levels");
    ASSERT_NE(levels, nullptr);
    EXPECT_EQ(levels->value(), total_levels);
    EXPECT_NE(metrics.FindCounter("engine.direction_switches"), nullptr);
    EXPECT_NE(metrics.FindCounter("gpusim.kernel_launches"), nullptr);
    EXPECT_EQ(metrics.FindCounter("gpusim.kernel_launches")->value(),
              kernel_launches);
  }
}

TEST_F(ObsEngineTest, BuildRunReportMatchesEngineResult) {
  const graph::Csr graph = MakeGraph();
  EngineOptions options;
  options.strategy = Strategy::kBitwise;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 32;
  options.keep_depths = false;
  const auto sources = graph::SampleConnectedSources(graph, kInstances, 1);
  Engine engine(&graph, options);
  auto result = engine.Run(sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineResult& res = result.value();

  const RunReport report =
      BuildRunReport("PK", graph, options, kInstances, res);
  EXPECT_EQ(report.graph, "PK");
  EXPECT_EQ(report.strategy, "bitwise");
  EXPECT_EQ(report.grouping, "groupby");
  EXPECT_EQ(report.instances, kInstances);
  EXPECT_EQ(report.groups.size(), res.groups.size());
  EXPECT_DOUBLE_EQ(report.sim_seconds, res.sim_seconds);
  EXPECT_DOUBLE_EQ(report.sharing_ratio, res.SharingRatio());
  EXPECT_DOUBLE_EQ(report.teps, res.teps);
  EXPECT_EQ(report.rule_matched, res.rule_matched);
  // Totals row matches the device counters.
  EXPECT_EQ(report.totals.load_transactions,
            res.totals.mem.load_transactions);
  EXPECT_EQ(report.totals.store_transactions,
            res.totals.mem.store_transactions);
  EXPECT_FALSE(report.phases.empty());

  std::ostringstream os;
  report.WriteJson(os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateRunReport(parsed.value()).ok())
      << ValidateRunReport(parsed.value()).ToString();
}

// ------------------------------------------------------------- logging --

TEST(Logging, ParseLogLevelAcceptsNamesAndNumbers) {
  using internal_logging::ParseLogLevel;
  EXPECT_EQ(ParseLogLevel("info"), LogSeverity::kInfo);
  EXPECT_EQ(ParseLogLevel("WARNING"), LogSeverity::kWarning);
  EXPECT_EQ(ParseLogLevel("warn"), LogSeverity::kWarning);
  EXPECT_EQ(ParseLogLevel("error"), LogSeverity::kError);
  EXPECT_EQ(ParseLogLevel("fatal"), LogSeverity::kFatal);
  EXPECT_EQ(ParseLogLevel("2"), LogSeverity::kError);
  EXPECT_EQ(ParseLogLevel("bogus"), LogSeverity::kInfo);
}

}  // namespace
}  // namespace ibfs::obs
