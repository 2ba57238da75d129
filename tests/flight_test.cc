// Tests of the flight recorder (obs/flight.h) and the live-telemetry
// plumbing through the service: bounded ring semantics, schema-validated
// dumps, trigger rate limiting, the tracer's per-thread event cap, and an
// end-to-end serve run checking that access-log query ids line up with
// the "ctx" trace-context args on the spans that executed them (the e2e
// test drives the real multi-threaded service).
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "service/service.h"
#include "service/workload.h"
#include "test_util.h"

namespace ibfs::obs {
namespace {

AccessRecord MakeRecord(double ts_s, int64_t query_id) {
  AccessRecord record;
  record.ts_s = ts_s;
  record.query_id = query_id;
  record.source = query_id * 10;
  record.total_ms = 1.0;
  return record;
}

// -------------------------------------------------------------- rings --

TEST(FlightRecorderTest, QueryRingEvictsOldest) {
  FlightRecorder::Options options;
  options.max_queries = 4;
  FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.RecordQuery(MakeRecord(static_cast<double>(i), i));
  }
  EXPECT_EQ(recorder.query_count(), 4u);
  std::ostringstream os;
  recorder.WriteJson(os, "test", 10.0);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* queries = doc.value().Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->array().size(), 4u);
  // The survivors are the four most recent queries, oldest first.
  EXPECT_EQ(queries->array()
                .front()
                .Find("query_id")
                ->number_value(),
            6.0);
  EXPECT_EQ(queries->array().back().Find("query_id")->number_value(), 9.0);
}

TEST(FlightRecorderTest, EventRingEvictsOldest) {
  FlightRecorder::Options options;
  options.max_events = 2;
  FlightRecorder recorder(options);
  recorder.RecordEvent(1.0, "first", "a");
  recorder.RecordEvent(2.0, "second", "b");
  recorder.RecordEvent(3.0, "third", "c");
  EXPECT_EQ(recorder.event_count(), 2u);
  std::ostringstream os;
  recorder.WriteJson(os, "test", 3.0);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok());
  const JsonValue* events = doc.value().Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array().size(), 2u);
  EXPECT_EQ(events->array().front().Find("name")->string_value(), "second");
}

// ------------------------------------------------------- dump + schema --

TEST(FlightRecorderTest, WriteJsonPassesValidator) {
  FlightRecorder recorder(FlightRecorder::Options{});
  recorder.RecordQuery(MakeRecord(1.0, 7));
  recorder.RecordEvent(1.5, "breaker_opened", "device 2");
  std::ostringstream os;
  recorder.WriteJson(os, "slo_alert", 2.0);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Status valid = ValidateFlightRecord(doc.value());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(doc.value().Find("trigger")->string_value(), "slo_alert");
}

TEST(FlightRecorderTest, TriggerWritesValidatedFileAndRateLimits) {
  FlightRecorder::Options options;
  options.dump_path = ::testing::TempDir() + "/flight_trigger_test.json";
  options.min_dump_interval_s = 5.0;
  std::remove(options.dump_path.c_str());
  FlightRecorder recorder(options);
  recorder.RecordQuery(MakeRecord(0.5, 1));

  Status error;
  EXPECT_TRUE(recorder.Trigger("slo_alert", 1.0, &error)) << error.ToString();
  EXPECT_EQ(recorder.dumps(), 1);
  // Within the rate-limit interval further triggers are suppressed.
  EXPECT_FALSE(recorder.Trigger("breaker_open", 2.0));
  EXPECT_EQ(recorder.dumps(), 1);
  // After the interval the next trigger dumps again.
  EXPECT_TRUE(recorder.Trigger("breaker_open", 7.0));
  EXPECT_EQ(recorder.dumps(), 2);

  const Status valid =
      ValidateFile(options.dump_path, ValidateFlightRecord);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  std::remove(options.dump_path.c_str());
}

TEST(FlightRecorderTest, EmptyDumpPathRecordsButNeverWrites) {
  FlightRecorder recorder(FlightRecorder::Options{});
  recorder.RecordQuery(MakeRecord(0.5, 1));
  EXPECT_FALSE(recorder.Trigger("slo_alert", 1.0));
  EXPECT_EQ(recorder.dumps(), 0);
  EXPECT_EQ(recorder.query_count(), 1u);
}

TEST(FlightRecorderTest, ValidatorRejectsWrongSchema) {
  auto doc = ParseJson("{\"schema\":\"ibfs.metrics\",\"schema_version\":1}");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ValidateFlightRecord(doc.value()).ok());
}

// ----------------------------------------------------- tracer ring cap --

TEST(FlightTracerCap, RingKeepsMostRecentEventsAndCountsDrops) {
  Tracer tracer;
  tracer.SetMaxEventsPerThread(8);
  MetricsRegistry metrics;
  tracer.SetDropCounter(metrics.GetCounter("trace.dropped_events"));
  for (int i = 0; i < 20; ++i) {
    tracer.Instant({0, 0}, "e" + std::to_string(i),
                   static_cast<double>(i));
  }
  EXPECT_EQ(tracer.event_count(), 8u);
  EXPECT_EQ(tracer.dropped_events(), 12);
  EXPECT_EQ(metrics.GetCounter("trace.dropped_events")->value(), 12);
  // The ring holds the newest events; the earliest were overwritten.
  std::ostringstream os;
  tracer.WriteJson(os);
  EXPECT_EQ(os.str().find("\"e0\""), std::string::npos);
  EXPECT_NE(os.str().find("\"e19\""), std::string::npos);
}

TEST(FlightTracerCap, UncappedBufferDropsNothing) {
  Tracer tracer;
  for (int i = 0; i < 100; ++i) {
    tracer.Instant({0, 0}, "e", static_cast<double>(i));
  }
  EXPECT_EQ(tracer.event_count(), 100u);
  EXPECT_EQ(tracer.dropped_events(), 0);
}

// -------------------------------------------------------- end to end --

// Drives the real service with every live sink attached and checks the
// joins between them: access-log ids appear in span trace-context, the
// SLO alert fires under an impossible objective, and the triggered
// flight dump passes the schema validator.
TEST(FlightServiceE2E, AccessLogIdsMatchSpanContexts) {
  const graph::Csr graph = ibfs::testing::MakeRmatGraph(8, 8, 42);

  std::ostringstream access_os;
  AccessLog access_log(&access_os);
  SloSpec slo_spec;
  slo_spec.objective_ms = 0.001;  // everything is bad: the alert must fire
  slo_spec.target = 0.99;
  SloTracker slo(slo_spec);
  FlightRecorder::Options flight_options;
  flight_options.dump_path =
      ::testing::TempDir() + "/flight_e2e_dump_test.json";
  std::remove(flight_options.dump_path.c_str());
  FlightRecorder flight(flight_options);
  Tracer tracer;
  MetricsRegistry metrics;

  service::ServiceOptions options;
  options.max_batch = 16;
  options.max_delay_ms = 2.0;
  options.execute_threads = 2;
  options.engine.strategy = Strategy::kBitwise;
  options.engine.grouping = GroupingPolicy::kGroupBy;
  options.engine.group_size = 16;
  options.observer.tracer = &tracer;
  options.observer.metrics = &metrics;
  options.access_log = &access_log;
  options.slo = &slo;
  options.flight = &flight;

  service::WorkloadOptions workload;
  workload.arrival = service::ArrivalProcess::kPoisson;
  workload.qps = 500.0;
  workload.duration_s = 0.2;
  workload.seed = 9;
  auto events = service::GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_GE(events.value().size(), 10u);

  auto svc = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  auto drive = service::DriveWorkload(svc.value().get(), events.value());
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  svc.value()->PublishLiveTelemetry();
  svc.value()->Shutdown();

  // Every query produced an access-log line.
  EXPECT_EQ(access_log.lines(),
            static_cast<int64_t>(events.value().size()));

  // The impossible objective fired the burn-rate alert and the alert
  // triggered a schema-valid flight dump.
  EXPECT_GE(slo.alerts_fired(), 1);
  EXPECT_EQ(metrics.GetGauge("slo.alert_active")->value(), 1.0);
  EXPECT_GE(flight.dumps(), 1);
  const Status flight_valid =
      ValidateFile(flight_options.dump_path, ValidateFlightRecord);
  EXPECT_TRUE(flight_valid.ok()) << flight_valid.ToString();

  // Collect every query id named by a span "ctx" arg ("q3,q7,...").
  std::ostringstream trace_os;
  tracer.WriteJson(trace_os);
  auto trace_doc = ParseJson(trace_os.str());
  ASSERT_TRUE(trace_doc.ok()) << trace_doc.status().ToString();
  std::set<int64_t> ctx_ids;
  const JsonValue* trace_events = trace_doc.value().Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  for (const JsonValue& event : trace_events->array()) {
    const JsonValue* args = event.Find("args");
    if (args == nullptr) continue;
    const JsonValue* ctx = args->Find("ctx");
    if (ctx == nullptr || !ctx->is_string()) continue;
    std::istringstream parts(ctx->string_value());
    std::string part;
    while (std::getline(parts, part, ',')) {
      ASSERT_GT(part.size(), 1u);
      ASSERT_EQ(part[0], 'q');
      ctx_ids.insert(std::stoll(part.substr(1)));
    }
  }
  EXPECT_FALSE(ctx_ids.empty());

  // Every dispatched query (joined a batch, reached a device) must be
  // claimed by at least one span's trace-context. Cached admissions never
  // reach the executor, so they carry no span.
  std::istringstream lines(access_os.str());
  std::string line;
  int dispatched = 0;
  while (std::getline(lines, line)) {
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString() << ": " << line;
    const int64_t query_id =
        static_cast<int64_t>(doc.value().Find("query_id")->number_value());
    const int64_t batch_id =
        static_cast<int64_t>(doc.value().Find("batch_id")->number_value());
    const int64_t attempts =
        static_cast<int64_t>(doc.value().Find("attempts")->number_value());
    const bool cached = doc.value().Find("cached")->bool_value();
    if (cached || batch_id < 0 || attempts < 1) continue;
    EXPECT_TRUE(ctx_ids.count(query_id) == 1)
        << "query " << query_id << " has no span with its ctx";
    ++dispatched;
  }
  EXPECT_GT(dispatched, 0);
  std::remove(flight_options.dump_path.c_str());
}

}  // namespace
}  // namespace ibfs::obs
