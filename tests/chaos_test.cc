// Tests of the fault-injection layer and the resilient execution built on
// it: fault-plan parsing/validation, injector determinism, straggler and
// corruption semantics, the engine's retry loop (depths bit-identical to a
// fault-free run whenever it reports OK), the device router's circuit
// breakers, the service's deadline / shedding / degraded-fallback
// behavior, and the chaos harness plus its resilience-report validator.
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/reference_bfs.h"
#include "core/engine.h"
#include "core/resilient.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "graph/components.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/validate.h"
#include "service/chaos.h"
#include "service/service.h"
#include "service/workload.h"
#include "test_util.h"
#include "util/checksum.h"

namespace ibfs {
namespace {

using ::ibfs::testing::MakeRmatGraph;
using ::ibfs::testing::MakeSmallGraph;
using service::ServiceOptions;

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.strategy = Strategy::kBitwise;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 16;
  options.keep_depths = true;
  return options;
}

// --------------------------------------------------------- plan parsing --

TEST(FaultPlanTest, DisabledByDefault) {
  gpusim::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.ToString(), "");
}

TEST(FaultPlanTest, ParsesFullSpec) {
  auto plan = gpusim::FaultPlan::Parse(
      "seed=7,devices=4,p_fail=0.1,corrupt=0.05,perm=1,straggle=2:8");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().enabled());
  EXPECT_EQ(plan.value().seed, 7u);
  EXPECT_EQ(plan.value().device_count, 4);
  EXPECT_DOUBLE_EQ(plan.value().ForDevice(0).launch_failure_p, 0.1);
  EXPECT_DOUBLE_EQ(plan.value().ForDevice(0).corruption_p, 0.05);
  EXPECT_TRUE(plan.value().ForDevice(1).permanent_failure);
  EXPECT_FALSE(plan.value().ForDevice(0).permanent_failure);
  EXPECT_DOUBLE_EQ(plan.value().ForDevice(2).straggler_multiplier, 8.0);
  EXPECT_DOUBLE_EQ(plan.value().ForDevice(3).straggler_multiplier, 1.0);
  EXPECT_EQ(plan.value().PermanentlyFailedDevices(), std::vector<int>{1});
  EXPECT_DOUBLE_EQ(plan.value().MaxStragglerMultiplier(), 8.0);
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  const std::string spec = "seed=7,devices=4,p_fail=0.1,perm=1,straggle=2:8";
  auto plan = gpusim::FaultPlan::Parse(spec);
  ASSERT_TRUE(plan.ok());
  auto again = gpusim::FaultPlan::Parse(plan.value().ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().ToString(), plan.value().ToString());
  EXPECT_EQ(again.value().device_count, plan.value().device_count);
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(gpusim::FaultPlan::Parse("bogus=1").ok());
  EXPECT_FALSE(gpusim::FaultPlan::Parse("p_fail=notanumber").ok());
  EXPECT_FALSE(gpusim::FaultPlan::Parse("devices=0").ok());
  EXPECT_FALSE(gpusim::FaultPlan::Parse("p_fail=1.5").ok());
  EXPECT_FALSE(gpusim::FaultPlan::Parse("devices=2,perm=5").ok());
  EXPECT_FALSE(gpusim::FaultPlan::Parse("straggle=0.5").ok());
}

TEST(FaultPlanTest, ValidateRejectsBadFields) {
  gpusim::FaultPlan plan;
  plan.device_count = 0;
  EXPECT_FALSE(plan.Validate().ok());
  plan = gpusim::FaultPlan();
  plan.defaults.launch_failure_p = 2.0;
  EXPECT_FALSE(plan.Validate().ok());
  plan = gpusim::FaultPlan();
  plan.defaults.straggler_multiplier = 0.5;
  EXPECT_FALSE(plan.Validate().ok());
  plan = gpusim::FaultPlan();
  plan.per_device[9] = gpusim::DeviceFaults{};  // outside the fleet of 1
  EXPECT_FALSE(plan.Validate().ok());
}

// ---------------------------------------------------------- injector -----

TEST(FaultInjectorTest, DecisionStreamIsDeterministic) {
  auto plan = gpusim::FaultPlan::Parse("seed=11,p_fail=0.5");
  ASSERT_TRUE(plan.ok());
  std::vector<bool> first;
  std::vector<bool> second;
  gpusim::FaultInjector a(plan.value(), 0, 3);
  gpusim::FaultInjector b(plan.value(), 0, 3);
  for (int i = 0; i < 64; ++i) {
    first.push_back(a.OnKernelLaunch().ok());
    second.push_back(b.OnKernelLaunch().ok());
  }
  EXPECT_EQ(first, second);

  // A different attempt salt must draw a different stream.
  gpusim::FaultInjector c(plan.value(), 0, 4);
  std::vector<bool> other;
  for (int i = 0; i < 64; ++i) other.push_back(c.OnKernelLaunch().ok());
  EXPECT_NE(first, other);
}

TEST(FaultInjectorTest, PermanentDeviceAlwaysFails) {
  auto plan = gpusim::FaultPlan::Parse("devices=2,perm=1");
  ASSERT_TRUE(plan.ok());
  gpusim::FaultInjector dead(plan.value(), 1, 0);
  gpusim::FaultInjector alive(plan.value(), 0, 0);
  for (int i = 0; i < 8; ++i) {
    const Status st = dead.OnKernelLaunch();
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(alive.OnKernelLaunch().ok());
  }
}

TEST(FaultInjectorTest, CorruptDepthsFlipsEveryInstance) {
  auto plan = gpusim::FaultPlan::Parse("corrupt=1");
  ASSERT_TRUE(plan.ok());
  gpusim::FaultInjector injector(plan.value(), 0, 0);
  EXPECT_TRUE(injector.ShouldCorruptTransfer());
  std::vector<std::vector<uint8_t>> depths = {{0, 1, 2, 3}, {}, {5, 5}};
  const uint64_t before0 = Fnv1a(depths[0]);
  const uint64_t before2 = Fnv1a(depths[2]);
  injector.CorruptDepths(&depths);
  EXPECT_NE(Fnv1a(depths[0]), before0);
  EXPECT_NE(Fnv1a(depths[2]), before2);
  EXPECT_TRUE(depths[1].empty());
}

TEST(FaultInjectorTest, StragglerStretchesSimulatedTime) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  EngineOptions options = SmallEngineOptions();
  const Engine engine(&graph, options);
  const std::vector<graph::VertexId> group = {0, 1, 2, 3};

  gpusim::Device clean(options.device);
  auto clean_run = engine.ExecuteGroup(group, &clean, obs::Observer());
  ASSERT_TRUE(clean_run.ok());

  auto plan = gpusim::FaultPlan::Parse("straggle=8");
  ASSERT_TRUE(plan.ok());
  gpusim::FaultInjector injector(plan.value(), 0, 0);
  gpusim::Device slow(options.device);
  slow.SetFaultInjector(&injector);
  auto slow_run = engine.ExecuteGroup(group, &slow, obs::Observer());
  ASSERT_TRUE(slow_run.ok());
  EXPECT_TRUE(slow.fault_status().ok());

  EXPECT_GT(clean.elapsed_seconds(), 0.0);
  EXPECT_NEAR(slow.elapsed_seconds(), 8.0 * clean.elapsed_seconds(),
              1e-9 * slow.elapsed_seconds());
}

TEST(FaultInjectorTest, TransientFaultLatchesDeviceStatus) {
  const graph::Csr graph = MakeSmallGraph();
  EngineOptions options = SmallEngineOptions();
  const Engine engine(&graph, options);
  auto plan = gpusim::FaultPlan::Parse("p_fail=1");
  ASSERT_TRUE(plan.ok());
  gpusim::FaultInjector injector(plan.value(), 0, 0);
  gpusim::Device device(options.device);
  device.SetFaultInjector(&injector);
  auto run = engine.ExecuteGroup({{0, 1}}, &device, obs::Observer());
  ASSERT_TRUE(run.ok());  // simulation completes; the fault is latched
  EXPECT_TRUE(device.faulted());
  EXPECT_EQ(device.fault_status().code(), StatusCode::kUnavailable);
  device.ClearFault();
  EXPECT_FALSE(device.faulted());
}

// ------------------------------------------------- resilient execution --

TEST(ResilientEngineTest, RetriedRunMatchesFaultFreeDepthsBitExactly) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  EngineOptions clean_options = SmallEngineOptions();
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 48, 3);

  Engine clean(&graph, clean_options);
  auto clean_run = clean.Run(sources);
  ASSERT_TRUE(clean_run.ok());
  ASSERT_EQ(clean_run.value().retries, 0);
  ASSERT_EQ(clean_run.value().wasted_sim_seconds, 0.0);

  EngineOptions faulty_options = clean_options;
  auto plan = gpusim::FaultPlan::Parse("seed=5,devices=2,p_fail=0.05");
  ASSERT_TRUE(plan.ok());
  faulty_options.faults = plan.value();
  faulty_options.retry.max_attempts = 16;
  faulty_options.retry.initial_backoff_ms = 0.0;
  faulty_options.retry.max_backoff_ms = 0.0;
  Engine faulty(&graph, faulty_options);
  auto faulty_run = faulty.Run(sources);
  ASSERT_TRUE(faulty_run.ok()) << faulty_run.status().ToString();

  // Faults fired and retries recovered them...
  EXPECT_GT(faulty_run.value().transient_faults, 0);
  EXPECT_GT(faulty_run.value().retries, 0);
  EXPECT_GT(faulty_run.value().wasted_sim_seconds, 0.0);
  // ...and the depths are bit-identical to the fault-free run.
  ASSERT_EQ(faulty_run.value().groups.size(),
            clean_run.value().groups.size());
  for (size_t g = 0; g < clean_run.value().groups.size(); ++g) {
    EXPECT_EQ(faulty_run.value().groups[g].depths,
              clean_run.value().groups[g].depths);
  }
}

TEST(ResilientEngineTest, ExhaustedRetriesSurfaceUnavailable) {
  const graph::Csr graph = MakeSmallGraph();
  EngineOptions options = SmallEngineOptions();
  auto plan = gpusim::FaultPlan::Parse("p_fail=1");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  Engine engine(&graph, options);
  auto run = engine.Run({{0, 1, 2}});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(ResilientEngineTest, CorruptionIsDetectedQuarantinedAndRetried) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 24, 3);

  EngineOptions clean_options = SmallEngineOptions();
  Engine clean(&graph, clean_options);
  auto clean_run = clean.Run(sources);
  ASSERT_TRUE(clean_run.ok());

  EngineOptions options = clean_options;
  auto plan = gpusim::FaultPlan::Parse("seed=9,corrupt=0.5");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 16;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  Engine engine(&graph, options);
  auto run = engine.Run(sources);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Corruptions were injected, every one was caught by the transfer
  // checksum, and the payloads that survived are uncorrupted.
  EXPECT_GT(run.value().corruptions_detected, 0);
  for (size_t g = 0; g < clean_run.value().groups.size(); ++g) {
    EXPECT_EQ(run.value().groups[g].depths,
              clean_run.value().groups[g].depths);
  }
}

TEST(ResilientEngineTest, BackoffGrowsAndRespectsCap) {
  RetryPolicy retry;
  retry.initial_backoff_ms = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_ms = 4.0;
  retry.jitter = 0.0;
  EXPECT_DOUBLE_EQ(retry.BackoffMs(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(retry.BackoffMs(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(retry.BackoffMs(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(retry.BackoffMs(0, 5), 4.0);  // capped

  retry.jitter = 0.25;
  const double jittered = retry.BackoffMs(0, 3);
  EXPECT_GE(jittered, 2.0 * 0.75);
  EXPECT_LE(jittered, 2.0 * 1.25);
  // Jitter is seeded: the same (salt, attempt) draws the same value.
  EXPECT_DOUBLE_EQ(retry.BackoffMs(0, 3), jittered);
}

TEST(ResilientEngineTest, RetryPolicyValidatesDistinctly) {
  RetryPolicy retry;
  retry.max_attempts = 0;
  EXPECT_NE(retry.Validate().ToString().find("max_attempts"),
            std::string::npos);
  retry = RetryPolicy();
  retry.backoff_multiplier = 0.5;
  EXPECT_NE(retry.Validate().ToString().find("backoff_multiplier"),
            std::string::npos);
  retry = RetryPolicy();
  retry.jitter = 1.0;
  EXPECT_NE(retry.Validate().ToString().find("jitter"), std::string::npos);
  retry = RetryPolicy();
  retry.initial_backoff_ms = -1.0;
  EXPECT_FALSE(retry.Validate().ok());
}

TEST(ResilientRouterTest, BreakerOpensAfterConsecutiveFailures) {
  DeviceRouter router(2, 2);
  EXPECT_EQ(router.healthy_count(), 2);
  EXPECT_FALSE(router.ReportFailure(0));
  EXPECT_FALSE(router.IsOpen(0));
  // A success in between resets the consecutive count.
  router.ReportSuccess(0);
  EXPECT_FALSE(router.ReportFailure(0));
  EXPECT_TRUE(router.ReportFailure(0));
  EXPECT_TRUE(router.IsOpen(0));
  EXPECT_EQ(router.healthy_count(), 1);
  EXPECT_EQ(router.opened_total(), 1);

  // Acquire only offers the healthy device now.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(router.Acquire(), 1);

  EXPECT_FALSE(router.ReportFailure(1));
  EXPECT_TRUE(router.ReportFailure(1));
  EXPECT_FALSE(router.ReportFailure(1));  // already open, not reopened
  EXPECT_EQ(router.opened_total(), 2);
  EXPECT_EQ(router.healthy_count(), 0);
  EXPECT_EQ(router.Acquire(), DeviceRouter::kNoDevice);
}

// ------------------------------------------------------ service chaos ----

ServiceOptions ChaosServiceOptions() {
  ServiceOptions options;
  options.max_batch = 16;
  options.max_delay_ms = 5.0;
  options.execute_threads = 2;
  options.keep_depths = true;
  options.engine = SmallEngineOptions();
  options.engine.retry.initial_backoff_ms = 0.0;
  options.engine.retry.max_backoff_ms = 0.0;
  return options;
}

TEST(ChaosServiceTest, ValidatesResilienceKnobsWithDistinctMessages) {
  ServiceOptions options = ChaosServiceOptions();
  options.resilience.deadline_ms = -1.0;
  EXPECT_NE(options.Validate().ToString().find("deadline_ms"),
            std::string::npos);
  options = ChaosServiceOptions();
  options.resilience.max_pending = -1;
  EXPECT_NE(options.Validate().ToString().find("max_pending"),
            std::string::npos);
  options = ChaosServiceOptions();
  options.resilience.breaker_threshold = 0;
  EXPECT_NE(options.Validate().ToString().find("breaker_threshold"),
            std::string::npos);
  options = ChaosServiceOptions();
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ChaosServiceTest, FallbackServesCorrectDepthsAndMarksDegraded) {
  const graph::Csr graph = MakeSmallGraph();
  ServiceOptions options = ChaosServiceOptions();
  auto plan = gpusim::FaultPlan::Parse("perm=0");  // the whole fleet of 1
  ASSERT_TRUE(plan.ok());
  options.engine.faults = plan.value();
  options.engine.retry.max_attempts = 2;
  options.resilience.cpu_fallback = true;
  auto service = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(service.ok());
  std::future<service::QueryResult> future =
      service.value()->Submit(0);
  service.value()->Shutdown();
  const service::QueryResult result = future.get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(baselines::DepthsMatchReference(graph, 0, result.depths));
  const auto stats = service.value()->stats();
  EXPECT_GT(stats.fallback_groups, 0);
  EXPECT_GT(stats.degraded, 0);
}

TEST(ChaosServiceTest, FallbackDisabledSurfacesTheFailure) {
  const graph::Csr graph = MakeSmallGraph();
  ServiceOptions options = ChaosServiceOptions();
  auto plan = gpusim::FaultPlan::Parse("perm=0");
  ASSERT_TRUE(plan.ok());
  options.engine.faults = plan.value();
  options.engine.retry.max_attempts = 2;
  options.resilience.cpu_fallback = false;
  auto service = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(service.ok());
  std::future<service::QueryResult> future =
      service.value()->Submit(0);
  service.value()->Shutdown();
  const service::QueryResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(result.degraded);
}

TEST(ChaosServiceTest, DeadlineTripsAsDeadlineExceeded) {
  const graph::Csr graph = MakeSmallGraph();
  ServiceOptions options = ChaosServiceOptions();
  // Any real execution takes longer than a 1-microsecond deadline.
  options.resilience.deadline_ms = 0.001;
  auto service = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(service.ok());
  std::future<service::QueryResult> future =
      service.value()->Submit(0);
  service.value()->Shutdown();
  const service::QueryResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(service.value()->stats().deadline_exceeded, 0);
}

TEST(ChaosServiceTest, GenerousDeadlineStillServesNormally) {
  // Regression: with a deadline armed but nowhere near expiring, the
  // close-time expiry filter must leave the batch's promises intact.
  const graph::Csr graph = MakeSmallGraph();
  ServiceOptions options = ChaosServiceOptions();
  options.resilience.deadline_ms = 60000.0;
  auto service = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(service.ok());
  std::vector<std::future<service::QueryResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.value()->Submit(i));
  }
  service.value()->Shutdown();
  for (auto& future : futures) {
    const service::QueryResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.degraded);
  }
  EXPECT_EQ(service.value()->stats().deadline_exceeded, 0);
}

TEST(ChaosServiceTest, BoundedQueueShedsWithResourceExhausted) {
  const graph::Csr graph = MakeSmallGraph();
  ServiceOptions options = ChaosServiceOptions();
  options.max_batch = 64;          // never size-close during the test
  options.max_delay_ms = 200.0;    // hold the batch open while we submit
  options.resilience.max_pending = 1;
  auto service = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(service.ok());
  std::vector<std::future<service::QueryResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.value()->Submit(0));
  }
  service.value()->Shutdown();
  int64_t ok = 0;
  int64_t shed = 0;
  for (auto& future : futures) {
    const service::QueryResult result = future.get();
    if (result.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(service.value()->stats().shed, shed);
}

TEST(ChaosServiceTest, RunChaosChecksumsMatchFaultFreeBaseline) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  service::ChaosOptions chaos;
  chaos.workload.qps = 400.0;
  chaos.workload.duration_s = 0.2;
  chaos.workload.seed = 7;
  chaos.service = ChaosServiceOptions();
  chaos.service.keep_depths = false;
  auto plan = gpusim::FaultPlan::Parse(
      "seed=7,devices=4,p_fail=0.05,perm=1,straggle=2:8");
  ASSERT_TRUE(plan.ok());
  chaos.service.engine.faults = plan.value();
  chaos.service.engine.retry.max_attempts = 4;

  auto report = service::RunChaos("rmat8", graph, chaos);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().queries, 0);
  EXPECT_GT(report.value().checksums_compared, 0);
  EXPECT_EQ(report.value().checksum_mismatches, 0);
  // With no deadline and the fallback armed, every query completes.
  EXPECT_EQ(report.value().completed, report.value().queries);
  EXPECT_EQ(report.value().failed, 0);
  EXPECT_GT(report.value().transient_faults, 0);
  EXPECT_EQ(report.value().device_count, 4);
  EXPECT_EQ(report.value().fault_seed, 7);
}

TEST(ChaosReportTest, WritesSchemaValidJson) {
  obs::ResilienceReport report;
  report.graph = "test";
  report.strategy = "bitwise";
  report.grouping = "groupby";
  report.fault_spec = "p_fail=0.1";
  report.queries = 10;
  report.completed = 9;
  report.deadline_exceeded = 1;
  report.checksums_compared = 9;
  std::ostringstream os;
  report.WriteJson(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(obs::ValidateResilienceReport(doc.value()).ok())
      << obs::ValidateResilienceReport(doc.value()).ToString();
}

TEST(ChaosReportTest, ValidatorRejectsWrongSchemaAndBadCounts) {
  // A service report is not a resilience report.
  obs::ServiceReport service_report;
  std::ostringstream os;
  service_report.WriteJson(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(obs::ValidateResilienceReport(doc.value()).ok());

  // More mismatches than comparisons is structurally impossible.
  obs::ResilienceReport report;
  report.checksums_compared = 1;
  report.checksum_mismatches = 2;
  std::ostringstream bad;
  report.WriteJson(bad);
  auto bad_doc = obs::ParseJson(bad.str());
  ASSERT_TRUE(bad_doc.ok());
  EXPECT_FALSE(obs::ValidateResilienceReport(bad_doc.value()).ok());

  // Negative recovery counters are rejected.
  obs::ResilienceReport negative;
  negative.retries = -1;
  std::ostringstream neg;
  negative.WriteJson(neg);
  auto neg_doc = obs::ParseJson(neg.str());
  ASSERT_TRUE(neg_doc.ok());
  EXPECT_FALSE(obs::ValidateResilienceReport(neg_doc.value()).ok());
}

TEST(ChaosReportTest, FaultMetricsFlowThroughTheRegistry) {
  const graph::Csr graph = MakeSmallGraph();
  obs::MetricsRegistry metrics;
  EngineOptions options = SmallEngineOptions();
  auto plan = gpusim::FaultPlan::Parse("p_fail=1");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  options.observer.metrics = &metrics;
  Engine engine(&graph, options);
  auto run = engine.Run({{0}});
  ASSERT_FALSE(run.ok());
  EXPECT_GT(metrics.GetCounter("fault.kernel_faults")->value(), 0);
  EXPECT_GT(metrics.GetCounter("fault.failed_attempts")->value(), 0);
  EXPECT_GT(metrics.GetCounter("retry.attempts")->value(), 0);
  EXPECT_GT(metrics.GetCounter("retry.exhausted")->value(), 0);
}

}  // namespace
}  // namespace ibfs
