#include "service/service.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "baselines/reference_bfs.h"
#include "core/group_plan.h"
#include "ibfs/status_array.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs::service {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

const char* CloseReasonName(int reason) {
  switch (reason) {
    case 0:
      return "size";
    case 1:
      return "deadline";
    default:
      return "shutdown";
  }
}

/// Bucket layouts for the service.* latency and size histograms.
std::span<const double> LatencyBoundsMs() {
  static const std::vector<double> bounds =
      obs::PowerOfTwoBounds(0.001, 32);
  return bounds;
}

std::span<const double> BatchSizeBounds() {
  static const std::vector<double> bounds = obs::PowerOfTwoBounds(1, 13);
  return bounds;
}

}  // namespace

Status ServiceOptions::Validate() const {
  if (max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (max_delay_ms < 0.0) {
    return Status::InvalidArgument("max_delay_ms must be non-negative");
  }
  if (execute_threads < 0) {
    return Status::InvalidArgument(
        "execute_threads must be >= 0 (0 = auto)");
  }
  if (resilience.deadline_ms < 0.0) {
    return Status::InvalidArgument(
        "resilience.deadline_ms must be non-negative (0 = no deadline)");
  }
  if (resilience.max_pending < 0) {
    return Status::InvalidArgument(
        "resilience.max_pending must be >= 0 (0 = unbounded)");
  }
  if (resilience.breaker_threshold < 1) {
    return Status::InvalidArgument(
        "resilience.breaker_threshold must be >= 1");
  }
  IBFS_RETURN_NOT_OK(cache.Validate());
  return engine.Validate();
}

void BfsService::Stats::Add(const Stats& other) {
  queries += other.queries;
  completed += other.completed;
  failed += other.failed;
  batches += other.batches;
  groups += other.groups;
  executed_instances += other.executed_instances;
  size_closes += other.size_closes;
  deadline_closes += other.deadline_closes;
  shutdown_closes += other.shutdown_closes;
  shed += other.shed;
  deadline_exceeded += other.deadline_exceeded;
  cache_hits += other.cache_hits;
  rejected += other.rejected;
  degraded += other.degraded;
  retries += other.retries;
  transient_faults += other.transient_faults;
  corruptions_detected += other.corruptions_detected;
  fallback_groups += other.fallback_groups;
  breaker_opened += other.breaker_opened;
  sim_seconds += other.sim_seconds;
  private_fq_sum += other.private_fq_sum;
  jfq_sum += other.jfq_sum;
}

double BfsService::Stats::SharingRatio() const {
  if (jfq_sum == 0 || groups == 0 || executed_instances == 0) return 0.0;
  const double avg_instances = static_cast<double>(executed_instances) /
                               static_cast<double>(groups);
  const double sd = static_cast<double>(private_fq_sum) /
                    static_cast<double>(jfq_sum);
  return sd / avg_instances;
}

double BfsService::Stats::Teps(int64_t edge_count) const {
  if (sim_seconds <= 0.0) return 0.0;
  return static_cast<double>(executed_instances) *
         static_cast<double>(edge_count) / sim_seconds;
}

BfsService::BfsService(const graph::Csr* graph, ServiceOptions options)
    : graph_(graph),
      options_(std::move(options)),
      engine_(graph, options_.engine),
      start_(Clock::now()),
      live_stats_(options_.live_window_s > 0.0 ? options_.live_window_s
                                               : 10.0) {}

void BfsService::RecordCompletion(const QueryResult& result) {
  const double now_s = NowS();
  const bool ok = result.status.ok();
  obs::AccessRecord record;
  record.ts_s = now_s;
  record.query_id = result.query_id;
  record.source = static_cast<int64_t>(result.source);
  record.status = StatusCodeName(result.status.code());
  record.ok = ok;
  record.cached = result.cached;
  record.degraded = result.degraded;
  record.attempts = result.attempts;
  record.batch_id = result.batch_id;
  record.group_index = result.group_index;
  record.queue_ms = result.latency.queue_ms;
  record.batch_ms = result.latency.batch_ms;
  record.execute_ms = result.latency.execute_ms;
  record.total_ms = result.latency.total_ms;
  record.reached = result.reached;

  if (options_.access_log != nullptr) options_.access_log->Append(record);
  if (options_.flight != nullptr) options_.flight->RecordQuery(record);
  live_stats_.RecordQuery(now_s, result.latency.total_ms, ok);
  if (options_.slo != nullptr) {
    const obs::SloTransition transition =
        options_.slo->Record(now_s, result.latency.total_ms, ok);
    HandleSloTransition(transition, now_s);
  }
}

void BfsService::HandleSloTransition(obs::SloTransition transition,
                                     double now_s) {
  if (transition == obs::SloTransition::kNone || options_.slo == nullptr) {
    return;
  }
  const bool fired = transition == obs::SloTransition::kFired;
  const char* name = fired ? "slo_alert_fired" : "slo_alert_cleared";
  const double fast = options_.slo->BurnRateFast(now_s);
  const double slow = options_.slo->BurnRateSlow(now_s);
  options_.slo->PublishTo(options_.observer.metrics, now_s);
  if (options_.observer.tracing()) {
    // SLO transitions land next to cache activity on tid 0 of the service
    // pid (batch tracks start at tid 1).
    options_.observer.tracer->Instant(
        obs::TraceTrack{kServicePid, 0}, name, now_s * 1e6,
        {obs::Arg("class", options_.slo->spec().class_name),
         obs::Arg("burn_fast", fast), obs::Arg("burn_slow", slow)});
  }
  if (options_.flight != nullptr) {
    options_.flight->RecordEvent(
        now_s, name,
        options_.slo->spec().class_name + " burn fast=" +
            std::to_string(fast) + " slow=" + std::to_string(slow));
    if (fired) options_.flight->Trigger("slo_alert", now_s);
  }
}

void BfsService::FireQuarantineTrigger(graph::VertexId source) const {
  if (options_.flight == nullptr) return;
  const double now_s = NowS();
  options_.flight->RecordEvent(
      now_s, "cache_quarantined",
      "quarantined corrupted entry for source " + std::to_string(source));
  options_.flight->Trigger("quarantine", now_s);
}

void BfsService::PublishLiveTelemetry() {
  const double now_s = NowS();
  obs::MetricsRegistry* metrics = options_.observer.metrics;
  live_stats_.PublishTo(metrics, now_s);
  if (options_.slo != nullptr) {
    HandleSloTransition(options_.slo->Evaluate(now_s), now_s);
    options_.slo->PublishTo(metrics, now_s);
  }
  PublishHitRatio();
}

void BfsService::PublishHitRatio() {
  if (lookup_metrics_.hit_ratio == nullptr) return;
  const int64_t hits = lookup_hits_.load(std::memory_order_relaxed);
  const int64_t total =
      hits + lookup_misses_.load(std::memory_order_relaxed);
  lookup_metrics_.hit_ratio->Set(
      total > 0 ? static_cast<double>(hits) / total : 0.0);
}

double BfsService::LiveErrorRatio() const {
  return live_stats_.ErrorRatio(NowS());
}

std::vector<graph::VertexId> BfsService::CachedSources() const {
  if (result_cache_ == nullptr) return {};
  return result_cache_->Sources();
}

std::optional<CachedDepths> BfsService::PeekCache(
    graph::VertexId source) const {
  if (result_cache_ == nullptr) return std::nullopt;
  bool quarantined = false;
  std::optional<CachedDepths> value =
      result_cache_->Peek(source, &quarantined);
  if (quarantined) FireQuarantineTrigger(source);
  return value;
}

bool BfsService::WarmCache(graph::VertexId source, const CachedDepths& value) {
  if (result_cache_ == nullptr) return false;
  if (static_cast<int64_t>(source) >= graph_->vertex_count()) return false;
  // The payload came from another shard: check its answer checksum before
  // the cache seals it (a cold path, so byte-wise FNV-1a is fine here).
  if (Fnv1a(value.depths) != value.checksum) return false;
  result_cache_->Put(source, value);
  return true;
}

bool BfsService::EvictCacheEntry(graph::VertexId source) {
  if (result_cache_ == nullptr) return false;
  return result_cache_->Erase(source);
}

void BfsService::TripBreakersForTest() {
  const int devices = options_.engine.faults.device_count;
  for (int d = 0; d < devices; ++d) {
    for (int i = 0; i < options_.resilience.breaker_threshold; ++i) {
      router_->ReportFailure(d);
    }
  }
}

Result<std::unique_ptr<BfsService>> BfsService::Create(
    const graph::Csr* graph, ServiceOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("service needs a graph");
  }
  // Execution always records depths (the query result) and instance stats
  // (the achieved-sharing measurement); the keep_depths service knob only
  // controls whether each QueryResult retains its copy.
  options.engine.keep_depths = true;
  options.engine.traversal.collect_instance_stats = true;
  IBFS_RETURN_NOT_OK(options.Validate());

  const int threads = options.execute_threads == 0
                          ? ThreadPool::HardwareConcurrency()
                          : options.execute_threads;
  std::unique_ptr<BfsService> svc(new BfsService(graph, std::move(options)));
  if (svc->options_.observer.tracing()) {
    svc->options_.observer.tracer->SetProcessName(kServicePid,
                                                  "service (wall clock)");
  }
  svc->router_ = std::make_unique<DeviceRouter>(
      svc->options_.engine.faults.device_count,
      svc->options_.resilience.breaker_threshold);
  if (svc->options_.cache.enabled) {
    // The fingerprint is computed once here (O(V+E)) and baked into every
    // cache key, so entries surviving a graph swap are detected as stale.
    svc->result_cache_ = std::make_unique<ResultCache>(
        graph->Fingerprint(), svc->options_.engine.strategy,
        svc->options_.cache);
    svc->plan_cache_ = std::make_unique<PlanCache>(
        GroupConfigFingerprint(svc->options_.engine),
        svc->options_.cache.plan_capacity);
    if (svc->options_.observer.tracing()) {
      svc->options_.observer.tracer->SetThreadName(kServicePid, 0, "cache");
    }
    if (obs::MetricsRegistry* metrics = svc->options_.observer.metrics) {
      svc->lookup_metrics_ = {
          .hits = metrics->GetCounter("cache.hits"),
          .misses = metrics->GetCounter("cache.misses"),
          .completed = metrics->GetCounter("service.completed"),
          .total_ms =
              metrics->GetHistogram("service.total_ms", LatencyBoundsMs()),
          .hit_ratio = metrics->GetGauge("cache.hit_ratio")};
    }
  }
  svc->executor_ = std::make_unique<ThreadPool>(threads);
  svc->batcher_ = std::thread([s = svc.get()] { s->BatcherLoop(); });
  return svc;
}

BfsService::~BfsService() { Shutdown(); }

std::future<QueryResult> BfsService::Submit(graph::VertexId source) {
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  auto reject = [&](Status status) {
    QueryResult result;
    result.status = std::move(status);
    result.source = source;
    // Account before completing (the invariant every completion path
    // keeps): a stats() snapshot taken after the future resolves must
    // already count this failure.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.failed;
      ++stats_.rejected;
    }
    promise.set_value(std::move(result));
  };
  // Per-query admission check: a bad source fails its own future instead
  // of poisoning the batch it would have joined.
  if (static_cast<int64_t>(source) >= graph_->vertex_count()) {
    reject(Status::OutOfRange("source vertex outside graph"));
    return future;
  }
  // Cache hits are stripped before admission: the future resolves here,
  // without joining a batch or counting against max_pending. (A shutdown
  // racing the lookup below may still deliver a cached answer — benign:
  // the answer was correct and the client's future resolves either way.)
  if (result_cache_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        reject(Status::FailedPrecondition("service is shut down"));
        return future;
      }
    }
    const auto submitted = Clock::now();
    bool quarantined = false;
    std::optional<CachedDepths> hit =
        result_cache_->Get(source, options_.keep_depths, &quarantined);
    if (hit.has_value()) {
      QueryResult result;
      result.source = source;
      result.cached = true;
      result.depth_checksum = hit->checksum;
      result.reached = hit->reached;
      result.depths = std::move(hit->depths);  // empty unless keep_depths
      {
        std::lock_guard<std::mutex> lock(mu_);
        result.query_id = next_query_id_++;
      }
      result.latency.total_ms = MsBetween(submitted, Clock::now());
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.cache_hits;
        ++stats_.completed;
      }
      lookup_hits_.fetch_add(1, std::memory_order_relaxed);
      if (lookup_metrics_.hits != nullptr) {
        lookup_metrics_.hits->Increment();
        lookup_metrics_.completed->Increment();
        lookup_metrics_.total_ms->Observe(result.latency.total_ms);
      }
      if (options_.observer.tracing()) {
        // Cache activity lands on tid 0 of the service pid (batch tracks
        // start at tid 1), keeping hits visible next to batch spans.
        options_.observer.tracer->Instant(
            obs::TraceTrack{kServicePid, 0}, "cache_hit",
            SinceStartUs(submitted),
            {obs::Arg("source", static_cast<int64_t>(source))});
      }
      PublishHitRatio();
      RecordCompletion(result);
      promise.set_value(std::move(result));
      return future;
    }
    lookup_misses_.fetch_add(1, std::memory_order_relaxed);
    if (lookup_metrics_.misses != nullptr) lookup_metrics_.misses->Increment();
    PublishHitRatio();
    if (options_.observer.tracing()) {
      options_.observer.tracer->Instant(
          obs::TraceTrack{kServicePid, 0}, "cache_miss",
          SinceStartUs(submitted),
          {obs::Arg("source", static_cast<int64_t>(source))});
    }
    // A miss may also have quarantined a corrupted entry in place.
    if (quarantined) FireQuarantineTrigger(source);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) {
      lock.unlock();
      reject(Status::FailedPrecondition("service is shut down"));
      return future;
    }
    // Overload shedding: a bounded admission queue fails fast instead of
    // letting queue_ms grow without bound under sustained overload.
    if (options_.resilience.max_pending > 0 &&
        pending_.size() >=
            static_cast<size_t>(options_.resilience.max_pending)) {
      lock.unlock();
      QueryResult result;
      result.status = Status::ResourceExhausted(
          "admission queue full (max_pending=" +
          std::to_string(options_.resilience.max_pending) + ")");
      result.source = source;
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.shed;
      }
      promise.set_value(std::move(result));
      if (options_.observer.metering()) {
        options_.observer.metrics->GetCounter("shed.queries")->Increment();
      }
      return future;
    }
    PendingQuery query;
    query.promise = std::move(promise);
    query.source = source;
    query.query_id = next_query_id_++;
    query.submitted = Clock::now();
    // Count the admission before the query becomes visible to the batcher
    // (we still hold mu_, so it cannot be batched or completed yet):
    // otherwise a snapshot could see a batch's completions with the
    // admissions that formed it not yet counted. Lock order is always
    // mu_ -> stats_mu_; stats_mu_ is never held across another lock.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.queries;
    }
    pending_.push_back(std::move(query));
  }
  cv_.notify_all();
  if (options_.observer.metering()) {
    options_.observer.metrics->GetCounter("service.queries")->Increment();
  }
  return future;
}

void BfsService::BatcherLoop() {
  const auto delay = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.max_delay_ms));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return shutdown_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (shutdown_) return;
      continue;
    }
    // A batch is open from the oldest pending query; wait until it fills,
    // its deadline passes, or shutdown flushes it.
    const auto deadline = pending_.front().submitted + delay;
    while (!shutdown_ &&
           pending_.size() < static_cast<size_t>(options_.max_batch)) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    const size_t take = std::min(
        pending_.size(), static_cast<size_t>(options_.max_batch));
    std::vector<PendingQuery> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    const CloseReason reason =
        take >= static_cast<size_t>(options_.max_batch)
            ? CloseReason::kSize
            : (shutdown_ ? CloseReason::kShutdown : CloseReason::kDeadline);
    lock.unlock();
    DispatchBatch(std::move(batch), reason);
    lock.lock();
  }
}

void BfsService::DispatchBatch(std::vector<PendingQuery> batch,
                               CloseReason reason) {
  const auto closed = Clock::now();
  const int64_t batch_id = next_batch_id_++;
  const obs::TraceTrack track{kServicePid, 1 + static_cast<int>(batch_id)};
  obs::Tracer* tracer = options_.observer.tracer;
  obs::MetricsRegistry* metrics = options_.observer.metrics;

  if (tracer != nullptr) {
    tracer->SetThreadName(kServicePid, track.tid,
                          "batch " + std::to_string(batch_id));
    const double queue_start_us = SinceStartUs(batch.front().submitted);
    tracer->CompleteSpan(
        track, "queue", "service", queue_start_us,
        SinceStartUs(closed) - queue_start_us,
        {obs::Arg("queries", static_cast<int64_t>(batch.size())),
         obs::Arg("close", CloseReasonName(static_cast<int>(reason)))});
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches;
    switch (reason) {
      case CloseReason::kSize:
        ++stats_.size_closes;
        break;
      case CloseReason::kDeadline:
        ++stats_.deadline_closes;
        break;
      case CloseReason::kShutdown:
        ++stats_.shutdown_closes;
        break;
    }
  }
  if (metrics != nullptr) {
    metrics->GetCounter("service.batches")->Increment();
    metrics->GetHistogram("service.batch_size", BatchSizeBounds())
        ->Observe(static_cast<double>(batch.size()));
    switch (reason) {
      case CloseReason::kSize:
        metrics->GetCounter("service.size_closes")->Increment();
        break;
      case CloseReason::kDeadline:
        metrics->GetCounter("service.deadline_closes")->Increment();
        break;
      case CloseReason::kShutdown:
        metrics->GetCounter("service.shutdown_closes")->Increment();
        break;
    }
  }

  // Per-query deadlines: anything that expired while queued completes with
  // DeadlineExceeded now instead of occupying device time.
  if (options_.resilience.deadline_ms > 0.0) {
    std::vector<PendingQuery> live;
    live.reserve(batch.size());
    std::vector<std::pair<PendingQuery, QueryResult>> expired;
    for (PendingQuery& query : batch) {
      const double waited_ms = MsBetween(query.submitted, closed);
      if (waited_ms > options_.resilience.deadline_ms) {
        QueryResult result;
        result.status = Status::DeadlineExceeded(
            "query deadline expired in admission queue");
        result.source = query.source;
        result.query_id = query.query_id;
        result.batch_id = batch_id;
        result.latency.queue_ms = waited_ms;
        result.latency.total_ms = waited_ms;
        expired.emplace_back(std::move(query), std::move(result));
      } else {
        live.push_back(std::move(query));
      }
    }
    batch = std::move(live);
    if (!expired.empty()) {
      const int64_t count = static_cast<int64_t>(expired.size());
      // Account before completing (stats() snapshot invariant).
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.deadline_exceeded += count;
      }
      if (metrics != nullptr) {
        metrics->GetCounter("shed.deadline_exceeded")->Increment(count);
      }
      if (tracer != nullptr) {
        tracer->Instant(track, "deadline_expired", SinceStartUs(closed),
                        {obs::Arg("queries", count)});
      }
      for (auto& [query, result] : expired) {
        RecordCompletion(result);
        query.promise.set_value(std::move(result));
      }
    }
    if (batch.empty()) return;
  }

  // Two clients asking for the same source share one execution: the batch
  // dedups to unique sources (the grouper's precondition) and fans each
  // group member's depths out to every query that wanted it.
  struct BatchState {
    std::vector<PendingQuery> queries;
    std::unordered_map<graph::VertexId, std::vector<size_t>> by_source;
    std::vector<std::vector<graph::VertexId>> groups;
    Clock::time_point closed;
    int64_t batch_id = 0;
  };
  auto state = std::make_shared<BatchState>();
  state->closed = closed;
  state->batch_id = batch_id;
  std::vector<graph::VertexId> unique;
  unique.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto& indices = state->by_source[batch[i].source];
    if (indices.empty()) unique.push_back(batch[i].source);
    indices.push_back(i);
  }
  state->queries = std::move(batch);

  // Plan memoization: a batch whose deduplicated source set matches an
  // earlier batch reuses its GroupBy output instead of redoing the hub
  // search. Keyed on the *sorted* set — arrival order must not matter —
  // and the grouping it returns partitions exactly this set, so fan-out
  // below is unaffected.
  std::vector<graph::VertexId> sorted_unique;
  std::optional<GroupPlan> memoized;
  if (plan_cache_ != nullptr) {
    sorted_unique = unique;
    std::sort(sorted_unique.begin(), sorted_unique.end());
    memoized = plan_cache_->Get(sorted_unique);
    if (metrics != nullptr) {
      metrics->GetCounter(memoized.has_value() ? "cache.plan_hits"
                                               : "cache.plan_misses")
          ->Increment();
    }
  }
  Result<GroupPlan> plan =
      memoized.has_value()
          ? Result<GroupPlan>(std::move(*memoized))
          : GroupSources(*graph_, unique, options_.engine,
                         DuplicatePolicy::kReject);
  if (plan.ok() && plan_cache_ != nullptr && !memoized.has_value()) {
    plan_cache_->Put(sorted_unique, plan.value());
  }
  if (!plan.ok()) {
    // Account before completing (stats() snapshot invariant).
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.failed += static_cast<int64_t>(state->queries.size());
    }
    for (PendingQuery& query : state->queries) {
      QueryResult result;
      result.status = plan.status();
      result.source = query.source;
      result.query_id = query.query_id;
      result.batch_id = batch_id;
      result.latency.queue_ms = MsBetween(query.submitted, closed);
      result.latency.total_ms = MsBetween(query.submitted, Clock::now());
      RecordCompletion(result);
      query.promise.set_value(std::move(result));
    }
    return;
  }
  state->groups = std::move(plan.value().grouping.groups);
  if (tracer != nullptr) {
    tracer->CompleteSpan(
        track, "group", "service", SinceStartUs(closed),
        SinceStartUs(Clock::now()) - SinceStartUs(closed),
        {obs::Arg("sources", static_cast<int64_t>(unique.size())),
         obs::Arg("groups", static_cast<int64_t>(state->groups.size()))});
  }

  for (size_t g = 0; g < state->groups.size(); ++g) {
    executor_->Submit([this, state, g, track] {
      const std::vector<graph::VertexId>& group = state->groups[g];
      const auto exec_start = Clock::now();
      // Trace-context: the ids of every query this group answers, joined
      // as "q12,q40,...". Execution spans (engine group spans, gpusim
      // kernel spans, retry instants) attach it as a "ctx" arg so a span
      // in the trace joins back to its access-log lines.
      std::string ctx;
      for (graph::VertexId source : group) {
        for (size_t qi : state->by_source.at(source)) {
          if (!ctx.empty()) ctx += ',';
          ctx += 'q';
          ctx += std::to_string(state->queries[qi].query_id);
        }
      }
      // Execution meters into the shared registry. Kernel spans carry
      // simulated timestamps, which must not land on the service's
      // wall-clock batch tracks — so when tracing is on, each execution
      // gets its own simulated-time track on the serving device's pid
      // (consistent with the engine's pid = device index model).
      obs::Observer exec_observer;
      exec_observer.metrics = options_.observer.metrics;
      exec_observer.context = ctx;
      obs::MetricsRegistry* metrics = options_.observer.metrics;

      // Resilient execution: route to a healthy simulated device (circuit
      // breakers skip devices the injected faults have killed), retry per
      // engine.retry with the transfer checksum quarantining corrupted
      // payloads, and finally degrade to the CPU reference path if the
      // fleet cannot serve the group at all.
      const uint64_t salt =
          static_cast<uint64_t>(state->batch_id) * 1000ULL +
          static_cast<uint64_t>(g);
      const int device_id = router_->Acquire();
      ResilientOutcome outcome;
      bool breaker_opened = false;
      if (device_id != DeviceRouter::kNoDevice) {
        if (options_.observer.tracing()) {
          const int exec_tid =
              1 + next_exec_track_.fetch_add(1, std::memory_order_relaxed);
          exec_observer.tracer = options_.observer.tracer;
          exec_observer.track = {device_id, exec_tid};
          exec_observer.tracer->SetThreadName(
              device_id, exec_tid,
              "serve batch " + std::to_string(state->batch_id) + " group " +
                  std::to_string(g));
        }
        outcome = ExecuteGroupResilient(engine_, group, device_id, salt,
                                        exec_observer);
        if (outcome.status.ok()) {
          router_->ReportSuccess(device_id);
        } else {
          breaker_opened = router_->ReportFailure(device_id);
          if (breaker_opened && metrics != nullptr) {
            metrics->GetCounter("fault.breaker_opened")->Increment();
          }
        }
      } else {
        outcome.status =
            Status::Unavailable("all device circuit breakers are open");
      }
      bool degraded = false;
      if (!outcome.status.ok() && options_.resilience.cpu_fallback) {
        // Graceful degradation: the sequential CPU reference BFS produces
        // the same (unique) depths a healthy device would have — only the
        // performance contract is degraded, not correctness.
        degraded = true;
        GroupResult fallback;
        fallback.depths.reserve(group.size());
        for (graph::VertexId source : group) {
          fallback.depths.push_back(baselines::ReferenceDepthsU8(
              *graph_, source, options_.engine.traversal.max_level));
        }
        outcome.result = std::move(fallback);
        outcome.status = Status::OK();
        if (metrics != nullptr) {
          metrics->GetCounter("retry.fallbacks")->Increment();
        }
      }
      const auto exec_end = Clock::now();

      obs::Tracer* task_tracer = options_.observer.tracer;
      if (task_tracer != nullptr) {
        const double start_us = SinceStartUs(exec_start);
        task_tracer->CompleteSpan(
            track, "execute group " + std::to_string(g), "service",
            start_us, SinceStartUs(exec_end) - start_us,
            {obs::Arg("instances", static_cast<int64_t>(group.size())),
             obs::Arg("sim_ms", outcome.sim_seconds() * 1e3),
             obs::Arg("device", static_cast<int64_t>(device_id)),
             obs::Arg("attempts", static_cast<int64_t>(outcome.attempts)),
             obs::Arg("degraded", degraded), obs::Arg("ctx", ctx)});
        if (breaker_opened) {
          task_tracer->Instant(
              track, "breaker_opened", SinceStartUs(exec_end),
              {obs::Arg("device", static_cast<int64_t>(device_id))});
        }
        if (degraded) {
          task_tracer->Instant(
              track, "cpu_fallback", SinceStartUs(exec_end),
              {obs::Arg("group", static_cast<int64_t>(g))});
        }
      }
      if (options_.flight != nullptr) {
        const double exec_end_s = NowS();
        if (breaker_opened) {
          options_.flight->RecordEvent(
              exec_end_s, "breaker_opened",
              "device " + std::to_string(device_id));
          options_.flight->Trigger("breaker_open", exec_end_s);
        }
        if (degraded) {
          options_.flight->RecordEvent(
              exec_end_s, "cpu_fallback",
              "batch " + std::to_string(state->batch_id) + " group " +
                  std::to_string(g));
        }
      }

      const bool deadline_armed = options_.resilience.deadline_ms > 0.0;
      int64_t completed = 0;
      int64_t failed = 0;
      int64_t expired = 0;
      std::vector<std::pair<size_t, QueryResult>> ready;
      // One checksum/reached pass over the group's depth vectors, shared by
      // every query that asked for a source and by its cache entry.
      std::vector<Fnv1aCounted> digests(group.size());
      if (outcome.status.ok()) {
        IBFS_CHECK(outcome.result.depths.size() == group.size());
        Fnv1aEach(outcome.result.depths, kUnvisitedDepth, digests);
      }
      for (size_t j = 0; j < group.size(); ++j) {
        const uint64_t depth_checksum = digests[j].checksum;
        const int64_t reached = digests[j].counted;
        if (outcome.status.ok()) {
          const std::vector<uint8_t>& depths = outcome.result.depths[j];
          if (result_cache_ != nullptr) {
            // Degraded (CPU-fallback) answers are cached too: their depths
            // are correct, and the cache stores answers, not contracts.
            result_cache_->Put(group[j], depths, depth_checksum, reached);
            if (metrics != nullptr) {
              metrics->GetCounter("cache.insertions")->Increment();
            }
          }
        }
        const auto it = state->by_source.find(group[j]);
        IBFS_CHECK(it != state->by_source.end());
        for (size_t qi : it->second) {
          const PendingQuery& query = state->queries[qi];
          QueryResult result;
          result.source = query.source;
          result.query_id = query.query_id;
          result.batch_id = state->batch_id;
          result.group_index = static_cast<int>(g);
          result.degraded = degraded;
          result.attempts = outcome.attempts;
          result.latency.queue_ms =
              MsBetween(query.submitted, state->closed);
          result.latency.batch_ms = MsBetween(state->closed, exec_start);
          result.latency.execute_ms = MsBetween(exec_start, exec_end);
          result.latency.total_ms = MsBetween(query.submitted, exec_end);
          if (deadline_armed &&
              result.latency.total_ms > options_.resilience.deadline_ms) {
            result.status = Status::DeadlineExceeded(
                "query deadline expired during execution");
            ++expired;
          } else if (!outcome.status.ok()) {
            result.status = outcome.status;
            ++failed;
          } else {
            result.depth_checksum = depth_checksum;
            result.reached = reached;
            if (options_.keep_depths) {
              result.depths = outcome.result.depths[j];
            }
            ++completed;
          }
          if (options_.observer.metering()) {
            obs::MetricsRegistry* m = options_.observer.metrics;
            m->GetHistogram("service.queue_ms", LatencyBoundsMs())
                ->Observe(result.latency.queue_ms);
            m->GetHistogram("service.execute_ms", LatencyBoundsMs())
                ->Observe(result.latency.execute_ms);
            m->GetHistogram("service.total_ms", LatencyBoundsMs())
                ->Observe(result.latency.total_ms);
            m->GetCounter(result.status.ok() ? "service.completed"
                                             : "service.failed")
                ->Increment();
          }
          ready.emplace_back(qi, std::move(result));
        }
      }
      if (expired > 0 && metrics != nullptr) {
        metrics->GetCounter("shed.deadline_exceeded")->Increment(expired);
      }
      if (result_cache_ != nullptr && metrics != nullptr) {
        metrics->GetGauge("cache.bytes_resident")
            ->Set(static_cast<double>(result_cache_->bytes_resident()));
      }

      // Account before completing, so once a client observes its future
      // ready, its group's contribution to stats() is already visible.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.groups;
        stats_.executed_instances += static_cast<int64_t>(group.size());
        stats_.sim_seconds += outcome.sim_seconds();
        stats_.completed += completed;
        stats_.failed += failed;
        stats_.deadline_exceeded += expired;
        if (outcome.attempts > 0) stats_.retries += outcome.attempts - 1;
        stats_.transient_faults += outcome.transient_faults;
        stats_.corruptions_detected += outcome.corruptions_detected;
        if (degraded) {
          ++stats_.fallback_groups;
          stats_.degraded += completed;
        }
        if (breaker_opened) ++stats_.breaker_opened;
        if (outcome.status.ok() && !degraded) {
          for (const LevelTrace& level : outcome.result.trace.levels) {
            stats_.private_fq_sum += level.private_fq_sum;
            stats_.jfq_sum += level.jfq_size;
          }
        }
      }
      for (auto& [qi, result] : ready) {
        RecordCompletion(result);
        state->queries[qi].promise.set_value(std::move(result));
      }
    });
  }
}

void BfsService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (joined_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  batcher_.join();
  // The pool destructor completes every dispatched group task, so all
  // futures are resolved once this returns.
  executor_.reset();
  joined_ = true;
}

void BfsService::InvalidateCache() {
  if (result_cache_ != nullptr) result_cache_->Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (options_.observer.metering()) {
    options_.observer.metrics->GetCounter("cache.invalidations")->Increment();
    if (result_cache_ != nullptr) {
      options_.observer.metrics->GetGauge("cache.bytes_resident")->Set(0.0);
    }
  }
}

CacheStats BfsService::cache_stats() const {
  CacheStats combined;
  if (result_cache_ != nullptr) combined = result_cache_->stats();
  if (plan_cache_ != nullptr) {
    const CacheStats plan = plan_cache_->stats();
    combined.plan_hits = plan.plan_hits;
    combined.plan_misses = plan.plan_misses;
    combined.plan_insertions = plan.plan_insertions;
    combined.plan_evictions = plan.plan_evictions;
  }
  return combined;
}

BfsService::Stats BfsService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace ibfs::service
