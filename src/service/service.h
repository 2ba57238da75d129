#ifndef IBFS_SERVICE_SERVICE_H_
#define IBFS_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "core/resilient.h"
#include "graph/csr.h"
#include "obs/flight.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ibfs::service {

/// Online BFS query serving: clients submit single-source BFS queries to a
/// thread-safe admission queue and receive futures; a dynamic batcher
/// closes a batch when `max_batch` queries are pending or the oldest one
/// has waited `max_delay_ms` (whichever first), plans the batch through
/// the shared GroupSources/GroupBy path, and executes the resulting groups
/// asynchronously on a host thread pool — the dynamic-batching tradeoff
/// inference servers make, applied to the paper's GroupBy rules. See
/// docs/SERVING.md.

/// Reserved trace pid for the service's wall-clock tracks. Each closed
/// batch gets its own track (tid = batch id + 1) carrying its
/// queue -> group -> execute spans, so chrome://tracing shows the latency
/// anatomy per batch.
inline constexpr int kServicePid = 2000;

/// Failure-handling knobs of one BfsService. Execution-side fault
/// injection and retry policy live on EngineOptions (faults / retry);
/// these govern what the service does around them. See docs/RESILIENCE.md.
struct ResilienceOptions {
  /// Per-query completion deadline in host milliseconds since submit
  /// (0 = no deadline). An expired query completes with DeadlineExceeded —
  /// at batch close if it expired while queued, or at fan-out if its
  /// group's execution finished too late.
  double deadline_ms = 0.0;
  /// Admission-queue bound: Submit sheds with ResourceExhausted once this
  /// many queries are pending (0 = unbounded).
  int max_pending = 0;
  /// Consecutive failures on one simulated device that open its circuit
  /// breaker (the router stops offering the device).
  int breaker_threshold = 3;
  /// When retries are exhausted or every breaker is open, serve the group
  /// from the sequential CPU reference BFS and mark its queries
  /// `degraded` — correct depths, no GPU sharing. Off = fail the queries.
  bool cpu_fallback = true;
};

/// Configuration of one BfsService.
struct ServiceOptions {
  /// Close the open batch once this many queries are pending.
  int max_batch = 64;
  /// ... or once the oldest pending query has waited this long (0 = close
  /// as soon as the batcher wakes, i.e. effectively batch-of-arrivals).
  double max_delay_ms = 2.0;
  /// Workers executing closed batches' groups concurrently (0 = one per
  /// hardware thread). Per-query depths are bit-identical at any setting;
  /// only latencies change.
  int execute_threads = 1;
  /// Return each query's full depth vector in its QueryResult. Costs
  /// |V| bytes per query; benches that only need latency/checksum turn it
  /// off (the depth checksum is always computed).
  bool keep_depths = true;
  /// Strategy, grouping policy, group size, device spec, and GroupBy
  /// parameters for batch execution. `engine.threads` is unused here
  /// (execute_threads governs service parallelism);
  /// `engine.traversal.collect_instance_stats` is forced on so the
  /// achieved sharing ratio is measurable.
  EngineOptions engine;
  /// Deadlines, admission bounds, circuit breaking, and degraded fallback.
  ResilienceOptions resilience;
  /// Result + plan caching (docs/SERVING.md "Caching"). Hits are stripped
  /// at admission: the future resolves immediately from the cached depth
  /// vector (entry seal re-verified) without ever joining a batch.
  CacheOptions cache;
  /// Service-level telemetry: per-batch wall-clock trace tracks and
  /// service.* metrics. Kernel-level simulated-time spans stay off these
  /// tracks (the two timebases must not share one), but the metrics
  /// registry is forwarded to execution, and when tracing is on each
  /// group execution additionally emits its simulated-time kernel spans
  /// on a per-execution device track carrying the batch's query ids as a
  /// "ctx" trace-context arg.
  obs::Observer observer;

  /// Live telemetry sinks, all optional and caller-owned (must outlive
  /// the service). Every query completion that carries a query id flows
  /// through all of them: one JSONL line to `access_log`, one sample to
  /// the SLO tracker, one ring entry to the flight recorder. Shed
  /// admissions and bad-source rejects never receive an id and are
  /// visible through shed.*/service.failed metrics instead.
  obs::AccessLog* access_log = nullptr;
  obs::SloTracker* slo = nullptr;
  obs::FlightRecorder* flight = nullptr;
  /// Window of the live.* rolling gauges (qps, error ratio, latency
  /// percentiles), published by PublishLiveTelemetry.
  double live_window_s = 10.0;

  /// Validates the batching knobs and the embedded engine options.
  Status Validate() const;
};

/// Per-query latency breakdown, milliseconds of host wall clock.
struct QueryLatency {
  /// Submit -> batch close (admission-queue wait).
  double queue_ms = 0.0;
  /// Batch close -> group execution start (grouping + executor wait).
  double batch_ms = 0.0;
  /// Group execution (host wall clock of the simulated traversal).
  double execute_ms = 0.0;
  /// Submit -> completion.
  double total_ms = 0.0;
};

/// What a query's future resolves to.
struct QueryResult {
  /// Non-OK when the query failed (invalid source, rejected batch) or the
  /// service was torn down before execution.
  Status status;
  graph::VertexId source = 0;
  int64_t query_id = -1;
  /// Which closed batch and which group within it served this query.
  int64_t batch_id = -1;
  int group_index = -1;
  /// depths[v] = BFS depth of v from `source` (kUnvisitedDepth when
  /// unreached). Empty when ServiceOptions::keep_depths is off.
  std::vector<uint8_t> depths;
  /// FNV-1a hash over the depth bytes — always computed, so determinism
  /// can be checked without retaining |V| bytes per query.
  uint64_t depth_checksum = 0;
  /// Vertices reached (depth != kUnvisitedDepth).
  int64_t reached = 0;
  /// True when the query was served by the CPU fallback path instead of a
  /// simulated device (correct depths, degraded performance contract).
  bool degraded = false;
  /// True when the answer came from the result cache at admission (no
  /// batch joined; batch_id/group_index stay -1 and attempts 0).
  bool cached = false;
  /// Device execution attempts spent on this query's group (1 = first try
  /// succeeded; 0 = never reached a device, e.g. pure fallback).
  int attempts = 0;
  QueryLatency latency;
};

/// The online BFS query service. Thread-safe: Submit may be called from
/// any number of client threads; results are completed from the executor
/// pool. Shutdown (or destruction) drains — every pending query's future
/// completes, none are abandoned.
class BfsService {
 public:
  /// Aggregate counters since Create. stats() returns a copy taken under
  /// one lock, and every mutation path accounts *before* it completes the
  /// client-visible future — so a snapshot taken after a future resolved
  /// already includes that query's contribution, and cross-field
  /// invariants (completed + failed <= queries + cache_hits + shed +
  /// rejected, MeanBatchSize inputs) hold in every snapshot.
  struct Stats {
    int64_t queries = 0;
    int64_t completed = 0;
    int64_t failed = 0;
    int64_t batches = 0;
    int64_t groups = 0;
    int64_t executed_instances = 0;
    /// Batch-close reasons: reached max_batch / max_delay_ms expired /
    /// drained at shutdown.
    int64_t size_closes = 0;
    int64_t deadline_closes = 0;
    int64_t shutdown_closes = 0;
    /// Resilience accounting: queries shed at admission, queries that
    /// missed their deadline, queries served degraded (CPU fallback),
    /// device retries beyond first attempts, injected launch failures
    /// observed, corruptions caught by the transfer checksum, groups
    /// served by the CPU fallback, and circuit breakers opened.
    int64_t shed = 0;
    int64_t deadline_exceeded = 0;
    /// Queries answered from the result cache at admission (counted in
    /// `completed` but not `queries` — like shed queries they never join
    /// a batch, so MeanBatchSize stays a statement about executed work).
    int64_t cache_hits = 0;
    /// Submissions refused at the front door (bad source, post-shutdown)
    /// — counted in `failed` but not `queries`: like shed queries they
    /// never join a batch.
    int64_t rejected = 0;
    int64_t degraded = 0;
    int64_t retries = 0;
    int64_t transient_faults = 0;
    int64_t corruptions_detected = 0;
    int64_t fallback_groups = 0;
    int64_t breaker_opened = 0;
    /// Total simulated seconds across executed groups.
    double sim_seconds = 0.0;
    /// Sharing-ratio accumulators over all executed groups (same
    /// definition as EngineResult::SharingRatio).
    int64_t private_fq_sum = 0;
    int64_t jfq_sum = 0;

    /// Field-wise accumulation — the fleet front door merges per-shard
    /// snapshots into fleet-level totals with this.
    void Add(const Stats& other);

    /// Aggregate sharing ratio achieved by dynamic batching so far.
    double SharingRatio() const;
    /// i x |E| / sim_seconds over everything executed so far.
    double Teps(int64_t edge_count) const;
    double MeanBatchSize() const {
      return batches == 0
                 ? 0.0
                 : static_cast<double>(queries) /
                       static_cast<double>(batches);
    }
  };

  /// Validates options and starts the batcher thread and executor pool.
  /// The graph must outlive the service.
  static Result<std::unique_ptr<BfsService>> Create(const graph::Csr* graph,
                                                    ServiceOptions options);

  /// Drains and joins (equivalent to Shutdown()).
  ~BfsService();

  BfsService(const BfsService&) = delete;
  BfsService& operator=(const BfsService&) = delete;

  /// Enqueues one BFS query. The future always becomes ready: with depths
  /// on success, with a non-OK QueryResult::status on failure (including
  /// an out-of-range source, reported per-query rather than poisoning the
  /// whole batch). After Shutdown, completes immediately with
  /// FailedPrecondition.
  std::future<QueryResult> Submit(graph::VertexId source);

  /// Closes admission, drains every pending query through execution, and
  /// joins the batcher and executor. Idempotent; called by the destructor.
  void Shutdown();

  /// Drops every entry from the result and plan caches (e.g. after the
  /// underlying graph data changed). No-op when caching is disabled.
  void InvalidateCache();

  /// Combined cache counters (result-cache hits/misses/bytes + plan-cache
  /// hits/misses). All zeros when caching is disabled.
  CacheStats cache_stats() const;

  /// Test hook: the underlying result cache (null when caching is
  /// disabled), so integrity tests can corrupt an entry in place and watch
  /// the quarantine path fire.
  ResultCache* result_cache_for_test() { return result_cache_.get(); }

  /// Refreshes the live.*, slo.*, and cache.hit_ratio gauges from the
  /// rolling windows and re-evaluates the SLO alert (so an alert can clear
  /// while traffic is idle). Called by the live exporter's tick and safe
  /// to call from anywhere; a no-op for sinks that are not configured.
  void PublishLiveTelemetry();

  /// Rolling-window error ratio over the live stats (window =
  /// live_window_s, same data behind the live.* gauges). The fleet's
  /// health recovery probe reads it because — unlike Stats::failed — it
  /// forgets a burst once the window slides past it.
  double LiveErrorRatio() const;

  /// Sources currently resident in the result cache (empty when caching is
  /// disabled). Donor-side enumeration for fleet join warmup.
  std::vector<graph::VertexId> CachedSources() const;
  /// Non-mutating cache read (no LRU/stat effects, checksum still
  /// verified); nullopt on miss or when caching is disabled.
  std::optional<CachedDepths> PeekCache(graph::VertexId source) const;
  /// Inserts an externally computed answer (replica fan-out / join
  /// warmup). The checksum must match the depth bytes — a mismatch is
  /// rejected so a corrupt donor can never seed this shard's cache.
  /// Returns false on mismatch, bad source, or disabled cache.
  bool WarmCache(graph::VertexId source, const CachedDepths& value);
  /// Drops one cached answer (replica checksum-mismatch quarantine).
  bool EvictCacheEntry(graph::VertexId source);

  /// Test hook: opens every device circuit breaker, as a burst of
  /// persistent device failures would. With cpu_fallback off the next
  /// groups fail Unavailable — how failover tests force a sick primary.
  void TripBreakersForTest();

  Stats stats() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct PendingQuery {
    std::promise<QueryResult> promise;
    graph::VertexId source = 0;
    int64_t query_id = -1;
    std::chrono::steady_clock::time_point submitted;
  };

  BfsService(const graph::Csr* graph, ServiceOptions options);

  /// The batcher thread: waits for size/deadline/shutdown, closes batches,
  /// plans them, and dispatches their groups to the executor.
  void BatcherLoop();
  enum class CloseReason { kSize, kDeadline, kShutdown };
  void DispatchBatch(std::vector<PendingQuery> batch, CloseReason reason);

  double SinceStartUs(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - start_).count();
  }
  /// Seconds since service start — the timeline every live-telemetry
  /// window runs on.
  double NowS() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Central completion hook: every query that resolves with an assigned
  /// query id passes through here exactly once, feeding the access log,
  /// the rolling live stats, the SLO tracker (handling any alert
  /// transition), and the flight recorder.
  void RecordCompletion(const QueryResult& result);
  void HandleSloTransition(obs::SloTransition transition, double now_s);
  /// Records the event and dumps a flight record: a cache lookup just
  /// quarantined the corrupted entry for `source`.
  void FireQuarantineTrigger(graph::VertexId source) const;
  /// Sets the cache.hit_ratio gauge from the admission lookup counters.
  void PublishHitRatio();

  const graph::Csr* graph_;
  ServiceOptions options_;
  Engine engine_;
  std::chrono::steady_clock::time_point start_;

  std::mutex mu_;  // guards pending_, next_query_id_, shutdown_
  std::condition_variable cv_;
  std::deque<PendingQuery> pending_;
  int64_t next_query_id_ = 0;
  bool shutdown_ = false;

  mutable std::mutex stats_mu_;
  Stats stats_;
  int64_t next_batch_id_ = 0;  // batcher thread only

  /// Rolling-window qps/error/latency behind the live.* gauges.
  obs::LiveStats live_stats_;
  /// Result-cache lookups made at admission, behind cache.hit_ratio.
  std::atomic<int64_t> lookup_hits_{0};
  std::atomic<int64_t> lookup_misses_{0};
  /// Metric handles of the admission lookup, resolved once at Create (all
  /// null without a registry or a result cache).
  struct LookupMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* completed = nullptr;
    obs::Histogram* total_ms = nullptr;
    obs::Gauge* hit_ratio = nullptr;
  };
  LookupMetrics lookup_metrics_;
  /// Allocates one simulated-time trace track per group execution (tid
  /// 1, 2, ... on the executing device's pid), so concurrent groups on
  /// one device never interleave kernel spans on a single track.
  std::atomic<int> next_exec_track_{0};

  /// Round-robin device router with per-device circuit breakers over the
  /// engine's simulated fleet (engine.faults.device_count ordinals).
  std::unique_ptr<DeviceRouter> router_;

  /// Cross-batch redundancy elimination (null when options_.cache.enabled
  /// is false): completed answers keyed by source, and memoized GroupBy
  /// plans keyed by the sorted source set.
  std::unique_ptr<ResultCache> result_cache_;
  std::unique_ptr<PlanCache> plan_cache_;

  std::unique_ptr<ThreadPool> executor_;
  std::thread batcher_;
  bool joined_ = false;  // guarded by shutdown_mu_
  std::mutex shutdown_mu_;
};

}  // namespace ibfs::service

#endif  // IBFS_SERVICE_SERVICE_H_
