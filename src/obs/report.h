#ifndef IBFS_OBS_REPORT_H_
#define IBFS_OBS_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.h"

namespace ibfs::obs {

class MetricsRegistry;

/// Serialization shared by every document struct (the reports below and
/// obs::FlightRecord): each one's fields are described once, in
/// obs/schema.cc, and both these writers and the matching validator in
/// obs/validate.h walk that description.
template <typename Doc>
struct JsonDocument {
  /// Serializes the document; when `metrics` is non-null its snapshot is
  /// embedded under the "metrics" key.
  void WriteJson(std::ostream& os,
                 const MetricsRegistry* metrics = nullptr) const;
  /// WriteJson plus a trailing newline, into the file at `path`.
  Status WriteFile(const std::string& path,
                   const MetricsRegistry* metrics = nullptr) const;
};

/// The machine-readable run report: one JSON document unifying what the
/// text UI scatters across `--profile` tables, GroupTrace getters, and
/// stdout lines. Schema name "ibfs.run_report", versioned; see
/// docs/OBSERVABILITY.md for the field reference. The structs here are
/// deliberately plain (no engine types) so the obs layer stays below core;
/// core/observe.h converts an EngineResult into this schema.

/// One traversal level of one group (mirrors ibfs::LevelTrace).
struct ReportLevel {
  int level = 0;
  bool bottom_up = false;
  int64_t jfq_size = 0;
  int64_t private_fq_sum = 0;
  int64_t edges_inspected = 0;
  int64_t new_visits = 0;
};

/// One executed BFS group.
struct ReportGroup {
  int index = 0;
  int instance_count = 0;
  double sim_seconds = 0.0;
  double sharing_degree = 0.0;
  double sharing_ratio = 0.0;
  /// GroupBy hub vertex this group was bucketed on; -1 when the group was
  /// formed randomly (leftovers, or a non-GroupBy policy).
  int64_t hub = -1;
  std::vector<int64_t> sources;
  std::vector<ReportLevel> levels;
};

/// One kernel phase's aggregated device counters (mirrors
/// gpusim::ProfileRow / the nvprof-style table).
struct ReportPhase {
  std::string name;
  double seconds = 0.0;
  int64_t launches = 0;
  uint64_t load_transactions = 0;
  uint64_t store_transactions = 0;
  uint64_t load_requests = 0;
  uint64_t store_requests = 0;
  double load_transactions_per_request = 0.0;
  uint64_t atomic_ops = 0;
  uint64_t shared_bytes = 0;
};

/// Multi-GPU section (present for `cluster` runs).
struct ReportCluster {
  int device_count = 0;
  std::string policy;
  double makespan_seconds = 0.0;
  double speedup = 0.0;
  double teps = 0.0;
  std::vector<double> device_seconds;
};

/// Partitioned-execution section (present for `cluster --partitions` runs):
/// the 1D cut, the frontier-exchange cost model's inputs, and the
/// compute/comm split of the simulated time.
struct ReportComm {
  int partitions = 0;
  std::string schedule;  // "allgather" | "butterfly"
  double link_gbps = 0.0;
  double link_us = 0.0;
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  int64_t bytes_on_wire = 0;
  int64_t rounds = 0;
  int64_t supersteps = 0;
  double edge_imbalance = 0.0;
  std::vector<int64_t> partition_vertices;
  std::vector<int64_t> partition_edges;
  std::vector<double> device_seconds;
};

/// Top-level run report.
struct RunReport : JsonDocument<RunReport> {
  static constexpr const char* kSchema = "ibfs.run_report";
  static constexpr int kSchemaVersion = 1;

  // Workload.
  std::string graph;
  int64_t vertex_count = 0;
  int64_t edge_count = 0;
  std::string strategy;
  std::string grouping;
  int64_t instances = 0;
  int64_t group_size = 0;

  // Headline results.
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  double teps = 0.0;
  double sharing_ratio = 0.0;
  double sharing_ratio_top_down = 0.0;
  double sharing_ratio_bottom_up = 0.0;
  int64_t rule_matched = 0;

  std::vector<ReportGroup> groups;
  std::vector<ReportPhase> phases;
  ReportPhase totals;

  bool has_cluster = false;
  ReportCluster cluster;

  bool has_comm = false;
  ReportComm comm;
};

/// One latency distribution of the service report, in milliseconds.
/// Percentiles come from obs::Histogram::Percentile (bucket-interpolated);
/// mean and max are exact.
struct ReportLatency {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// The online-serving run report ("ibfs.service_report"): what one
/// `ibfs_cli serve` run measured — throughput, queue/execute/total
/// latency SLOs, and the dynamic batcher's sharing ratio against the
/// oracle that saw every source up front. Like
/// RunReport, this is a plain struct so the obs layer stays below core;
/// service/workload.h builds it from a driven workload.
struct ServiceReport : JsonDocument<ServiceReport> {
  static constexpr const char* kSchema = "ibfs.service_report";
  /// v2 added the "cache" section (result/plan cache counters).
  static constexpr int kSchemaVersion = 2;

  // Workload.
  std::string graph;
  int64_t vertex_count = 0;
  int64_t edge_count = 0;
  std::string strategy;
  std::string grouping;
  std::string arrival;
  double offered_qps = 0.0;
  double duration_seconds = 0.0;
  int64_t queries = 0;

  // Batcher configuration and behavior.
  int64_t max_batch = 0;
  double max_delay_ms = 0.0;
  int64_t execute_threads = 0;
  int64_t batches = 0;
  int64_t groups = 0;
  int64_t size_closes = 0;
  int64_t deadline_closes = 0;
  int64_t shutdown_closes = 0;
  double mean_batch_size = 0.0;

  // Headline results.
  int64_t completed = 0;
  int64_t failed = 0;
  double achieved_qps = 0.0;
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  double teps = 0.0;
  double sharing_ratio = 0.0;
  double oracle_sharing_ratio = 0.0;
  /// sharing_ratio / oracle_sharing_ratio (0 when the oracle is 0) — the
  /// fraction of the offline GroupBy benefit dynamic batching preserved.
  double sharing_fraction = 0.0;

  // Latency SLO breakdown (milliseconds).
  ReportLatency queue_ms;
  ReportLatency execute_ms;
  ReportLatency total_ms;

  // Result/plan cache (schema v2). Counters are zero when the cache is
  // disabled; cache_hit_ratio = hits / (hits + misses).
  bool cache_enabled = false;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_insertions = 0;
  int64_t cache_evictions = 0;
  int64_t cache_quarantined = 0;
  int64_t cache_entries = 0;
  int64_t cache_bytes_resident = 0;
  double cache_hit_ratio = 0.0;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
};

/// The chaos-run report ("ibfs.resilience_report"): what one
/// `ibfs_cli chaos` run measured — the injected fault plan, every recovery
/// action the service took (retries, fallbacks, breakers, sheds,
/// deadlines), and the checksum verification of every completed query
/// against a fault-free baseline run. Plain struct like the others so the
/// obs layer stays below core; service/chaos.h builds it.
struct ResilienceReport : JsonDocument<ResilienceReport> {
  static constexpr const char* kSchema = "ibfs.resilience_report";
  static constexpr int kSchemaVersion = 1;

  // Workload.
  std::string graph;
  int64_t vertex_count = 0;
  int64_t edge_count = 0;
  std::string strategy;
  std::string grouping;
  int64_t queries = 0;
  double offered_qps = 0.0;
  double duration_seconds = 0.0;

  // Injected fault plan and the resilience configuration facing it.
  std::string fault_spec;  // canonical FaultPlan::ToString form
  int64_t device_count = 0;
  int64_t fault_seed = 0;
  int64_t max_attempts = 0;
  double deadline_ms = 0.0;
  int64_t max_pending = 0;
  bool cpu_fallback = false;

  // Outcomes: query dispositions and recovery actions.
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t deadline_exceeded = 0;
  int64_t shed = 0;
  int64_t degraded = 0;
  int64_t retries = 0;
  int64_t transient_faults = 0;
  int64_t corruptions_detected = 0;
  int64_t breaker_opened = 0;
  int64_t fallback_groups = 0;
  double wall_seconds = 0.0;

  // Verification: every completed query's depth checksum compared against
  // the fault-free baseline execution of the same source.
  int64_t checksums_compared = 0;
  int64_t checksum_mismatches = 0;
};

/// One shard's slice of the fleet report: its health as the front door saw
/// it, how many queries the ring routed to it, and its own service
/// counters.
struct FleetReportShard {
  int shard = 0;
  std::string health;  // "healthy" | "degraded" | "down"
  /// Active ring weight (0 = off the ring). Schema v2.
  int64_t weight = 0;
  int64_t routed = 0;
  int64_t queries = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t degraded = 0;
  int64_t cache_hits = 0;
  int64_t batches = 0;
  int64_t groups = 0;
  double sim_seconds = 0.0;
};

/// The distributed-fleet run report ("ibfs.fleet_report"): what one
/// `ibfs_cli fleet` run measured — the ring configuration, per-shard
/// routing/health/counters, the aggregate merged across shards, the
/// scatter-gather accounting, and the checksum verification that the
/// fleet's answers are bit-identical to a single service's. Plain struct
/// like the others so the obs layer stays below core; fleet/fleet_workload
/// builds it.
struct FleetReport : JsonDocument<FleetReport> {
  static constexpr const char* kSchema = "ibfs.fleet_report";
  /// v2 adds the "elasticity" section (replication, joins, warmup,
  /// replica fan-out, recoveries) and per-shard ring weights. v3 drops
  /// the hedging and rebalancing counters from "elasticity"; v2 documents
  /// carrying them still validate.
  static constexpr int kSchemaVersion = 3;

  // Fleet configuration.
  std::string graph;
  int64_t vertex_count = 0;
  int64_t edge_count = 0;
  std::string strategy;
  std::string grouping;
  int64_t shards = 0;
  int64_t vnodes = 0;
  int64_t ring_seed = 0;

  // Workload.
  std::string arrival;
  double offered_qps = 0.0;
  double duration_seconds = 0.0;
  int64_t queries = 0;
  /// Sources per scatter-gather query (1 = single-source submits only).
  int64_t multi_source = 0;
  int64_t multi_queries = 0;
  /// Which shard was killed mid-run (-1 = none).
  int64_t killed_shard = -1;
  /// Shards joined mid-run (0 = none).
  int64_t joined_shards = 0;

  // Elasticity & replication (schema v2): the configured replication
  // factor and the front door's join/warmup/replica/recovery counters.
  int64_t replication = 1;
  int64_t shard_joins = 0;
  int64_t warmup_entries = 0;
  int64_t replica_mismatches = 0;
  int64_t replica_cache_writes = 0;
  int64_t recoveries = 0;

  // Per-shard sections, indexed by shard.
  std::vector<FleetReportShard> shard_rows;

  // Aggregate across shards plus front-door counters.
  int64_t completed = 0;
  int64_t failed = 0;
  double achieved_qps = 0.0;
  double wall_seconds = 0.0;
  double imbalance = 0.0;
  int64_t failover_reroutes = 0;
  int64_t fallback_answers = 0;
  int64_t healthy = 0;
  int64_t degraded = 0;
  int64_t down = 0;

  // Determinism + availability verification: FNV-1a fold of the OK
  // results' depth checksums in submit order (shard-count invariant),
  // futures that never resolved (must be 0), and the comparison of every
  // OK answer against a fault-free baseline.
  uint64_t checksum = 0;
  int64_t unanswered = 0;
  int64_t checksums_compared = 0;
  int64_t checksum_mismatches = 0;

  // Total-latency distribution (milliseconds).
  ReportLatency total_ms;
};

}  // namespace ibfs::obs

#endif  // IBFS_OBS_REPORT_H_
