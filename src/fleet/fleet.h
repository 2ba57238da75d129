#ifndef IBFS_FLEET_FLEET_H_
#define IBFS_FLEET_FLEET_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "graph/csr.h"
#include "service/service.h"
#include "util/hash_ring.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ibfs::fleet {

/// Distributed serving fleet, modeled in-process: N shared-nothing
/// `BfsService` shards — each with its own engine, simulated device fleet,
/// result/plan caches, and telemetry — behind a front door that routes
/// every source over a seeded consistent-hash ring, scatters multi-source
/// queries across the owning shards and gathers them with a
/// bit-deterministic merge, and survives shard loss by rebalancing the dead
/// shard's ring segment to the survivors (optionally answering degraded
/// from the CPU reference path when no shard is left at all). The sharding
/// follows the owner-computes discipline of distributed BFS (Buluç &
/// Madduri's 1D decomposition): a source's owner is a pure function of the
/// ring, so routing needs no coordination.
///
/// The fleet is elastic and redundant (docs/SERVING.md "Elasticity &
/// replication"): AddShard joins a fresh shard with a targeted cache
/// warmup of the segment it steals, and replication > 1 routes each source
/// to an ordered replica set, failing a read over down the set in order
/// until a replica answers OK.

/// Front-door view of one shard's health. A degraded shard keeps serving —
/// its answers are still correct — and CheckHealth restores it to healthy
/// once its rolling error window clears; a down shard leaves the ring
/// (AddShard can later grow the fleet back).
enum class ShardHealth {
  kHealthy = 0,
  kDegraded = 1,
  kDown = 2,
};

const char* ShardHealthName(ShardHealth health);

/// Folds one per-source depth checksum into a running FNV-1a state
/// (little-endian byte order, start from kFnv1aOffsetBasis) — the
/// bit-deterministic merge used by scatter-gather and the workload
/// driver's submit-order drive checksum.
uint64_t FoldChecksum(uint64_t state, uint64_t checksum);

/// Configuration of one fleet.
struct FleetOptions {
  /// Initial shard count; each shard is one independent BfsService.
  /// AddShard grows the fleet beyond this at runtime.
  int shards = 4;
  /// Virtual nodes per unit of ring weight (HashRing::Options), at most
  /// HashRing::kMaxShardPoints.
  int vnodes = 128;
  /// Ring placement seed; fleets with equal seeds route identically.
  uint64_t ring_seed = 2016;
  /// Template for every shard's service (engine, batching, resilience,
  /// caching, telemetry). All shards share the same configuration — and
  /// the same metrics registry / sinks when set — so their answers are
  /// interchangeable with a single service's. Joined shards are built
  /// from the same template.
  service::ServiceOptions service;
  /// Health probe: a shard whose failures since its last probe baseline
  /// exceed this fraction of answered queries (with at least
  /// `min_health_samples` answered) is marked degraded by CheckHealth.
  double error_rate_threshold = 0.5;
  int64_t min_health_samples = 16;
  /// When every shard is down, answer from the sequential CPU reference
  /// BFS with QueryResult::degraded set instead of failing Unavailable.
  bool cpu_fallback = true;
  /// Workers gathering SubmitMulti scatter results (>= 1).
  int gather_threads = 2;

  /// Replication factor R: each source routes to an ordered set of R
  /// distinct shards (primary first). At R = 1 reads go straight to the
  /// owner with zero added overhead; at R > 1 a read whose answer is an
  /// error is resubmitted to the next replica in order, and the first OK
  /// answer fans its cache entry out to the other replicas.
  int replication = 1;

  /// Recovery probe: a degraded shard returns to healthy once its rolling
  /// live error ratio and its failure rate since the degrade snapshot are
  /// both at or below this, with no new breaker/quarantine/fallback
  /// signals since the degrade.
  double recovery_error_rate = 0.05;

  /// Max donor cache entries replayed into a joining shard's cache.
  int64_t warmup_limit = 4096;

  Status Validate() const;
};

/// Fleet-level counters plus a consistent per-shard snapshot, as returned
/// by FleetFrontDoor::stats().
struct FleetStats {
  /// Field-wise sum of every shard's Stats (Stats::Add).
  service::BfsService::Stats totals;
  /// Per-shard snapshots and front-door routing counts, indexed by shard.
  std::vector<service::BfsService::Stats> shard;
  std::vector<int64_t> routed;
  std::vector<ShardHealth> health;
  /// Active ring weight per shard (0 = off the ring) and its share of the
  /// total ring weight (expected fraction of the key space).
  std::vector<int> weight;
  std::vector<double> weight_share;
  /// Queries whose home shard left the ring and were served by a survivor.
  int64_t failover_reroutes = 0;
  /// Queries answered inline from the CPU reference path because no shard
  /// was left on the ring.
  int64_t fallback_answers = 0;
  /// Scatter-gather accounting: MultiQuery/SubmitMulti calls and the
  /// sources they carried.
  int64_t multi_queries = 0;
  int64_t multi_sources = 0;
  /// Elasticity accounting: shards joined, donor cache entries replayed
  /// into joiners, replica checksum disagreements, replica cache fan-out
  /// writes, and degraded->healthy recoveries.
  int64_t shard_joins = 0;
  int64_t warmup_entries = 0;
  int64_t replica_mismatches = 0;
  int64_t replica_cache_writes = 0;
  int64_t recoveries = 0;
  /// Configured replication factor.
  int replication = 1;
  int healthy = 0;
  int degraded = 0;
  int down = 0;

  /// Worst per-shard ratio of observed load share (routed / total routed)
  /// to ring weight share, over shards that are not down; 0 before any
  /// routing. 1.0 = every shard carries exactly its weighted share, so
  /// weighted fleets don't report false imbalance. When weight shares are
  /// absent (hand-built stats) every live shard is assumed equal-share,
  /// which reduces to max(routed)/mean(routed).
  double Imbalance() const;
};

/// What a scatter-gather query resolves to: per-source results in request
/// order plus a combined checksum that is a pure fold of the per-source
/// depth checksums — identical for any shard count, which is how the tests
/// pin bit-deterministic merge.
struct MultiQueryResult {
  /// OK when every source completed OK; otherwise the first (request
  /// order) non-OK per-source status.
  Status status;
  std::vector<service::QueryResult> results;
  /// FNV-1a fold of results[i].depth_checksum bytes in request order
  /// (OK results only contribute their checksum; failures contribute 0).
  uint64_t combined_checksum = 0;
  /// Distinct shards the scatter touched (0 when everything fell back).
  int shards_touched = 0;
};

/// The scatter-gather front door. Thread-safe: Submit/MultiQuery/
/// SubmitMulti may be called from any number of client threads
/// concurrently with KillShard, AddShard, and CheckHealth.
/// Shutdown (or destruction) drains every shard — no future is ever
/// abandoned.
class FleetFrontDoor {
 public:
  /// Validates options and spins up the shards. The graph must outlive
  /// the fleet.
  static Result<std::unique_ptr<FleetFrontDoor>> Create(
      const graph::Csr* graph, FleetOptions options);

  ~FleetFrontDoor();
  FleetFrontDoor(const FleetFrontDoor&) = delete;
  FleetFrontDoor& operator=(const FleetFrontDoor&) = delete;

  /// Routes one query to the owning shard (at replication > 1, down its
  /// replica set until one answers OK). The future always becomes ready:
  /// from a shard, from the CPU fallback (degraded) when no shard is
  /// left, or with Unavailable when fallback is disabled too.
  std::future<service::QueryResult> Submit(graph::VertexId source);

  /// Blocking scatter-gather over `sources` (request order preserved).
  MultiQueryResult MultiQuery(const std::vector<graph::VertexId>& sources);

  /// Async scatter-gather: scatters inline (routing happens now, against
  /// the current ring), gathers on the internal pool.
  std::future<MultiQueryResult> SubmitMulti(
      std::vector<graph::VertexId> sources);

  /// Removes a shard: marks it down, rebalances its ring segment to the
  /// survivors, then drains it (every in-flight future resolves). Returns
  /// false when the shard id is out of range or already down. A killed
  /// shard id stays retired; capacity comes back via AddShard.
  bool KillShard(int shard);

  /// Elastic join: spins up a fresh shard from the service template,
  /// inserts its virtual nodes into the ring (stealing only the keys that
  /// land on them — minimal disruption), then replays the hottest
  /// remapped sources from the surviving shards' result caches into the
  /// new shard's cache, so a hot source that was cached anywhere misses
  /// the fleet cache zero times after the join and a cold one at most
  /// once. Returns the new shard's id, or InvalidArgument when the weight
  /// is < 1 or vnodes x weight exceeds HashRing::kMaxShardPoints.
  Result<int> AddShard(int weight = 1);

  /// Health probe over every live shard: marks shards degraded when their
  /// failure rate since the last probe baseline (or their resilience
  /// signals) worsen, and restores degraded shards to healthy once their
  /// rolling error window clears with no new signals since the degrade.
  /// Refreshes the fleet.* health gauges. Returns the number of shards
  /// whose health changed.
  int CheckHealth();

  /// The shard currently owning `source` (-1 when the ring is empty).
  int OwnerShard(graph::VertexId source) const;
  /// The shard that would own `source` with every shard up (failure-free
  /// ring including joins), for failover accounting.
  int HomeShard(graph::VertexId source) const;
  /// Ordered replica set `source` routes to under the current ring.
  std::vector<int> ReplicaSet(graph::VertexId source) const;

  ShardHealth shard_health(int shard) const;
  /// Shards ever created (initial + joined), including down ones.
  int shard_count() const;
  /// Active ring weight of a shard (0 when down).
  int ShardWeight(int shard) const;

  /// Consistent fleet-level snapshot: per-shard Stats, their merged
  /// totals, routing counts, health, weights, and elasticity counters.
  FleetStats stats() const;

  /// Test hook: the underlying shard service (observing a down shard is
  /// fine; shards are never destroyed before Shutdown).
  service::BfsService* shard_for_test(int shard);

  /// Drains and joins every shard. Idempotent; called by the destructor.
  void Shutdown();

  const FleetOptions& options() const { return options_; }

 private:
  /// Cumulative-counter snapshot CheckHealth probes against: deltas since
  /// the snapshot decide degradation, equality since it gates recovery.
  struct ProbeBaseline {
    int64_t completed = 0;
    int64_t failed = 0;
    int64_t breaker_opened = 0;
    int64_t quarantined = 0;
    int64_t fallback_groups = 0;
  };

  FleetFrontDoor(const graph::Csr* graph, FleetOptions options);

  /// Routing core shared by Submit and the scatter paths. Returns the
  /// future and reports the serving shard via `shard_out` (-1 = answered
  /// by CPU fallback or failed Unavailable).
  std::future<service::QueryResult> SubmitRouted(graph::VertexId source,
                                                 int* shard_out);
  /// Resolves a future inline from the CPU reference BFS (degraded) or
  /// with Unavailable, for sources no shard can own anymore.
  std::future<service::QueryResult> AnswerUnowned(graph::VertexId source);
  /// Body of one replicated read: waits for the primary's answer and, while
  /// it is an error, submits to the next replica in `replicas` order.
  /// Serves the first OK answer (or the primary's error when every replica
  /// failed) into `client`, then fans the serving shard's cache entry out.
  void ReadInOrder(graph::VertexId source, const std::vector<int>& replicas,
                   std::future<service::QueryResult> primary,
                   std::promise<service::QueryResult>& client);
  /// Replicates `winner`'s cached entry for `source` to the other live
  /// replicas that lack it. A replica already holding the source under a
  /// different checksum is a mismatch: both entries are evicted and
  /// nothing is written.
  void FanOutCacheEntry(graph::VertexId source, int winner,
                        const std::vector<int>& replicas);
  MultiQueryResult Gather(std::vector<std::future<service::QueryResult>>
                              futures,
                          int shards_touched);
  void PublishHealthGauges();
  void BumpCounter(const char* name, int64_t amount = 1);

  const graph::Csr* graph_;
  FleetOptions options_;

  /// Routing state. `ring_` tracks the live fleet (losing segments on
  /// kills, gaining them on joins); `full_ring_` mirrors joins but never
  /// removals, identifying each source's failure-free home shard so
  /// reroutes can be counted.
  /// `shards_` only ever grows and entries are never destroyed before
  /// Shutdown, so a BfsService* read under the lock stays valid after
  /// releasing it. Shared-locked on the submit path, unique-locked by
  /// KillShard/AddShard/CheckHealth.
  mutable std::shared_mutex route_mu_;
  std::vector<std::unique_ptr<service::BfsService>> shards_;
  HashRing ring_;
  HashRing full_ring_;
  std::vector<ShardHealth> health_;
  std::vector<ProbeBaseline> probe_base_;

  /// Front-door counters (separate from per-shard Stats).
  mutable std::mutex stats_mu_;
  std::vector<int64_t> routed_;
  int64_t failover_reroutes_ = 0;
  int64_t fallback_answers_ = 0;
  int64_t multi_queries_ = 0;
  int64_t multi_sources_ = 0;
  int64_t shard_joins_ = 0;
  int64_t warmup_entries_ = 0;
  int64_t replica_mismatches_ = 0;
  int64_t replica_cache_writes_ = 0;
  int64_t recoveries_ = 0;

  std::unique_ptr<ThreadPool> gather_pool_;
  /// Runs ReadInOrder wrappers at replication > 1; reset before
  /// gather_pool_ at Shutdown (gather tasks wait on wrapped futures that
  /// replica reads resolve).
  std::unique_ptr<ThreadPool> replica_pool_;

  bool joined_ = false;  // guarded by shutdown_mu_
  std::mutex shutdown_mu_;
};

}  // namespace ibfs::fleet

#endif  // IBFS_FLEET_FLEET_H_
