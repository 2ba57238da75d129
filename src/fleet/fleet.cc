#include "fleet/fleet.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "baselines/reference_bfs.h"
#include "ibfs/status_array.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs::fleet {
namespace {

/// Fan-out bucket layout for the fleet.scatter_fanout histogram (1..64+
/// shards per scatter).
std::span<const double> FanoutBounds() {
  static const std::vector<double> bounds = obs::PowerOfTwoBounds(1, 7);
  return bounds;
}

/// Workers running ReadInOrder wrappers at replication > 1. Each in-flight
/// replicated read occupies one worker until a replica answers.
constexpr int kReplicaReadThreads = 4;

}  // namespace

uint64_t FoldChecksum(uint64_t state, uint64_t checksum) {
  // Little-endian byte order so the merge is platform-independent.
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  return Fnv1aExtend(state, bytes);
}

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kDown:
      return "down";
  }
  return "unknown";
}

Status FleetOptions::Validate() const {
  if (shards < 1) {
    return Status::InvalidArgument("fleet needs at least one shard");
  }
  if (vnodes < 1 || vnodes > HashRing::kMaxShardPoints) {
    return Status::InvalidArgument("vnodes must be in [1, " +
                                   std::to_string(HashRing::kMaxShardPoints) +
                                   "]");
  }
  if (error_rate_threshold < 0.0 || error_rate_threshold > 1.0) {
    return Status::InvalidArgument(
        "error_rate_threshold must be in [0, 1]");
  }
  if (min_health_samples < 1) {
    return Status::InvalidArgument("min_health_samples must be >= 1");
  }
  if (gather_threads < 1) {
    return Status::InvalidArgument("gather_threads must be >= 1");
  }
  if (replication < 1) {
    return Status::InvalidArgument("replication must be >= 1");
  }
  if (recovery_error_rate < 0.0 || recovery_error_rate > 1.0) {
    return Status::InvalidArgument("recovery_error_rate must be in [0, 1]");
  }
  if (warmup_limit < 0) {
    return Status::InvalidArgument("warmup_limit must be >= 0");
  }
  return service.Validate();
}

double FleetStats::Imbalance() const {
  int64_t sum = 0;
  int live = 0;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (s < health.size() && health[s] == ShardHealth::kDown) continue;
    sum += routed[s];
    ++live;
  }
  if (live == 0 || sum == 0) return 0.0;
  // Weighted fleets are judged against each shard's ring weight share;
  // without weight info every live shard is assumed to carry an equal
  // share, which reduces to the classic max(routed)/mean(routed).
  //
  // The load fractions below are normalized over *live* traffic, so the
  // shares must be renormalized over live shards too: weight_share spans
  // the whole fleet (summing to 1 with down shards included), and the
  // equal-share fallback 1/live only matches that scale when every shard
  // has weight info or none does. Dividing each effective share by their
  // live-shard sum keeps the two normalizations consistent, so a fleet
  // routing exactly proportionally to its weights scores 1.0 even when
  // shards are down or only some shards carry weight info.
  const auto effective_share = [&](size_t s) {
    return s < weight_share.size() && weight_share[s] > 0.0
               ? weight_share[s]
               : 1.0 / static_cast<double>(live);
  };
  double share_sum = 0.0;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (s < health.size() && health[s] == ShardHealth::kDown) continue;
    share_sum += effective_share(s);
  }
  if (share_sum <= 0.0) return 0.0;
  double worst = 0.0;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (s < health.size() && health[s] == ShardHealth::kDown) continue;
    const double share = effective_share(s) / share_sum;
    const double load = static_cast<double>(routed[s]) /
                        static_cast<double>(sum);
    worst = std::max(worst, load / share);
  }
  return worst;
}

namespace {

HashRing MakeRing(const FleetOptions& options) {
  HashRing::Options ring_options;
  ring_options.vnodes = options.vnodes;
  ring_options.seed = options.ring_seed;
  return HashRing(options.shards, ring_options);
}

}  // namespace

FleetFrontDoor::FleetFrontDoor(const graph::Csr* graph, FleetOptions options)
    : graph_(graph),
      options_(std::move(options)),
      ring_(MakeRing(options_)),
      full_ring_(MakeRing(options_)),
      health_(static_cast<size_t>(options_.shards), ShardHealth::kHealthy),
      probe_base_(static_cast<size_t>(options_.shards)),
      routed_(static_cast<size_t>(options_.shards), 0) {}

Result<std::unique_ptr<FleetFrontDoor>> FleetFrontDoor::Create(
    const graph::Csr* graph, FleetOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("fleet needs a graph");
  }
  IBFS_RETURN_NOT_OK(options.Validate());
  std::unique_ptr<FleetFrontDoor> fleet(
      new FleetFrontDoor(graph, std::move(options)));
  fleet->shards_.reserve(static_cast<size_t>(fleet->options_.shards));
  for (int s = 0; s < fleet->options_.shards; ++s) {
    // Shared-nothing: every shard gets its own engine, device fleet,
    // caches, and batcher from the same template, so any shard's answer
    // for a source is bit-identical to any other's.
    auto shard =
        service::BfsService::Create(graph, fleet->options_.service);
    IBFS_RETURN_NOT_OK(shard.status());
    fleet->shards_.push_back(std::move(shard).value());
  }
  fleet->gather_pool_ =
      std::make_unique<ThreadPool>(fleet->options_.gather_threads);
  if (fleet->options_.replication > 1) {
    fleet->replica_pool_ = std::make_unique<ThreadPool>(kReplicaReadThreads);
  }
  fleet->PublishHealthGauges();
  return fleet;
}

FleetFrontDoor::~FleetFrontDoor() { Shutdown(); }

void FleetFrontDoor::BumpCounter(const char* name, int64_t amount) {
  if (amount <= 0) return;
  obs::MetricsRegistry* metrics = options_.service.observer.metrics;
  if (metrics != nullptr) metrics->GetCounter(name)->Increment(amount);
}

std::future<service::QueryResult> FleetFrontDoor::AnswerUnowned(
    graph::VertexId source) {
  std::promise<service::QueryResult> promise;
  std::future<service::QueryResult> future = promise.get_future();
  service::QueryResult result;
  result.source = source;
  obs::MetricsRegistry* metrics = options_.service.observer.metrics;
  if (static_cast<int64_t>(source) >= graph_->vertex_count()) {
    result.status = Status::OutOfRange("source vertex outside graph");
  } else if (options_.cpu_fallback) {
    // Every shard is gone; degrade to the sequential CPU reference path —
    // the same depths a shard would have produced, minus the performance
    // contract.
    result.depths = baselines::ReferenceDepthsU8(
        *graph_, source, options_.service.engine.traversal.max_level);
    result.depth_checksum = Fnv1a(result.depths);
    for (uint8_t d : result.depths) {
      if (d != kUnvisitedDepth) ++result.reached;
    }
    if (!options_.service.keep_depths) result.depths.clear();
    result.degraded = true;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++fallback_answers_;
    }
    if (metrics != nullptr) {
      metrics->GetCounter("fleet.fallback_answers")->Increment();
    }
  } else {
    result.status = Status::Unavailable("fleet has no live shards");
  }
  promise.set_value(std::move(result));
  return future;
}

std::future<service::QueryResult> FleetFrontDoor::SubmitRouted(
    graph::VertexId source, int* shard_out) {
  const uint64_t key = static_cast<uint64_t>(source);
  std::future<service::QueryResult> primary;
  std::vector<int> replicas;
  {
    std::shared_lock<std::shared_mutex> route_lock(route_mu_);
    replicas = ring_.ReplicasFor(key, std::max(1, options_.replication));
    if (replicas.empty()) {
      route_lock.unlock();
      if (shard_out != nullptr) *shard_out = -1;
      return AnswerUnowned(source);
    }
    const int shard = replicas[0];
    const int home = full_ring_.ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++routed_[static_cast<size_t>(shard)];
      if (shard != home) ++failover_reroutes_;
    }
    obs::MetricsRegistry* metrics = options_.service.observer.metrics;
    if (metrics != nullptr) {
      metrics->GetCounter("fleet.routed")->Increment();
      if (shard != home) metrics->GetCounter("fleet.failovers")->Increment();
    }
    if (shard_out != nullptr) *shard_out = shard;
    // Submitted under the shared route lock: KillShard only drains a shard
    // after taking the unique lock, so a shard picked off the ring here is
    // still accepting (and a post-shutdown race inside BfsService resolves
    // the future with FailedPrecondition rather than dropping it).
    primary = shards_[static_cast<size_t>(shard)]->Submit(source);
  }
  if (replicas.size() < 2) return primary;
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  // Draining: no failover, the primary's answer is the answer.
  if (replica_pool_ == nullptr) return primary;
  auto client = std::make_shared<std::promise<service::QueryResult>>();
  std::future<service::QueryResult> wrapped = client->get_future();
  auto pending =
      std::make_shared<std::future<service::QueryResult>>(std::move(primary));
  replica_pool_->Submit([this, source, replicas = std::move(replicas),
                         pending, client] {
    ReadInOrder(source, replicas, std::move(*pending), *client);
  });
  return wrapped;
}

void FleetFrontDoor::ReadInOrder(graph::VertexId source,
                                 const std::vector<int>& replicas,
                                 std::future<service::QueryResult> primary,
                                 std::promise<service::QueryResult>& client) {
  service::QueryResult result = primary.get();
  int served = replicas[0];
  for (size_t next = 1; next < replicas.size() && !result.status.ok();
       ++next) {
    std::future<service::QueryResult> retry;
    {
      // Same discipline as SubmitRouted: submit under the shared route
      // lock. A replica killed since routing resolves FailedPrecondition
      // and the walk moves on.
      std::shared_lock<std::shared_mutex> route_lock(route_mu_);
      retry = shards_[static_cast<size_t>(replicas[next])]->Submit(source);
    }
    service::QueryResult answer = retry.get();
    if (answer.status.ok()) {
      result = std::move(answer);
      served = replicas[next];
    }
  }
  const bool ok = result.status.ok();
  client.set_value(std::move(result));
  if (ok) FanOutCacheEntry(source, served, replicas);
}

void FleetFrontDoor::FanOutCacheEntry(graph::VertexId source, int winner,
                                      const std::vector<int>& replicas) {
  service::BfsService* winner_svc = nullptr;
  std::vector<std::pair<int, service::BfsService*>> targets;
  {
    std::shared_lock<std::shared_mutex> route_lock(route_mu_);
    winner_svc = shards_[static_cast<size_t>(winner)].get();
    for (int replica : replicas) {
      const size_t s = static_cast<size_t>(replica);
      if (replica == winner || health_[s] == ShardHealth::kDown) continue;
      targets.emplace_back(replica, shards_[s].get());
    }
  }
  const std::optional<service::CachedDepths> entry =
      winner_svc->PeekCache(source);
  if (!entry) return;  // caching disabled or already evicted
  std::vector<service::BfsService*> missing;
  for (const auto& [shard, target] : targets) {
    const std::optional<service::CachedDepths> held =
        target->PeekCache(source);
    if (!held) {
      missing.push_back(target);
    } else if (held->checksum != entry->checksum) {
      // Two self-consistent answers disagree: one replica is lying and the
      // front door cannot adjudicate without a third vote, so the source
      // is quarantined out of both caches (forcing fresh recomputation on
      // the next read), the disagreement is counted, and the disputed
      // answer is fanned out nowhere.
      winner_svc->EvictCacheEntry(source);
      target->EvictCacheEntry(source);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++replica_mismatches_;
      }
      BumpCounter("fleet.replica_mismatches");
      IBFS_LOG(Warning) << "replica checksum mismatch for source " << source
                        << " between shards " << winner << " and " << shard;
      return;
    }
  }
  int64_t writes = 0;
  for (service::BfsService* target : missing) {
    if (target->WarmCache(source, *entry)) ++writes;
  }
  if (writes > 0) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      replica_cache_writes_ += writes;
    }
    BumpCounter("fleet.replica_cache_writes", writes);
  }
}

std::future<service::QueryResult> FleetFrontDoor::Submit(
    graph::VertexId source) {
  return SubmitRouted(source, nullptr);
}

MultiQueryResult FleetFrontDoor::Gather(
    std::vector<std::future<service::QueryResult>> futures,
    int shards_touched) {
  MultiQueryResult multi;
  multi.shards_touched = shards_touched;
  multi.results.reserve(futures.size());
  uint64_t combined = kFnv1aOffsetBasis;
  for (std::future<service::QueryResult>& future : futures) {
    service::QueryResult result = future.get();
    combined =
        FoldChecksum(combined, result.status.ok() ? result.depth_checksum
                                                  : 0);
    if (multi.status.ok() && !result.status.ok()) {
      multi.status = result.status;
    }
    multi.results.push_back(std::move(result));
  }
  multi.combined_checksum = combined;
  return multi;
}

MultiQueryResult FleetFrontDoor::MultiQuery(
    const std::vector<graph::VertexId>& sources) {
  return SubmitMulti(sources).get();
}

std::future<MultiQueryResult> FleetFrontDoor::SubmitMulti(
    std::vector<graph::VertexId> sources) {
  // Scatter now — routing reflects the ring at submit time — and gather
  // on the internal pool so the caller's thread never blocks on shard
  // execution.
  std::vector<std::future<service::QueryResult>> futures;
  futures.reserve(sources.size());
  std::vector<int> touched;
  for (graph::VertexId source : sources) {
    int shard = -1;
    futures.push_back(SubmitRouted(source, &shard));
    if (shard >= 0) touched.push_back(shard);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++multi_queries_;
    multi_sources_ += static_cast<int64_t>(sources.size());
  }
  obs::MetricsRegistry* metrics = options_.service.observer.metrics;
  if (metrics != nullptr) {
    metrics->GetCounter("fleet.scatter_queries")->Increment();
    metrics->GetHistogram("fleet.scatter_fanout", FanoutBounds())
        ->Observe(static_cast<double>(touched.size()));
  }
  auto promise = std::make_shared<std::promise<MultiQueryResult>>();
  std::future<MultiQueryResult> future = promise->get_future();
  const int fanout = static_cast<int>(touched.size());
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
    pool = gather_pool_.get();
    if (pool == nullptr) {
      // Fleet already drained: every shard future is ready, so gathering
      // inline is instant.
      promise->set_value(Gather(std::move(futures), fanout));
      return future;
    }
    auto pending = std::make_shared<
        std::vector<std::future<service::QueryResult>>>(std::move(futures));
    pool->Submit([this, promise, pending, fanout] {
      promise->set_value(Gather(std::move(*pending), fanout));
    });
  }
  return future;
}

bool FleetFrontDoor::KillShard(int shard) {
  service::BfsService* victim = nullptr;
  {
    std::unique_lock<std::shared_mutex> route_lock(route_mu_);
    if (shard < 0 || static_cast<size_t>(shard) >= shards_.size() ||
        health_[static_cast<size_t>(shard)] == ShardHealth::kDown) {
      return false;
    }
    health_[static_cast<size_t>(shard)] = ShardHealth::kDown;
    ring_.Remove(shard);
    victim = shards_[static_cast<size_t>(shard)].get();
  }
  PublishHealthGauges();
  // Drain outside the route lock: new submits already route around the
  // shard, and Shutdown resolves every future it still holds.
  victim->Shutdown();
  return true;
}

Result<int> FleetFrontDoor::AddShard(int weight) {
  if (weight < 1) {
    return Status::InvalidArgument("shard weight must be >= 1");
  }
  if (!HashRing::PointsFit(options_.vnodes, weight)) {
    return Status::InvalidArgument(
        "vnodes x shard weight exceeds " +
        std::to_string(HashRing::kMaxShardPoints) + " ring points");
  }
  {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
    if (joined_) {
      return Status::FailedPrecondition("fleet is shut down");
    }
  }
  // Build the service outside the route lock — shard spin-up is the
  // expensive part of a join and must not stall the submit path.
  auto created = service::BfsService::Create(graph_, options_.service);
  IBFS_RETURN_NOT_OK(created.status());
  int id = -1;
  service::BfsService* fresh = nullptr;
  std::vector<service::BfsService*> donors;
  {
    std::unique_lock<std::shared_mutex> route_lock(route_mu_);
    id = static_cast<int>(shards_.size());
    shards_.push_back(std::move(created).value());
    fresh = shards_.back().get();
    health_.push_back(ShardHealth::kHealthy);
    probe_base_.push_back(ProbeBaseline{});
    {
      // routed_ must cover the new id before any submit can route to it.
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      routed_.push_back(0);
      ++shard_joins_;
    }
    ring_.Add(id, weight);
    full_ring_.Add(id, weight);
    for (size_t s = 0; s + 1 < shards_.size(); ++s) {
      if (health_[s] != ShardHealth::kDown) donors.push_back(shards_[s].get());
    }
  }
  BumpCounter("fleet.shard_joins");
  // Targeted warmup of the stolen segment, outside the locks: replay the
  // donors' cached sources (most-recently-used first — the hottest ones)
  // that now route to the new shard. A source warmed here misses the fleet
  // cache zero times after the join; anything else at most once. Queries
  // racing ahead of the warmup just compute and Put the same bytes.
  int64_t warmed = 0;
  for (service::BfsService* donor : donors) {
    if (warmed >= options_.warmup_limit) break;
    for (graph::VertexId source : donor->CachedSources()) {
      if (warmed >= options_.warmup_limit) break;
      if (OwnerShard(source) != id) continue;
      const std::optional<service::CachedDepths> entry =
          donor->PeekCache(source);
      if (entry && fresh->WarmCache(source, *entry)) ++warmed;
    }
  }
  if (warmed > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    warmup_entries_ += warmed;
  }
  BumpCounter("fleet.warmup_entries", warmed);
  PublishHealthGauges();
  IBFS_LOG(Info) << "fleet shard " << id << " joined at weight " << weight
                 << ", warmed " << warmed << " cache entries";
  return id;
}

int FleetFrontDoor::CheckHealth() {
  int transitions = 0;
  int recovered = 0;
  size_t count = 0;
  {
    std::shared_lock<std::shared_mutex> route_lock(route_mu_);
    count = shards_.size();
  }
  for (size_t s = 0; s < count; ++s) {
    ShardHealth current;
    ProbeBaseline base;
    service::BfsService* svc = nullptr;
    {
      std::shared_lock<std::shared_mutex> route_lock(route_mu_);
      current = health_[s];
      base = probe_base_[s];
      svc = shards_[s].get();
    }
    if (current == ShardHealth::kDown) continue;
    const service::BfsService::Stats stats = svc->stats();
    const service::CacheStats cache = svc->cache_stats();
    const int64_t failed_delta = stats.failed - base.failed;
    const int64_t answered_delta =
        (stats.completed - base.completed) + failed_delta;
    if (current == ShardHealth::kHealthy) {
      const bool error_rate_bad =
          answered_delta >= options_.min_health_samples &&
          static_cast<double>(failed_delta) >
              options_.error_rate_threshold *
                  static_cast<double>(answered_delta);
      // Resilience signals from PR-4: newly opened circuit breakers,
      // quarantined cache entries, and CPU-fallback groups all mean the
      // shard is answering (correctly) with a reduced machine under it.
      const bool resilience_degraded =
          stats.breaker_opened > base.breaker_opened ||
          cache.quarantined > base.quarantined ||
          stats.fallback_groups > base.fallback_groups;
      if (error_rate_bad || resilience_degraded) {
        std::unique_lock<std::shared_mutex> route_lock(route_mu_);
        if (health_[s] == ShardHealth::kHealthy) {
          health_[s] = ShardHealth::kDegraded;
          // Snapshot the cumulative counters at degrade time: recovery
          // requires the window to clear with nothing new past this mark.
          probe_base_[s] = ProbeBaseline{stats.completed, stats.failed,
                                         stats.breaker_opened,
                                         cache.quarantined,
                                         stats.fallback_groups};
          ++transitions;
        }
      }
    } else {  // kDegraded: re-probe for recovery
      // Recover once (a) the rolling live error window is clean, (b) no
      // new breaker/quarantine/fallback signals landed since the degrade,
      // and (c) failures since the degrade stayed within the recovery
      // rate (covering failures — e.g. front-door rejects — that never
      // enter the live window).
      const bool window_clean =
          svc->LiveErrorRatio() <= options_.recovery_error_rate;
      const bool signals_quiet =
          stats.breaker_opened == base.breaker_opened &&
          cache.quarantined == base.quarantined &&
          stats.fallback_groups == base.fallback_groups;
      const bool failures_quiet =
          answered_delta == 0
              ? failed_delta == 0
              : static_cast<double>(failed_delta) <=
                    options_.recovery_error_rate *
                        static_cast<double>(answered_delta);
      if (window_clean && signals_quiet && failures_quiet) {
        std::unique_lock<std::shared_mutex> route_lock(route_mu_);
        if (health_[s] == ShardHealth::kDegraded) {
          health_[s] = ShardHealth::kHealthy;
          // Forgive the burst: future degrade probes measure from here.
          probe_base_[s] = ProbeBaseline{stats.completed, stats.failed,
                                         stats.breaker_opened,
                                         cache.quarantined,
                                         stats.fallback_groups};
          ++transitions;
          ++recovered;
        }
      }
    }
  }
  if (recovered > 0) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      recoveries_ += recovered;
    }
    BumpCounter("fleet.recoveries", recovered);
  }
  if (transitions > 0) PublishHealthGauges();
  return transitions;
}

int FleetFrontDoor::OwnerShard(graph::VertexId source) const {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  return ring_.ShardFor(static_cast<uint64_t>(source));
}

int FleetFrontDoor::HomeShard(graph::VertexId source) const {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  return full_ring_.ShardFor(static_cast<uint64_t>(source));
}

std::vector<int> FleetFrontDoor::ReplicaSet(graph::VertexId source) const {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  return ring_.ReplicasFor(static_cast<uint64_t>(source),
                           std::max(1, options_.replication));
}

ShardHealth FleetFrontDoor::shard_health(int shard) const {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  IBFS_CHECK(shard >= 0 && static_cast<size_t>(shard) < health_.size());
  return health_[static_cast<size_t>(shard)];
}

int FleetFrontDoor::shard_count() const {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  return static_cast<int>(shards_.size());
}

int FleetFrontDoor::ShardWeight(int shard) const {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  return ring_.weight(shard);
}

service::BfsService* FleetFrontDoor::shard_for_test(int shard) {
  std::shared_lock<std::shared_mutex> route_lock(route_mu_);
  return shards_[static_cast<size_t>(shard)].get();
}

void FleetFrontDoor::PublishHealthGauges() {
  obs::MetricsRegistry* metrics = options_.service.observer.metrics;
  if (metrics == nullptr) return;
  int healthy = 0;
  int degraded = 0;
  int down = 0;
  size_t total = 0;
  {
    std::shared_lock<std::shared_mutex> route_lock(route_mu_);
    total = shards_.size();
    for (ShardHealth h : health_) {
      switch (h) {
        case ShardHealth::kHealthy:
          ++healthy;
          break;
        case ShardHealth::kDegraded:
          ++degraded;
          break;
        case ShardHealth::kDown:
          ++down;
          break;
      }
    }
  }
  metrics->GetGauge("fleet.shards")->Set(static_cast<double>(total));
  metrics->GetGauge("fleet.shards_healthy")->Set(healthy);
  metrics->GetGauge("fleet.shards_degraded")->Set(degraded);
  metrics->GetGauge("fleet.shards_down")->Set(down);
  metrics->GetGauge("fleet.imbalance")->Set(stats().Imbalance());
}

FleetStats FleetFrontDoor::stats() const {
  FleetStats fleet;
  fleet.replication = options_.replication;
  std::vector<service::BfsService*> services;
  {
    std::shared_lock<std::shared_mutex> route_lock(route_mu_);
    services.reserve(shards_.size());
    for (const auto& shard : shards_) services.push_back(shard.get());
    fleet.health = health_;
    fleet.weight.reserve(shards_.size());
    fleet.weight_share.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      fleet.weight.push_back(ring_.weight(static_cast<int>(s)));
      fleet.weight_share.push_back(ring_.WeightShare(static_cast<int>(s)));
    }
  }
  fleet.shard.reserve(services.size());
  for (service::BfsService* svc : services) {
    fleet.shard.push_back(svc->stats());
    fleet.totals.Add(fleet.shard.back());
  }
  for (ShardHealth h : fleet.health) {
    switch (h) {
      case ShardHealth::kHealthy:
        ++fleet.healthy;
        break;
      case ShardHealth::kDegraded:
        ++fleet.degraded;
        break;
      case ShardHealth::kDown:
        ++fleet.down;
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    fleet.routed = routed_;
    fleet.failover_reroutes = failover_reroutes_;
    fleet.fallback_answers = fallback_answers_;
    fleet.multi_queries = multi_queries_;
    fleet.multi_sources = multi_sources_;
    fleet.shard_joins = shard_joins_;
    fleet.warmup_entries = warmup_entries_;
    fleet.replica_mismatches = replica_mismatches_;
    fleet.replica_cache_writes = replica_cache_writes_;
    fleet.recoveries = recoveries_;
  }
  return fleet;
}

void FleetFrontDoor::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (joined_) return;
  std::vector<service::BfsService*> services;
  {
    std::shared_lock<std::shared_mutex> route_lock(route_mu_);
    services.reserve(shards_.size());
    for (const auto& shard : shards_) services.push_back(shard.get());
  }
  for (service::BfsService* shard : services) shard->Shutdown();
  // Every shard future is resolved now, and a failover submit to a drained
  // shard resolves at once: replica reads finish, then gather tasks (which
  // wait on the wrapped futures those reads resolve) finish too — so the
  // pools must drain in this order.
  replica_pool_.reset();
  gather_pool_.reset();
  joined_ = true;
}

}  // namespace ibfs::fleet
