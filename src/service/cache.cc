#include "service/cache.h"

#include <algorithm>

#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs::service {
namespace {

// The residency seal: every stored field of an entry, folded word-wise.
uint64_t Seal(const CachedDepths& value) {
  uint64_t seal = Fnv1aWords(value.depths);
  seal = Fnv1aFoldWord(seal, value.depths.size());
  seal = Fnv1aFoldWord(seal, value.checksum);
  return Fnv1aFoldWord(seal, static_cast<uint64_t>(value.reached));
}

}  // namespace

Status CacheOptions::Validate() const {
  if (result_budget_bytes < 0) {
    return Status::InvalidArgument("cache result_budget_bytes must be >= 0");
  }
  if (shards < 1) {
    return Status::InvalidArgument("cache shards must be >= 1");
  }
  if (plan_capacity < 0) {
    return Status::InvalidArgument("cache plan_capacity must be >= 0");
  }
  return Status::OK();
}

ResultCache::ResultCache(uint64_t graph_fingerprint, Strategy strategy,
                         const CacheOptions& options)
    : graph_fingerprint_(graph_fingerprint),
      strategy_(strategy),
      shard_budget_bytes_(options.result_budget_bytes /
                          std::max(1, options.shards)) {
  IBFS_CHECK(options.Validate().ok());
  shards_.reserve(options.shards);
  for (int i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(graph::VertexId source) {
  // Fibonacci scramble: consecutive hot sources land on distinct shards.
  const uint64_t mixed =
      static_cast<uint64_t>(source) * 0x9e3779b97f4a7c15ULL;
  return *shards_[(mixed >> 32) % shards_.size()];
}

int64_t ResultCache::EntryBytes(const CachedDepths& value) {
  // Payload plus a flat estimate of list/map node overhead; exactness does
  // not matter, only that the budget tracks resident memory to first order.
  constexpr int64_t kNodeOverhead = 96;
  return static_cast<int64_t>(value.depths.size()) + kNodeOverhead;
}

void ResultCache::Drop(Shard& shard, IndexIt it) {
  shard.bytes -= EntryBytes(it->second->value);
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

std::optional<CachedDepths> ResultCache::Get(graph::VertexId source) {
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  Entry& entry = *it->second;
  if (entry.fingerprint != graph_fingerprint_) {
    // Stale graph: evict silently and miss.
    Drop(shard, it);
    ++shard.stats.misses;
    return std::nullopt;
  }
  if (Seal(entry.value) != entry.seal) {
    // Stored fields no longer match the seal taken at insert: quarantine.
    // Serving a corrupted answer would poison every future hit, so the
    // entry is dropped and the query re-executes.
    ++shard.stats.quarantined;
    ++shard.stats.misses;
    Drop(shard, it);
    IBFS_LOG(Warning) << "result cache quarantined corrupted entry for source "
                      << source;
    return std::nullopt;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return entry.value;
}

void ResultCache::Put(graph::VertexId source, CachedDepths value) {
  const int64_t bytes = EntryBytes(value);
  const uint64_t seal = Seal(value);
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it != shard.index.end()) Drop(shard, it);
  if (bytes > shard_budget_bytes_) return;  // larger than a whole shard
  shard.lru.push_front(
      Entry{source, graph_fingerprint_, seal, std::move(value)});
  shard.index.emplace(source, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.stats.insertions;
  while (shard.bytes > shard_budget_bytes_ && shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes -= EntryBytes(victim.value);
    shard.index.erase(victim.source);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

std::optional<CachedDepths> ResultCache::Peek(graph::VertexId source) {
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it == shard.index.end()) return std::nullopt;
  Entry& entry = *it->second;
  if (entry.fingerprint != graph_fingerprint_ ||
      Seal(entry.value) != entry.seal) {
    if (entry.fingerprint == graph_fingerprint_) ++shard.stats.quarantined;
    Drop(shard, it);
    return std::nullopt;
  }
  return entry.value;
}

bool ResultCache::Erase(graph::VertexId source) {
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it == shard.index.end()) return false;
  Drop(shard, it);
  return true;
}

std::vector<graph::VertexId> ResultCache::Sources() const {
  std::vector<graph::VertexId> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) out.push_back(entry.source);
  }
  return out;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

CacheStats ResultCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    total.quarantined += shard->stats.quarantined;
    total.entries += static_cast<int64_t>(shard->lru.size());
    total.bytes_resident += shard->bytes;
  }
  return total;
}

int64_t ResultCache::bytes_resident() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

bool ResultCache::CorruptEntryForTest(graph::VertexId source, Field field,
                                      std::optional<size_t> depth_index) {
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it == shard.index.end()) return false;
  CachedDepths& value = it->second->value;
  switch (field) {
    case Field::kDepths: {
      const size_t index = depth_index.value_or(value.depths.size() / 2);
      if (index >= value.depths.size()) return false;
      value.depths[index] ^= 0x40;
      return true;
    }
    case Field::kChecksum:
      value.checksum ^= 0x40;
      return true;
    case Field::kReached:
      value.reached ^= 0x40;
      return true;
  }
  return false;
}

PlanCache::PlanCache(uint64_t config_fingerprint, int capacity)
    : config_fingerprint_(config_fingerprint),
      capacity_(capacity) {}

std::optional<GroupPlan> PlanCache::Get(
    std::span<const graph::VertexId> sorted_sources) {
  const uint64_t hash =
      config_fingerprint_ ^ SourceSetFingerprint(sorted_sources);
  std::lock_guard<std::mutex> lock(mu_);
  auto [first, last] = index_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    Entry& entry = *it->second;
    if (entry.sources.size() == sorted_sources.size() &&
        std::equal(entry.sources.begin(), entry.sources.end(),
                   sorted_sources.begin())) {
      ++stats_.plan_hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return entry.plan;
    }
  }
  ++stats_.plan_misses;
  return std::nullopt;
}

void PlanCache::Put(std::span<const graph::VertexId> sorted_sources,
                    const GroupPlan& plan) {
  if (capacity_ <= 0) return;
  const uint64_t hash =
      config_fingerprint_ ^ SourceSetFingerprint(sorted_sources);
  std::lock_guard<std::mutex> lock(mu_);
  auto [first, last] = index_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    const Entry& entry = *it->second;
    if (entry.sources.size() == sorted_sources.size() &&
        std::equal(entry.sources.begin(), entry.sources.end(),
                   sorted_sources.begin())) {
      return;  // already memoized (plans for one key never change)
    }
  }
  lru_.push_front(Entry{
      hash,
      std::vector<graph::VertexId>(sorted_sources.begin(),
                                   sorted_sources.end()),
      plan});
  index_.emplace(hash, lru_.begin());
  ++stats_.plan_insertions;
  while (static_cast<int>(lru_.size()) > capacity_) {
    const Entry& victim = lru_.back();
    auto [vfirst, vlast] = index_.equal_range(victim.hash);
    for (auto it = vfirst; it != vlast; ++it) {
      if (&*it->second == &victim) {
        index_.erase(it);
        break;
      }
    }
    lru_.pop_back();
    ++stats_.plan_evictions;
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ibfs::service
