#ifndef IBFS_SERVICE_CACHE_H_
#define IBFS_SERVICE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/group_plan.h"
#include "core/options.h"
#include "graph/csr.h"
#include "util/status.h"

namespace ibfs::service {

/// Configuration for the serving-layer caches. The result cache holds
/// completed per-query depth vectors; the plan cache memoizes GroupSources
/// output for repeated batches. Both are owned by one BfsService and sized
/// at Create.
struct CacheOptions {
  /// Master switch. Disabled means every query executes from scratch
  /// (the pre-cache serving behavior, and what chaos baselines compare
  /// against).
  bool enabled = true;
  /// Byte budget for resident depth vectors across all shards. Each shard
  /// gets an equal slice; eviction is LRU within a shard.
  int64_t result_budget_bytes = int64_t{64} << 20;
  /// Number of independently-locked result shards. More shards cut
  /// contention when many executor threads publish completions at once.
  int shards = 8;
  /// Entries the plan cache retains (LRU by batch count, not bytes — plans
  /// are small relative to depth vectors).
  int plan_capacity = 64;

  Status Validate() const;
};

/// Counters for one cache (snapshot; taken under the shard locks).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Entries dropped because their seal no longer matched the stored
  /// fields (corruption detected on read; treated as a miss).
  int64_t quarantined = 0;
  int64_t entries = 0;
  int64_t bytes_resident = 0;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t plan_insertions = 0;
  int64_t plan_evictions = 0;

  double HitRatio() const {
    const int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// One cached BFS answer: the depth vector, its FNV-1a answer checksum (the
/// value QueryResult::depth_checksum reports, computed once by the writer),
/// and the reached-vertex count so hits can fill QueryResult without
/// rescanning depths. This is the exchange type; the cache stores depths
/// bit-packed (see ResultCache).
struct CachedDepths {
  std::vector<uint8_t> depths;
  uint64_t checksum = 0;
  int64_t reached = 0;
};

/// Sharded, byte-budgeted LRU cache of completed BFS results, keyed by
/// (graph fingerprint, source vertex, strategy). The fingerprint and
/// strategy are fixed per instance (a service serves one graph with one
/// engine config), so lookups hash only the source; the fingerprint still
/// lives in the stored key so Get can reject stale entries after a graph
/// swap that skipped Invalidate.
///
/// Layout: an entry stores its depth vector as `w` bit-planes, the status
/// array's bit-slicing applied to answers. `w = bit_width(max depth + 1)`
/// over the visited vertices (1 when none is visited), vertex i's code is
/// its depth, and the code 2^w - 1 means unvisited. Plane p holds bit p of
/// every vertex's code, one 64-vertex word after another. w = 8 spans the
/// whole byte range, so every depth vector has an exact packed form. The
/// byte budget counts the packed bytes: an answer of depth at most 6 costs
/// 3 bits per vertex instead of 8.
///
/// Integrity: Put seals each entry with an in-process word-wise digest
/// (Fnv1aWords over the plane words, then the width, the vector length, the
/// answer checksum and the reached count). Every read recomputes the seal
/// over every stored byte before serving and compares it to the one taken
/// at insert. A mismatch (bit rot, a torn write, a buggy mutation)
/// quarantines the entry — it is erased, counted, and the lookup reports a
/// miss — so a corrupted cache can cost latency but never wrong answers.
/// The seal is never returned or compared outside this cache; the answer
/// checksum travels unchanged.
///
/// Thread safety: all methods are safe to call concurrently; each shard has
/// its own mutex and LRU list.
class ResultCache {
 public:
  ResultCache(uint64_t graph_fingerprint, Strategy strategy,
              const CacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached answer for `source`, or nullopt on miss, stale
  /// fingerprint, or seal mismatch (the latter also erases the entry and
  /// bumps `quarantined`). A hit refreshes LRU recency. Without
  /// `with_depths` a hit carries only the checksum and reached count: the
  /// planes are sealed but not unpacked. A non-null `quarantined` is set
  /// to whether this lookup quarantined the entry.
  std::optional<CachedDepths> Get(graph::VertexId source,
                                  bool with_depths = true,
                                  bool* quarantined = nullptr);

  /// Packs and inserts (or refreshes) the answer for `source`, then evicts
  /// least-recently-used entries until the shard fits its byte budget.
  /// Entries larger than a whole shard budget are not admitted.
  void Put(graph::VertexId source, std::span<const uint8_t> depths,
           uint64_t checksum, int64_t reached);
  void Put(graph::VertexId source, const CachedDepths& value) {
    Put(source, value.depths, value.checksum, value.reached);
  }

  /// Read-only lookup for replication fan-out and join warmup: returns the
  /// unpacked entry without touching LRU recency or the hit/miss counters,
  /// but still re-verifies the seal (a corrupted entry is quarantined
  /// exactly as in Get, so replicas never receive poisoned bytes, and
  /// reported through `quarantined` the same way).
  std::optional<CachedDepths> Peek(graph::VertexId source,
                                   bool* quarantined = nullptr);

  /// Drops one entry (replica checksum-mismatch quarantine). Returns true
  /// if an entry was present.
  bool Erase(graph::VertexId source);

  /// Sources currently resident, most-recently-used first within each
  /// shard — the donor-side enumeration a joining shard replays for its
  /// targeted warmup.
  std::vector<graph::VertexId> Sources() const;

  /// Drops every entry (graph swap / explicit invalidation).
  void Clear();

  CacheStats stats() const;
  int64_t bytes_resident() const;

  /// Which stored field CorruptEntryForTest damages.
  enum class Field { kDepths, kChecksum, kReached, kWidth, kLength };

  /// Test hook: flips one stored bit of the entry for `source` (if
  /// present) without resealing it, so the next read exercises the
  /// quarantine path. kDepths flips vertex `index`'s bit (default: the
  /// middle vertex) in plane `plane`; the other fields get bit `index`
  /// (default 6) flipped. Returns true if an entry was corrupted (false
  /// also for a vertex, plane or bit it does not have).
  bool CorruptEntryForTest(graph::VertexId source, Field field = Field::kDepths,
                           std::optional<size_t> index = std::nullopt,
                           int plane = 0);

 private:
  struct Entry {
    graph::VertexId source = 0;
    uint64_t fingerprint = 0;
    /// Seal of every field below, taken at Put and re-verified on every
    /// read.
    uint64_t seal = 0;
    /// `width` planes of ceil(length / 64) words each, plane after plane.
    std::vector<uint64_t> planes = {};
    int width = 0;
    size_t length = 0;
    uint64_t checksum = 0;
    int64_t reached = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<graph::VertexId, std::list<Entry>::iterator> index;
    int64_t bytes = 0;
    CacheStats stats;
  };

  using IndexIt =
      std::unordered_map<graph::VertexId, std::list<Entry>::iterator>::iterator;

  Shard& ShardFor(graph::VertexId source);
  static int64_t EntryBytes(const Entry& entry);
  static uint64_t Seal(const Entry& entry);
  /// Looks `source` up for a read: returns its index slot if present,
  /// fresh and intact; otherwise drops a stale or corrupted entry (counting
  /// the latter as quarantined, and setting a non-null `quarantined`) and
  /// returns `shard.index.end()`. Caller holds `shard.mu`.
  IndexIt Find(Shard& shard, graph::VertexId source, bool* quarantined);
  /// Unlinks one resident entry and returns its bytes to the shard budget.
  static void Drop(Shard& shard, IndexIt it);

  const uint64_t graph_fingerprint_;
  const Strategy strategy_;
  const int64_t shard_budget_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Memoizes GroupSources output keyed by the sorted source set, so a batch
/// whose (deduplicated, sorted) sources match an earlier batch skips the
/// GroupBy hub search entirely. The key hash is SourceSetFingerprint but
/// entries store the full source vector and compare it exactly — a digest
/// collision degrades to a miss, never a wrong plan. Single mutex: plan
/// lookups happen once per batch, not per query, so contention is nil.
class PlanCache {
 public:
  PlanCache(uint64_t config_fingerprint, int capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns a copy of the memoized plan for this exact sorted source set,
  /// or nullopt. `sorted_sources` must be sorted and duplicate-free.
  std::optional<GroupPlan> Get(std::span<const graph::VertexId> sorted_sources);

  void Put(std::span<const graph::VertexId> sorted_sources,
           const GroupPlan& plan);

  void Clear();

  CacheStats stats() const;

 private:
  struct Entry {
    uint64_t hash = 0;
    std::vector<graph::VertexId> sources;
    GroupPlan plan;
  };

  const uint64_t config_fingerprint_;
  const int capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_multimap<uint64_t, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace ibfs::service

#endif  // IBFS_SERVICE_CACHE_H_
