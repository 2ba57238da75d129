#include "service/cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs::service {
namespace {

// Packing reads and writes depth bytes one 64-bit word (8 vertices) at a
// time. Word b of a plane covers vertices [64b, 64b + 64): vertex
// 64b + 8j + k sits at bit 8k + j, the 8x8 bit transpose of the block's
// eight depth words. So bit p of all 8 bytes of depth word j moves to or
// from its plane word with one rotate and one mask.
constexpr uint64_t kByteLsbs = 0x0101010101010101ULL;
constexpr uint64_t kByteMsbs = 0x8080808080808080ULL;
constexpr size_t kBlock = 64;

size_t PlaneWords(size_t length) { return (length + kBlock - 1) / kBlock; }

int PlaneBit(size_t vertex) {
  const size_t r = vertex % kBlock;
  return static_cast<int>(r % 8 * 8 + r / 8);
}

uint64_t LoadWord(const uint8_t* bytes) {
  uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

// The plane count for a depth vector: bit_width(max visited depth + 1).
// Adding 1 to every byte (mod 256) sends the unvisited 0xff to 0, and the
// OR of the incremented bytes has the bit width of their maximum.
int PlaneCount(std::span<const uint8_t> depths) {
  auto increment = [](uint64_t word) {
    return ((word & ~kByteMsbs) + kByteLsbs) ^ (word & kByteMsbs);
  };
  // Four accumulators, so the ORs do not wait on one another.
  uint64_t any[4] = {};
  size_t i = 0;
  for (; i + 32 <= depths.size(); i += 32) {
    for (int k = 0; k < 4; ++k) {
      any[k] |= increment(LoadWord(&depths[i + 8 * k]));
    }
  }
  for (; i + 8 <= depths.size(); i += 8) {
    any[0] |= increment(LoadWord(&depths[i]));
  }
  for (; i < depths.size(); ++i) any[0] |= static_cast<uint8_t>(depths[i] + 1);
  const uint64_t all = any[0] | any[1] | any[2] | any[3];
  uint8_t folded = 0;
  for (int k = 0; k < 8; ++k) folded |= static_cast<uint8_t>(all >> (8 * k));
  return std::max(1, static_cast<int>(std::bit_width(folded)));
}

// Packs the 64 depth bytes at `in` into word `b` of each of W planes. A
// byte's low W bits are its code: a visited depth is below 2^W - 1, and the
// unvisited 0xff has all W bits set. The loops over j are unrolled so that
// every rotate count and mask is a constant (about twice as fast as the
// rolled loop).
template <int W>
void PackBlock(const uint8_t* in, uint64_t* planes, size_t words, size_t b) {
  uint64_t block[W] = {};
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    const uint64_t word = LoadWord(in + 8 * j);
    for (int p = 0; p < W; ++p) {
      block[p] |= std::rotl(word, j - p) & (kByteLsbs << j);
    }
  }
  for (int p = 0; p < W; ++p) planes[p * words + b] = block[p];
}

// Unpacks word `b` of each of W planes into the 64 depth bytes at `out`.
// A vertex whose W plane bits are all set is unvisited and unpacks to 0xff.
template <int W>
void UnpackBlock(const uint64_t* planes, size_t words, size_t b,
                 uint8_t* out) {
  uint64_t block[W] = {};
  uint64_t unvisited = ~uint64_t{0};
  for (int p = 0; p < W; ++p) {
    block[p] = planes[p * words + b];
    unvisited &= block[p];
  }
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    uint64_t word = (std::rotr(unvisited, j) & kByteLsbs) * 0xff;
    for (int p = 0; p < W; ++p) {
      word |= std::rotr(block[p], j - p) & (kByteLsbs << p);
    }
    std::memcpy(out + 8 * j, &word, sizeof(word));
  }
}

// Calls f(std::integral_constant<int, width>{}) for width in [1, 8], so the
// per-plane loops run over a compile-time plane count and unroll.
template <int W = 1, typename F>
void WithWidth(int width, F&& f) {
  if constexpr (W == 8) {
    f(std::integral_constant<int, 8>{});
  } else if (width == W) {
    f(std::integral_constant<int, W>{});
  } else {
    WithWidth<W + 1>(width, f);
  }
}

// A trailing partial block goes through a zero-padded buffer; padding
// packs to code 0 and is never unpacked.
void Pack(std::span<const uint8_t> depths, int width,
          std::vector<uint64_t>& planes) {
  const size_t length = depths.size();
  const size_t words = PlaneWords(length);
  const size_t full = length / kBlock;
  planes.resize(words * width);
  WithWidth(width, [&](auto w) {
    for (size_t b = 0; b < full; ++b) {
      PackBlock<w>(&depths[b * kBlock], planes.data(), words, b);
    }
    if (full < words) {
      uint8_t tail[kBlock] = {};
      std::memcpy(tail, &depths[full * kBlock], length - full * kBlock);
      PackBlock<w>(tail, planes.data(), words, full);
    }
  });
}

void Unpack(std::span<const uint64_t> planes, int width, size_t length,
            std::vector<uint8_t>& depths) {
  const size_t words = PlaneWords(length);
  const size_t full = length / kBlock;
  depths.resize(length);
  WithWidth(width, [&](auto w) {
    for (size_t b = 0; b < full; ++b) {
      UnpackBlock<w>(planes.data(), words, b, &depths[b * kBlock]);
    }
    if (full < words) {
      uint8_t tail[kBlock] = {};
      UnpackBlock<w>(planes.data(), words, full, tail);
      std::memcpy(&depths[full * kBlock], tail, length - full * kBlock);
    }
  });
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

int64_t ResultCache::EntryBytes(const Entry& entry) {
  // Packed planes plus a flat estimate of list/map node overhead; exactness
  // does not matter, only that the budget tracks resident memory to first
  // order.
  constexpr int64_t kNodeOverhead = 96;
  return static_cast<int64_t>(entry.planes.size() * sizeof(uint64_t)) +
         kNodeOverhead;
}

uint64_t ResultCache::Seal(const Entry& entry) {
  // Every stored field of the answer, folded word-wise.
  uint64_t seal = Fnv1aWords(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(entry.planes.data()),
      entry.planes.size() * sizeof(uint64_t)));
  seal = Fnv1aFoldWord(seal, static_cast<uint64_t>(entry.width));
  seal = Fnv1aFoldWord(seal, entry.length);
  seal = Fnv1aFoldWord(seal, entry.checksum);
  return Fnv1aFoldWord(seal, static_cast<uint64_t>(entry.reached));
}

void ResultCache::Drop(Shard& shard, IndexIt it) {
  shard.bytes -= EntryBytes(*it->second);
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

ResultCache::IndexIt ResultCache::Find(Shard& shard, graph::VertexId source,
                                       bool* quarantined) {
  auto it = shard.index.find(source);
  if (it == shard.index.end()) return it;
  const Entry& entry = *it->second;
  if (entry.fingerprint != graph_fingerprint_) {
    // Stale graph: evict silently.
    Drop(shard, it);
    return shard.index.end();
  }
  if (Seal(entry) != entry.seal) {
    // Stored fields no longer match the seal taken at insert: quarantine.
    // Serving a corrupted answer would poison every future hit, so the
    // entry is dropped and the query re-executes.
    ++shard.stats.quarantined;
    if (quarantined != nullptr) *quarantined = true;
    Drop(shard, it);
    IBFS_LOG(Warning) << "result cache quarantined corrupted entry for source "
                      << source;
    return shard.index.end();
  }
  return it;
}

std::optional<CachedDepths> ResultCache::Get(graph::VertexId source,
                                             bool with_depths,
                                             bool* quarantined) {
  if (quarantined != nullptr) *quarantined = false;
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  const IndexIt it = Find(shard, source, quarantined);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  const Entry& entry = *it->second;
  CachedDepths hit{{}, entry.checksum, entry.reached};
  if (with_depths) Unpack(entry.planes, entry.width, entry.length, hit.depths);
  return hit;
}

void ResultCache::Put(graph::VertexId source, std::span<const uint8_t> depths,
                      uint64_t checksum, int64_t reached) {
  Entry entry{.source = source,
              .fingerprint = graph_fingerprint_,
              .width = PlaneCount(depths),
              .length = depths.size(),
              .checksum = checksum,
              .reached = reached};
  Pack(depths, entry.width, entry.planes);
  entry.seal = Seal(entry);
  const int64_t bytes = EntryBytes(entry);
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it != shard.index.end()) Drop(shard, it);
  if (bytes > shard_budget_bytes_) return;  // larger than a whole shard
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(source, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.stats.insertions;
  while (shard.bytes > shard_budget_bytes_ && shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes -= EntryBytes(victim);
    shard.index.erase(victim.source);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

std::optional<CachedDepths> ResultCache::Peek(graph::VertexId source,
                                              bool* quarantined) {
  if (quarantined != nullptr) *quarantined = false;
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  const IndexIt it = Find(shard, source, quarantined);
  if (it == shard.index.end()) return std::nullopt;
  const Entry& entry = *it->second;
  CachedDepths value{{}, entry.checksum, entry.reached};
  Unpack(entry.planes, entry.width, entry.length, value.depths);
  return value;
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
                                      std::optional<size_t> index, int plane) {
  Shard& shard = ShardFor(source);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(source);
  if (it == shard.index.end()) return false;
  Entry& entry = *it->second;
  if (field == Field::kDepths) {
    const size_t vertex = index.value_or(entry.length / 2);
    if (vertex >= entry.length || plane < 0 || plane >= entry.width) {
      return false;
    }
    entry.planes[plane * PlaneWords(entry.length) + vertex / kBlock] ^=
        uint64_t{1} << PlaneBit(vertex);
    return true;
  }
  const size_t bit = index.value_or(6);
  if (bit >= (field == Field::kWidth ? 31 : 64)) return false;
  const uint64_t flip = uint64_t{1} << bit;
  switch (field) {
    case Field::kChecksum:
      entry.checksum ^= flip;
      break;
    case Field::kReached:
      entry.reached ^= static_cast<int64_t>(flip);
      break;
    case Field::kWidth:
      entry.width ^= static_cast<int>(flip);
      break;
    case Field::kLength:
      entry.length ^= flip;
      break;
    case Field::kDepths:
      break;  // handled above
  }
  return true;
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
