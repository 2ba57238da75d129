#ifndef IBFS_UTIL_HASH_RING_H_
#define IBFS_UTIL_HASH_RING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ibfs {

/// Consistent-hash ring for routing keys (BFS source vertices) to shards.
///
/// Each shard contributes `vnodes * weight` virtual nodes, placed by a
/// seeded 64-bit mix, so the key space splits into many small segments and
/// per-shard load stays balanced (the fleet tests pin <= 15% imbalance at
/// 128 vnodes). Removing a shard erases only its virtual nodes: every key
/// it owned falls through to the next surviving point while keys owned by
/// other shards keep their owner — the minimal-disruption property that
/// makes failover cheap (only the dead shard's sources remap, so only
/// those queries re-warm a survivor's cache). Adding a shard is symmetric:
/// only keys the new shard's points capture move, everything else keeps
/// its owner, so joins disturb exactly the stolen segment.
///
/// The placement is a pure function of (seed, shard, vnode) and lookups are
/// pure functions of (seed, key), so two rings built with the same
/// parameters route identically across processes and platforms — the fleet
/// relies on this for bit-deterministic scatter/gather. A consequence: a
/// shard removed and later re-added at the same weight reproduces its exact
/// original points, so `Remove` + `Add` round-trips to the original ring.
///
/// Not thread-safe; FleetFrontDoor guards its ring with a shared mutex.
class HashRing {
 public:
  /// Cap on one shard's virtual nodes (vnodes x weight): 1 MiB of points
  /// per shard, so an outsized join weight cannot exhaust memory or
  /// overflow the int point count.
  static constexpr int kMaxShardPoints = 1 << 16;

  struct Options {
    /// Virtual nodes per unit of weight. More vnodes = smoother balance at
    /// the cost of a larger (still tiny) sorted point table. Clamped to
    /// [1, kMaxShardPoints].
    int vnodes = 128;
    /// Placement seed; rings with equal seeds route identically.
    uint64_t seed = 2016;
    /// Optional per-shard weights (empty = all 1). Shard s gets
    /// vnodes * weights[s] points, i.e. roughly weights[s] / sum(weights)
    /// of the key space. Clamped to [1, kMaxShardPoints / vnodes].
    std::vector<int> weights;
  };

  /// splitmix64 finalizer: the avalanche mix behind both virtual-node
  /// placement and key hashing.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  explicit HashRing(int shard_count) : HashRing(shard_count, Options()) {}

  HashRing(int shard_count, Options options)
      : seed_(options.seed),
        vnodes_(std::clamp(options.vnodes, 1, kMaxShardPoints)) {
    for (int shard = 0; shard < shard_count; ++shard) {
      const int weight =
          static_cast<size_t>(shard) < options.weights.size()
              ? std::clamp(options.weights[static_cast<size_t>(shard)], 1,
                           kMaxShardPoints / vnodes_)
              : 1;
      Add(shard, weight);
    }
  }

  /// Whether a shard of `weight` fits under kMaxShardPoints at `vnodes`
  /// virtual nodes per unit of weight.
  static bool PointsFit(int vnodes, int weight) {
    return static_cast<int64_t>(vnodes) * weight <= kMaxShardPoints;
  }

  /// Owning shard for `key`, or -1 when every shard has been removed.
  int ShardFor(uint64_t key) const {
    if (ring_.empty()) return -1;
    return FirstPointFor(key)->shard;
  }

  /// Ordered replica set for `key`: up to `replicas` distinct shards,
  /// walking clockwise from the key's point. Element 0 is always
  /// ShardFor(key) (the primary); subsequent elements are the shards whose
  /// points come next on the ring, which is exactly where the key would
  /// fall over if earlier replicas were removed — so replica sets stay
  /// aligned with failover routing. Returns fewer than `replicas` entries
  /// when the ring has fewer distinct shards.
  std::vector<int> ReplicasFor(uint64_t key, int replicas) const {
    std::vector<int> out;
    if (ring_.empty() || replicas < 1) return out;
    auto it = FirstPointFor(key);
    const size_t start = static_cast<size_t>(it - ring_.begin());
    for (size_t step = 0; step < ring_.size(); ++step) {
      const int shard = ring_[(start + step) % ring_.size()].shard;
      if (std::find(out.begin(), out.end(), shard) == out.end()) {
        out.push_back(shard);
        if (static_cast<int>(out.size()) == replicas) break;
      }
    }
    return out;
  }

  /// Adds a shard's virtual nodes. `shard` may be a brand-new id (equal to
  /// shard_count(), growing the ring) or a previously removed id rejoining.
  /// Placement depends only on (seed, shard, vnode), so a rejoining shard
  /// reclaims exactly the points it had before at the same weight, and only
  /// keys landing on the inserted points move — minimal disruption.
  /// Returns false when the shard is already active, the id would leave a
  /// gap (> shard_count()), or the weight is < 1 or past PointsFit.
  bool Add(int shard, int weight = 1) {
    if (shard < 0 || weight < 1 || !PointsFit(vnodes_, weight) ||
        static_cast<size_t>(shard) > active_.size()) {
      return false;
    }
    if (static_cast<size_t>(shard) == active_.size()) {
      active_.push_back(false);
      weights_.push_back(0);
    }
    if (active_[static_cast<size_t>(shard)]) return false;
    active_[static_cast<size_t>(shard)] = true;
    weights_[static_cast<size_t>(shard)] = weight;
    InsertPoints(shard, weight);
    return true;
  }

  /// Removes a shard's virtual nodes (its keys fall to the survivors that
  /// own the next points clockwise). Returns false when the shard id is out
  /// of range or already removed. A removed shard can rejoin via Add — the
  /// fleet uses that for elastic recovery after a kill.
  bool Remove(int shard) {
    if (!Contains(shard)) return false;
    active_[static_cast<size_t>(shard)] = false;
    weights_[static_cast<size_t>(shard)] = 0;
    ErasePoints(shard);
    return true;
  }

  /// Active shard's weight; 0 when removed or out of range.
  int weight(int shard) const {
    return Contains(shard) ? weights_[static_cast<size_t>(shard)] : 0;
  }

  /// Shard's share of the total active ring weight (its expected fraction
  /// of the key space); 0 when removed or the ring is empty.
  double WeightShare(int shard) const {
    if (!Contains(shard)) return 0.0;
    int64_t total = 0;
    for (size_t s = 0; s < weights_.size(); ++s) {
      if (active_[s]) total += weights_[s];
    }
    if (total <= 0) return 0.0;
    return static_cast<double>(weights_[static_cast<size_t>(shard)]) /
           static_cast<double>(total);
  }

  bool Contains(int shard) const {
    return shard >= 0 && static_cast<size_t>(shard) < active_.size() &&
           active_[static_cast<size_t>(shard)];
  }

  /// Shards still on the ring.
  int active_count() const {
    int count = 0;
    for (bool a : active_) count += a ? 1 : 0;
    return count;
  }

  int shard_count() const { return static_cast<int>(active_.size()); }
  bool empty() const { return ring_.empty(); }
  size_t point_count() const { return ring_.size(); }

 private:
  struct Point {
    uint64_t hash = 0;
    int shard = 0;
  };

  static bool PointLess(const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  }

  /// Domain separator between key hashes and virtual-node placement.
  /// Points hash Mix(seed ^ Mix((shard << 32) | v)); without the salt a
  /// key k < vnodes hashes exactly onto shard 0's point (0 << 32 | k), so
  /// shard 0 would capture every small key — fatal for graphs with
  /// vertex_count <= vnodes.
  static constexpr uint64_t kKeyDomain = 0xc2b2ae3d27d4eb4fULL;

  std::vector<Point>::const_iterator FirstPointFor(uint64_t key) const {
    const uint64_t h = Mix(seed_ ^ kKeyDomain ^ Mix(key));
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const Point& p, uint64_t value) { return p.hash < value; });
    if (it == ring_.end()) it = ring_.begin();  // wrap past the last point
    return it;
  }

  void InsertPoints(int shard, int weight) {
    const int points = vnodes_ * weight;  // <= kMaxShardPoints (PointsFit)
    std::vector<Point> fresh;
    fresh.reserve(static_cast<size_t>(points));
    for (int v = 0; v < points; ++v) {
      const uint64_t point =
          Mix(seed_ ^ Mix((static_cast<uint64_t>(shard) << 32) |
                          static_cast<uint64_t>(v)));
      fresh.push_back({point, shard});
    }
    // Hash ties (vanishingly rare) break by shard id so the order — and
    // therefore every routing decision — is fully deterministic.
    std::sort(fresh.begin(), fresh.end(), PointLess);
    std::vector<Point> merged;
    merged.reserve(ring_.size() + fresh.size());
    std::merge(ring_.begin(), ring_.end(), fresh.begin(), fresh.end(),
               std::back_inserter(merged), PointLess);
    ring_ = std::move(merged);
  }

  void ErasePoints(int shard) {
    ring_.erase(std::remove_if(
                    ring_.begin(), ring_.end(),
                    [shard](const Point& p) { return p.shard == shard; }),
                ring_.end());
  }

  uint64_t seed_;
  int vnodes_;
  std::vector<bool> active_;
  /// Weight per shard id; 0 while removed (the pre-removal weight is not
  /// retained — rejoin chooses its weight explicitly).
  std::vector<int> weights_;
  /// Sorted by (hash, shard); binary-searched by ShardFor.
  std::vector<Point> ring_;
};

}  // namespace ibfs

#endif  // IBFS_UTIL_HASH_RING_H_
