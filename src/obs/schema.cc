// The one description of every JSON document the obs layer writes: the
// run, service, resilience and fleet reports, the flight record, and the
// access-log line that is also the flight record's queries[] entry.
//
// Each Describe() lists one struct's members in output order. A member
// entry names its JSON key and the struct field that holds the value; the
// field's C++ type fixes the JSON kind (bool; integers, written exactly,
// uint64_t unsigned; double, shortest round-trip; string; vector = array
// of those). Members added after a document's first version carry the
// schema version that introduced them and are required only from that
// version on. Sections group fields under a key (Object), repeat a struct
// (Rows), or appear only when set (Optional).
//
// Two walkers read the same description: JsonSink writes a struct as
// JSON, and JsonCheck checks that a parsed document has every member with
// the right kind. Checks beyond presence and kind are the short Rule list
// next to each document's description.
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/flight.h"
#include "obs/json.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/validate.h"

namespace ibfs::obs {
namespace {

/// A check beyond presence and kind. `path` is dotted from the document
/// root; "*" stands for every member of an object or element of an array.
/// A rule skips members the document does not have (version-gated and
/// optional sections) and values of another kind.
struct Rule {
  enum class Op { kRange, kNotAbove, kPercentiles, kOneOf };
  Op op;
  std::string_view path;
  double lo = 0.0;
  double hi = 0.0;
  /// kNotAbove: the sibling member bounding this one; kOneOf: "a|b|c".
  std::string_view other = {};
};

constexpr Rule Min(std::string_view path, double lo) {
  return {Rule::Op::kRange, path, lo, std::numeric_limits<double>::infinity()};
}
constexpr Rule Range(std::string_view path, double lo, double hi) {
  return {Rule::Op::kRange, path, lo, hi};
}
constexpr Rule NotAbove(std::string_view path, std::string_view sibling) {
  return {Rule::Op::kNotAbove, path, 0.0, 0.0, sibling};
}
/// Every latency distribution: 0 <= p50 <= p95 <= p99.
constexpr Rule Percentiles(std::string_view path) {
  return {Rule::Op::kPercentiles, path};
}
constexpr Rule OneOf(std::string_view path, std::string_view values) {
  return {Rule::Op::kOneOf, path, 0.0, 0.0, values};
}

// ---------------------------------------------------------------- run --

template <typename Walk>
void Describe(Walk& v, const ReportLevel& l) {
  v.Field("level", l.level);
  v.Field("direction", l.bottom_up ? "bottom_up" : "top_down");
  v.Field("jfq_size", l.jfq_size);
  v.Field("private_fq_sum", l.private_fq_sum);
  v.Field("edges_inspected", l.edges_inspected);
  v.Field("new_visits", l.new_visits);
}

template <typename Walk>
void Describe(Walk& v, const ReportGroup& g) {
  v.Field("index", g.index);
  v.Field("instance_count", g.instance_count);
  v.Field("sim_seconds", g.sim_seconds);
  v.Field("sharing_degree", g.sharing_degree);
  v.Field("sharing_ratio", g.sharing_ratio);
  v.Field("hub", g.hub);
  v.Field("sources", g.sources);
  v.Rows("levels", g.levels);
}

template <typename Walk>
void Describe(Walk& v, const ReportPhase& p) {
  v.Field("name", p.name);
  v.Field("seconds", p.seconds);
  v.Field("launches", p.launches);
  v.Field("load_transactions", p.load_transactions);
  v.Field("store_transactions", p.store_transactions);
  v.Field("load_requests", p.load_requests);
  v.Field("store_requests", p.store_requests);
  v.Field("load_transactions_per_request", p.load_transactions_per_request);
  v.Field("atomic_ops", p.atomic_ops);
  v.Field("shared_bytes", p.shared_bytes);
}

template <typename Walk>
void Describe(Walk& v, const ReportCluster& c) {
  v.Field("device_count", c.device_count);
  v.Field("policy", c.policy);
  v.Field("makespan_seconds", c.makespan_seconds);
  v.Field("speedup", c.speedup);
  v.Field("teps", c.teps);
  v.Field("device_seconds", c.device_seconds);
}

template <typename Walk>
void Describe(Walk& v, const ReportComm& c) {
  v.Field("partitions", c.partitions);
  v.Field("schedule", c.schedule);
  v.Field("link_gbps", c.link_gbps);
  v.Field("link_us", c.link_us);
  v.Field("compute_seconds", c.compute_seconds);
  v.Field("comm_seconds", c.comm_seconds);
  v.Field("bytes_on_wire", c.bytes_on_wire);
  v.Field("rounds", c.rounds);
  v.Field("supersteps", c.supersteps);
  v.Field("edge_imbalance", c.edge_imbalance);
  v.Field("partition_vertices", c.partition_vertices);
  v.Field("partition_edges", c.partition_edges);
  v.Field("device_seconds", c.device_seconds);
}

template <typename Walk>
void Describe(Walk& v, const RunReport& r) {
  v.Object("workload", [&] {
    v.Field("graph", r.graph);
    v.Field("vertex_count", r.vertex_count);
    v.Field("edge_count", r.edge_count);
    v.Field("strategy", r.strategy);
    v.Field("grouping", r.grouping);
    v.Field("instances", r.instances);
    v.Field("group_size", r.group_size);
  });
  v.Object("results", [&] {
    v.Field("sim_seconds", r.sim_seconds);
    v.Field("wall_seconds", r.wall_seconds);
    v.Field("teps", r.teps);
    v.Field("sharing_ratio", r.sharing_ratio);
    v.Field("sharing_ratio_top_down", r.sharing_ratio_top_down);
    v.Field("sharing_ratio_bottom_up", r.sharing_ratio_bottom_up);
    v.Field("rule_matched", r.rule_matched);
  });
  v.Rows("groups", r.groups);
  v.Rows("phases", r.phases);
  v.Object("totals", [&] { Describe(v, r.totals); });
  v.Optional("cluster", r.has_cluster, [&] { Describe(v, r.cluster); });
  v.Optional("comm", r.has_comm, [&] { Describe(v, r.comm); });
}

// ------------------------------------------------------------ service --

template <typename Walk>
void Describe(Walk& v, const ReportLatency& l) {
  v.Field("p50", l.p50);
  v.Field("p95", l.p95);
  v.Field("p99", l.p99);
  v.Field("mean", l.mean);
  v.Field("max", l.max);
}

template <typename Walk>
void Describe(Walk& v, const ServiceReport& r) {
  v.Object("workload", [&] {
    v.Field("graph", r.graph);
    v.Field("vertex_count", r.vertex_count);
    v.Field("edge_count", r.edge_count);
    v.Field("strategy", r.strategy);
    v.Field("grouping", r.grouping);
    v.Field("arrival", r.arrival);
    v.Field("offered_qps", r.offered_qps);
    v.Field("duration_seconds", r.duration_seconds);
    v.Field("queries", r.queries);
  });
  v.Object("service", [&] {
    v.Field("max_batch", r.max_batch);
    v.Field("max_delay_ms", r.max_delay_ms);
    v.Field("execute_threads", r.execute_threads);
    v.Field("batches", r.batches);
    v.Field("groups", r.groups);
    v.Field("size_closes", r.size_closes);
    v.Field("deadline_closes", r.deadline_closes);
    v.Field("shutdown_closes", r.shutdown_closes);
    v.Field("mean_batch_size", r.mean_batch_size);
  });
  v.Object("results", [&] {
    v.Field("completed", r.completed);
    v.Field("failed", r.failed);
    v.Field("achieved_qps", r.achieved_qps);
    v.Field("wall_seconds", r.wall_seconds);
    v.Field("sim_seconds", r.sim_seconds);
    v.Field("teps", r.teps);
    v.Field("sharing_ratio", r.sharing_ratio);
    v.Field("oracle_sharing_ratio", r.oracle_sharing_ratio);
    v.Field("sharing_fraction", r.sharing_fraction);
  });
  v.Object("latency_ms", [&] {
    v.Object("queue", [&] { Describe(v, r.queue_ms); });
    v.Object("execute", [&] { Describe(v, r.execute_ms); });
    v.Object("total", [&] { Describe(v, r.total_ms); });
  });
  v.Object(
      "cache",
      [&] {
        v.Field("enabled", r.cache_enabled);
        v.Field("hits", r.cache_hits);
        v.Field("misses", r.cache_misses);
        v.Field("insertions", r.cache_insertions);
        v.Field("evictions", r.cache_evictions);
        v.Field("quarantined", r.cache_quarantined);
        v.Field("entries", r.cache_entries);
        v.Field("bytes_resident", r.cache_bytes_resident);
        v.Field("hit_ratio", r.cache_hit_ratio);
        v.Field("plan_hits", r.plan_hits);
        v.Field("plan_misses", r.plan_misses);
      },
      /*since=*/2);
}

constexpr Rule kServiceRules[] = {
    Percentiles("latency_ms.*"),
    Range("cache.hit_ratio", 0.0, 1.0),
};

// --------------------------------------------------------- resilience --

template <typename Walk>
void Describe(Walk& v, const ResilienceReport& r) {
  v.Object("workload", [&] {
    v.Field("graph", r.graph);
    v.Field("vertex_count", r.vertex_count);
    v.Field("edge_count", r.edge_count);
    v.Field("strategy", r.strategy);
    v.Field("grouping", r.grouping);
    v.Field("queries", r.queries);
    v.Field("offered_qps", r.offered_qps);
    v.Field("duration_seconds", r.duration_seconds);
  });
  v.Object("fault_plan", [&] {
    v.Field("spec", r.fault_spec);
    v.Field("device_count", r.device_count);
    v.Field("seed", r.fault_seed);
    v.Field("max_attempts", r.max_attempts);
    v.Field("deadline_ms", r.deadline_ms);
    v.Field("max_pending", r.max_pending);
    v.Field("cpu_fallback", r.cpu_fallback);
  });
  v.Object("outcomes", [&] {
    v.Field("completed", r.completed);
    v.Field("failed", r.failed);
    v.Field("deadline_exceeded", r.deadline_exceeded);
    v.Field("shed", r.shed);
    v.Field("degraded", r.degraded);
    v.Field("retries", r.retries);
    v.Field("transient_faults", r.transient_faults);
    v.Field("corruptions_detected", r.corruptions_detected);
    v.Field("breaker_opened", r.breaker_opened);
    v.Field("fallback_groups", r.fallback_groups);
    v.Field("wall_seconds", r.wall_seconds);
  });
  v.Object("verification", [&] {
    v.Field("checksums_compared", r.checksums_compared);
    v.Field("checksum_mismatches", r.checksum_mismatches);
  });
}

constexpr Rule kResilienceRules[] = {
    Min("outcomes.*", 0.0),
    Min("verification.*", 0.0),
    NotAbove("verification.checksum_mismatches", "checksums_compared"),
};

// -------------------------------------------------------------- fleet --

template <typename Walk>
void Describe(Walk& v, const FleetReportShard& s) {
  v.Field("shard", s.shard);
  v.Field("health", s.health);
  v.Field("weight", s.weight, /*since=*/2);
  v.Field("routed", s.routed);
  v.Field("queries", s.queries);
  v.Field("completed", s.completed);
  v.Field("failed", s.failed);
  v.Field("degraded", s.degraded);
  v.Field("cache_hits", s.cache_hits);
  v.Field("batches", s.batches);
  v.Field("groups", s.groups);
  v.Field("sim_seconds", s.sim_seconds);
}

template <typename Walk>
void Describe(Walk& v, const FleetReport& r) {
  v.Object("fleet", [&] {
    v.Field("graph", r.graph);
    v.Field("vertex_count", r.vertex_count);
    v.Field("edge_count", r.edge_count);
    v.Field("strategy", r.strategy);
    v.Field("grouping", r.grouping);
    v.Field("shards", r.shards);
    v.Field("vnodes", r.vnodes);
    v.Field("ring_seed", r.ring_seed);
  });
  v.Object("workload", [&] {
    v.Field("arrival", r.arrival);
    v.Field("offered_qps", r.offered_qps);
    v.Field("duration_seconds", r.duration_seconds);
    v.Field("queries", r.queries);
    v.Field("multi_source", r.multi_source);
    v.Field("multi_queries", r.multi_queries);
    v.Field("killed_shard", r.killed_shard);
    v.Field("joined_shards", r.joined_shards, /*since=*/2);
  });
  v.Object(
      "elasticity",
      [&] {
        v.Field("replication", r.replication);
        v.Field("shard_joins", r.shard_joins);
        v.Field("warmup_entries", r.warmup_entries);
        v.Field("replica_mismatches", r.replica_mismatches);
        v.Field("replica_cache_writes", r.replica_cache_writes);
        v.Field("recoveries", r.recoveries);
      },
      /*since=*/2);
  v.Rows("shards_detail", r.shard_rows);
  v.Object("aggregate", [&] {
    v.Field("completed", r.completed);
    v.Field("failed", r.failed);
    v.Field("achieved_qps", r.achieved_qps);
    v.Field("wall_seconds", r.wall_seconds);
    v.Field("imbalance", r.imbalance);
    v.Field("failover_reroutes", r.failover_reroutes);
    v.Field("fallback_answers", r.fallback_answers);
    v.Field("healthy", r.healthy);
    v.Field("degraded", r.degraded);
    v.Field("down", r.down);
  });
  v.Object("verification", [&] {
    v.Field("checksum", r.checksum);
    v.Field("unanswered", r.unanswered);
    v.Field("checksums_compared", r.checksums_compared);
    v.Field("checksum_mismatches", r.checksum_mismatches);
  });
  v.Object("latency_ms", [&] {
    v.Object("total", [&] { Describe(v, r.total_ms); });
  });
}

constexpr Rule kFleetRules[] = {
    Min("fleet.shards", 1.0),
    Min("elasticity.*", 0.0),
    Min("elasticity.replication", 1.0),
    Min("shards_detail.*.*", 0.0),
    OneOf("shards_detail.*.health", "healthy|degraded|down"),
    Min("aggregate.*", 0.0),
    Min("verification.*", 0.0),
    NotAbove("verification.checksum_mismatches", "checksums_compared"),
    Percentiles("latency_ms.*"),
};

// ------------------------------------------------- access log, flight --

template <typename Walk>
void Describe(Walk& v, const AccessRecord& a) {
  v.Field("ts_s", a.ts_s);
  v.Field("query_id", a.query_id);
  v.Field("source", a.source);
  v.Field("status", a.status);
  v.Field("ok", a.ok);
  v.Field("cached", a.cached);
  v.Field("degraded", a.degraded);
  v.Field("attempts", a.attempts);
  v.Field("batch_id", a.batch_id);
  v.Field("group_index", a.group_index);
  v.Field("queue_ms", a.queue_ms);
  v.Field("batch_ms", a.batch_ms);
  v.Field("execute_ms", a.execute_ms);
  v.Field("total_ms", a.total_ms);
  v.Field("reached", a.reached);
}

template <typename Walk>
void Describe(Walk& v, const FlightEvent& e) {
  v.Field("ts_s", e.ts_s);
  v.Field("name", e.name);
  v.Field("detail", e.detail);
}

template <typename Walk>
void Describe(Walk& v, const FlightRecord& r) {
  v.Field("trigger", r.trigger);
  v.Field("ts_s", r.ts_s);
  v.Field("dump_index", r.dump_index);
  v.Rows("queries", r.queries);
  v.Rows("events", r.events);
}

constexpr Rule kFlightRules[] = {
    Min("queries.*.queue_ms", 0.0),
    Min("queries.*.execute_ms", 0.0),
    Min("queries.*.total_ms", 0.0),
};

// ------------------------------------------------------------ envelope --

/// Every document opens with its schema name and version and may end with
/// an embedded metrics snapshot.
template <typename Walk, typename Doc>
void DescribeDocument(Walk& v, const Doc& doc, const MetricsRegistry* metrics) {
  v.Schema("schema", Doc::kSchema);
  v.Version("schema_version", Doc::kSchemaVersion);
  Describe(v, doc);
  v.Metrics("metrics", metrics);
}

// ------------------------------------------------------------- walkers --

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
constexpr JsonValue::Kind KindOf() {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::Kind::kBool;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return JsonValue::Kind::kNumber;
  } else if constexpr (IsVector<T>::value) {
    return JsonValue::Kind::kArray;
  } else {
    return JsonValue::Kind::kString;
  }
}

/// Writes a described struct as one single-line JSON object.
class JsonSink {
 public:
  explicit JsonSink(std::ostream& os) : w_(os) {}

  template <typename Body>
  void Root(Body&& body) {
    w_.BeginObject();
    body();
    w_.EndObject();
  }

  template <typename T>
  void Field(std::string_view key, const T& value, int /*since*/ = 1) {
    w_.Key(key);
    Put(value);
  }

  template <typename Body>
  void Object(std::string_view key, Body&& body, int /*since*/ = 1) {
    w_.Key(key);
    Root(body);
  }

  template <typename Body>
  void Optional(std::string_view key, bool present, Body&& body) {
    if (present) Object(key, body);
  }

  template <typename Container>
  void Rows(std::string_view key, const Container& rows) {
    w_.Key(key);
    w_.BeginArray();
    for (const auto& row : rows) Root([&] { Describe(*this, row); });
    w_.EndArray();
  }

  void Schema(std::string_view key, std::string_view schema) {
    Field(key, schema);
  }
  void Version(std::string_view key, int version) { Field(key, version); }
  void Metrics(std::string_view key, const MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    w_.Key(key);
    w_.Raw(metrics->ToJson());
  }

 private:
  template <typename T>
  void Put(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.Bool(value);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      w_.Uint(value);
    } else if constexpr (std::is_integral_v<T>) {
      w_.Int(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      w_.Double(value);
    } else if constexpr (IsVector<T>::value) {
      w_.BeginArray();
      for (const auto& item : value) Put(item);
      w_.EndArray();
    } else {
      w_.String(value);
    }
  }

  JsonWriter w_;
};

/// Checks a parsed document against a description: every member present
/// (unless newer than the document's schema_version, or in an absent
/// Optional section) and of the right kind. The first problem wins.
class JsonCheck {
 public:
  JsonCheck(const JsonValue& root, std::string where)
      : node_(&root), where_(std::move(where)) {}

  const Status& status() const { return status_; }

  template <typename T>
  void Field(std::string_view key, const T& /*unused*/, int since = 1) {
    const JsonValue* value = Member(key, KindOf<T>(), since);
    if constexpr (IsVector<T>::value) {
      if (value == nullptr) return;
      for (const JsonValue& item : value->array()) {
        if (item.kind() != KindOf<typename T::value_type>()) {
          return Fail("\"" + std::string(key) + "\" has an element of the "
                      "wrong type");
        }
      }
    }
  }

  template <typename Body>
  void Object(std::string_view key, Body&& body, int since = 1) {
    const JsonValue* object = Member(key, JsonValue::Kind::kObject, since);
    if (object != nullptr) Enter(*object, std::string(key), body);
  }

  template <typename Body>
  void Optional(std::string_view key, bool /*present*/, Body&& body) {
    if (status_.ok() && node_->Find(key) != nullptr) Object(key, body);
  }

  template <typename Container>
  void Rows(std::string_view key, const Container& /*unused*/) {
    const JsonValue* rows = Member(key, JsonValue::Kind::kArray, 1);
    if (rows == nullptr) return;
    const typename Container::value_type proto{};
    size_t index = 0;
    for (const JsonValue& row : rows->array()) {
      const std::string name = std::string(key) + " " + std::to_string(index++);
      if (!row.is_object()) return Fail(name + " is not an object");
      Enter(row, name, [&] { Describe(*this, proto); });
    }
  }

  void Schema(std::string_view key, std::string_view schema) {
    const JsonValue* value = Member(key, JsonValue::Kind::kString, 1);
    if (value != nullptr && value->string_value() != schema) {
      Fail("unexpected schema \"" + value->string_value() + "\"");
    }
  }
  void Version(std::string_view key, int /*current*/) {
    const JsonValue* value = Member(key, JsonValue::Kind::kNumber, 1);
    if (value == nullptr) return;
    version_ = value->number_value();
    if (version_ < 1) Fail("bad " + std::string(key));
  }
  void Metrics(std::string_view key, const MetricsRegistry* /*unused*/) {
    if (!status_.ok()) return;
    if (const JsonValue* metrics = node_->Find(key)) {
      status_ = ValidateMetrics(*metrics);
    }
  }

 private:
  const JsonValue* Member(std::string_view key, JsonValue::Kind kind,
                          int since) {
    if (!status_.ok() || since > version_) return nullptr;
    return RequireMember(*node_, key, kind, &status_, where_);
  }

  template <typename Body>
  void Enter(const JsonValue& node, const std::string& name, Body&& body) {
    const JsonValue* outer = node_;
    const size_t outer_size = where_.size();
    node_ = &node;
    where_ += " " + name;
    body();
    node_ = outer;
    where_.resize(outer_size);
  }

  void Fail(const std::string& what) {
    if (status_.ok()) status_ = Status::InvalidArgument(where_ + ": " + what);
  }

  const JsonValue* node_;
  std::string where_;
  double version_ = 1.0;
  Status status_;
};

// --------------------------------------------------------------- rules --

/// Calls `visit(parent, value, name)` for every value `path` names below
/// `node`; `name` is the dotted path with "*" resolved.
template <typename Visit>
void ForEachMatch(const JsonValue& node, std::string_view path,
                  const std::string& prefix, Visit&& visit) {
  const size_t dot = path.find('.');
  const std::string_view head = path.substr(0, dot);
  const std::string_view rest =
      dot == std::string_view::npos ? std::string_view() : path.substr(dot + 1);
  auto step = [&](const JsonValue& child, const std::string& key) {
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    if (rest.empty()) {
      visit(node, child, name);
    } else {
      ForEachMatch(child, rest, name, visit);
    }
  };
  if (head != "*") {
    const JsonValue* child = node.Find(head);
    if (child != nullptr) step(*child, std::string(head));
  } else if (node.is_object()) {
    for (const auto& [key, child] : node.object()) step(child, key);
  } else if (node.is_array()) {
    for (size_t i = 0; i < node.array().size(); ++i) {
      step(node.array()[i], std::to_string(i));
    }
  }
}

double NumberOr(const JsonValue& object, std::string_view key, double absent) {
  const JsonValue* member = object.Find(key);
  return member != nullptr && member->is_number() ? member->number_value()
                                                  : absent;
}

std::string FormatNumber(double x) {
  std::ostringstream os;
  WriteJsonNumber(os, x);
  return os.str();
}

/// Why `value` (under `parent`) breaks `rule`; empty when it does not.
std::string Violation(const Rule& rule, const JsonValue& parent,
                      const JsonValue& value) {
  const double x = value.number_value();
  switch (rule.op) {
    case Rule::Op::kRange:
      if (!value.is_number() || (x >= rule.lo && x <= rule.hi)) return "";
      if (rule.hi == std::numeric_limits<double>::infinity()) {
        return "must be >= " + FormatNumber(rule.lo);
      }
      return "must be in [" + FormatNumber(rule.lo) + ", " +
             FormatNumber(rule.hi) + "]";
    case Rule::Op::kNotAbove:
      if (!value.is_number() || x <= NumberOr(parent, rule.other, x)) {
        return "";
      }
      return "must be <= " + std::string(rule.other);
    case Rule::Op::kPercentiles: {
      const double p50 = NumberOr(value, "p50", 0.0);
      const double p95 = NumberOr(value, "p95", p50);
      const double p99 = NumberOr(value, "p99", p95);
      if (p50 >= 0.0 && p50 <= p95 && p95 <= p99) return "";
      return "percentiles must satisfy 0 <= p50 <= p95 <= p99";
    }
    case Rule::Op::kOneOf: {
      if (!value.is_string()) return "";
      const std::string& s = value.string_value();
      std::string_view rest = rule.other;
      while (!rest.empty()) {
        const size_t bar = rest.find('|');
        if (rest.substr(0, bar) == s) return "";
        rest = bar == std::string_view::npos ? "" : rest.substr(bar + 1);
      }
      return "unknown value \"" + s + "\"";
    }
  }
  return "";
}

template <typename Doc>
Status ValidateDocument(const JsonValue& doc, const std::string& what,
                        std::span<const Rule> rules = {}) {
  if (!doc.is_object()) {
    return Status::InvalidArgument(what + ": top level is not an object");
  }
  JsonCheck check(doc, what);
  DescribeDocument(check, Doc{}, nullptr);
  if (!check.status().ok()) return check.status();
  for (const Rule& rule : rules) {
    std::string problem;
    ForEachMatch(doc, rule.path, "",
                 [&](const JsonValue& parent, const JsonValue& value,
                     const std::string& name) {
                   const std::string why = Violation(rule, parent, value);
                   if (problem.empty() && !why.empty()) {
                     problem = what + ": " + name + " " + why;
                   }
                 });
    if (!problem.empty()) return Status::InvalidArgument(problem);
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------- entry points --

template <typename Doc>
void JsonDocument<Doc>::WriteJson(std::ostream& os,
                                  const MetricsRegistry* metrics) const {
  JsonSink sink(os);
  sink.Root([&] {
    DescribeDocument(sink, static_cast<const Doc&>(*this), metrics);
  });
}

template <typename Doc>
Status JsonDocument<Doc>::WriteFile(const std::string& path,
                                    const MetricsRegistry* metrics) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WriteJson(out, metrics);
  out << '\n';
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

template struct JsonDocument<RunReport>;
template struct JsonDocument<ServiceReport>;
template struct JsonDocument<ResilienceReport>;
template struct JsonDocument<FleetReport>;
template struct JsonDocument<FlightRecord>;

void AccessRecord::WriteJson(std::ostream& os) const {
  JsonSink sink(os);
  sink.Root([&] { Describe(sink, *this); });
}

Status ValidateRunReport(const JsonValue& doc) {
  return ValidateDocument<RunReport>(doc, "report");
}

Status ValidateServiceReport(const JsonValue& doc) {
  return ValidateDocument<ServiceReport>(doc, "service report", kServiceRules);
}

Status ValidateResilienceReport(const JsonValue& doc) {
  return ValidateDocument<ResilienceReport>(doc, "resilience report",
                                            kResilienceRules);
}

Status ValidateFleetReport(const JsonValue& doc) {
  return ValidateDocument<FleetReport>(doc, "fleet report", kFleetRules);
}

Status ValidateFlightRecord(const JsonValue& doc) {
  return ValidateDocument<FlightRecord>(doc, "flight record", kFlightRules);
}

}  // namespace ibfs::obs
