#ifndef IBFS_OBS_VALIDATE_H_
#define IBFS_OBS_VALIDATE_H_

#include <functional>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/status.h"

namespace ibfs::obs {

/// Structural validators for the observability output formats, used by the
/// `ibfs_cli check` command and the ctest smoke tests so every format the
/// subsystem emits is machine-verified on each `ctest` run — no external
/// JSON tooling required.

/// The member `key` of `obj` when present with `kind`; otherwise null, with
/// *status set to an InvalidArgument error prefixed by `where`. Every
/// validator below builds on it.
const JsonValue* RequireMember(const JsonValue& obj, std::string_view key,
                               JsonValue::Kind kind, Status* status,
                               const std::string& where);

/// Parses the JSON file at `path` and runs `validate` on it, e.g.
/// ValidateFile(path, ValidateFleetReport).
Status ValidateFile(const std::string& path,
                    const std::function<Status(const JsonValue&)>& validate);

/// Checks a parsed Chrome-trace document: top-level object with a
/// "traceEvents" array; every event carries name/ph/pid/tid with the right
/// types; "X" events carry a non-negative "dur"; at least one span when
/// `require_spans` is set.
Status ValidateTrace(const JsonValue& doc, bool require_spans = false);

/// Checks a metrics snapshot: counters/gauges/histograms objects; each
/// histogram's buckets array is bounds+1 long and sums to count.
Status ValidateMetrics(const JsonValue& doc);

/// The document validators walk the same description as the writers
/// (obs/schema.cc): schema name and version match, every member the
/// document's version has is present with the right JSON kind, and an
/// embedded "metrics" snapshot passes ValidateMetrics. Each adds its
/// schema's own checks:
///
/// "ibfs.run_report": none beyond structure.
Status ValidateRunReport(const JsonValue& doc);
/// "ibfs.service_report": ordered latency percentiles, hit_ratio in [0, 1].
Status ValidateServiceReport(const JsonValue& doc);
/// "ibfs.resilience_report": non-negative outcome and verification
/// counters, checksum_mismatches <= checksums_compared.
Status ValidateResilienceReport(const JsonValue& doc);
/// "ibfs.fleet_report": shards >= 1, replication >= 1, non-negative
/// counters, a known health state per shard row, checksum_mismatches <=
/// checksums_compared, ordered latency percentiles.
Status ValidateFleetReport(const JsonValue& doc);
/// "ibfs.flight_record": non-negative query latencies.
Status ValidateFlightRecord(const JsonValue& doc);

}  // namespace ibfs::obs

#endif  // IBFS_OBS_VALIDATE_H_
