#include "obs/validate.h"

#include <cmath>
#include <string>

namespace ibfs::obs {
namespace {

Status Bad(const std::string& what) {
  return Status::InvalidArgument(what);
}

}  // namespace

const JsonValue* RequireMember(const JsonValue& obj, std::string_view key,
                               JsonValue::Kind kind, Status* status,
                               const std::string& where) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) {
    *status = Bad(where + ": missing \"" + std::string(key) + "\"");
    return nullptr;
  }
  if (member->kind() != kind) {
    *status = Bad(where + ": \"" + std::string(key) + "\" has wrong type");
    return nullptr;
  }
  return member;
}

Status ValidateFile(const std::string& path,
                    const std::function<Status(const JsonValue&)>& validate) {
  Result<JsonValue> doc = ParseJsonFile(path);
  if (!doc.ok()) return doc.status();
  return validate(doc.value());
}

Status ValidateTrace(const JsonValue& doc, bool require_spans) {
  if (!doc.is_object()) return Bad("trace: top level is not an object");
  Status st;
  const JsonValue* events = RequireMember(
      doc, "traceEvents", JsonValue::Kind::kArray, &st, "trace");
  if (events == nullptr) return st;
  size_t span_count = 0;
  size_t index = 0;
  for (const JsonValue& event : events->array()) {
    const std::string where = "trace event " + std::to_string(index++);
    if (!event.is_object()) return Bad(where + ": not an object");
    const JsonValue* ph =
        RequireMember(event, "ph", JsonValue::Kind::kString, &st, where);
    if (ph == nullptr) return st;
    if (ph->string_value().size() != 1) {
      return Bad(where + ": \"ph\" must be one character");
    }
    if (RequireMember(event, "name", JsonValue::Kind::kString, &st, where) ==
        nullptr) {
      return st;
    }
    for (const char* key : {"pid", "tid"}) {
      if (RequireMember(event, key, JsonValue::Kind::kNumber, &st, where) ==
          nullptr) {
        return st;
      }
    }
    const char phase = ph->string_value()[0];
    if (phase != 'M') {
      if (RequireMember(event, "ts", JsonValue::Kind::kNumber, &st, where) ==
          nullptr) {
        return st;
      }
    }
    if (phase == 'X') {
      const JsonValue* dur =
          RequireMember(event, "dur", JsonValue::Kind::kNumber, &st, where);
      if (dur == nullptr) return st;
      if (dur->number_value() < 0.0) {
        return Bad(where + ": negative span duration");
      }
      ++span_count;
    }
  }
  if (require_spans && span_count == 0) {
    return Bad("trace: no complete spans (\"ph\":\"X\") recorded");
  }
  return Status::OK();
}

Status ValidateMetrics(const JsonValue& doc) {
  if (!doc.is_object()) return Bad("metrics: top level is not an object");
  Status st;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (RequireMember(doc, section, JsonValue::Kind::kObject, &st,
                      "metrics") == nullptr) {
      return st;
    }
  }
  for (const auto& [name, value] : doc.Find("counters")->object()) {
    if (!value.is_number()) {
      return Bad("metrics counter \"" + name + "\" is not a number");
    }
  }
  for (const auto& [name, value] : doc.Find("gauges")->object()) {
    if (!value.is_number()) {
      return Bad("metrics gauge \"" + name + "\" is not a number");
    }
  }
  for (const auto& [name, histogram] : doc.Find("histograms")->object()) {
    const std::string where = "metrics histogram \"" + name + "\"";
    if (!histogram.is_object()) return Bad(where + " is not an object");
    for (const char* key : {"count", "sum", "min", "max"}) {
      if (RequireMember(histogram, key, JsonValue::Kind::kNumber, &st,
                        where) == nullptr) {
        return st;
      }
    }
    const JsonValue* bounds =
        RequireMember(histogram, "bounds", JsonValue::Kind::kArray, &st,
                      where);
    if (bounds == nullptr) return st;
    const JsonValue* buckets =
        RequireMember(histogram, "buckets", JsonValue::Kind::kArray, &st,
                      where);
    if (buckets == nullptr) return st;
    if (buckets->array().size() != bounds->array().size() + 1) {
      return Bad(where + ": buckets must have bounds+1 entries");
    }
    double bucket_sum = 0.0;
    for (const JsonValue& b : buckets->array()) {
      if (!b.is_number()) return Bad(where + ": bucket is not a number");
      bucket_sum += b.number_value();
    }
    const double count = histogram.Find("count")->number_value();
    if (std::fabs(bucket_sum - count) > 0.5) {
      return Bad(where + ": bucket counts do not sum to count");
    }
  }
  return Status::OK();
}

}  // namespace ibfs::obs
