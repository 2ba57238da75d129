#include "obs/flight.h"

#include <sstream>

namespace ibfs::obs {

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {}

void FlightRecorder::RecordQuery(const AccessRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.push_back(record);
  while (queries_.size() > options_.max_queries) queries_.pop_front();
}

void FlightRecorder::RecordEvent(double now_s, std::string name,
                                 std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(FlightEvent{now_s, std::move(name), std::move(detail)});
  while (events_.size() > options_.max_events) events_.pop_front();
}

void FlightRecorder::WriteJson(std::ostream& os, std::string_view reason,
                               double now_s) const {
  FlightRecord record;
  record.trigger = reason;
  record.ts_s = now_s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.dump_index = dumps_;
    record.queries = queries_;
    record.events = events_;
  }
  record.WriteJson(os);
  os << '\n';
}

bool FlightRecorder::Trigger(std::string_view reason, double now_s,
                             Status* error) {
  if (error != nullptr) *error = Status::OK();
  std::string content;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.dump_path.empty()) return false;
    if (last_dump_s_ >= 0.0 &&
        now_s - last_dump_s_ < options_.min_dump_interval_s) {
      return false;
    }
    last_dump_s_ = now_s;
    ++dumps_;
  }
  std::ostringstream os;
  WriteJson(os, reason, now_s);
  content = os.str();
  const Status st = WriteFileAtomic(options_.dump_path, content);
  if (!st.ok()) {
    if (error != nullptr) *error = st;
    return false;
  }
  return true;
}

int64_t FlightRecorder::dumps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dumps_;
}

size_t FlightRecorder::query_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

size_t FlightRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

}  // namespace ibfs::obs
