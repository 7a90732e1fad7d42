#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "obs/metrics.h"

namespace dsks::obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

/// Min-heap order on total_ms: the root is the cheapest retained record,
/// i.e. the one a slower newcomer evicts.
bool SlowerThan(const QuerySummary& a, const QuerySummary& b) {
  return a.total_ms > b.total_ms;
}

void AppendSummaryJson(std::string* out, const QuerySummary& s) {
  AppendF(out,
          "{\"seq\":%llu,\"kind\":\"%s\",\"terms\":%u,\"status\":\"%s\","
          "\"traced\":%s,\"ms\":%.6f,\"io\":",
          static_cast<unsigned long long>(s.seq), s.kind, s.terms, s.status,
          s.traced ? "true" : "false", s.total_ms);
  out->append(IoJson(s.total_io));
  if (s.traced) {
    out->append(",\"phases\":");
    out->append(PhasesJson(s.phases));
  }
  out->append("}");
}

}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(const Options& options) : options_(options) {
  recent_.reserve(options_.recent_capacity);
  errors_.reserve(options_.error_capacity);
  slowest_.reserve(options_.slow_capacity);
}

void FlightRecorder::FileIntoRingLocked(std::vector<QuerySummary>* ring,
                                        size_t* next, size_t capacity,
                                        const QuerySummary& s) {
  if (capacity == 0) {
    return;
  }
  if (ring->size() < capacity) {
    ring->push_back(s);
  } else {
    (*ring)[*next % capacity] = s;
  }
  ++*next;
}

uint64_t FlightRecorder::Record(QuerySummary summary) {
  std::lock_guard<std::mutex> lock(mu_);
  summary.seq = ++recorded_;
  FileIntoRingLocked(&recent_, &recent_next_, options_.recent_capacity,
                     summary);
  if (summary.error) {
    FileIntoRingLocked(&errors_, &error_next_, options_.error_capacity,
                       summary);
  }
  if (options_.slow_capacity > 0) {
    if (slowest_.size() < options_.slow_capacity) {
      slowest_.push_back(summary);
      std::push_heap(slowest_.begin(), slowest_.end(), SlowerThan);
    } else if (summary.total_ms > slowest_.front().total_ms) {
      std::pop_heap(slowest_.begin(), slowest_.end(), SlowerThan);
      slowest_.back() = summary;
      std::push_heap(slowest_.begin(), slowest_.end(), SlowerThan);
    }
  }
  UpdateGaugeLocked();
  return summary.seq;
}

FlightRecorder::Snapshot FlightRecorder::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.recorded = recorded_;
  snap.recent.reserve(recent_.size());
  for (size_t k = 0; k < recent_.size(); ++k) {
    // Walk the ring backwards from the newest slot.
    const size_t pos =
        (recent_next_ - 1 - k) % options_.recent_capacity;
    snap.recent.push_back(recent_[pos]);
  }
  snap.errors.reserve(errors_.size());
  for (size_t k = 0; k < errors_.size(); ++k) {
    const size_t pos = (error_next_ - 1 - k) % options_.error_capacity;
    snap.errors.push_back(errors_[pos]);
  }
  snap.slowest = slowest_;
  std::sort(snap.slowest.begin(), snap.slowest.end(), SlowerThan);
  return snap;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  recorded_ = 0;
  recent_.clear();
  recent_next_ = 0;
  errors_.clear();
  error_next_ = 0;
  slowest_.clear();
  UpdateGaugeLocked();
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recent_.size() + errors_.size() + slowest_.size();
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

void FlightRecorder::set_occupancy_gauge(Gauge* gauge) {
  std::lock_guard<std::mutex> lock(mu_);
  occupancy_ = gauge;
  UpdateGaugeLocked();
}

void FlightRecorder::UpdateGaugeLocked() {
  if (occupancy_ != nullptr) {
    occupancy_->Set(static_cast<double>(recent_.size() + errors_.size() +
                                        slowest_.size()));
  }
}

std::string FlightRecorder::ToJson() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  AppendF(&out, "{\"recorded\":%llu",
          static_cast<unsigned long long>(snap.recorded));
  const struct {
    const char* name;
    const std::vector<QuerySummary>* list;
  } regions[] = {{"recent", &snap.recent},
                 {"slowest", &snap.slowest},
                 {"errors", &snap.errors}};
  for (const auto& region : regions) {
    AppendF(&out, ",\"%s\":[", region.name);
    for (size_t i = 0; i < region.list->size(); ++i) {
      if (i > 0) {
        out.append(",");
      }
      AppendSummaryJson(&out, (*region.list)[i]);
    }
    out.append("]");
  }
  out.append("}");
  return out;
}

}  // namespace dsks::obs
