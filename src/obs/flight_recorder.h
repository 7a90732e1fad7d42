#ifndef DSKS_OBS_FLIGHT_RECORDER_H_
#define DSKS_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/io_account.h"
#include "obs/trace.h"

namespace dsks::obs {

class Gauge;

/// One completed query, compressed to a fixed-size record: identity,
/// outcome, total cost, and (when the query ran traced) the per-phase
/// exclusive breakdown of its one trace. `kind` and `status` are
/// static-lifetime strings (workload labels, Status::CodeName) so a record
/// is trivially copyable and recording never allocates.
struct QuerySummary {
  uint64_t seq = 0;  // assigned by FlightRecorder::Record, 1-based
  const char* kind = "query";
  uint32_t terms = 0;
  const char* status = "OK";
  bool error = false;
  bool traced = false;  // `phases` carries real data
  double total_ms = 0.0;
  /// The query's exact I/O attribution (its context's counter delta).
  IoCounters total_io;
  /// QueryTrace::AggregateByPhase of the query's trace.
  std::array<PhaseTotals, kNumPhases> phases{};
};

/// Bounded in-memory record of completed queries — the part of the
/// telemetry you want when a live system misbehaves: what just ran, what
/// was slow, what failed. Three fixed-capacity regions, each preallocated
/// at construction:
///
///   recent  — ring of the last `recent_capacity` records, any outcome.
///   slowest — the top `slow_capacity` records by total_ms since the last
///             Clear, kept even after recency evicts them from the ring.
///   errors  — ring of the last `error_capacity` records with a non-OK
///             status, likewise retained past recency eviction.
///
/// Record is one short mutex hold, O(log slow_capacity), allocation-free;
/// snapshots and renderings copy out under the same mutex. An optional
/// occupancy gauge tracks the number of live slots across the regions.
class FlightRecorder {
 public:
  struct Options {
    size_t recent_capacity = 256;
    size_t slow_capacity = 16;
    size_t error_capacity = 64;
  };

  FlightRecorder();
  explicit FlightRecorder(const Options& options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Stamps the record's seq (returned) and files it into every region it
  /// qualifies for. Thread-safe.
  uint64_t Record(QuerySummary summary);

  struct Snapshot {
    uint64_t recorded = 0;  // total Record calls since Clear
    std::vector<QuerySummary> recent;   // newest first
    std::vector<QuerySummary> slowest;  // slowest first
    std::vector<QuerySummary> errors;   // newest first
  };
  Snapshot TakeSnapshot() const;

  /// Drops every region and restarts seq numbering.
  void Clear();

  /// Live slots across the three regions (a query retained in two regions
  /// occupies two slots). This is what the occupancy gauge reports.
  size_t size() const;
  uint64_t recorded() const;

  /// Optional gauge kept equal to size(); pass null to detach. The gauge
  /// must outlive the recorder (registry-owned gauges do).
  void set_occupancy_gauge(Gauge* gauge);

  /// {"recorded":N,"recent":[...],"slowest":[...],"errors":[...]}; each
  /// record carries its "io" (obs::IoJson) and, when traced, its "phases"
  /// (obs::PhasesJson).
  std::string ToJson() const;

 private:
  void FileIntoRingLocked(std::vector<QuerySummary>* ring, size_t* next,
                          size_t capacity, const QuerySummary& s);
  void UpdateGaugeLocked();

  const Options options_;

  mutable std::mutex mu_;
  uint64_t recorded_ = 0;
  // recent/errors are rings: position `next % capacity` is overwritten.
  std::vector<QuerySummary> recent_;
  size_t recent_next_ = 0;
  std::vector<QuerySummary> errors_;
  size_t error_next_ = 0;
  // slowest is a min-heap on total_ms, so the eviction candidate is root.
  std::vector<QuerySummary> slowest_;
  Gauge* occupancy_ = nullptr;
};

}  // namespace dsks::obs

#endif  // DSKS_OBS_FLIGHT_RECORDER_H_
