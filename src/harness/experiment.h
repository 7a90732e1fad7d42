#ifndef DSKS_HARNESS_EXPERIMENT_H_
#define DSKS_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/workload.h"
#include "harness/database.h"
#include "storage/disk_manager.h"

namespace dsks {

/// Applies the simulated per-read disk latency to `disk` for the duration
/// of a measured workload (not during index builds). Default 50us;
/// override with DSKS_IO_DELAY_US (0 disables — pure CPU timing).
///
/// `yielding` selects DiskManager's sleep mode: the waiting thread blocks
/// and frees its core like a real disk read would, so concurrent queries
/// overlap their I/O. The sequential harness keeps the default busy-wait
/// (scheduler-independent timings).
class ScopedIoDelay {
 public:
  explicit ScopedIoDelay(DiskManager* disk, bool yielding = false);
  ~ScopedIoDelay();

  ScopedIoDelay(const ScopedIoDelay&) = delete;
  ScopedIoDelay& operator=(const ScopedIoDelay&) = delete;

 private:
  DiskManager* disk_;
};

/// Workload-averaged SK search metrics — the quantities the paper's §5.1
/// figures plot (response time, # I/O accesses, # candidate objects,
/// false-hit volume).
struct SkWorkloadMetrics {
  double avg_millis = 0.0;
  double avg_io = 0.0;
  double avg_candidates = 0.0;
  double avg_false_hits = 0.0;
  double avg_false_hit_objects = 0.0;
  double avg_edges_skipped = 0.0;
  double avg_objects_loaded = 0.0;
};

/// Runs every query of the workload through Algorithm 3 (after a warm-up
/// pass is NOT performed — the paper measures with a small LRU buffer and
/// so do we) and averages the counters.
SkWorkloadMetrics RunSkWorkload(Database* db, const Workload& workload);

/// Workload-averaged diversified search metrics (§5.2).
struct DivWorkloadMetrics {
  double avg_millis = 0.0;
  double avg_io = 0.0;
  double avg_candidates = 0.0;
  double avg_objective = 0.0;
  double early_termination_rate = 0.0;
  /// Per-object distance fields (bounded Dijkstras) run by the oracle.
  double avg_distance_fields = 0.0;
};

DivWorkloadMetrics RunDivWorkload(Database* db, const Workload& workload,
                                  size_t k, double lambda, bool use_com);

/// Minimal fixed-width table printer for the bench binaries, so every
/// figure's output reads like the paper's series.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dsks

#endif  // DSKS_HARNESS_EXPERIMENT_H_
