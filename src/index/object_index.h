#ifndef DSKS_INDEX_OBJECT_INDEX_H_
#define DSKS_INDEX_OBJECT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace dsks {

/// An object that satisfied the keyword constraint on a probed edge,
/// together with its rank along the edge and its cost offset from the
/// edge's reference node n1 (w(n2, o) = edge weight - w1, Equation 1).
/// `pos` sits in what would be padding: the struct stays 16 bytes.
struct LoadedObject {
  ObjectId id = kInvalidObjectId;
  uint16_t pos = 0;
  double w1 = 0.0;
};
static_assert(sizeof(LoadedObject) == 16);

/// Per-query counters an index accumulates across LoadObjects calls. The
/// figures in §5 are built from these plus the buffer-pool/disk I/O stats.
///
/// Counters are relaxed atomics so the same index instance can serve
/// concurrent queries (the counters then aggregate across all in-flight
/// queries; per-query attribution requires running queries one at a time,
/// which is what the sequential experiment harness does).
struct ObjectIndexStats {
  /// LoadObjects invocations (edges probed during network expansion).
  std::atomic<uint64_t> edges_probed{0};
  /// Edges rejected by the in-memory signature test without any I/O.
  std::atomic<uint64_t> edges_skipped_by_signature{0};
  /// Posting entries (or R-tree candidate objects) read from disk pages.
  std::atomic<uint64_t> objects_loaded{0};
  /// Objects returned (satisfied the full AND keyword constraint).
  std::atomic<uint64_t> objects_returned{0};
  /// Probes that performed I/O but returned no object (§3.3 "false hit").
  std::atomic<uint64_t> false_hits{0};
  /// Objects loaded by those false hits (the ξ cost of §3.3).
  std::atomic<uint64_t> false_hit_objects{0};

  void Reset() {
    edges_probed.store(0, std::memory_order_relaxed);
    edges_skipped_by_signature.store(0, std::memory_order_relaxed);
    objects_loaded.store(0, std::memory_order_relaxed);
    objects_returned.store(0, std::memory_order_relaxed);
    false_hits.store(0, std::memory_order_relaxed);
    false_hit_objects.store(0, std::memory_order_relaxed);
  }
};

/// Interface of the spatio-textual object indexes compared in the paper:
/// IR (inverted R-tree), IF (inverted file), SIF (signature-based inverted
/// file), SIF-P (partition-enhanced) and SIF-G (group-based). The SK search
/// algorithm (Algorithm 3) calls LoadObjects for every edge it expands.
class ObjectIndex {
 public:
  virtual ~ObjectIndex() = default;

  /// Algorithm 2: returns the objects lying on `edge` that contain every
  /// term in `terms` (sorted by position along the edge). `terms` must be
  /// non-empty. Disk errors (IOError/Corruption) propagate; `out` must be
  /// considered garbage on a non-OK return.
  virtual Status LoadObjects(EdgeId edge, std::span<const TermId> terms,
                             std::vector<LoadedObject>* out) = 0;

  /// Total size of the disk-resident part plus in-memory summaries
  /// (signatures, directories), for the Fig. 6(c) index-size comparison.
  virtual uint64_t SizeBytes() const = 0;

  /// Display name, e.g. "SIF-P".
  virtual std::string name() const = 0;

  ObjectIndexStats& stats() { return stats_; }
  const ObjectIndexStats& stats() const { return stats_; }

 protected:
  ObjectIndexStats stats_;
};

}  // namespace dsks

#endif  // DSKS_INDEX_OBJECT_INDEX_H_
