#ifndef DSKS_INDEX_OBJECT_FILE_H_
#define DSKS_INDEX_OBJECT_FILE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/object_set.h"
#include "graph/types.h"
#include "storage/buffer_pool.h"

namespace dsks {

/// Disk-resident array of fixed-size object records addressed directly by
/// ObjectId. The IR (inverted R-tree) baseline uses it to verify, for each
/// candidate returned by the per-keyword R-trees, which edge the object
/// lies on and its cost offset — the extra I/O that makes IR expensive
/// (§5.1: "it is cost expensive to check the objects lying on an edge").
class ObjectFile {
 public:
  struct Record {
    EdgeId edge = kInvalidEdgeId;
    /// Cost from the edge's reference node n1 to the object.
    double w1 = 0.0;
    /// Rank of the object along its edge (offset order).
    uint16_t pos = 0;
  };

  /// Writes one record per object in id order, each page once, straight
  /// to `pool->disk()`; a failed write CHECK-fails (a build runs on a
  /// fault-free disk by contract).
  ObjectFile(BufferPool* pool, const ObjectSet& objects);

  ObjectFile(const ObjectFile&) = delete;
  ObjectFile& operator=(const ObjectFile&) = delete;
  ObjectFile(ObjectFile&&) = default;

  /// Fetches the record of `id` (one page access via the buffer pool).
  Status Get(ObjectId id, Record* out) const;

  uint64_t num_pages() const { return pages_.size(); }

 private:
  BufferPool* pool_;
  std::vector<PageId> pages_;
  size_t num_objects_ = 0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_OBJECT_FILE_H_
