#ifndef DSKS_RTREE_RTREE_H_
#define DSKS_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "spatial/mbr.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace dsks {

/// Disk-resident R-tree over (MBR, 64-bit payload) entries, bulk loaded
/// once with the Sort-Tile-Recursive (STR) algorithm and read-only after
/// that. Used only for the per-keyword object R-trees of the IR (inverted
/// R-tree) baseline compared in §5, which the Euclidean filter-and-refine
/// baseline also range-searches.
///
/// All node reads go through the buffer pool and are counted as I/O.
class RTree {
 public:
  struct Entry {
    Mbr mbr;
    uint64_t payload = 0;
  };

  /// Opens an existing tree.
  RTree(BufferPool* pool, PageId root, int height)
      : pool_(pool), root_(root), height_(height) {}

  /// Builds a tree from `entries` (consumed). Each node is composed in
  /// memory and written once, straight to `pool->disk()`; a failed write
  /// CHECK-fails (a build runs on a fault-free disk by contract). An empty
  /// input produces a valid empty tree.
  static RTree BulkLoad(BufferPool* pool, std::vector<Entry> entries);

  /// Visits every entry whose MBR intersects `range`; the visitor returns
  /// false to stop the search (not an error). Disk errors during the
  /// traversal are returned; entries already visited stand.
  Status RangeSearch(
      const Mbr& range,
      const std::function<bool(const Mbr&, uint64_t)>& visit) const;

  /// Pages BulkLoad wrote for this tree (index-size accounting); 0 for a
  /// tree opened from its root.
  uint64_t num_pages() const { return num_pages_; }

  PageId root() const { return root_; }
  int height() const { return height_; }

  /// Max entries per node (leaf or internal).
  static size_t LeafCapacity();

 private:
  Status RangeSearchRecursive(
      PageId node, int level, const Mbr& range,
      const std::function<bool(const Mbr&, uint64_t)>& visit,
      bool* keep_going) const;

  BufferPool* pool_;
  PageId root_;
  /// 1 = root is a leaf.
  int height_;
  uint64_t num_pages_ = 0;
};

}  // namespace dsks

#endif  // DSKS_RTREE_RTREE_H_
