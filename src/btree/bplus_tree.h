#ifndef DSKS_BTREE_BPLUS_TREE_H_
#define DSKS_BTREE_BPLUS_TREE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace dsks {

/// Disk-based B+ tree with fixed-size 64-bit keys and 64-bit values, built
/// on the paged buffer pool. The inverted index of §3.1 maintains one such
/// tree per keyword, keyed by the Z-order code of the edge's center point
/// (disambiguated by edge id in the low bits); values point at posting
/// pages.
///
/// Built once by BulkLoad over unique, sorted keys and read-only after
/// that: the indexes are measured over a fixed object set (§3, §5). All
/// node reads go through the buffer pool and therefore show up in the I/O
/// statistics.
class BPlusTree {
 public:
  using Key = uint64_t;
  using Value = uint64_t;

  /// Opens an existing tree rooted at `root`.
  BPlusTree(BufferPool* pool, PageId root) : pool_(pool), root_(root) {}

  /// Builds a tree bottom-up from strictly increasing (key, value) pairs
  /// (CHECK-fails otherwise). Each node is composed in memory and written
  /// once, straight to `pool->disk()`; the pool itself is not touched. A
  /// failed write CHECK-fails: a build runs on a fault-free disk by
  /// contract. Used by the inverted-file builder, whose per-keyword edge
  /// lists are produced in sorted order. An empty input yields a single
  /// empty leaf.
  static BPlusTree BulkLoad(BufferPool* pool,
                            std::span<const std::pair<Key, Value>> sorted);

  /// Point lookup: one root-to-leaf descent, one pool access per level,
  /// the entry read off the pinned leaf. `*result` is nullopt when the key
  /// is absent; a non-OK status (disk error during the descent, or a
  /// cyclic or over-deep descent through a corrupted internal node,
  /// reported as Corruption) leaves `*result` nullopt.
  Status Get(Key key, std::optional<Value>* result) const;

  PageId root() const { return root_; }

  /// Pages BulkLoad wrote for this tree (index-size accounting); 0 for a
  /// tree opened from its root.
  uint64_t num_pages() const { return num_pages_; }

  /// Max entries per leaf/internal node. BulkLoad fills ~90% of either;
  /// tests use these to size trees of a given height.
  static size_t LeafCapacity();
  static size_t InternalCapacity();

 private:
  BufferPool* pool_;
  PageId root_;
  uint64_t num_pages_ = 0;
};

}  // namespace dsks

#endif  // DSKS_BTREE_BPLUS_TREE_H_
