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

  /// Point lookup. `*result` is nullopt when the key is absent; a non-OK
  /// status (disk error during the descent) leaves `*result` nullopt.
  Status Get(Key key, std::optional<Value>* result) const;

  /// Looks up the same key in several trees at once, descending them in
  /// lockstep: before any node of a level is fetched, the whole level is
  /// offered to the pool as one speculative batch, so T point lookups cost
  /// one batched read per level on a cold pool instead of T blocking reads
  /// per level. The inverted file uses this to probe every query keyword's
  /// tree for one edge key in a handful of round trips.
  ///
  /// `results[i]` matches what `BPlusTree(pool, roots[i]).Get(key)` would
  /// produce; a root of kInvalidPageId yields nullopt without I/O. With
  /// prefetching disabled on the pool this degenerates to T independent
  /// descents with identical read counts. On a disk error the partial
  /// results are meaningless; discard them.
  static Status MultiGet(BufferPool* pool, std::span<const PageId> roots,
                         Key key, std::span<std::optional<Value>> results);

  PageId root() const { return root_; }

  /// Pages BulkLoad wrote for this tree (index-size accounting); 0 for a
  /// tree opened from its root.
  uint64_t num_pages() const { return num_pages_; }

  /// Max entries per leaf/internal node. BulkLoad fills ~90% of either;
  /// tests use these to size trees of a given height.
  static size_t LeafCapacity();
  static size_t InternalCapacity();

 private:
  /// Descends to the leaf that would contain `key`. Reports a cyclic or
  /// over-deep descent (corrupted internal node) as Corruption instead of
  /// looping forever.
  Status FindLeaf(Key key, PageId* leaf) const;

  BufferPool* pool_;
  PageId root_;
  uint64_t num_pages_ = 0;
};

}  // namespace dsks

#endif  // DSKS_BTREE_BPLUS_TREE_H_
