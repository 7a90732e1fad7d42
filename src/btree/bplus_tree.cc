#include "btree/bplus_tree.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace dsks {

namespace {

// Node layout (shared header):
//   u8  is_leaf
//   u16 count
//   u32 next            (leaf sibling chain, written but never read;
//                        kInvalidPageId in internal nodes)
// Leaf body:     count * { u64 key, u64 value }
// Internal body: u32 child0, count * { u64 key, u32 child }
//   Key k at index i separates child i (keys < k) from child i+1 (>= k).
constexpr size_t kHeaderSize = 1 + 2 + 4;
constexpr size_t kLeafEntrySize = 16;
constexpr size_t kInternalEntrySize = 12;
constexpr size_t kLeafCapacity = (kPageSize - kHeaderSize) / kLeafEntrySize;
constexpr size_t kInternalCapacity =
    (kPageSize - kHeaderSize - 4) / kInternalEntrySize;

bool IsLeaf(const char* p) { return p[0] != 0; }
void SetLeaf(char* p, bool leaf) { p[0] = leaf ? 1 : 0; }

uint16_t Count(const char* p) {
  uint16_t c;
  std::memcpy(&c, p + 1, 2);
  return c;
}
void SetCount(char* p, uint16_t c) { std::memcpy(p + 1, &c, 2); }

void SetNext(char* p, PageId n) { std::memcpy(p + 3, &n, 4); }

uint64_t LeafKey(const char* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, p + kHeaderSize + i * kLeafEntrySize, 8);
  return k;
}
uint64_t LeafValue(const char* p, size_t i) {
  uint64_t v;
  std::memcpy(&v, p + kHeaderSize + i * kLeafEntrySize + 8, 8);
  return v;
}
void SetLeafEntry(char* p, size_t i, uint64_t k, uint64_t v) {
  std::memcpy(p + kHeaderSize + i * kLeafEntrySize, &k, 8);
  std::memcpy(p + kHeaderSize + i * kLeafEntrySize + 8, &v, 8);
}

PageId Child(const char* p, size_t i) {
  // child i lives before key i; child0 directly after header.
  PageId c;
  if (i == 0) {
    std::memcpy(&c, p + kHeaderSize, 4);
  } else {
    std::memcpy(&c, p + kHeaderSize + 4 + (i - 1) * kInternalEntrySize + 8, 4);
  }
  return c;
}
void SetChild(char* p, size_t i, PageId c) {
  if (i == 0) {
    std::memcpy(p + kHeaderSize, &c, 4);
  } else {
    std::memcpy(p + kHeaderSize + 4 + (i - 1) * kInternalEntrySize + 8, &c, 4);
  }
}
uint64_t InternalKey(const char* p, size_t i) {
  uint64_t k;
  std::memcpy(&k, p + kHeaderSize + 4 + i * kInternalEntrySize, 8);
  return k;
}
void SetInternalKey(char* p, size_t i, uint64_t k) {
  std::memcpy(p + kHeaderSize + 4 + i * kInternalEntrySize, &k, 8);
}

/// Index of the first leaf entry with key >= `key`.
size_t LeafLowerBound(const char* p, uint64_t key) {
  size_t lo = 0;
  size_t hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (LeafKey(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Writes a composed node to its page. A build runs on a fault-free disk by
/// contract, so a failed write is a setup error.
void WriteNode(DiskManager* disk, PageId id, const char* page) {
  const Status s = disk->WritePage(id, page);
  DSKS_CHECK_MSG(s.ok(), "B+tree build on a faulty disk");
}

/// Child slot to descend into for `key`: number of separators <= key.
size_t InternalChildIndex(const char* p, uint64_t key) {
  size_t lo = 0;
  size_t hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (InternalKey(p, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

size_t BPlusTree::LeafCapacity() { return kLeafCapacity; }
size_t BPlusTree::InternalCapacity() { return kInternalCapacity; }

BPlusTree BPlusTree::BulkLoad(
    BufferPool* pool, std::span<const std::pair<Key, Value>> sorted) {
  // The layout is fixed by the index files already written: nodes ~90%
  // full and leaves chained by `next`. Nothing reads the chain and nothing
  // inserts into the slack, but changing either would change every index
  // file's bytes and size and every page-access count pinned against them.
  const size_t leaf_fill = std::max<size_t>(1, kLeafCapacity * 9 / 10);
  struct ChildRef {
    Key first_key;
    PageId page;
  };
  DiskManager* disk = pool->disk();
  char p[kPageSize];
  uint64_t pages = 0;
  std::vector<ChildRef> level;
  // Leaves first; an empty input still gets one (empty) leaf as its root.
  // A leaf is written once the next leaf's id, its `next`, is known; `p`
  // holds it until then.
  PageId prev_leaf = kInvalidPageId;
  const size_t num_leaves =
      std::max<size_t>(1, (sorted.size() + leaf_fill - 1) / leaf_fill);
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    const size_t start = leaf * leaf_fill;
    const size_t end = std::min(sorted.size(), start + leaf_fill);
    const PageId id = disk->AllocatePage();
    ++pages;
    if (prev_leaf != kInvalidPageId) {
      SetNext(p, id);
      WriteNode(disk, prev_leaf, p);
    }
    std::memset(p, 0, kPageSize);
    SetLeaf(p, true);
    SetCount(p, static_cast<uint16_t>(end - start));
    SetNext(p, kInvalidPageId);
    for (size_t i = start; i < end; ++i) {
      // From the second key on, across leaf boundaries too: a repeat or a
      // descent there would route Get to the wrong leaf.
      if (i > 0) {
        DSKS_CHECK_MSG(sorted[i - 1].first < sorted[i].first,
                       "BulkLoad requires strictly increasing keys");
      }
      SetLeafEntry(p, i - start, sorted[i].first, sorted[i].second);
    }
    prev_leaf = id;
    level.push_back(ChildRef{start < end ? sorted[start].first : 0, id});
  }
  WriteNode(disk, prev_leaf, p);

  // Internal levels until a single node remains.
  const size_t fanout = std::max<size_t>(2, kInternalCapacity * 9 / 10);
  while (level.size() > 1) {
    std::vector<ChildRef> parents;
    for (size_t start = 0; start < level.size(); start += fanout + 1) {
      const size_t end = std::min(level.size(), start + fanout + 1);
      const PageId id = disk->AllocatePage();
      ++pages;
      std::memset(p, 0, kPageSize);
      SetLeaf(p, false);
      SetNext(p, kInvalidPageId);
      SetCount(p, static_cast<uint16_t>(end - start - 1));
      SetChild(p, 0, level[start].page);
      for (size_t i = start + 1; i < end; ++i) {
        SetInternalKey(p, i - start - 1, level[i].first_key);
        SetChild(p, i - start, level[i].page);
      }
      WriteNode(disk, id, p);
      parents.push_back(ChildRef{level[start].first_key, id});
    }
    level = std::move(parents);
  }
  BPlusTree tree(pool, level[0].page);
  tree.num_pages_ = pages;
  return tree;
}

Status BPlusTree::Get(Key key, std::optional<Value>* result) const {
  result->reset();
  PageId node = root_;
  // A healthy tree over 2^32 pages is < 64 levels deep; anything deeper
  // means a corrupted internal node formed a cycle.
  for (int depth = 0; depth < 64; ++depth) {
    PageGuard guard;
    DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, node, &guard));
    const char* p = guard.data();
    if (IsLeaf(p)) {
      const size_t idx = LeafLowerBound(p, key);
      if (idx < Count(p) && LeafKey(p, idx) == key) {
        *result = LeafValue(p, idx);
      }
      return Status::Ok();
    }
    node = Child(p, InternalChildIndex(p, key));
  }
  return Status::Corruption("B+tree descent exceeded maximum depth");
}

}  // namespace dsks
