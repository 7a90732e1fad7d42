#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"

namespace dsks {

namespace {

// Node layout:
//   u8  is_leaf
//   u16 count
//   entries: { f64 min_x, f64 min_y, f64 max_x, f64 max_y, u64 payload }
// For internal nodes the payload's low 32 bits hold the child PageId.
constexpr size_t kHeaderSize = 3;
constexpr size_t kEntrySize = 4 * sizeof(double) + sizeof(uint64_t);
constexpr size_t kCapacity = (kPageSize - kHeaderSize) / kEntrySize;

bool IsLeaf(const char* p) { return p[0] != 0; }
void SetLeaf(char* p, bool leaf) { p[0] = leaf ? 1 : 0; }
uint16_t Count(const char* p) {
  uint16_t c;
  std::memcpy(&c, p + 1, 2);
  return c;
}
void SetCount(char* p, uint16_t c) { std::memcpy(p + 1, &c, 2); }

void WriteEntry(char* p, size_t i, const Mbr& mbr, uint64_t payload) {
  char* base = p + kHeaderSize + i * kEntrySize;
  std::memcpy(base, &mbr.min_x, 8);
  std::memcpy(base + 8, &mbr.min_y, 8);
  std::memcpy(base + 16, &mbr.max_x, 8);
  std::memcpy(base + 24, &mbr.max_y, 8);
  std::memcpy(base + 32, &payload, 8);
}

void ReadEntry(const char* p, size_t i, Mbr* mbr, uint64_t* payload) {
  const char* base = p + kHeaderSize + i * kEntrySize;
  std::memcpy(&mbr->min_x, base, 8);
  std::memcpy(&mbr->min_y, base + 8, 8);
  std::memcpy(&mbr->max_x, base + 16, 8);
  std::memcpy(&mbr->max_y, base + 24, 8);
  std::memcpy(payload, base + 32, 8);
}

/// Writes a composed node to its page. A build runs on a fault-free disk by
/// contract, so a failed write is a setup error.
void WriteNode(DiskManager* disk, PageId id, const char* page) {
  const Status s = disk->WritePage(id, page);
  DSKS_CHECK_MSG(s.ok(), "R-tree build on a faulty disk");
}

}  // namespace

size_t RTree::LeafCapacity() { return kCapacity; }

RTree RTree::BulkLoad(BufferPool* pool, std::vector<Entry> entries) {
  DiskManager* disk = pool->disk();
  char p[kPageSize];
  // Empty tree: a single empty leaf keeps all read paths uniform.
  if (entries.empty()) {
    const PageId root = disk->AllocatePage();
    std::memset(p, 0, kPageSize);
    SetLeaf(p, true);
    SetCount(p, 0);
    WriteNode(disk, root, p);
    RTree tree(pool, root, 1);
    tree.num_pages_ = 1;
    return tree;
  }

  // STR: sort by center x, slice into vertical strips of ~sqrt(n/C) pages,
  // sort each strip by center y, pack runs of C entries into nodes. Repeat
  // one level up until a single node remains.
  int height = 1;
  bool leaf_level = true;
  uint64_t pages = 0;
  while (true) {
    const size_t n = entries.size();
    const size_t num_nodes = (n + kCapacity - 1) / kCapacity;
    const auto slice_count =
        static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_nodes))));
    const size_t slice_size =
        slice_count == 0 ? n : (n + slice_count - 1) / slice_count;

    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      return a.mbr.Center().x < b.mbr.Center().x;
    });
    for (size_t start = 0; start < n; start += slice_size) {
      const size_t end = std::min(n, start + slice_size);
      std::sort(entries.begin() + start, entries.begin() + end,
                [](const Entry& a, const Entry& b) {
                  return a.mbr.Center().y < b.mbr.Center().y;
                });
    }

    std::vector<Entry> parents;
    parents.reserve(num_nodes);
    for (size_t start = 0; start < n; start += kCapacity) {
      const size_t end = std::min(n, start + kCapacity);
      const PageId node_id = disk->AllocatePage();
      ++pages;
      std::memset(p, 0, kPageSize);
      SetLeaf(p, leaf_level);
      SetCount(p, static_cast<uint16_t>(end - start));
      Mbr node_mbr = Mbr::Empty();
      for (size_t i = start; i < end; ++i) {
        WriteEntry(p, i - start, entries[i].mbr, entries[i].payload);
        node_mbr.Extend(entries[i].mbr);
      }
      WriteNode(disk, node_id, p);
      parents.push_back(Entry{node_mbr, node_id});
    }

    if (parents.size() == 1) {
      RTree tree(pool, static_cast<PageId>(parents[0].payload), height);
      tree.num_pages_ = pages;
      return tree;
    }
    entries = std::move(parents);
    leaf_level = false;
    ++height;
  }
}

Status RTree::RangeSearchRecursive(
    PageId node, int level, const Mbr& range,
    const std::function<bool(const Mbr&, uint64_t)>& visit,
    bool* keep_going) const {
  if (!*keep_going) return Status::Ok();
  PageGuard guard;
  DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, node, &guard));
  const char* p = guard.data();
  const size_t n = Count(p);
  const bool leaf = IsLeaf(p);
  // Collect matching children before releasing the pin (recursion must not
  // hold pins, or deep trees could exhaust a small pool).
  std::vector<uint64_t> children;
  for (size_t i = 0; i < n && *keep_going; ++i) {
    Mbr mbr;
    uint64_t payload;
    ReadEntry(p, i, &mbr, &payload);
    if (!mbr.Intersects(range)) continue;
    if (leaf) {
      if (!visit(mbr, payload)) {
        *keep_going = false;
      }
    } else {
      children.push_back(payload);
    }
  }
  guard.Release();
  for (uint64_t child : children) {
    if (!*keep_going) return Status::Ok();
    DSKS_RETURN_IF_ERROR(RangeSearchRecursive(static_cast<PageId>(child),
                                              level + 1, range, visit,
                                              keep_going));
  }
  return Status::Ok();
}

Status RTree::RangeSearch(
    const Mbr& range,
    const std::function<bool(const Mbr&, uint64_t)>& visit) const {
  bool keep_going = true;
  return RangeSearchRecursive(root_, 0, range, visit, &keep_going);
}

}  // namespace dsks
