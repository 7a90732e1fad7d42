#ifndef DSKS_INDEX_POSTING_FILE_H_
#define DSKS_INDEX_POSTING_FILE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/status.h"
#include "graph/types.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace dsks {

/// Storage for inverted-file posting runs, appended one run at a time by
/// the index build and read-only after Finish(). A *run* is the list of
/// postings of one (keyword, edge) pair: every object on that edge that
/// contains the keyword, ordered by position along the edge. The
/// per-keyword B+trees (§3.1) map edges to run locators in this file.
///
/// Runs are packed back to back; a run may span consecutive pages.
class PostingFile {
 public:
  /// One posting: the object, its rank along the edge (the visiting order
  /// used by the §3.3 partitioning), and its cost offset w(n1, o) from the
  /// edge's reference node. w(n2, o) is edge_weight - w1.
  struct Entry {
    ObjectId object = kInvalidObjectId;
    uint16_t pos = 0;
    double w1 = 0.0;
  };

  /// Opaque run locator: packs (first page, first slot, entry count).
  using Locator = uint64_t;

  /// An empty file on `pool`'s disk: AppendRun adds the runs, Finish
  /// writes the last page.
  explicit PostingFile(BufferPool* pool);

  PostingFile(const PostingFile&) = delete;
  PostingFile& operator=(const PostingFile&) = delete;
  PostingFile(PostingFile&&) = default;

  /// Appends one run of 1 to 65535 entries, in position order, and
  /// returns its locator. Each page is composed in memory and written
  /// once, straight to `pool->disk()`, when the file moves on to a fresh
  /// page; a failed write CHECK-fails (a build runs on a fault-free disk by
  /// contract). A run that does not fit the rest of the current page
  /// starts on a fresh one, and its pages are allocated back to back, so
  /// no other allocation on the disk may interleave between the first
  /// AppendRun and Finish.
  Locator AppendRun(std::span<const Entry> run);

  /// Writes the page the last run ended on and frees the page being
  /// composed. Call once, after the last AppendRun and before any read.
  void Finish();

  /// Hands every entry of a run, in position order, to `fn(const Entry&)`
  /// straight off the pinned page: nothing is copied or allocated. The run
  /// is walked one page at a time under a PageGuard, so one page is pinned
  /// at once and each page costs one pool access (one read when cold). A
  /// page stays pinned while `fn` sees its entries, so `fn` must not fetch
  /// pages. On a disk error nothing stays pinned and `fn` has seen the
  /// entries of the pages before the failed one; discard what it built.
  template <typename Fn>
  Status ForEachEntry(Locator locator, Fn&& fn) const;

  /// Number of entries in a run without reading it.
  static uint32_t RunLength(Locator locator);
  /// The page a run starts on, and its slot (entry index) there.
  static PageId RunPage(Locator locator);
  static uint32_t RunSlot(Locator locator);

  uint64_t num_pages() const { return num_pages_; }
  uint64_t num_entries() const { return num_entries_; }

  /// Entries that fit on one 4 KiB page.
  static size_t EntriesPerPage() { return kEntriesPerPage; }

 private:
  // Fixed 16-byte on-page posting record; pages are packed completely, the
  // locator carries the run length so no page header is needed.
  //   u32 object, u16 pos, u16 reserved, f64 w1
  static constexpr size_t kEntrySize = 16;
  static constexpr size_t kEntriesPerPage = kPageSize / kEntrySize;

  static Locator PackLocator(PageId page, uint32_t slot, uint32_t count) {
    return (static_cast<uint64_t>(page) << 32) |
           (static_cast<uint64_t>(slot & 0xFFFF) << 16) |
           static_cast<uint64_t>(count & 0xFFFF);
  }

  static void UnpackLocator(Locator loc, PageId* page, uint32_t* slot,
                            uint32_t* count) {
    *page = static_cast<PageId>(loc >> 32);
    *slot = static_cast<uint32_t>((loc >> 16) & 0xFFFF);
    *count = static_cast<uint32_t>(loc & 0xFFFF);
  }

  static void WriteEntry(char* page, uint32_t slot, const Entry& e) {
    char* base = page + slot * kEntrySize;
    const uint16_t reserved = 0;
    std::memcpy(base, &e.object, 4);
    std::memcpy(base + 4, &e.pos, 2);
    std::memcpy(base + 6, &reserved, 2);
    std::memcpy(base + 8, &e.w1, 8);
  }

  static Entry ReadEntry(const char* page, uint32_t slot) {
    Entry e;
    const char* base = page + slot * kEntrySize;
    std::memcpy(&e.object, base, 4);
    std::memcpy(&e.pos, base + 4, 2);
    std::memcpy(&e.w1, base + 8, 8);
    return e;
  }

  /// Writes the page composed in `page_` (none before the first run).
  void WriteTail();
  /// Writes the tail and moves on to a fresh, zeroed page.
  void StartPage();

  BufferPool* pool_;
  uint64_t num_pages_ = 0;
  uint64_t num_entries_ = 0;
  /// The image of page `tail_`, composed here until it is written; null
  /// after Finish().
  std::unique_ptr<char[]> page_;
  PageId tail_ = kInvalidPageId;  // the page the last run ended on
  uint32_t slot_ = 0;             // the next free entry slot of `tail_`
};

template <typename Fn>
Status PostingFile::ForEachEntry(Locator locator, Fn&& fn) const {
  PageId page;
  uint32_t slot;
  uint32_t count;
  UnpackLocator(locator, &page, &slot, &count);
  PageGuard guard;
  for (; count > 0; ++page, slot = 0) {
    // Fetch unpins the previous page first.
    DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, page, &guard));
    for (; slot < kEntriesPerPage && count > 0; ++slot, --count) {
      fn(ReadEntry(guard.data(), slot));
    }
  }
  return Status::Ok();
}

}  // namespace dsks

#endif  // DSKS_INDEX_POSTING_FILE_H_
