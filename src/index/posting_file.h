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
  /// straight off the pinned pages: nothing is copied or allocated. A
  /// run's page extent is fully known from its locator, so a multi-page
  /// run is fetched in batched chunks of up to kChunkPages (one disk round
  /// trip per chunk on a cold cache instead of one per page); the bound
  /// keeps the number of simultaneously pinned frames small next to the
  /// paper's 2% pool. A chunk stays pinned while `fn` sees its entries, so
  /// `fn` must not fetch pages. On a disk error `fn` has seen the entries
  /// read so far; discard what it built.
  template <typename Fn>
  Status ForEachEntry(Locator locator, Fn&& fn) const;

  /// Best-effort speculative read of several runs' pages as one batched
  /// request, so subsequent ForEachEntry calls hit the pool instead of
  /// paying one blocking miss per run. A run's page extent is fully
  /// determined by its locator, so no I/O is needed to plan the batch.
  /// Failures are dropped (never surfaced); the later read reports them.
  void PrefetchRuns(std::span<const Locator> locators) const;

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
  /// Pages one FetchPages call of ForEachEntry pins at most.
  static constexpr size_t kChunkPages = 16;

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
  while (count > 0) {
    const size_t span_pages =
        (slot + count + kEntriesPerPage - 1) / kEntriesPerPage;
    const size_t n = span_pages < kChunkPages ? span_pages : kChunkPages;
    PageId ids[kChunkPages];
    char* datas[kChunkPages];
    for (size_t i = 0; i < n; ++i) {
      ids[i] = page + static_cast<PageId>(i);
    }
    DSKS_RETURN_IF_ERROR(pool_->FetchPages(std::span<const PageId>(ids, n),
                                           std::span<char*>(datas, n)));
    for (size_t i = 0; i < n; ++i) {
      for (; slot < kEntriesPerPage && count > 0; ++slot, --count) {
        fn(ReadEntry(datas[i], slot));
      }
      slot = 0;
    }
    for (size_t i = 0; i < n; ++i) {
      pool_->UnpinPage(ids[i], /*dirty=*/false);
    }
    page += static_cast<PageId>(n);
  }
  return Status::Ok();
}

}  // namespace dsks

#endif  // DSKS_INDEX_POSTING_FILE_H_
