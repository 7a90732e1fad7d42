#include "index/posting_file.h"

#include <cstring>

#include "common/macros.h"
#include "storage/page.h"

namespace dsks {

PostingFile::PostingFile(BufferPool* pool, std::span<const Entry> entries,
                         std::span<const uint32_t> run_lengths,
                         std::vector<Locator>* locators)
    : pool_(pool) {
  DiskManager* disk = pool->disk();
  // The tail page is composed in `page` and written once, when the build
  // moves on to a fresh page or ends.
  char page[kPageSize];
  PageId tail = kInvalidPageId;
  uint32_t slot = 0;
  auto write_tail = [&] {
    const Status s = disk->WritePage(tail, page);
    DSKS_CHECK_MSG(s.ok(), "posting file build on a faulty disk");
  };
  auto start_page = [&] {
    if (tail != kInvalidPageId) {
      write_tail();
    }
    tail = disk->AllocatePage();
    ++num_pages_;
    std::memset(page, 0, kPageSize);
    slot = 0;
  };
  locators->clear();
  locators->reserve(run_lengths.size());
  size_t next = 0;  // first entry of the next run
  for (const uint32_t length : run_lengths) {
    DSKS_CHECK_MSG(length <= 0xFFFF, "posting run too long");
    DSKS_CHECK_MSG(length > 0, "empty posting run");
    DSKS_CHECK_MSG(length <= entries.size() - next,
                   "posting runs longer than their entries");
    const std::span<const Entry> run = entries.subspan(next, length);
    next += length;
    // A run must occupy consecutive page ids (the locator only records
    // where it starts): one that does not fit the tail's remainder starts
    // on a fresh page.
    if (tail == kInvalidPageId || run.size() > kEntriesPerPage - slot) {
      start_page();
    }
    locators->push_back(
        PackLocator(tail, slot, static_cast<uint32_t>(run.size())));
    for (const Entry& e : run) {
      if (slot == kEntriesPerPage) {
        const PageId prev = tail;
        start_page();
        DSKS_CHECK_MSG(tail == prev + 1, "a run's pages must be contiguous");
      }
      WriteEntry(page, slot++, e);
      ++num_entries_;
    }
  }
  DSKS_CHECK_MSG(next == entries.size(), "posting entries outside every run");
  if (tail != kInvalidPageId) {
    write_tail();
  }
}

void PostingFile::PrefetchRuns(std::span<const Locator> locators) const {
  // Bounded like the other speculative readers: enough for a keyword
  // conjunction's runs on one edge, small next to the paper's 2% pool.
  constexpr size_t kMaxPrefetchPages = 32;
  PageId pages[kMaxPrefetchPages];
  size_t n = 0;
  for (const Locator loc : locators) {
    PageId page;
    uint32_t slot;
    uint32_t count;
    UnpackLocator(loc, &page, &slot, &count);
    const size_t span_pages =
        (slot + count + kEntriesPerPage - 1) / kEntriesPerPage;
    for (size_t i = 0; i < span_pages && n < kMaxPrefetchPages; ++i) {
      const PageId pid = page + static_cast<PageId>(i);
      bool seen = false;
      for (size_t j = 0; j < n; ++j) {
        if (pages[j] == pid) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        pages[n++] = pid;
      }
    }
    if (n >= kMaxPrefetchPages) {
      break;
    }
  }
  if (n > 0) {
    pool_->Prefetch(std::span<const PageId>(pages, n));
  }
}

uint32_t PostingFile::RunLength(Locator locator) {
  return static_cast<uint32_t>(locator & 0xFFFF);
}

}  // namespace dsks
