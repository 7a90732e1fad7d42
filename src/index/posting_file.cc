#include "index/posting_file.h"

#include <cstring>
#include <memory>

#include "common/macros.h"
#include "storage/page.h"

namespace dsks {

PostingFile::PostingFile(BufferPool* pool)
    : pool_(pool), page_(std::make_unique_for_overwrite<char[]>(kPageSize)) {}

void PostingFile::WriteTail() {
  if (tail_ != kInvalidPageId) {
    const Status s = pool_->disk()->WritePage(tail_, page_.get());
    DSKS_CHECK_MSG(s.ok(), "posting file build on a faulty disk");
  }
}

void PostingFile::StartPage() {
  WriteTail();
  tail_ = pool_->disk()->AllocatePage();
  ++num_pages_;
  std::memset(page_.get(), 0, kPageSize);
  slot_ = 0;
}

PostingFile::Locator PostingFile::AppendRun(std::span<const Entry> run) {
  DSKS_CHECK_MSG(page_ != nullptr, "AppendRun after Finish");
  DSKS_CHECK_MSG(run.size() <= 0xFFFF, "posting run too long");
  DSKS_CHECK_MSG(!run.empty(), "empty posting run");
  // A run must occupy consecutive page ids (the locator only records where
  // it starts): one that does not fit the tail's remainder starts on a
  // fresh page.
  if (tail_ == kInvalidPageId || run.size() > kEntriesPerPage - slot_) {
    StartPage();
  }
  const Locator locator =
      PackLocator(tail_, slot_, static_cast<uint32_t>(run.size()));
  for (const Entry& e : run) {
    if (slot_ == kEntriesPerPage) {
      const PageId prev = tail_;
      StartPage();
      DSKS_CHECK_MSG(tail_ == prev + 1, "a run's pages must be contiguous");
    }
    WriteEntry(page_.get(), slot_++, e);
  }
  num_entries_ += run.size();
  return locator;
}

void PostingFile::Finish() {
  DSKS_CHECK_MSG(page_ != nullptr, "Finish called twice");
  WriteTail();
  page_.reset();
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

PageId PostingFile::RunPage(Locator locator) {
  return static_cast<PageId>(locator >> 32);
}

uint32_t PostingFile::RunSlot(Locator locator) {
  return static_cast<uint32_t>((locator >> 16) & 0xFFFF);
}

}  // namespace dsks
