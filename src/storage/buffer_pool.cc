#include "storage/buffer_pool.h"

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/io_account.h"
#include "obs/metrics.h"

namespace dsks {

namespace {

/// The read requests of one claim pass. A pass that claims nothing, such
/// as a Prefetch of resident pages or a FetchPages of hits, never touches
/// the storage. Up to kInlineReads requests live in the object itself, on
/// the caller's stack, which covers every batch the in-tree readers make
/// (CCAM and posting prefetches stop at 32 pages, posting fetches at 16);
/// a larger batch, such as BPlusTree::MultiGet over more than 32 terms,
/// allocates its requests once per call.
class ReadRequests {
 public:
  explicit ReadRequests(size_t max_reads) : max_reads_(max_reads) {}

  // slots_ may point into inline_.
  ReadRequests(const ReadRequests&) = delete;
  ReadRequests& operator=(const ReadRequests&) = delete;

  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  void Add(PageId id, char* out) {
    if (slots_.empty()) {
      if (max_reads_ <= kInlineReads) {
        slots_ = inline_.emplace();
      } else {
        spilled_.resize(max_reads_);
        slots_ = spilled_;
      }
    }
    PageReadRequest& req = slots_[size_++];
    req.id = id;
    req.out = out;
    req.data = nullptr;
    req.status = Status::Ok();
  }

  std::span<PageReadRequest> span() { return slots_.first(size_); }

 private:
  static constexpr size_t kInlineReads = 32;

  size_t max_reads_;
  std::optional<std::array<PageReadRequest, kInlineReads>> inline_;
  std::vector<PageReadRequest> spilled_;
  std::span<PageReadRequest> slots_;
  size_t size_ = 0;
};

/// The pool hands pages out as `char*`, but they are read-only by contract:
/// a lent page is the disk's stored image.
char* PageOut(const char* data) { return const_cast<char*>(data); }

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), lends_pages_(disk->lends_pages()), capacity_(capacity) {
  DSKS_CHECK_MSG(capacity > 0, "buffer pool needs at least one frame");
}

BufferPool::~BufferPool() {
#ifndef NDEBUG
  for (const Frame& frame : frames_) {
    DSKS_DCHECK_MSG(frame.pin_count == 0,
                    "buffer pool destroyed with pinned pages (pin leak)");
  }
#endif
}

uint32_t BufferPool::FindFrameLocked(PageId id) const {
  const uint32_t* index = page_table_.find(id);
  return index == nullptr ? kNoFrame : *index;
}

const char* BufferPool::PinHitLocked(uint32_t index) {
  Frame& frame = frames_[index];
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  obs::ChargePoolHit();
  if (frame.prefetched) {
    // First demand touch of a speculatively read page: the prefetch paid
    // off. The flag resolves exactly once per issued prefetch.
    frame.prefetched = false;
    stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
  }
  if (frame.pin_count == 0) {
    UnlinkLruLocked(index);
  }
  ++frame.pin_count;
  return frame.data;
}

char* BufferPool::ClaimFrameLocked(PageId id) {
  if (page_table_.size() >= capacity_.load(std::memory_order_relaxed)) {
    // Best effort: when every frame is pinned this fails and the pool
    // temporarily runs over capacity (UnpinPage trims back down).
    TryEvictOneLocked();
  }
  uint32_t index = free_head_;
  if (index != kNoFrame) {
    free_head_ = frames_[index].next;
  } else {
    index = static_cast<uint32_t>(frames_.size());
    Frame& fresh = frames_.emplace_back();
    if (!lends_pages_) {
      // Not zero-filled: a frame's bytes are only ever read after a read
      // has overwritten all of them.
      fresh.buffer = std::make_unique_for_overwrite<char[]>(kPageSize);
      owned_buffer_bytes_ += kPageSize;
    }
  }
  Frame& frame = frames_[index];
  frame.page_id = id;
  frame.pin_count = 1;
  frame.io_in_progress = true;
  page_table_.try_emplace(id, index);
  return frame.buffer.get();
}

void BufferPool::ReleaseFrameLocked(uint32_t index) {
  Frame& frame = frames_[index];
  page_table_.erase(frame.page_id);
  frame.data = nullptr;
  frame.page_id = kInvalidPageId;
  frame.pin_count = 0;
  frame.io_in_progress = false;
  frame.prefetched = false;
  frame.next = free_head_;
  free_head_ = index;
}

void BufferPool::ReadClaimedLocked(std::unique_lock<std::mutex>* lock,
                                   std::span<PageReadRequest> reqs) {
  // Read outside the latch so reads of different pages overlap. The
  // claimed frames are pinned and off the LRU, so nothing evicts them
  // meanwhile, and their buffers stay put while other threads' claims grow
  // the frame array; their indexes are looked up again below.
  lock->unlock();
  disk_->ReadPages(reqs);
  lock->lock();
  for (const PageReadRequest& req : reqs) {
    const uint32_t index = FindFrameLocked(req.id);
    DSKS_CHECK(index != kNoFrame);
    if (req.status.ok()) {
      // The frame's own buffer, or the page the disk lent.
      frames_[index].data = req.data;
      frames_[index].io_in_progress = false;
    } else {
      // Free the failed frame so waiters, and later fetches, retry from
      // scratch instead of pinning garbage.
      ReleaseFrameLocked(index);
    }
  }
  io_done_.notify_all();
}

void BufferPool::AppendLruLocked(uint32_t index) {
  Frame& frame = frames_[index];
  frame.prev = lru_tail_;
  frame.next = kNoFrame;
  if (lru_tail_ == kNoFrame) {
    lru_head_ = index;
  } else {
    frames_[lru_tail_].next = index;
  }
  lru_tail_ = index;
}

void BufferPool::UnlinkLruLocked(uint32_t index) {
  const Frame& frame = frames_[index];
  if (frame.prev == kNoFrame) {
    lru_head_ = frame.next;
  } else {
    frames_[frame.prev].next = frame.next;
  }
  if (frame.next == kNoFrame) {
    lru_tail_ = frame.prev;
  } else {
    frames_[frame.next].prev = frame.prev;
  }
}

Status BufferPool::FetchPage(PageId id, char** out) {
  std::unique_lock<std::mutex> lock(latch_);
  // The resident check stays inline so that a hit, which most fetches
  // are, skips the batch machinery.
  const uint32_t index = FindFrameLocked(id);
  if (index != kNoFrame && !frames_[index].io_in_progress) {
    *out = PageOut(PinHitLocked(index));
    return Status::Ok();
  }
  char* page = nullptr;  // a failed fetch leaves *out untouched
  DSKS_RETURN_IF_ERROR(FetchPagesLocked(&lock, std::span<const PageId>(&id, 1),
                                        std::span<char*>(&page, 1)));
  *out = page;
  return Status::Ok();
}

Status BufferPool::FetchPages(std::span<const PageId> ids,
                              std::span<char*> outs) {
  DSKS_CHECK_MSG(ids.size() == outs.size(),
                 "FetchPages needs one output slot per page id");
#ifndef NDEBUG
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      DSKS_DCHECK_MSG(ids[i] != ids[j], "FetchPages ids must be distinct");
    }
  }
#endif
  for (char*& out : outs) {
    out = nullptr;
  }
  std::unique_lock<std::mutex> lock(latch_);
  return FetchPagesLocked(&lock, ids, outs);
}

Status BufferPool::FetchPagesLocked(std::unique_lock<std::mutex>* lock,
                                    std::span<const PageId> ids,
                                    std::span<char*> outs) {
  ReadRequests reqs(ids.size());
  for (;;) {
    // Classify every page not pinned yet: pin the resident ones, claim the
    // missing ones, and leave those in flight on another thread for a
    // later pass. Waiting here, with claimed frames still unread, could
    // deadlock two calls that each wait on a frame the other claimed.
    bool in_flight = false;
    reqs.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (outs[i] != nullptr) {
        continue;
      }
      const uint32_t index = FindFrameLocked(ids[i]);
      if (index == kNoFrame) {
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
        obs::ChargePoolMiss();
        // The claim's pin is this call's; the slot gets the page once read.
        reqs.Add(ids[i], ClaimFrameLocked(ids[i]));
      } else if (frames_[index].io_in_progress) {
        in_flight = true;
      } else {
        outs[i] = PageOut(PinHitLocked(index));
      }
    }
    if (reqs.empty()) {
      if (!in_flight) {
        return Status::Ok();
      }
      // Wait only after a pass that claimed nothing: the latch has been
      // held since each in-flight page was seen, so its read's wakeup is
      // still ahead. Right after a read of our own it may have gone by.
      io_done_.wait(*lock);
      continue;
    }
    ReadClaimedLocked(lock, reqs.span());
    // Give each claimed slot its page in one forward walk. Claims were made
    // in slot order, and the pass saw any other unpinned slot of a claimed
    // page only after the claim (as in flight), so the first unpinned slot
    // of the request's page is its own.
    Status first = Status::Ok();
    size_t slot = 0;
    for (PageReadRequest& req : reqs.span()) {
      while (outs[slot] != nullptr || ids[slot] != req.id) {
        ++slot;
      }
      if (req.status.ok()) {
        outs[slot] = PageOut(req.data);
      } else if (first.ok()) {
        // The read step freed the frame, and with it this call's pin.
        first = std::move(req.status);
      }
      ++slot;
    }
    if (!first.ok()) {
      // All-or-nothing: release every pin this call took so the caller has
      // nothing to clean up (the per-page contract of FetchPage, batched).
      for (size_t i = 0; i < ids.size(); ++i) {
        if (outs[i] != nullptr) {
          UnpinPageLocked(ids[i]);
          outs[i] = nullptr;
        }
      }
      return first;
    }
  }
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  if (ids.empty() || !prefetch_enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  const size_t allocated = disk_->num_pages();
  ReadRequests reqs(ids.size());
  std::unique_lock<std::mutex> lock(latch_);
  for (PageId id : ids) {
    if (id >= allocated) {
      continue;  // speculative callers may guess past the watermark
    }
    if (FindFrameLocked(id) != kNoFrame) {
      // Resident or already in flight (claimed earlier in this call or by
      // another thread): nothing to do, and never wait — prefetch must
      // not block.
      continue;
    }
    reqs.Add(id, ClaimFrameLocked(id));
  }
  if (reqs.empty()) {
    return;
  }
  const std::span<PageReadRequest> batch = reqs.span();
  stats_.prefetch_issued.fetch_add(batch.size(), std::memory_order_relaxed);
  obs::ChargePrefetchIssued(batch.size());
  // Demand fetchers of these pages wait on io_done_ meanwhile.
  ReadClaimedLocked(&lock, batch);
  for (const PageReadRequest& req : batch) {
    if (!req.status.ok()) {
      // Fault-silent by design: the read step freed the frame; count it
      // and let any later demand fetch re-read and surface its own error.
      // A query never fails because of a speculative read it didn't ask
      // for.
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Publish unpinned: the claim's pin only held the frame in flight.
    const uint32_t index = FindFrameLocked(req.id);
    frames_[index].pin_count = 0;
    frames_[index].prefetched = true;
    AppendLruLocked(index);
  }
  TrimToCapacityLocked();
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  DSKS_CHECK_MSG(!dirty, "the buffer pool is read-only: no page is dirty");
  std::lock_guard<std::mutex> lock(latch_);
  UnpinPageLocked(id);
}

void BufferPool::UnpinPageLocked(PageId id) {
  const uint32_t index = FindFrameLocked(id);
  DSKS_CHECK_MSG(index != kNoFrame, "unpin of page not in pool");
  Frame& frame = frames_[index];
  DSKS_CHECK_MSG(frame.pin_count > 0, "unpin of unpinned page");
  --frame.pin_count;
  if (frame.pin_count == 0) {
    AppendLruLocked(index);
    // Drain any overflow frames (pin pressure) or a deferred shrink.
    TrimToCapacityLocked();
  }
}

bool BufferPool::TryEvictOneLocked() {
  if (lru_head_ == kNoFrame) {
    return false;
  }
  const uint32_t victim = lru_head_;
  Frame& frame = frames_[victim];
  DSKS_CHECK(frame.pin_count == 0);
  if (frame.prefetched) {
    // Evicted without ever being demanded: the speculative read was
    // wasted work.
    stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
  }
  UnlinkLruLocked(victim);
  ReleaseFrameLocked(victim);
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void BufferPool::TrimToCapacityLocked() {
  while (page_table_.size() > capacity_.load(std::memory_order_relaxed) &&
         TryEvictOneLocked()) {
  }
}

void BufferPool::SetCapacity(size_t capacity) {
  DSKS_CHECK_MSG(capacity > 0, "buffer pool needs at least one frame");
  std::lock_guard<std::mutex> lock(latch_);
  capacity_.store(capacity, std::memory_order_relaxed);
  // Evict what we can now; if pinned pages hold the pool above the target,
  // the rest of the shrink happens in UnpinPage as pins drain.
  TrimToCapacityLocked();
}

Status BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(latch_);
  // Every frame goes back on the free list, keeping any buffer it owns;
  // the LRU is emptied wholesale below.
  for (uint32_t index = 0; index < frames_.size(); ++index) {
    const Frame& frame = frames_[index];
    if (frame.page_id == kInvalidPageId) {
      continue;
    }
    DSKS_CHECK_MSG(frame.pin_count == 0, "Clear with pinned pages");
    if (frame.prefetched) {
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    ReleaseFrameLocked(index);
  }
  lru_head_ = kNoFrame;
  lru_tail_ = kNoFrame;
  return Status::Ok();
}

size_t BufferPool::num_frames_in_use() const {
  std::lock_guard<std::mutex> lock(latch_);
  return page_table_.size();
}

uint64_t BufferPool::frame_bytes() const {
  std::lock_guard<std::mutex> lock(latch_);
  return owned_buffer_bytes_;
}

void BufferPool::BindMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) const {
  auto counter = [](const std::atomic<uint64_t>* c) {
    return [c] { return c->load(std::memory_order_relaxed); };
  };
  registry->BindSource(prefix + ".hits", counter(&stats_.hits));
  registry->BindSource(prefix + ".misses", counter(&stats_.misses));
  registry->BindSource(prefix + ".evictions", counter(&stats_.evictions));
  registry->BindSource(prefix + ".prefetch.issued",
                       counter(&stats_.prefetch_issued));
  registry->BindSource(prefix + ".prefetch.hits",
                       counter(&stats_.prefetch_hits));
  registry->BindSource(prefix + ".prefetch.wasted",
                       counter(&stats_.prefetch_wasted));
  registry->BindSource(prefix + ".prefetch.dropped",
                       counter(&stats_.prefetch_dropped));
  constexpr auto kGauge = obs::MetricsRegistry::SourceKind::kGauge;
  registry->BindSource(
      prefix + ".capacity_frames",
      [this] { return static_cast<uint64_t>(capacity()); }, kGauge);
  registry->BindSource(
      prefix + ".frames_in_use",
      [this] { return static_cast<uint64_t>(num_frames_in_use()); }, kGauge);
  registry->BindSource(
      prefix + ".frame_bytes", [this] { return frame_bytes(); }, kGauge);
}

}  // namespace dsks
