#include "storage/buffer_pool.h"

#include <memory>

#include "common/macros.h"
#include "obs/io_account.h"
#include "obs/metrics.h"

namespace dsks {

namespace {

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
  frame.next = free_head_;
  free_head_ = index;
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
  for (uint32_t index = FindFrameLocked(id); index != kNoFrame;
       index = FindFrameLocked(id)) {
    Frame& frame = frames_[index];
    if (!frame.io_in_progress) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      obs::ChargePoolHit();
      if (frame.pin_count == 0) {
        UnlinkLruLocked(index);
      }
      ++frame.pin_count;
      *out = PageOut(frame.data);
      return Status::Ok();
    }
    // Another thread is reading the page. The latch has been held since
    // the frame was seen in flight, so its publish or release, and the
    // wakeup, are still ahead; the page may be gone after it.
    io_done_.wait(lock);
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  obs::ChargePoolMiss();
  char* buffer = ClaimFrameLocked(id);
  // Read outside the latch so reads of different pages overlap. The
  // claimed frame is pinned and off the LRU, so nothing evicts it
  // meanwhile, and its buffer stays put while other threads' claims grow
  // the frame array; its index is looked up again below.
  lock.unlock();
  const char* data = nullptr;
  Status s = disk_->ReadPage(id, buffer, &data);
  lock.lock();
  const uint32_t index = FindFrameLocked(id);
  DSKS_CHECK(index != kNoFrame);
  if (s.ok()) {
    // The frame's own buffer, or the page the disk lent; the claim's pin
    // is this call's.
    frames_[index].data = data;
    frames_[index].io_in_progress = false;
    *out = PageOut(data);
  } else {
    // Free the failed frame, and with it the claim's pin, so waiters and
    // later fetches retry from scratch instead of pinning garbage.
    ReleaseFrameLocked(index);
  }
  io_done_.notify_all();
  return s;
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  DSKS_CHECK_MSG(!dirty, "the buffer pool is read-only: no page is dirty");
  std::lock_guard<std::mutex> lock(latch_);
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
