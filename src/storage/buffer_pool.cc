#include "storage/buffer_pool.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/io_account.h"
#include "obs/metrics.h"

namespace dsks {

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity) {
  DSKS_CHECK_MSG(capacity > 0, "buffer pool needs at least one frame");
}

BufferPool::~BufferPool() {
#ifndef NDEBUG
  for (const auto& [id, frame] : frames_) {
    DSKS_DCHECK_MSG(frame.pin_count == 0,
                    "buffer pool destroyed with pinned pages (pin leak)");
    (void)id;
  }
#endif
  std::lock_guard<std::mutex> lock(latch_);
  // Best-effort final flush; a failed write-back has no caller to report
  // to at destruction time.
  (void)FlushAllLocked();
}

BufferPool::Frame* BufferPool::GetFrameLocked(PageId id) {
  auto it = frames_.find(id);
  return it == frames_.end() ? nullptr : &it->second;
}

char* BufferPool::PinHitLocked(Frame* frame) {
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  obs::ChargePoolHit();
  if (frame->prefetched) {
    // First demand touch of a speculatively read page: the prefetch paid
    // off. The flag resolves exactly once per issued prefetch.
    frame->prefetched = false;
    stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
  }
  if (frame->in_lru) {
    lru_.erase(frame->lru_pos);
    frame->in_lru = false;
  }
  ++frame->pin_count;
  return frame->data.get();
}

Status BufferPool::FetchPage(PageId id, char** out) {
  std::unique_lock<std::mutex> lock(latch_);
  for (;;) {
    Frame* frame = GetFrameLocked(id);
    if (frame == nullptr) {
      break;
    }
    if (frame->io_in_progress) {
      // Another thread is reading this page from disk; wait for it rather
      // than double-reading. The frame may be evicted between wake-ups —
      // or erased entirely if that read *failed* — so re-look it up each
      // time; a failed read leaves no frame and we retry as a fresh miss.
      io_done_.wait(lock);
      continue;
    }
    *out = PinHitLocked(frame);
    return Status::Ok();
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  obs::ChargePoolMiss();
  if (frames_.size() >= capacity_.load(std::memory_order_relaxed)) {
    // Best effort: when every frame is pinned this fails and the pool
    // temporarily runs over capacity (UnpinPage trims back down).
    TryEvictOneLocked();
  }
  Frame& f = frames_[id];
  f.data = std::make_unique<char[]>(kPageSize);
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.in_lru = false;
  f.io_in_progress = true;
  // Read outside the latch so concurrent misses on *different* pages
  // overlap their (simulated) disk latency. The frame is pinned and not in
  // the LRU, so nothing can evict it meanwhile; unordered_map guarantees
  // the reference stays valid across other threads' inserts/erases.
  lock.unlock();
  const Status status = disk_->ReadPage(id, f.data.get());
  lock.lock();
  if (!status.ok()) {
    // The read failed: drop the in-flight frame so waiters (and future
    // fetches) retry from scratch instead of pinning garbage.
    frames_.erase(id);
    io_done_.notify_all();
    return status;
  }
  f.io_in_progress = false;
  io_done_.notify_all();
  *out = f.data.get();
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
  if (ids.empty()) {
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lock(latch_);
  // nullptr in outs[i] marks "not pinned by this call (yet)" for the
  // all-or-nothing rollback below.
  for (char*& out : outs) {
    out = nullptr;
  }
  // Classification never blocks: a page in flight on *another* thread is
  // deferred to a plain FetchPage after our own batch resolves. Waiting
  // here would deadlock two concurrent FetchPages calls that each hold
  // not-yet-started in-flight frames the other is waiting on.
  std::vector<size_t> miss_index;
  std::vector<size_t> deferred_index;
  for (size_t i = 0; i < ids.size(); ++i) {
    Frame* frame = GetFrameLocked(ids[i]);
    if (frame != nullptr) {
      if (frame->io_in_progress) {
        deferred_index.push_back(i);
      } else {
        outs[i] = PinHitLocked(frame);
      }
      continue;
    }
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    obs::ChargePoolMiss();
    if (frames_.size() >= capacity_.load(std::memory_order_relaxed)) {
      TryEvictOneLocked();
    }
    Frame& f = frames_[ids[i]];
    f.data = std::make_unique<char[]>(kPageSize);
    f.page_id = ids[i];
    f.pin_count = 1;
    f.dirty = false;
    f.in_lru = false;
    f.io_in_progress = true;
    miss_index.push_back(i);
  }
  Status first = Status::Ok();
  if (!miss_index.empty()) {
    // One batched disk round trip for every miss, outside the latch; the
    // in-flight frames are pinned and off the LRU, so nothing evicts them.
    std::vector<PageReadRequest> reqs(miss_index.size());
    for (size_t k = 0; k < miss_index.size(); ++k) {
      reqs[k].id = ids[miss_index[k]];
      reqs[k].out = frames_[reqs[k].id].data.get();
    }
    lock.unlock();
    disk_->ReadPages(std::span<PageReadRequest>(reqs));
    lock.lock();
    for (size_t k = 0; k < miss_index.size(); ++k) {
      const size_t i = miss_index[k];
      Frame* frame = GetFrameLocked(ids[i]);
      DSKS_CHECK(frame != nullptr);
      if (reqs[k].status.ok()) {
        frame->io_in_progress = false;
        outs[i] = frame->data.get();
      } else {
        frames_.erase(ids[i]);
        if (first.ok()) {
          first = std::move(reqs[k].status);
        }
      }
    }
    io_done_.notify_all();
  }
  if (first.ok() && !deferred_index.empty()) {
    // Safe to block now: this call holds no unresolved in-flight frames.
    lock.unlock();
    for (size_t i : deferred_index) {
      const Status s = FetchPage(ids[i], &outs[i]);
      if (!s.ok()) {
        first = s;
        break;
      }
    }
    lock.lock();
  }
  if (!first.ok()) {
    // All-or-nothing: release every pin this call took so the caller has
    // nothing to clean up (the per-page contract of FetchPage, batched).
    for (size_t i = 0; i < ids.size(); ++i) {
      if (outs[i] != nullptr) {
        UnpinPageLocked(ids[i], /*dirty=*/false);
        outs[i] = nullptr;
      }
    }
    return first;
  }
  return Status::Ok();
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  if (ids.empty() || !prefetch_enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  const size_t allocated = disk_->num_pages();
  std::unique_lock<std::mutex> lock(latch_);
  std::vector<PageReadRequest> reqs;
  reqs.reserve(ids.size());
  size_t refused = 0;  // pinned-and-dirty pages: counted no-ops
  for (PageId id : ids) {
    if (id >= allocated) {
      continue;  // speculative callers may guess past the watermark
    }
    Frame* frame = GetFrameLocked(id);
    if (frame != nullptr) {
      // Resident or already in flight (claimed earlier in this call or by
      // another thread): nothing to do, and never wait — prefetch must
      // not block. A frame pinned *and dirty* additionally gets counted:
      // its writer holds newer bytes than the disk, so a speculative read
      // could only ever race the write-back with stale data.
      // Issued-and-dropped keeps the lifecycle telescope exact without a
      // device read.
      if (frame->pin_count > 0 && frame->dirty) {
        ++refused;
      }
      continue;
    }
    if (frames_.size() >= capacity_.load(std::memory_order_relaxed)) {
      TryEvictOneLocked();
    }
    Frame& f = frames_[id];
    f.data = std::make_unique<char[]>(kPageSize);
    f.page_id = id;
    // Pinned while in flight so eviction/Clear can't touch the frame; the
    // pin drops when the read publishes it.
    f.pin_count = 1;
    f.dirty = false;
    f.in_lru = false;
    f.io_in_progress = true;
    PageReadRequest req;
    req.id = id;
    req.out = f.data.get();
    reqs.push_back(req);
  }
  if (refused > 0) {
    stats_.prefetch_issued.fetch_add(refused, std::memory_order_relaxed);
    stats_.prefetch_dropped.fetch_add(refused, std::memory_order_relaxed);
    obs::ChargePrefetchIssued(refused);
  }
  if (reqs.empty()) {
    return;
  }
  stats_.prefetch_issued.fetch_add(reqs.size(), std::memory_order_relaxed);
  obs::ChargePrefetchIssued(reqs.size());
  // One batched read outside the latch, like FetchPages' misses; demand
  // fetchers of these pages wait on io_done_ meanwhile.
  lock.unlock();
  disk_->ReadPages(std::span<PageReadRequest>(reqs));
  lock.lock();
  for (PageReadRequest& req : reqs) {
    Frame* frame = GetFrameLocked(req.id);
    DSKS_CHECK(frame != nullptr);
    if (req.status.ok()) {
      frame->io_in_progress = false;
      frame->pin_count = 0;
      frame->prefetched = true;
      lru_.push_back(req.id);
      frame->lru_pos = std::prev(lru_.end());
      frame->in_lru = true;
    } else {
      // Fault-silent by design: drop the frame, count it, and let any
      // later demand fetch re-read and surface its own error. A query
      // never fails because of a speculative read it didn't ask for.
      frames_.erase(req.id);
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  TrimToCapacityLocked();
  lock.unlock();
  io_done_.notify_all();
}

char* BufferPool::NewPage(PageId* id) {
  *id = disk_->AllocatePage();
  std::lock_guard<std::mutex> lock(latch_);
  if (frames_.size() >= capacity_.load(std::memory_order_relaxed)) {
    TryEvictOneLocked();
  }
  Frame& f = frames_[*id];
  f.data = std::make_unique<char[]>(kPageSize);
  std::memset(f.data.get(), 0, kPageSize);
  f.page_id = *id;
  f.pin_count = 1;
  f.dirty = true;
  f.in_lru = false;
  return f.data.get();
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  std::lock_guard<std::mutex> lock(latch_);
  UnpinPageLocked(id, dirty);
}

void BufferPool::UnpinPageLocked(PageId id, bool dirty) {
  Frame* frame = GetFrameLocked(id);
  DSKS_CHECK_MSG(frame != nullptr, "unpin of page not in pool");
  DSKS_CHECK_MSG(frame->pin_count > 0, "unpin of unpinned page");
  frame->dirty = frame->dirty || dirty;
  --frame->pin_count;
  if (frame->pin_count == 0) {
    lru_.push_back(id);
    frame->lru_pos = std::prev(lru_.end());
    frame->in_lru = true;
    // Drain any overflow frames (pin pressure) or a deferred shrink.
    TrimToCapacityLocked();
  }
}

bool BufferPool::TryEvictOneLocked() {
  for (auto it = lru_.begin(); it != lru_.end();) {
    const PageId victim = *it;
    auto fit = frames_.find(victim);
    DSKS_CHECK(fit != frames_.end());
    Frame& f = fit->second;
    DSKS_CHECK(f.pin_count == 0);
    if (f.dirty) {
      const Status status = disk_->WritePage(victim, f.data.get());
      if (!status.ok()) {
        // Injected write fault: keep the frame (still dirty, still in the
        // LRU) and try the next candidate; a later trim retries it.
        ++it;
        continue;
      }
    }
    if (f.prefetched) {
      // Evicted without ever being demanded: the speculative read was
      // wasted work.
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.erase(it);
    frames_.erase(fit);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void BufferPool::TrimToCapacityLocked() {
  while (frames_.size() > capacity_.load(std::memory_order_relaxed) &&
         TryEvictOneLocked()) {
  }
}

Status BufferPool::FlushAllLocked() {
  Status first = Status::Ok();
  for (auto& [id, frame] : frames_) {
    if (frame.dirty) {
      const Status status = disk_->WritePage(id, frame.data.get());
      if (status.ok()) {
        frame.dirty = false;
      } else if (first.ok()) {
        first = status;
      }
    }
  }
  return first;
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(latch_);
  return FlushAllLocked();
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
  const Status status = FlushAllLocked();
  for (auto& [id, frame] : frames_) {
    DSKS_CHECK_MSG(frame.pin_count == 0, "Clear with pinned pages");
    if (frame.prefetched) {
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    (void)id;
  }
  frames_.clear();
  lru_.clear();
  return status;
}

size_t BufferPool::num_frames_in_use() const {
  std::lock_guard<std::mutex> lock(latch_);
  return frames_.size();
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
  registry->BindSource(prefix + ".capacity_frames",
                       [this] { return static_cast<uint64_t>(capacity()); });
  registry->BindSource(prefix + ".frames_in_use", [this] {
    return static_cast<uint64_t>(num_frames_in_use());
  });
}

}  // namespace dsks
