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

BufferPool::Frame* BufferPool::ClaimFrameLocked(PageId id) {
  if (frames_.size() >= capacity_.load(std::memory_order_relaxed)) {
    // Best effort: when every frame is pinned this fails and the pool
    // temporarily runs over capacity (UnpinPage trims back down).
    TryEvictOneLocked();
  }
  Frame& frame = frames_[id];
  frame.data = std::make_unique<char[]>(kPageSize);
  frame.page_id = id;
  frame.pin_count = 1;
  frame.io_in_progress = true;
  return &frame;
}

void BufferPool::ReadClaimedLocked(std::unique_lock<std::mutex>* lock,
                                   std::span<PageReadRequest> reqs) {
  // Read outside the latch so reads of different pages overlap. The
  // claimed frames are pinned and off the LRU, so nothing evicts them
  // meanwhile, and unordered_map keeps them in place across other
  // threads' inserts and erases.
  lock->unlock();
  disk_->ReadPages(reqs);
  lock->lock();
  for (const PageReadRequest& req : reqs) {
    if (req.status.ok()) {
      Frame* frame = GetFrameLocked(req.id);
      DSKS_CHECK(frame != nullptr);
      frame->io_in_progress = false;
    } else {
      // Drop the failed frame so waiters, and later fetches, retry from
      // scratch instead of pinning garbage.
      frames_.erase(req.id);
    }
  }
  io_done_.notify_all();
}

void BufferPool::AppendLruLocked(Frame* frame) {
  lru_.push_back(frame->page_id);
  frame->lru_pos = std::prev(lru_.end());
  frame->in_lru = true;
}

Status BufferPool::FetchPage(PageId id, char** out) {
  std::unique_lock<std::mutex> lock(latch_);
  // The resident check stays inline so that a hit, which most fetches
  // are, skips the batch machinery.
  Frame* frame = GetFrameLocked(id);
  if (frame != nullptr && !frame->io_in_progress) {
    *out = PinHitLocked(frame);
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
  std::vector<PageReadRequest> reqs;
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
      Frame* frame = GetFrameLocked(ids[i]);
      if (frame == nullptr) {
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
        obs::ChargePoolMiss();
        if (reqs.capacity() == 0) {
          reqs.reserve(ids.size());
        }
        PageReadRequest& req = reqs.emplace_back();
        req.id = ids[i];
        req.out = ClaimFrameLocked(ids[i])->data.get();
        outs[i] = req.out;  // the claim's pin belongs to this call
      } else if (frame->io_in_progress) {
        in_flight = true;
      } else {
        outs[i] = PinHitLocked(frame);
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
    ReadClaimedLocked(lock, reqs);
    Status first = Status::Ok();
    for (PageReadRequest& req : reqs) {
      if (req.status.ok()) {
        continue;
      }
      // The read step erased the frame, and with it this call's pin.
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == req.id) {
          outs[i] = nullptr;
          break;
        }
      }
      if (first.ok()) {
        first = std::move(req.status);
      }
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
  }
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  if (ids.empty() || !prefetch_enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  const size_t allocated = disk_->num_pages();
  std::unique_lock<std::mutex> lock(latch_);
  std::vector<PageReadRequest> reqs;
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
    if (reqs.capacity() == 0) {
      reqs.reserve(ids.size());
    }
    PageReadRequest& req = reqs.emplace_back();
    req.id = id;
    req.out = ClaimFrameLocked(id)->data.get();
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
  // Demand fetchers of these pages wait on io_done_ meanwhile.
  ReadClaimedLocked(&lock, reqs);
  for (const PageReadRequest& req : reqs) {
    if (!req.status.ok()) {
      // Fault-silent by design: the read step dropped the frame; count it
      // and let any later demand fetch re-read and surface its own error.
      // A query never fails because of a speculative read it didn't ask
      // for.
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Publish unpinned: the claim's pin only held the frame in flight.
    Frame* frame = GetFrameLocked(req.id);
    frame->pin_count = 0;
    frame->prefetched = true;
    AppendLruLocked(frame);
  }
  TrimToCapacityLocked();
}

char* BufferPool::NewPage(PageId* id) {
  *id = disk_->AllocatePage();
  std::lock_guard<std::mutex> lock(latch_);
  // A new page has nothing to read: it is resident and dirty at once.
  Frame* frame = ClaimFrameLocked(*id);
  std::memset(frame->data.get(), 0, kPageSize);
  frame->dirty = true;
  frame->io_in_progress = false;
  return frame->data.get();
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
    AppendLruLocked(frame);
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
