#ifndef DSKS_STORAGE_BUFFER_POOL_H_
#define DSKS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flat_containers.h"
#include "common/macros.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace dsks {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Plain single-read copy of BufferPoolStats: every counter is loaded
/// exactly once, so derived quantities (accesses, hit rate) cannot tear
/// across counters that other threads are still advancing.
struct BufferPoolStatsSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Always 0: every page enters the pool on demand. Kept for readers
  /// built against the speculative-read counters (perfbench's layer
  /// metrics).
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;

  uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(accesses());
  }
};

/// Cache behaviour counters. A `miss` is a logical page request that had to
/// go to disk; together with DiskStats::reads it is the I/O metric the
/// paper's experiments report.
///
/// Counters are relaxed atomics so that concurrent readers can account
/// hits/misses without serializing on the pool latch; the struct is not
/// copyable — consumers that need a consistent view take Snapshot() once
/// instead of reading the live counters field by field.
struct BufferPoolStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};

  void Reset() {
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
  }

  BufferPoolStatsSnapshot Snapshot() const {
    BufferPoolStatsSnapshot s;
    s.hits = hits.load(std::memory_order_relaxed);
    s.misses = misses.load(std::memory_order_relaxed);
    s.evictions = evictions.load(std::memory_order_relaxed);
    return s;
  }
};

/// Fixed-capacity LRU read cache over a DiskManager, mirroring the paper's
/// setup ("an LRU memory buffer whose size is set to 2% of the network
/// dataset size", §5). Pages are pinned while in use; only unpinned frames
/// are eligible for eviction.
///
/// The pool never writes: every index builder writes each page once,
/// straight to the DiskManager, before any reader fetches it. A frame is
/// therefore always a clean copy of its page, and eviction just drops the
/// least-recently-used unpinned frame.
///
/// One read path: a page enters the pool only when a FetchPage caller asks
/// for it. It is claimed (a pinned, in-flight frame), read with one
/// DiskManager::ReadPage and published, so every page read is a demand
/// miss.
///
/// Storage allocates nothing once warm. Frames live in one array and are
/// named by their index. On a disk that copies (the file backend) each
/// frame owns a 4 KiB page buffer that is allocated with the frame and
/// never moves, so a pinned page's pointer survives the array's growth. On
/// a disk that lends its pages (DiskManager::lends_pages, the sim backend)
/// a frame owns no buffer: a miss copies nothing and the frame points at
/// the disk's own stable page image, so each resident page is held once.
/// A flat page table maps each resident or in-flight page to its frame.
/// The LRU is a doubly linked list threaded through prev/next frame
/// indexes inside the frames (unpinned resident frames, least recently
/// used at the head). Evicted frames, and frames whose read failed, go on
/// a free list, and the next claim reuses the most recently freed frame
/// and its buffer without zero-filling it (the read overwrites every
/// byte). Frames are never released, so frame memory is bounded by the
/// frame high-water mark: the most frames ever resident or in flight at
/// once, which is `capacity()` plus any overflow (see below).
///
/// Thread safety: all public methods are safe to call from multiple threads
/// concurrently. The frame array, page table, LRU and free list are
/// guarded by one latch; misses perform their disk read *outside* the
/// latch (the frame is marked in-flight so concurrent fetchers of the same
/// page wait instead of double-reading), which keeps parallel query
/// streams from serializing on simulated I/O. Page contents are read-only
/// once published, so they need no latch. They are read-only by contract
/// too: the `char*` a fetch hands out may be the disk's stored image.
///
/// Memory pressure: when every frame is pinned, fetches do not fail —
/// the pool temporarily exceeds `capacity()` with overflow frames and
/// shrinks back as pins drain (see UnpinPage). The capacity is a target,
/// not a hard limit; `num_frames_in_use() > capacity()` is possible while
/// more than `capacity()` pages are pinned at once.
///
/// Typical use goes through PageGuard (RAII pin/unpin); direct Fetch/Unpin
/// calls are available for structures that manage pins across scopes.
class BufferPool {
 public:
  /// `capacity` is the number of 4 KiB frames the pool targets.
  BufferPool(DiskManager* disk, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Destroying a pool with pinned pages is a caller bug (some PageGuard or
  /// manual pin outlived the pool); it is asserted in debug builds and
  /// tolerated in release builds, consistent with Clear()'s stricter
  /// always-on check.
  ~BufferPool();

  /// The pool's one way in. Pins page `id` and stores a pointer to its
  /// contents in `*out`; the pointer stays valid until the matching
  /// UnpinPage. A resident page is a hit. A missing page is claimed, read
  /// outside the latch and published (or, if the read fails, released).
  /// A page another thread is reading is waited for, then looked up
  /// again. Pin pressure never fails (the pool over-allocates a temporary
  /// frame instead); a non-OK status (IOError / Corruption from the disk
  /// read) means the page is NOT pinned and `*out` is untouched, so there
  /// is nothing to unpin.
  Status FetchPage(PageId id, char** out);

  /// Releases one pin. `dirty` must be false: the pool never writes a page
  /// back (CHECK-enforced). If the pool is over capacity (overflow frames
  /// or a deferred SetCapacity shrink), unpinning evicts down toward the
  /// target.
  void UnpinPage(PageId id, bool dirty);

  /// Drops every frame. Used between experiment runs to start from a cold
  /// cache. Always returns OK: frames are clean, so dropping them writes
  /// nothing.
  ///
  /// Contract: requires that *no* page is pinned; a pinned page here means
  /// a pin leak that would silently skew subsequent cold-cache
  /// measurements, so the condition is CHECK-enforced in all build types
  /// (unlike the destructor, which only asserts in debug builds).
  Status Clear();

  /// Changes the frame budget. Lets a database shrink its pool to the
  /// paper's 2% LRU buffer without invalidating pointers held by the index
  /// structures. Evicts unpinned frames down to the new target
  /// immediately; if pinned pages keep the pool above the target, the
  /// remainder of the shrink is deferred and completes as the pins drain
  /// (no abort).
  void SetCapacity(size_t capacity);

  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  size_t num_frames_in_use() const;
  /// Bytes of the page buffers the pool owns, counted as the claims that
  /// allocate them: 4 KiB per frame ever made on a copying disk, 0 on a
  /// lending one, whose frames allocate none.
  uint64_t frame_bytes() const;

  const BufferPoolStats& stats() const { return stats_; }
  /// One coherent read of all counters (see BufferPoolStatsSnapshot).
  BufferPoolStatsSnapshot stats_snapshot() const { return stats_.Snapshot(); }
  /// Zeroes the counters; used between bench phases so each phase's
  /// snapshot is a pure delta.
  void ResetStats() { stats_.Reset(); }

  /// Exposes the pool's counters (plus capacity, frames-in-use and
  /// frame-bytes gauges) as live sources named "<prefix>.hits" etc. The
  /// pool must outlive the binding; call
  /// registry->UnbindSourcesWithPrefix(prefix) before destroying the pool
  /// (Database does this for its own pool).
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix) const;

  DiskManager* disk() { return disk_; }

 private:
  /// Ends the LRU and free lists; FindFrameLocked's "not in the pool".
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// One slot of the frame array: resident, in flight, or free.
  struct Frame {
    /// The page's bytes while the frame is resident: `buffer`, or the
    /// disk's lent page image. Null while in flight or free.
    const char* data = nullptr;
    /// The frame's own page buffer on a copying disk, allocated with the
    /// frame and kept for its lifetime, across every page it holds. Null
    /// on a lending disk.
    std::unique_ptr<char[]> buffer;
    /// kInvalidPageId while the frame is on the free list.
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    /// True while the owning fetch reads the page from disk outside the
    /// latch; concurrent fetchers of the same page wait on io_done_.
    bool io_in_progress = false;
    /// LRU neighbours while the frame is resident and unpinned (exactly
    /// then it is on the LRU); `next` links the free list while free.
    uint32_t prev = kNoFrame;
    uint32_t next = kNoFrame;
  };

  /// Evicts the least-recently-used unpinned frame. Returns false when
  /// everything is pinned (the pool then runs over capacity until pins
  /// drain — bounded, not an abort). Requires latch_ held.
  bool TryEvictOneLocked();

  /// Evicts unpinned frames while the pool exceeds capacity_. Requires
  /// latch_ held.
  void TrimToCapacityLocked();

  /// The frame holding page `id` (resident or in flight), or kNoFrame.
  /// Requires latch_ held.
  uint32_t FindFrameLocked(PageId id) const;

  /// The claim step of every page entering the pool (FetchPage):
  /// evicts one frame if the pool is full — best effort, see
  /// TryEvictOneLocked — then gives `id` a frame from the free list, or a
  /// new one when the list is empty, pinned once and in flight. Returns the
  /// buffer to read the page into: the frame's own, or null on a lending
  /// disk. Counts nothing. Requires latch_ held and `id` not in the pool.
  char* ClaimFrameLocked(PageId id);

  /// Drops the page of frame `index` from the page table and puts the
  /// frame on the free list. Requires latch_ held and the frame off the
  /// LRU, or the whole LRU about to be emptied (Clear).
  void ReleaseFrameLocked(uint32_t index);

  /// Link an unpinned frame in at the most-recently-used end of the LRU,
  /// or out of it. Both require latch_ held.
  void AppendLruLocked(uint32_t index);
  void UnlinkLruLocked(uint32_t index);

  DiskManager* disk_;
  /// disk_->lends_pages(): frames then own no buffer.
  const bool lends_pages_;
  std::atomic<size_t> capacity_;

  mutable std::mutex latch_;
  /// Signalled when a frame's in-flight disk read completes.
  std::condition_variable io_done_;
  /// Every frame the pool has made; grows only when a claim finds the free
  /// list empty, and never shrinks.
  std::vector<Frame> frames_;
  /// Resident and in-flight pages to their frame index.
  FlatHashMap<PageId, uint32_t> page_table_;
  /// Unpinned resident frames, least recently used at lru_head_.
  uint32_t lru_head_ = kNoFrame;
  uint32_t lru_tail_ = kNoFrame;
  /// Free frames, linked through Frame::next, most recently freed first.
  uint32_t free_head_ = kNoFrame;
  /// Bytes of every Frame::buffer allocated so far (frame_bytes()).
  uint64_t owned_buffer_bytes_ = 0;
  BufferPoolStats stats_;
};

/// RAII pin on a buffer-pool page.
class PageGuard {
 public:
  PageGuard() : pool_(nullptr), id_(kInvalidPageId), data_(nullptr) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  PageGuard(PageGuard&& other) noexcept { MoveFrom(&other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }

  ~PageGuard() { Release(); }

  /// Fetches (and pins) page `id`, surfacing disk errors as Status. On a
  /// non-OK return `*out` is released/empty and nothing is pinned.
  static Status Fetch(BufferPool* pool, PageId id, PageGuard* out) {
    out->Release();
    char* data = nullptr;
    DSKS_RETURN_IF_ERROR(pool->FetchPage(id, &data));
    out->pool_ = pool;
    out->id_ = id;
    out->data_ = data;
    return Status::Ok();
  }

  const char* data() const { return data_; }
  PageId id() const { return id_; }
  bool valid() const { return data_ != nullptr; }

  /// Unpins early (before destruction).
  void Release() {
    if (pool_ != nullptr && data_ != nullptr) {
      pool_->UnpinPage(id_, /*dirty=*/false);
    }
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
  }

 private:
  void MoveFrom(PageGuard* other) {
    pool_ = other->pool_;
    id_ = other->id_;
    data_ = other->data_;
    other->pool_ = nullptr;
    other->data_ = nullptr;
    other->id_ = kInvalidPageId;
  }

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  const char* data_ = nullptr;
};

}  // namespace dsks

#endif  // DSKS_STORAGE_BUFFER_POOL_H_
