#ifndef DSKS_STORAGE_BUFFER_POOL_H_
#define DSKS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
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
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t prefetch_dropped = 0;

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
  /// Prefetch lifecycle counters. Every *started* speculative read counts
  /// in `issued`; each issued page is later accounted exactly once as a
  /// `hit` (its first demand fetch found it resident), `wasted` (evicted
  /// or cleared before any demand touch), or `dropped` (the speculative
  /// read itself failed — injected fault, real errno, corruption). At
  /// quiescence (no frame still carrying its prefetched flag):
  /// issued == hits + wasted + dropped.
  std::atomic<uint64_t> prefetch_issued{0};
  std::atomic<uint64_t> prefetch_hits{0};
  std::atomic<uint64_t> prefetch_wasted{0};
  std::atomic<uint64_t> prefetch_dropped{0};

  void Reset() {
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    prefetch_issued.store(0, std::memory_order_relaxed);
    prefetch_hits.store(0, std::memory_order_relaxed);
    prefetch_wasted.store(0, std::memory_order_relaxed);
    prefetch_dropped.store(0, std::memory_order_relaxed);
  }

  BufferPoolStatsSnapshot Snapshot() const {
    BufferPoolStatsSnapshot s;
    s.hits = hits.load(std::memory_order_relaxed);
    s.misses = misses.load(std::memory_order_relaxed);
    s.evictions = evictions.load(std::memory_order_relaxed);
    s.prefetch_issued = prefetch_issued.load(std::memory_order_relaxed);
    s.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
    s.prefetch_wasted = prefetch_wasted.load(std::memory_order_relaxed);
    s.prefetch_dropped = prefetch_dropped.load(std::memory_order_relaxed);
    return s;
  }

  uint64_t accesses() const { return Snapshot().accesses(); }
  double hit_rate() const { return Snapshot().hit_rate(); }
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
/// One read path: every page that enters the pool is claimed (a pinned,
/// in-flight frame), read in one DiskManager::ReadPages batch and published
/// by the same private steps, whether a demand FetchPage/FetchPages or a
/// speculative Prefetch asked for it. FetchPage is an inline resident check
/// in front of a FetchPages batch of one.
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
/// once, which is `capacity()` plus any overflow (see below). A claim
/// batch keeps its read requests on the stack up to 32 pages.
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

  /// Pins page `id` and stores a pointer to its contents in `*out`; the
  /// pointer stays valid until the matching UnpinPage. Pin pressure never
  /// fails (the pool over-allocates a temporary frame instead); a non-OK
  /// status (IOError / Corruption from the disk read) means the page is
  /// NOT pinned and `*out` is untouched, so there is nothing to unpin.
  Status FetchPage(PageId id, char** out);

  /// Batched FetchPage: pins every page of `ids` (same contract per page
  /// as FetchPage) resolving all misses with a single DiskManager batch
  /// read and one latch pass, so K cold pages cost one device round trip
  /// instead of K. Pages another thread is reading are waited for — only
  /// after this call's own claimed reads are done, so two concurrent
  /// calls never wait on each other. All-or-nothing: on any page's
  /// failure every pin this call took is released and the first error is
  /// returned (`outs` is then unspecified, nothing is left pinned). `ids`
  /// must be duplicate-free (asserted in debug builds). A release build
  /// tolerates a duplicate: the call reads its own claims before it looks
  /// at a page again, so the duplicate is pinned twice, counted as one
  /// miss and one hit, and needs two unpins.
  Status FetchPages(std::span<const PageId> ids, std::span<char*> outs);

  /// Best-effort, non-blocking readahead: starts one batched speculative
  /// read for the pages of `ids` not already resident or in flight, and
  /// publishes whatever succeeds as unpinned LRU frames. Failures of any
  /// kind — injected faults, real I/O errors, corruption — are dropped
  /// (counted in prefetch_dropped) and never surfaced: a later demand
  /// fetch of that page retries from scratch and reports its own error.
  /// Never waits on other threads' in-flight reads, skips unallocated ids,
  /// and is a no-op while prefetching is disabled. Results of queries are
  /// bit-identical with prefetch on or off; only cache temperature moves.
  ///
  /// The claimed frames are pinned and in flight (io_in_progress) while
  /// the batch is read outside the latch, so demand fetchers of those
  /// pages wait for it instead of double-reading; the call returns once
  /// every page is published to the LRU or dropped.
  void Prefetch(std::span<const PageId> ids);

  /// Kill switch for Prefetch (default on). Tests that need exact demand
  /// I/O sequences (one-shot fault placement) turn it off; `--prefetch`
  /// flags on the CLI/bench A/B the two modes.
  void set_prefetch_enabled(bool enabled) {
    prefetch_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool prefetch_enabled() const {
    return prefetch_enabled_.load(std::memory_order_relaxed);
  }

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
  BufferPoolStats* mutable_stats() { return &stats_; }
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
    /// Set when a speculative read published this frame; cleared (counting
    /// a prefetch hit) by the first demand fetch, or counted as wasted if
    /// the frame is evicted/cleared still carrying it.
    bool prefetched = false;
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

  /// The claim step of every page entering the pool (FetchPages,
  /// Prefetch): evicts one frame if the pool is full — best effort, see
  /// TryEvictOneLocked — then gives `id` a frame from the free list, or a
  /// new one when the list is empty, pinned once and in flight. Returns the
  /// buffer to read the page into: the frame's own, or null on a lending
  /// disk. Counts nothing. Requires latch_ held and `id` not in the pool.
  char* ClaimFrameLocked(PageId id);

  /// Drops the page of frame `index` from the page table and puts the
  /// frame on the free list. Requires latch_ held and the frame off the
  /// LRU, or the whole LRU about to be emptied (Clear).
  void ReleaseFrameLocked(uint32_t index);

  /// The read step of FetchPages and Prefetch: releases the latch, reads
  /// every claimed frame of `reqs` with one DiskManager::ReadPages call,
  /// retakes the latch, marks each success resident at its `data` (still
  /// pinned by its claim) and frees each failure, then wakes the fetchers
  /// waiting on io_done_. Requires latch_ held through `*lock`.
  void ReadClaimedLocked(std::unique_lock<std::mutex>* lock,
                         std::span<PageReadRequest> reqs);

  /// Link an unpinned frame in at the most-recently-used end of the LRU,
  /// or out of it. Both require latch_ held.
  void AppendLruLocked(uint32_t index);
  void UnlinkLruLocked(uint32_t index);

  /// FetchPages' body, shared with FetchPage's miss path. `outs` must be
  /// all null on entry (null marks "not pinned by this call"). Requires
  /// latch_ held through `*lock`.
  Status FetchPagesLocked(std::unique_lock<std::mutex>* lock,
                          std::span<const PageId> ids, std::span<char*> outs);

  /// Pins frame `index` as a demand hit: hit accounting (including the
  /// prefetched-flag resolution), LRU removal, pin count. Returns the
  /// page's bytes. Requires latch_ held and the frame resident, not in
  /// flight.
  const char* PinHitLocked(uint32_t index);

  /// UnpinPage's body; requires latch_ held.
  void UnpinPageLocked(PageId id);

  DiskManager* disk_;
  /// disk_->lends_pages(): frames then own no buffer.
  const bool lends_pages_;
  std::atomic<size_t> capacity_;
  std::atomic<bool> prefetch_enabled_{true};

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
