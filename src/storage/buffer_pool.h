#ifndef DSKS_STORAGE_BUFFER_POOL_H_
#define DSKS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

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

/// Fixed-capacity LRU buffer pool over a DiskManager, mirroring the paper's
/// setup ("an LRU memory buffer whose size is set to 2% of the network
/// dataset size", §5). Pages are pinned while in use; only unpinned frames
/// are eligible for eviction.
///
/// One read path: every page that enters the pool is claimed (a pinned,
/// in-flight frame), read in one DiskManager::ReadPages batch and published
/// by the same private steps, whether a demand FetchPage/FetchPages or a
/// speculative Prefetch asked for it. FetchPage is an inline resident check
/// in front of a FetchPages batch of one.
///
/// Thread safety: all public methods are safe to call from multiple threads
/// concurrently. The page table and LRU list are guarded by one latch;
/// misses perform their disk read *outside* the latch (the frame is marked
/// in-flight so concurrent fetchers of the same page wait instead of
/// double-reading), which keeps parallel query streams from serializing on
/// simulated I/O. Page *contents* are not latched: concurrent readers of a
/// page are safe, but writers of the same page must coordinate externally
/// (every structure in this library writes pages only during single-threaded
/// build/ingest phases).
///
/// Memory pressure: when every frame is pinned, Fetch/New do not fail —
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

  /// Flushes dirty frames. Destroying a pool with pinned pages is a caller
  /// bug (some PageGuard or manual pin outlived the pool); it is asserted
  /// in debug builds and tolerated in release builds, consistent with
  /// Clear()'s stricter always-on check.
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
  /// must be duplicate-free — a duplicate would wait on its own in-flight
  /// read.
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
  /// every page is published to the LRU or dropped. A page currently
  /// pinned *and dirty* is refused as a counted no-op (prefetch_issued AND
  /// prefetch_dropped, never a device read) — a speculative read racing
  /// an in-progress writer would publish stale bytes.
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

  /// Allocates a fresh page on disk and returns it pinned; `*id` receives
  /// the new page id.
  char* NewPage(PageId* id);

  /// Releases one pin; `dirty` marks the frame for write-back on eviction.
  /// If the pool is over capacity (overflow frames or a deferred
  /// SetCapacity shrink), unpinning evicts down toward the target.
  void UnpinPage(PageId id, bool dirty);

  /// Writes back every dirty frame (pinned or not) without evicting.
  /// Attempts every dirty frame even after a failure; returns the first
  /// error (frames whose write failed stay dirty for a later retry).
  Status FlushAll();

  /// Drops all unpinned frames (writing back dirty ones). Used between
  /// experiment runs to start from a cold cache. Frames are dropped even
  /// when a write-back fails; the first error is returned so callers know
  /// the disk image may be stale.
  ///
  /// Contract: requires that *no* page is pinned; a pinned page here means
  /// a pin leak that would silently skew subsequent cold-cache
  /// measurements, so the condition is CHECK-enforced in all build types
  /// (unlike the destructor, which only asserts in debug builds).
  Status Clear();

  /// Changes the frame budget. Lets a database be built with a large pool
  /// and queried with the paper's 2% LRU buffer without invalidating
  /// pointers held by the index structures. Evicts unpinned frames down to
  /// the new target immediately; if pinned pages keep the pool above the
  /// target, the remainder of the shrink is deferred and completes as the
  /// pins drain (no abort).
  void SetCapacity(size_t capacity);

  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  size_t num_frames_in_use() const;

  const BufferPoolStats& stats() const { return stats_; }
  BufferPoolStats* mutable_stats() { return &stats_; }
  /// One coherent read of all counters (see BufferPoolStatsSnapshot).
  BufferPoolStatsSnapshot stats_snapshot() const { return stats_.Snapshot(); }
  /// Zeroes the counters; used between bench phases so each phase's
  /// snapshot is a pure delta.
  void ResetStats() { stats_.Reset(); }

  /// Exposes the pool's counters (plus capacity / frames-in-use gauges) as
  /// live sources named "<prefix>.hits" etc. The pool must outlive the
  /// binding; call registry->UnbindSourcesWithPrefix(prefix) before
  /// destroying the pool (Database does this for its own pool).
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix) const;

  DiskManager* disk() { return disk_; }

 private:
  struct Frame {
    std::unique_ptr<char[]> data;
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    /// True while the owning fetch reads the page from disk outside the
    /// latch; concurrent fetchers of the same page wait on io_done_.
    bool io_in_progress = false;
    /// Set when a speculative read published this frame; cleared (counting
    /// a prefetch hit) by the first demand fetch, or counted as wasted if
    /// the frame is evicted/cleared still carrying it.
    bool prefetched = false;
    /// Position in lru_ when pin_count == 0.
    std::list<PageId>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Evicts the least-recently-used unpinned frame whose (dirty)
  /// write-back succeeds, scanning each LRU candidate at most once per
  /// call. Returns false when everything is pinned or every dirty
  /// candidate's write-back failed this call (the pool then runs over
  /// capacity until a later trim succeeds — bounded, not an abort).
  /// Requires latch_ held.
  bool TryEvictOneLocked();

  /// Evicts unpinned frames while the pool exceeds capacity_. Requires
  /// latch_ held.
  void TrimToCapacityLocked();

  /// Requires latch_ held.
  Frame* GetFrameLocked(PageId id);

  /// The claim step of every page entering the pool (FetchPages, Prefetch,
  /// NewPage): evicts one frame if the pool is full — best effort, see
  /// TryEvictOneLocked — then inserts a frame for `id` that is pinned
  /// once, clean and in flight. Counts nothing. Requires latch_ held and
  /// `id` not in the pool.
  Frame* ClaimFrameLocked(PageId id);

  /// The read step of FetchPages and Prefetch: releases the latch, reads
  /// every claimed frame of `reqs` with one DiskManager::ReadPages call,
  /// retakes the latch, marks each success resident (still pinned by its
  /// claim) and erases each failure, then wakes the fetchers waiting on
  /// io_done_. Requires latch_ held through `*lock`.
  void ReadClaimedLocked(std::unique_lock<std::mutex>* lock,
                         std::span<PageReadRequest> reqs);

  /// Appends an unpinned frame at the most-recently-used end of the LRU.
  /// Requires latch_ held.
  void AppendLruLocked(Frame* frame);

  /// FetchPages' body, shared with FetchPage's miss path. `outs` must be
  /// all null on entry (null marks "not pinned by this call"). Requires
  /// latch_ held through `*lock`.
  Status FetchPagesLocked(std::unique_lock<std::mutex>* lock,
                          std::span<const PageId> ids, std::span<char*> outs);

  /// Pins `*frame` as a demand hit: hit accounting (including the
  /// prefetched-flag resolution), LRU removal, pin count. Requires latch_
  /// held and the frame not in flight.
  char* PinHitLocked(Frame* frame);

  /// UnpinPage's body; requires latch_ held.
  void UnpinPageLocked(PageId id, bool dirty);

  Status FlushAllLocked();

  DiskManager* disk_;
  std::atomic<size_t> capacity_;
  std::atomic<bool> prefetch_enabled_{true};

  mutable std::mutex latch_;
  /// Signalled when a frame's in-flight disk read completes.
  std::condition_variable io_done_;
  std::unordered_map<PageId, Frame> frames_;
  /// Unpinned pages, least-recently-used at the front.
  std::list<PageId> lru_;
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
    out->dirty_ = false;
    return Status::Ok();
  }

  /// Allocates a new pinned page via the pool.
  static PageGuard New(BufferPool* pool, PageId* id) {
    PageGuard g;
    g.pool_ = pool;
    g.data_ = pool->NewPage(id);
    g.id_ = *id;
    g.dirty_ = true;
    return g;
  }

  char* data() { return data_; }
  const char* data() const { return data_; }
  PageId id() const { return id_; }
  bool valid() const { return data_ != nullptr; }

  void MarkDirty() { dirty_ = true; }

  /// Unpins early (before destruction).
  void Release() {
    if (pool_ != nullptr && data_ != nullptr) {
      pool_->UnpinPage(id_, dirty_);
    }
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
    dirty_ = false;
  }

 private:
  void MoveFrom(PageGuard* other) {
    pool_ = other->pool_;
    id_ = other->id_;
    data_ = other->data_;
    dirty_ = other->dirty_;
    other->pool_ = nullptr;
    other->data_ = nullptr;
    other->id_ = kInvalidPageId;
    other->dirty_ = false;
  }

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  bool dirty_ = false;
};

/// Pin for single-threaded build/ingest phases only, where the disk is
/// fault-free by contract: fault injection is armed after PrepareForQueries
/// and a build interleaved with faults has no partial state worth
/// salvaging, so a disk error here is a setup failure and CHECK-aborts
/// rather than threading a Status through every builder. This path cannot
/// see query-time faults; query code uses PageGuard::Fetch and propagates
/// the Status.
inline PageGuard FetchForBuild(BufferPool* pool, PageId id) {
  PageGuard guard;
  const Status s = PageGuard::Fetch(pool, id, &guard);
  DSKS_CHECK_MSG(s.ok(), "build-phase fetch on a faulty disk");
  return guard;
}

}  // namespace dsks

#endif  // DSKS_STORAGE_BUFFER_POOL_H_
