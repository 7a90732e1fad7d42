#ifndef DSKS_OBS_IO_ACCOUNT_H_
#define DSKS_OBS_IO_ACCOUNT_H_

#include <cstdint>

namespace dsks::obs {

/// Buffer-pool/disk I/O event counts. Two uses: (a) span delta snapshots
/// inside QueryTrace, and (b) the per-query attribution account embedded
/// in QueryContext that the storage layer charges directly (see below),
/// which stays exact no matter how many other queries run concurrently.
struct IoCounters {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t disk_reads = 0;
  /// Pages the pool read speculatively (Prefetch). These reads also appear
  /// in disk_reads when they reach the backend; this counter attributes
  /// them, since a prefetched read is not a blocking miss even though it
  /// touches the disk.
  uint64_t prefetched_pages = 0;

  IoCounters operator-(const IoCounters& o) const {
    return {pool_hits - o.pool_hits, pool_misses - o.pool_misses,
            disk_reads - o.disk_reads, prefetched_pages - o.prefetched_pages};
  }
  IoCounters& operator+=(const IoCounters& o) {
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    disk_reads += o.disk_reads;
    prefetched_pages += o.prefetched_pages;
    return *this;
  }
  bool operator==(const IoCounters& o) const = default;
};

/// Thread-affine I/O attribution: the storage layer charges every pool
/// hit/miss, disk read and prefetch issue to the IoCounters the *calling
/// thread* has installed here (in addition to the global relaxed-atomic
/// stats), so a query's context accumulates exactly the I/O that query
/// caused — other threads charge their own accounts. Queries only read:
/// index builders write their pages with no account installed, so page
/// writes are counted in DiskStats alone.
///
/// Single owner: every storage read, batched or not, runs on the thread
/// that issued it (see DESIGN.md "Threading model"), so the installed
/// counters are only ever touched by their owning thread and need no
/// atomics.
///
/// Null (the default) means unattributed: the charge helpers reduce to a
/// thread-local load and a branch, which is what keeps the storage hot
/// paths at their old cost for build phases and untracked callers.
inline thread_local IoCounters* tls_io_account = nullptr;

inline IoCounters* CurrentIoAccount() { return tls_io_account; }

/// Installs `account` as the calling thread's charge target for the scope;
/// restores the previous target on destruction. A null argument is a no-op
/// (keeps whatever is installed), which lets query entry points accept an
/// optional context without branching at every call site.
class ScopedIoAccount {
 public:
  explicit ScopedIoAccount(IoCounters* account) : prev_(tls_io_account) {
    if (account != nullptr) {
      tls_io_account = account;
    }
  }
  ~ScopedIoAccount() { tls_io_account = prev_; }

  ScopedIoAccount(const ScopedIoAccount&) = delete;
  ScopedIoAccount& operator=(const ScopedIoAccount&) = delete;

 private:
  IoCounters* prev_;
};

// Charge hooks, called by BufferPool/DiskManager next to the matching
// global stats increment so the per-account and global views move in
// lockstep (per-account sums telescope to the global deltas).
inline void ChargePoolHit() {
  if (IoCounters* a = tls_io_account) {
    ++a->pool_hits;
  }
}
inline void ChargePoolMiss() {
  if (IoCounters* a = tls_io_account) {
    ++a->pool_misses;
  }
}
inline void ChargePrefetchIssued(uint64_t pages) {
  if (IoCounters* a = tls_io_account) {
    a->prefetched_pages += pages;
  }
}
inline void ChargeDiskRead() {
  if (IoCounters* a = tls_io_account) {
    ++a->disk_reads;
  }
}

}  // namespace dsks::obs

#endif  // DSKS_OBS_IO_ACCOUNT_H_
