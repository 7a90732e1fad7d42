#ifndef DSKS_STORAGE_DISK_MANAGER_H_
#define DSKS_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/disk_backend.h"
#include "storage/fault_injector.h"
#include "storage/page.h"
#include "storage/sim_disk_backend.h"

namespace dsks {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Plain single-read copy of DiskStats (see BufferPoolStatsSnapshot for
/// the rationale).
struct DiskStatsSnapshot {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t corruptions_detected = 0;
};

/// Physical I/O counters for a disk. `reads` is the number the paper's
/// figures call "# of I/O accesses": every buffer-pool miss costs exactly
/// one read here. `read_faults`/`write_faults` count I/O failures
/// (injected or real errno) surfaced as Status::IOError;
/// `corruptions_detected` counts checksum mismatches and short reads
/// surfaced as Status::Corruption.
///
/// Counters are relaxed atomics so concurrent readers can account I/O
/// without a lock; the struct is not copyable — take Snapshot() for a
/// coherent multi-counter view.
struct DiskStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> allocations{0};
  std::atomic<uint64_t> read_faults{0};
  std::atomic<uint64_t> write_faults{0};
  std::atomic<uint64_t> corruptions_detected{0};

  void Reset() {
    reads.store(0, std::memory_order_relaxed);
    writes.store(0, std::memory_order_relaxed);
    allocations.store(0, std::memory_order_relaxed);
    read_faults.store(0, std::memory_order_relaxed);
    write_faults.store(0, std::memory_order_relaxed);
    corruptions_detected.store(0, std::memory_order_relaxed);
  }

  DiskStatsSnapshot Snapshot() const {
    DiskStatsSnapshot s;
    s.reads = reads.load(std::memory_order_relaxed);
    s.writes = writes.load(std::memory_order_relaxed);
    s.allocations = allocations.load(std::memory_order_relaxed);
    s.read_faults = read_faults.load(std::memory_order_relaxed);
    s.write_faults = write_faults.load(std::memory_order_relaxed);
    s.corruptions_detected =
        corruptions_detected.load(std::memory_order_relaxed);
    return s;
  }
};

/// A disk of 4 KiB pages addressed by PageId. All index structures (CCAM
/// file, B+trees, R-trees, posting pages) allocate from a DiskManager so
/// that their sizes and I/O traffic are measured in the same unit the
/// paper reports (pages).
///
/// The storage medium is a pluggable DiskBackend: the default in-memory
/// simulation (deterministic, filesystem-free), or a real index file
/// accessed with pread/pwrite (see FileDiskBackend). Policy is identical
/// for both and lives here in the front end:
///
/// Integrity and failures: every WritePage records a CRC32C of the page
/// out-of-line (so the 4 KiB image and all on-page layouts are unchanged);
/// every read verifies the bytes it returns, copied or lent, against that
/// checksum and reports a mismatch as Status::Corruption. The embedded
/// FaultInjector can make reads/writes fail with Status::IOError or
/// silently flip a bit in a private copy of a read's page (which the
/// checksum then catches; the flip never reaches the caller's buffer or a
/// lent stored image) — on *either* backend, so `dsks_cli drill` drills
/// real files too. Real errno failures from the file backend map onto the
/// same contract: pread/pwrite errors (EIO, ...) → IOError, a short read
/// of an allocated page → Corruption.
///
/// Thread safety: AllocatePage/ReadPage/WritePage may be called from many
/// threads. Concurrent accesses to the *same* page are safe only if none
/// of them writes. Every index builder writes each of its pages once,
/// before anything reads it, and the buffer pool never writes, so no read
/// races a write.
class DiskManager {
 public:
  /// The default: a fresh simulated disk.
  DiskManager() : DiskManager(DiskOptions{}) {}

  /// Opens a fresh disk on the requested backend. Creation failure (bad
  /// path for the file backend) is a setup error and aborts; use
  /// OpenExisting to reopen a previously flushed file without aborting.
  explicit DiskManager(const DiskOptions& options);

  /// Reopens an index file pair persisted by a prior Flush() (file
  /// backend only). Malformed or missing files come back as a Status, not
  /// an abort: reopening untrusted on-disk state is a runtime failure.
  static Status OpenExisting(const DiskOptions& options,
                             std::unique_ptr<DiskManager>* out);

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a zeroed page and returns its id.
  PageId AllocatePage();

  /// Copies page `id` into `out` (exactly kPageSize bytes): a ReadPages
  /// batch of one. Returns IOError on a read fault — injected or a real
  /// pread failure (out is unspecified) — or Corruption when the copy
  /// fails checksum verification or the backing file ends mid-page.
  Status ReadPage(PageId id, char* out);

  /// The one read path: one backend round trip for the whole batch, with
  /// the full per-page policy applied to every request — fault-injection
  /// draws, stats accounting, bit-flip corruption and CRC verification all
  /// happen per page, in batch order, so each request's `status` equals
  /// what a sequential ReadPage loop would have returned (and seeded chaos
  /// draw sequences are identical, batched or not). A request may leave
  /// `out` null when lends_pages() (see PageReadRequest).
  void ReadPages(std::span<PageReadRequest> batch);

  /// True when the backend keeps its pages in memory and lends them to a
  /// read with no `out` (the sim backend); false when every read copies
  /// (the file backend).
  bool lends_pages() const { return backend_->lends_pages(); }

  /// Copies `in` (exactly kPageSize bytes) into page `id` and records its
  /// checksum. Returns IOError on a write fault (injected or real errno);
  /// the recorded checksum is untouched in that case, so a torn physical
  /// write is caught on the next cold read.
  Status WritePage(PageId id, const char* in);

  /// Drops every page with id >= new_num_pages, shrinking the disk (and,
  /// on the file backend, the index file). The caller must guarantee no
  /// live references to the dropped range. On a lending disk that covers
  /// every frame of every buffer pool over it, unpinned resident ones
  /// included: Database clears its pool first.
  Status TruncatePages(size_t new_num_pages);

  /// Makes all pages durable: the file backend persists the checksum
  /// sidecar (with the allocation watermark) and fsyncs; sim is a no-op.
  Status Flush();

  DiskBackendKind backend_kind() const { return backend_kind_; }
  const char* backend_name() const {
    return DiskBackendKindName(backend_kind_);
  }

  /// Number of pages ever allocated; `size * kPageSize` is the disk size.
  size_t num_pages() const { return backend_->num_pages(); }

  /// Total bytes occupied on the disk.
  uint64_t size_bytes() const {
    return static_cast<uint64_t>(num_pages()) * kPageSize;
  }

  /// Deterministic fault source consulted by ReadPage/WritePage.
  FaultInjector* fault_injector() { return &fault_injector_; }

  /// Test hook: flips `bit_index` (in [0, kPageSize*8)) of the *stored*
  /// page image without updating its checksum, simulating at-rest
  /// corruption. The next cold read of the page returns kCorruption. On a
  /// lending disk the flip also reaches a pool frame that holds the page.
  void CorruptStoredPage(PageId id, uint32_t bit_index);

  const DiskStats& stats() const { return stats_; }
  DiskStats* mutable_stats() { return &stats_; }
  /// One coherent read of all counters.
  DiskStatsSnapshot stats_snapshot() const { return stats_.Snapshot(); }
  /// Zeroes the counters between measured phases.
  void ResetStats() { stats_.Reset(); }

  /// Exposes reads/writes/allocations/pages plus the fault counters
  /// (read_faults/write_faults/corruptions_detected) as live sources named
  /// "<prefix>.reads" etc., and the gauge "<prefix>.resident_bytes": the
  /// page bytes this process holds for a lending disk, 0 for the file
  /// backend. Same lifetime contract as BufferPool::BindMetrics.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix) const;

  /// Simulated read latency in microseconds, charged once per ReadPages
  /// batch (ReadPage is a batch of one). 0 by default; the experiment
  /// harness enables it during measured workloads so that response times
  /// reflect I/O volume the way the paper's disk-resident setup does. Sim
  /// backend only: the file backend has real device latency, so these are
  /// documented no-ops there (reads as 0 / false).
  void set_read_delay_us(double us) {
    if (sim_ != nullptr) sim_->set_read_delay_us(us);
  }
  double read_delay_us() const {
    return sim_ != nullptr ? sim_->read_delay_us() : 0.0;
  }

  /// How the simulated latency passes. Spin (default) busy-waits, giving
  /// precise scheduler-independent per-query timings — right for the
  /// sequential paper experiments. Sleep blocks the calling thread and
  /// frees the core, modelling what a real blocking disk read does; the
  /// concurrent query harness uses it so in-flight "I/O" overlaps instead
  /// of contending for CPU. Sim backend only (no-op on file).
  void set_read_delay_yields(bool yields) {
    if (sim_ != nullptr) sim_->set_read_delay_yields(yields);
  }
  bool read_delay_yields() const {
    return sim_ != nullptr && sim_->read_delay_yields();
  }

 private:
  explicit DiskManager(std::unique_ptr<DiskBackend> backend,
                       DiskBackendKind kind);

  /// The per-page read policy, applied to every page of a ReadPages batch
  /// after the backend filled `r`: injected read-fault draw, stats and I/O
  /// attribution, injected bit flip, CRC verification of `r->data` — in
  /// that order. Sets `r->status` to the read's final outcome.
  /// The injector draws each decision from its own per-kind counter, so a
  /// batch draws exactly the sequence a page-by-page loop would.
  void FinishRead(PageReadRequest* r, bool armed);

  std::unique_ptr<DiskBackend> backend_;
  DiskBackendKind backend_kind_;
  /// Downcast view of backend_ when it is the simulation; null for the
  /// file backend. Only the delay knobs go through it.
  SimDiskBackend* sim_ = nullptr;
  DiskStats stats_;
  FaultInjector fault_injector_;
};

}  // namespace dsks

#endif  // DSKS_STORAGE_DISK_MANAGER_H_
