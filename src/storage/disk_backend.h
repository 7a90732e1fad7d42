#ifndef DSKS_STORAGE_DISK_BACKEND_H_
#define DSKS_STORAGE_DISK_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace dsks {

/// Which physical medium a DiskManager puts its pages on.
enum class DiskBackendKind {
  /// In-memory page map with optional simulated latency. Deterministic and
  /// file-system free: the default for unit tests, chaos runs and the
  /// paper-figure harness.
  kSim,
  /// One real index file accessed with pread/pwrite at page-id × kPageSize
  /// offsets; checksums persisted in a `<path>.crc` sidecar; fsync on
  /// Flush. Turns the "# of I/O accesses" benches from a model into a
  /// measurement.
  kFile,
};

/// Stable lower-case name ("sim" / "file") used by --backend flags and the
/// "backend" field of bench JSON records.
const char* DiskBackendKindName(DiskBackendKind kind);

/// Open-time configuration of a DiskManager.
struct DiskOptions {
  DiskBackendKind backend = DiskBackendKind::kSim;
  /// File backend: path of the index file; its checksum sidecar lives at
  /// `path + ".crc"`. Ignored by the simulated backend.
  std::string path;
  /// File backend: bypass the OS page cache with O_DIRECT so measured
  /// reads hit the device. Best effort: filesystems that reject the flag
  /// (tmpfs) silently fall back to buffered I/O.
  bool o_direct = false;
};

/// CRC32C of an all-zero page, the checksum recorded for freshly allocated
/// pages by every backend.
uint32_t ZeroPageCrc();

/// One page of a read (DiskBackend::ReadPages / DiskManager::ReadPages; a
/// single-page read is a batch of one). The caller fills `id` and `out`;
/// the backend fills `expected_crc` and `status` with the same values
/// whatever the batch around the page. Statuses are per page: one failed
/// page does not poison its batch mates.
struct PageReadRequest {
  PageId id = kInvalidPageId;
  char* out = nullptr;
  uint32_t expected_crc = 0;
  Status status;
};

/// Storage medium behind a DiskManager: raw page images plus their
/// out-of-line per-page checksums. Implementations do their own locking.
/// Everything policy-level — fault injection, checksum computation and
/// verification, I/O statistics, simulated-latency knobs — lives in the
/// DiskManager front end, so both backends inherit identical failure
/// semantics and `dsks_cli chaos` drills real files exactly like the
/// simulation.
///
/// Concurrency contract (inherited by DiskManager): concurrent calls on
/// distinct pages are safe; concurrent accesses to the *same* page are
/// safe only if at most one of them writes — which the buffer pool
/// guarantees.
class DiskBackend {
 public:
  virtual ~DiskBackend() = default;

  /// Appends a zeroed page (checksum = ZeroPageCrc()) and returns its id.
  virtual PageId AllocatePage() = 0;

  /// The one read entry: copies each requested page into its `out`
  /// (kPageSize bytes) and its recorded checksum into `expected_crc`, in
  /// one device round trip where the medium allows it. A page's `status`
  /// is IOError for a device failure (`out` undefined) and Corruption for
  /// a structurally impossible read — a short read past the end of a torn
  /// file. The caller verifies each `out` against its `expected_crc`; the
  /// backend does not. The file backend merges contiguous page-id runs
  /// into single preadv calls; the sim backend charges its simulated
  /// latency once per call, whatever the batch size.
  virtual void ReadPages(std::span<PageReadRequest> batch) = 0;

  /// Stores `in` as page `id` and records `crc` as its checksum. On error
  /// the recorded checksum is untouched (the page image may be torn on a
  /// real device — the stale checksum then flags it on the next read).
  virtual Status WritePage(PageId id, const char* in, uint32_t crc) = 0;

  /// Drops every page with id >= new_num_pages. Index rebuilds reuse the
  /// freed extent, keeping the disk (or index file) from growing without
  /// bound.
  virtual Status TruncatePages(size_t new_num_pages) = 0;

  /// Makes everything written so far durable: the file backend persists
  /// the checksum sidecar (including the page-allocation watermark) and
  /// fsyncs both files; the simulation is a no-op.
  virtual Status Flush() = 0;

  /// Test hook: flips one bit of the *stored* page image without updating
  /// its checksum (at-rest corruption).
  virtual void CorruptStoredPage(PageId id, uint32_t bit_index) = 0;

  /// Page-allocation watermark (pages ever allocated minus truncations).
  virtual size_t num_pages() const = 0;
};

}  // namespace dsks

#endif  // DSKS_STORAGE_DISK_BACKEND_H_
