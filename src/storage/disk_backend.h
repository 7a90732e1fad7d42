#ifndef DSKS_STORAGE_DISK_BACKEND_H_
#define DSKS_STORAGE_DISK_BACKEND_H_

#include <cstddef>
#include <cstdint>
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
};

/// CRC32C of an all-zero page, the checksum recorded for freshly allocated
/// pages by every backend.
uint32_t ZeroPageCrc();

/// Storage medium behind a DiskManager: raw page images plus their
/// out-of-line per-page checksums. Implementations do their own locking.
/// Everything policy-level — fault injection, checksum computation and
/// verification, I/O statistics, simulated-latency knobs — lives in the
/// DiskManager front end, so both backends inherit identical failure
/// semantics and `dsks_cli drill` drills real files exactly like the
/// simulation.
///
/// Concurrency contract (inherited by DiskManager): concurrent calls on
/// distinct pages are safe; concurrent accesses to the *same* page, lent
/// reads included, are safe only if none of them writes — which the
/// builders and the buffer pool guarantee.
class DiskBackend {
 public:
  virtual ~DiskBackend() = default;

  /// Appends a zeroed page (checksum = ZeroPageCrc()) and returns its id.
  virtual PageId AllocatePage() = 0;

  /// The one read entry: reads page `id` and stores its recorded checksum
  /// in `*expected_crc`. With an `out` (kPageSize bytes) the page is copied
  /// there and `*data` is `out`. A null `out` is allowed only when
  /// lends_pages(): nothing is copied and `*data` points at the stored
  /// image, which stays valid until TruncatePages drops the page. Returns
  /// IOError for a device failure (`out` undefined) and Corruption for a
  /// structurally impossible read — a short read past the end of a torn
  /// file. The caller verifies `*data` against `*expected_crc`; the
  /// backend does not. The file backend reads with one `pread`; the sim
  /// backend charges its simulated latency once per call.
  virtual Status ReadPage(PageId id, char* out, const char** data,
                          uint32_t* expected_crc) = 0;

  /// True when the pages live in this process's memory and a read may
  /// borrow them instead of copying them (a null ReadPage `out`). A
  /// property of the medium, fixed for the backend's life.
  virtual bool lends_pages() const = 0;

  /// Stores `in` as page `id` and records `crc` as its checksum. On error
  /// the recorded checksum is untouched (the page image may be torn on a
  /// real device — the stale checksum then flags it on the next read).
  virtual Status WritePage(PageId id, const char* in, uint32_t crc) = 0;

  /// Drops every page with id >= new_num_pages. Index rebuilds reuse the
  /// freed extent, keeping the disk (or index file) from growing without
  /// bound. The caller guarantees that nothing still reads a dropped page,
  /// including a page this backend lent.
  virtual Status TruncatePages(size_t new_num_pages) = 0;

  /// Makes everything written so far durable: the file backend persists
  /// the checksum sidecar (including the page-allocation watermark) and
  /// fsyncs both files; the simulation is a no-op.
  virtual Status Flush() = 0;

  /// Test hook: flips one bit of the *stored* page image without updating
  /// its checksum (at-rest corruption). On a lending backend the flip also
  /// reaches every reader that holds the page lent.
  virtual void CorruptStoredPage(PageId id, uint32_t bit_index) = 0;

  /// Page-allocation watermark (pages ever allocated minus truncations).
  virtual size_t num_pages() const = 0;
};

}  // namespace dsks

#endif  // DSKS_STORAGE_DISK_BACKEND_H_
