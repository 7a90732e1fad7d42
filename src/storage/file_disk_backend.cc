#include "storage/file_disk_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/macros.h"

namespace dsks {

namespace {

/// Sidecar layout: header {magic, page-allocation watermark} then
/// `num_pages` little-endian u32 CRC32C values.
constexpr char kCrcMagic[8] = {'D', 'S', 'K', 'S', 'C', 'R', 'C', '1'};

struct CrcHeader {
  char magic[8];
  uint64_t num_pages;
};
static_assert(sizeof(CrcHeader) == 16, "sidecar header must be packed");

/// Grow the physical file in chunks so page allocation stays O(1)
/// amortised even for multi-GiB index builds.
constexpr size_t kMinPhysicalPages = 256;  // 1 MiB

std::string ErrnoMessage(const char* op, const std::string& path, int err) {
  return std::string(op) + " " + path + ": " + std::strerror(err);
}

/// pread with EINTR/partial-transfer retry. Returns bytes read (< count
/// only at end of file) or -1 with errno set.
ssize_t FullPread(int fd, char* buf, size_t count, off_t offset) {
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pread(fd, buf + done, count - done,
                              offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // end of file
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

/// pwrite with EINTR/partial-transfer retry. Returns 0 or -1 with errno.
int FullPwrite(int fd, const char* buf, size_t count, off_t offset) {
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pwrite(fd, buf + done, count - done,
                               offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(n);
  }
  return 0;
}

}  // namespace

FileDiskBackend::FileDiskBackend(std::string path, int data_fd, int crc_fd)
    : path_(std::move(path)),
      crc_path_(path_ + ".crc"),
      data_fd_(data_fd),
      crc_fd_(crc_fd) {}

FileDiskBackend::~FileDiskBackend() {
  // No implicit flush: durability is an explicit Flush(), and the torn
  // write tests rely on close-without-flush leaving a stale sidecar.
  if (data_fd_ >= 0) ::close(data_fd_);
  if (crc_fd_ >= 0) ::close(crc_fd_);
}

Status FileDiskBackend::Create(const DiskOptions& options,
                               std::unique_ptr<FileDiskBackend>* out) {
  if (options.path.empty()) {
    return Status::InvalidArgument("file backend requires a non-empty path");
  }
  const int data_fd =
      ::open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (data_fd < 0) {
    return Status::IOError(ErrnoMessage("open", options.path, errno));
  }
  const std::string crc_path = options.path + ".crc";
  const int crc_fd = ::open(crc_path.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                            0644);
  if (crc_fd < 0) {
    const int err = errno;
    ::close(data_fd);
    return Status::IOError(ErrnoMessage("open", crc_path, err));
  }
  out->reset(new FileDiskBackend(options.path, data_fd, crc_fd));
  return Status::Ok();
}

Status FileDiskBackend::Open(const DiskOptions& options,
                             std::unique_ptr<FileDiskBackend>* out) {
  if (options.path.empty()) {
    return Status::InvalidArgument("file backend requires a non-empty path");
  }
  const int data_fd = ::open(options.path.c_str(), O_RDWR, 0644);
  if (data_fd < 0) {
    return Status::IOError(ErrnoMessage("open", options.path, errno));
  }
  const std::string crc_path = options.path + ".crc";
  const int crc_fd = ::open(crc_path.c_str(), O_RDWR, 0644);
  if (crc_fd < 0) {
    const int err = errno;
    ::close(data_fd);
    if (err == ENOENT) {
      return Status::Corruption("checksum sidecar missing: " + crc_path);
    }
    return Status::IOError(ErrnoMessage("open", crc_path, err));
  }

  // From here the backend owns, and on any early return closes, both
  // descriptors.
  std::unique_ptr<FileDiskBackend> backend(
      new FileDiskBackend(options.path, data_fd, crc_fd));
  CrcHeader header;
  const ssize_t got = FullPread(crc_fd, reinterpret_cast<char*>(&header),
                                sizeof(header), 0);
  if (got < 0) {
    return Status::IOError(ErrnoMessage("pread", crc_path, errno));
  }
  if (static_cast<size_t>(got) != sizeof(header) ||
      std::memcmp(header.magic, kCrcMagic, sizeof(kCrcMagic)) != 0) {
    return Status::Corruption("checksum sidecar malformed: " + crc_path);
  }
  // The header's page count is untrusted: check it against the entries
  // the sidecar can hold before sizing anything from it, so a damaged
  // count fails the open instead of an allocation.
  struct stat crc_st;
  if (::fstat(crc_fd, &crc_st) != 0) {
    return Status::IOError(ErrnoMessage("fstat", crc_path, errno));
  }
  const uint64_t crc_bytes = static_cast<uint64_t>(crc_st.st_size);
  if (crc_bytes < sizeof(CrcHeader) ||
      header.num_pages > (crc_bytes - sizeof(CrcHeader)) / sizeof(uint32_t)) {
    return Status::Corruption("checksum sidecar truncated: " + crc_path);
  }
  backend->checksums_.resize(header.num_pages);
  if (header.num_pages > 0) {
    const size_t bytes = header.num_pages * sizeof(uint32_t);
    const ssize_t n = FullPread(
        crc_fd, reinterpret_cast<char*>(backend->checksums_.data()), bytes,
        sizeof(CrcHeader));
    if (n < 0) {
      return Status::IOError(ErrnoMessage("pread", crc_path, errno));
    }
    if (static_cast<size_t>(n) != bytes) {
      return Status::Corruption("checksum sidecar truncated: " + crc_path);
    }
  }
  struct stat st;
  if (::fstat(backend->data_fd_, &st) != 0) {
    return Status::IOError(ErrnoMessage("fstat", options.path, errno));
  }
  backend->physical_pages_ =
      static_cast<size_t>(st.st_size + kPageSize - 1) / kPageSize;
  *out = std::move(backend);
  return Status::Ok();
}

PageId FileDiskBackend::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  const PageId id = static_cast<PageId>(checksums_.size());
  checksums_.push_back(ZeroPageCrc());
  if (checksums_.size() > physical_pages_) {
    // Double the physical extent; ftruncate'd holes read back zeroed,
    // matching the checksum just recorded, so no page write is needed.
    size_t grown = physical_pages_ < kMinPhysicalPages ? kMinPhysicalPages
                                                       : physical_pages_ * 2;
    if (grown < checksums_.size()) grown = checksums_.size();
    DSKS_CHECK_MSG(
        ::ftruncate(data_fd_, static_cast<off_t>(grown) * kPageSize) == 0,
        "ftruncate failed growing the index file (disk full?)");
    physical_pages_ = grown;
  }
  return id;
}

Status FileDiskBackend::PwritePage(PageId id, const char* in) {
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  if (FullPwrite(data_fd_, in, kPageSize, offset) != 0) {
    return Status::IOError(ErrnoMessage("pwrite", path_, errno) + " (page " +
                           std::to_string(id) + ")");
  }
  return Status::Ok();
}

Status FileDiskBackend::ReadPage(PageId id, char* out, const char** data,
                                 uint32_t* expected_crc) {
  size_t physical = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSKS_CHECK_MSG(id < checksums_.size(), "read of unallocated page");
    *expected_crc = checksums_[id];
    physical = physical_pages_;
  }
  *data = out;
  if (id >= physical) {
    // Allocated but past the physical end (possible only after a foreign
    // truncate since AllocatePage grows the file): zero-fill so the
    // checksum check reports the damage instead of a raw syscall error.
    std::memset(out, 0, kPageSize);
    return Status::Ok();
  }
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  const ssize_t n = FullPread(data_fd_, out, kPageSize, offset);
  if (n < 0) {
    return Status::IOError(ErrnoMessage("pread", path_, errno) + " (page " +
                           std::to_string(id) + ")");
  }
  if (static_cast<size_t>(n) != kPageSize) {
    // Allocated page but the file ends mid-page: a torn/truncated file.
    return Status::Corruption("short read of page " + std::to_string(id) +
                              " (" + std::to_string(n) + " of " +
                              std::to_string(kPageSize) + " bytes): " + path_);
  }
  return Status::Ok();
}

Status FileDiskBackend::WritePage(PageId id, const char* in, uint32_t crc) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSKS_CHECK_MSG(id < checksums_.size(), "write of unallocated page");
  }
  DSKS_RETURN_IF_ERROR(PwritePage(id, in));
  // Only a successful write updates the recorded checksum; a failed or
  // torn one leaves the stale CRC to flag the page on its next cold read.
  std::lock_guard<std::mutex> lock(mutex_);
  checksums_[id] = crc;
  return Status::Ok();
}

Status FileDiskBackend::TruncatePages(size_t new_num_pages) {
  std::lock_guard<std::mutex> lock(mutex_);
  DSKS_CHECK_MSG(new_num_pages <= checksums_.size(),
                 "truncate beyond the allocation watermark");
  checksums_.resize(new_num_pages);
  if (::ftruncate(data_fd_,
                  static_cast<off_t>(new_num_pages) * kPageSize) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate", path_, errno));
  }
  physical_pages_ = new_num_pages;
  return Status::Ok();
}

Status FileDiskBackend::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Trim the physical extent to the watermark so the on-disk size equals
  // num_pages() * kPageSize exactly (stable across build/flush/reopen).
  if (::ftruncate(data_fd_,
                  static_cast<off_t>(checksums_.size()) * kPageSize) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate", path_, errno));
  }
  physical_pages_ = checksums_.size();

  // The whole sidecar, header and every checksum, in one pwrite.
  CrcHeader header;
  std::memcpy(header.magic, kCrcMagic, sizeof(kCrcMagic));
  header.num_pages = checksums_.size();
  const size_t crc_size =
      sizeof(CrcHeader) + checksums_.size() * sizeof(uint32_t);
  std::vector<char> sidecar(crc_size);
  std::memcpy(sidecar.data(), &header, sizeof(header));
  std::memcpy(sidecar.data() + sizeof(header), checksums_.data(),
              checksums_.size() * sizeof(uint32_t));
  if (FullPwrite(crc_fd_, sidecar.data(), crc_size, 0) != 0) {
    return Status::IOError(ErrnoMessage("pwrite", crc_path_, errno));
  }
  if (::ftruncate(crc_fd_, static_cast<off_t>(crc_size)) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate", crc_path_, errno));
  }
  if (::fsync(data_fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync", path_, errno));
  }
  if (::fsync(crc_fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync", crc_path_, errno));
  }
  return Status::Ok();
}

void FileDiskBackend::CorruptStoredPage(PageId id, uint32_t bit_index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSKS_CHECK_MSG(id < checksums_.size(), "corrupt of unallocated page");
    DSKS_CHECK_MSG(bit_index < kPageSize * 8, "bit index out of page");
  }
  // Read-modify-write of the whole page.
  auto page = std::make_unique<char[]>(kPageSize);
  const char* data = nullptr;
  uint32_t crc = 0;
  DSKS_CHECK_MSG(ReadPage(id, page.get(), &data, &crc).ok(),
                 "CorruptStoredPage: read failed");
  page[bit_index / 8] ^= static_cast<char>(1u << (bit_index % 8));
  DSKS_CHECK_MSG(PwritePage(id, page.get()).ok(),
                 "CorruptStoredPage: write-back failed");
}

size_t FileDiskBackend::num_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checksums_.size();
}

}  // namespace dsks
