#include "storage/disk_backend.h"

#include <vector>

#include "common/crc32c.h"

namespace dsks {

const char* DiskBackendKindName(DiskBackendKind kind) {
  switch (kind) {
    case DiskBackendKind::kSim:
      return "sim";
    case DiskBackendKind::kFile:
      return "file";
  }
  return "unknown";
}

uint32_t ZeroPageCrc() {
  static const uint32_t kCrc = [] {
    std::vector<char> zeros(kPageSize, 0);
    return crc32c::Value(zeros.data(), zeros.size());
  }();
  return kCrc;
}

}  // namespace dsks
