#include "index/object_file.h"

#include <cstring>

#include "common/macros.h"
#include "storage/page.h"

namespace dsks {

namespace {

// 16-byte record: u32 edge, u16 pos, u16 reserved, f64 w1.
constexpr size_t kRecordSize = 16;
constexpr size_t kRecordsPerPage = kPageSize / kRecordSize;

}  // namespace

ObjectFile::ObjectFile(BufferPool* pool, const ObjectSet& objects)
    : pool_(pool), num_objects_(objects.size()) {
  const RoadNetwork& net = objects.network();

  // Precompute each object's rank along its edge.
  std::vector<uint16_t> pos_of(objects.size(), 0);
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    uint16_t pos = 0;
    for (ObjectId id : objects.ObjectsOnEdge(e)) {
      pos_of[id] = pos++;
    }
  }

  DiskManager* disk = pool->disk();
  char data[kPageSize];
  const size_t num_pages =
      (objects.size() + kRecordsPerPage - 1) / kRecordsPerPage;
  pages_.reserve(num_pages);
  for (size_t p = 0; p < num_pages; ++p) {
    const PageId id = disk->AllocatePage();
    std::memset(data, 0, kPageSize);
    const size_t begin = p * kRecordsPerPage;
    const size_t end = std::min(objects.size(), begin + kRecordsPerPage);
    for (size_t i = begin; i < end; ++i) {
      const SpatioTextualObject& obj = objects.object(static_cast<ObjectId>(i));
      char* base = data + (i - begin) * kRecordSize;
      std::memcpy(base, &obj.edge, 4);
      std::memcpy(base + 4, &pos_of[i], 2);
      uint16_t reserved = 0;
      std::memcpy(base + 6, &reserved, 2);
      const double w1 = net.WeightFromN1(obj.edge, obj.offset);
      std::memcpy(base + 8, &w1, 8);
    }
    const Status s = disk->WritePage(id, data);
    DSKS_CHECK_MSG(s.ok(), "object file build on a faulty disk");
    pages_.push_back(id);
  }
}

Status ObjectFile::Get(ObjectId id, Record* out) const {
  DSKS_CHECK_MSG(id < num_objects_, "object id out of range");
  PageGuard guard;
  DSKS_RETURN_IF_ERROR(
      PageGuard::Fetch(pool_, pages_[id / kRecordsPerPage], &guard));
  const char* base = guard.data() + (id % kRecordsPerPage) * kRecordSize;
  std::memcpy(&out->edge, base, 4);
  std::memcpy(&out->pos, base + 4, 2);
  std::memcpy(&out->w1, base + 8, 8);
  return Status::Ok();
}

}  // namespace dsks
