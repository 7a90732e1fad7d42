// Durability of the file backend: build → flush → reopen must verify
// every page; torn writes and stale sidecars must surface as CORRUPTION
// Status (the process survives); and the two backends must be
// observationally identical — same dataset, same workload, bit-identical
// result sets.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

DatasetConfig TinyPreset() {
  DatasetConfig c = ScalePreset(PresetSYN(), 0.03);
  c.objects.keywords_per_object = 6;
  return c;
}

Workload MakeWorkload(const Database& db, size_t n, uint64_t seed) {
  WorkloadConfig wc;
  wc.num_queries = n;
  wc.num_keywords = 2;
  wc.seed = seed;
  return GenerateWorkload(db.objects(), db.term_stats(), wc);
}

// --- backend equivalence --------------------------------------------------

TEST(BackendEquivalenceTest, SkAndDivResultsAreBitIdentical) {
  const DatasetConfig config = TinyPreset();
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;

  Database sim_db(config);  // default: sim backend
  sim_db.BuildIndex(opts);
  sim_db.PrepareForQueries();

  const DiskOptions file_options = testing::FileDiskOptions("equiv");
  Database file_db(config, file_options);
  file_db.BuildIndex(opts);
  file_db.PrepareForQueries();

  const Workload wl = MakeWorkload(sim_db, 24, 97);
  for (const WorkloadQuery& wq : wl.queries) {
    std::vector<SkResult> sim_results;
    std::vector<SkResult> file_results;
    ASSERT_TRUE(sim_db.RunSkQuery(wq.sk, wq.edge, &sim_results).ok());
    ASSERT_TRUE(file_db.RunSkQuery(wq.sk, wq.edge, &file_results).ok());
    ASSERT_EQ(sim_results.size(), file_results.size());
    for (size_t i = 0; i < sim_results.size(); ++i) {
      EXPECT_EQ(sim_results[i].id, file_results[i].id);
      // Bit-identical, not approximately equal: both backends must feed
      // the search the exact same pages.
      EXPECT_EQ(std::memcmp(&sim_results[i].dist, &file_results[i].dist,
                            sizeof(double)),
                0);
    }

    DivQuery dq;
    dq.sk = wq.sk;
    dq.k = 4;
    dq.lambda = 0.8;
    DivSearchOutput sim_div;
    DivSearchOutput file_div;
    ASSERT_TRUE(sim_db.RunDivQuery(dq, wq.edge, /*use_com=*/true, &sim_div).ok());
    ASSERT_TRUE(
        file_db.RunDivQuery(dq, wq.edge, /*use_com=*/true, &file_div).ok());
    ASSERT_EQ(sim_div.selected.size(), file_div.selected.size());
    for (size_t i = 0; i < sim_div.selected.size(); ++i) {
      EXPECT_EQ(sim_div.selected[i].id, file_div.selected[i].id);
    }
  }
  // Identical page traffic too: same misses means the backends served the
  // same logical reads.
  EXPECT_EQ(sim_db.disk()->num_pages(), file_db.disk()->num_pages());

  testing::RemoveDiskFiles(file_options);
}

// --- build / flush / reopen ----------------------------------------------

// Every index kind: the builders write each page straight to the disk, so
// one disk Flush right after BuildIndex makes the whole image reopenable.
TEST(DurabilityTest, BuildFlushReopenEveryPageVerifies) {
  for (const IndexKind kind : {IndexKind::kIR, IndexKind::kIF,
                               IndexKind::kSIF, IndexKind::kSIFP,
                               IndexKind::kSIFG}) {
    SCOPED_TRACE(IndexKindName(kind));
    const DiskOptions options = testing::FileDiskOptions("reopen");
    size_t built_pages = 0;
    {
      Database db(TinyPreset(), options);
      IndexOptions opts;
      opts.kind = kind;
      db.BuildIndex(opts);
      ASSERT_TRUE(db.disk()->Flush().ok());
      built_pages = db.disk()->num_pages();
      ASSERT_GT(built_pages, 0u);
    }
    // The Database is gone; only the files remain. Reopen and verify every
    // page against the persisted sidecar.
    std::unique_ptr<DiskManager> reopened;
    ASSERT_TRUE(DiskManager::OpenExisting(options, &reopened).ok());
    EXPECT_EQ(reopened->num_pages(), built_pages)
        << "allocation watermark must survive reopen";
    std::vector<char> buf(kPageSize);
    for (PageId id = 0; id < built_pages; ++id) {
      ASSERT_TRUE(reopened->ReadPage(id, buf.data()).ok()) << "page " << id;
    }
    EXPECT_EQ(reopened->stats().corruptions_detected.load(), 0u);
    reopened.reset();
    testing::RemoveDiskFiles(options);
  }
}

TEST(DurabilityTest, TornWriteSurfacesCorruptionOnColdRead) {
  const DiskOptions options = testing::FileDiskOptions("torn");
  size_t num_pages = 0;
  {
    DiskManager disk(options);
    char buf[kPageSize];
    for (int i = 0; i < 4; ++i) {
      const PageId id = disk.AllocatePage();
      std::memset(buf, 'a' + i, kPageSize);
      ASSERT_TRUE(disk.WritePage(id, buf).ok());
    }
    ASSERT_TRUE(disk.Flush().ok());
    num_pages = disk.num_pages();
  }
  // Tear the last page: the file ends mid-page, as after a crashed write.
  ASSERT_EQ(::truncate(options.path.c_str(),
                       static_cast<off_t>(num_pages) * kPageSize - 100),
            0);

  std::unique_ptr<DiskManager> reopened;
  ASSERT_TRUE(DiskManager::OpenExisting(options, &reopened).ok());
  char out[kPageSize];
  // Intact pages still verify...
  for (PageId id = 0; id + 1 < num_pages; ++id) {
    EXPECT_TRUE(reopened->ReadPage(id, out).ok()) << "page " << id;
  }
  // ...and the torn one is a loud Corruption, not an abort or garbage.
  const Status s = reopened->ReadPage(static_cast<PageId>(num_pages - 1), out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GE(reopened->stats().corruptions_detected.load(), 1u);
  reopened.reset();
  testing::RemoveDiskFiles(options);
}

TEST(DurabilityTest, StaleSidecarSurfacesCorruptionOnColdRead) {
  const DiskOptions options = testing::FileDiskOptions("stale");
  PageId victim = 0;
  {
    DiskManager disk(options);
    char buf[kPageSize];
    for (int i = 0; i < 3; ++i) {
      const PageId id = disk.AllocatePage();
      std::memset(buf, 'x' + i, kPageSize);
      ASSERT_TRUE(disk.WritePage(id, buf).ok());
      victim = id;
    }
    ASSERT_TRUE(disk.Flush().ok());
    // Overwrite the victim *after* the flush and close without flushing:
    // the data file now disagrees with the persisted sidecar, exactly the
    // state a crash between data write and sidecar flush leaves behind.
    std::memset(buf, 'Z', kPageSize);
    ASSERT_TRUE(disk.WritePage(victim, buf).ok());
  }

  std::unique_ptr<DiskManager> reopened;
  ASSERT_TRUE(DiskManager::OpenExisting(options, &reopened).ok());
  char out[kPageSize];
  const Status s = reopened->ReadPage(victim, out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The untouched pages still verify.
  for (PageId id = 0; id < victim; ++id) {
    EXPECT_TRUE(reopened->ReadPage(id, out).ok()) << "page " << id;
  }
  reopened.reset();
  testing::RemoveDiskFiles(options);
}

TEST(DurabilityTest, MissingSidecarFailsOpenWithoutAborting) {
  const DiskOptions options = testing::FileDiskOptions("nosidecar");
  {
    DiskManager disk(options);
    char buf[kPageSize] = {0};
    const PageId id = disk.AllocatePage();
    ASSERT_TRUE(disk.WritePage(id, buf).ok());
    ASSERT_TRUE(disk.Flush().ok());
  }
  ASSERT_EQ(std::remove((options.path + ".crc").c_str()), 0);
  std::unique_ptr<DiskManager> reopened;
  const Status s = DiskManager::OpenExisting(options, &reopened);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(reopened, nullptr);
  testing::RemoveDiskFiles(options);
}

// The sidecar header's page count is untrusted input: a damaged count must
// fail the open with a Status before anything is sized from it, not abort
// the process in a huge allocation.
TEST(DurabilityTest, OversizedSidecarCountFailsOpenWithoutAborting) {
  const DiskOptions options = testing::FileDiskOptions("oversized");
  {
    DiskManager disk(options);
    char buf[kPageSize] = {0};
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(disk.WritePage(disk.AllocatePage(), buf).ok());
    }
    ASSERT_TRUE(disk.Flush().ok());
  }
  // Header layout: 8 magic bytes, then the u64 page count.
  const uint64_t claimed = uint64_t{1} << 40;
  std::FILE* crc = std::fopen((options.path + ".crc").c_str(), "r+b");
  ASSERT_NE(crc, nullptr);
  ASSERT_EQ(std::fseek(crc, 8, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&claimed, sizeof(claimed), 1, crc), 1u);
  ASSERT_EQ(std::fclose(crc), 0);

  std::unique_ptr<DiskManager> reopened;
  const Status s = DiskManager::OpenExisting(options, &reopened);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(reopened, nullptr);
  testing::RemoveDiskFiles(options);
}

TEST(DurabilityTest, OpenExistingRejectsSimBackend) {
  std::unique_ptr<DiskManager> reopened;
  EXPECT_TRUE(
      DiskManager::OpenExisting(DiskOptions{}, &reopened).IsInvalidArgument());
}

TEST(DurabilityTest, ReadDelayKnobIsANoOpOnFileBackend) {
  const DiskOptions options = testing::FileDiskOptions("delay");
  DiskManager disk(options);
  // Documented contract: the simulated-latency knobs model the device the
  // sim backend replaces; on the file backend they are no-ops.
  disk.set_read_delay_us(5000.0);
  disk.set_read_delay_yields(true);
  EXPECT_EQ(disk.read_delay_us(), 0.0);
  EXPECT_FALSE(disk.read_delay_yields());
  testing::RemoveDiskFiles(options);
}

// --- rebuild leak ---------------------------------------------------------

TEST(RebuildTest, RepeatedBuildIndexDoesNotLeakPages) {
  testing::BackendDatabase db(TinyPreset(), "rebuild");
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db->BuildIndex(opts);
  const size_t pages_after_first = db->disk()->num_pages();

  // Rebuilds — same kind and a different one — must reuse the superseded
  // extent, not grow the disk monotonically (the old behaviour leaked
  // every predecessor's pages forever).
  for (int round = 0; round < 3; ++round) {
    opts.kind = (round % 2 == 0) ? IndexKind::kIF : IndexKind::kSIF;
    db->BuildIndex(opts);
  }
  opts.kind = IndexKind::kSIF;
  db->BuildIndex(opts);
  EXPECT_EQ(db->disk()->num_pages(), pages_after_first)
      << "rebuilding the same index kind must not grow the disk";

  // The leak gauge agrees: nothing outside CCAM + live index.
  obs::MetricsRegistry registry;
  db->BindMetrics(&registry, "db");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"db.disk.leaked_pages\":0"), std::string::npos)
      << json;
  db->UnbindMetrics(&registry, "db");

  // And the rebuilt database still answers queries.
  db->PrepareForQueries();
  const Workload wl = MakeWorkload(*db, 4, 11);
  for (const WorkloadQuery& wq : wl.queries) {
    std::vector<SkResult> results;
    EXPECT_TRUE(db->RunSkQuery(wq.sk, wq.edge, &results).ok());
  }
}

}  // namespace
}  // namespace dsks
