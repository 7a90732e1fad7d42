#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "index/object_file.h"
#include "index/posting_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/storage_test_util.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using Runs = std::vector<std::vector<PostingFile::Entry>>;

/// Builds a posting file over `runs` on `pool`'s disk, appending them one
/// at a time; `*locs` receives the runs' locators in order.
std::unique_ptr<PostingFile> BuildPostings(
    BufferPool* pool, const Runs& runs,
    std::vector<PostingFile::Locator>* locs) {
  auto file = std::make_unique<PostingFile>(pool);
  locs->clear();
  for (const std::vector<PostingFile::Entry>& run : runs) {
    locs->push_back(file->AppendRun(run));
  }
  file->Finish();
  return file;
}

/// A run of `n` entries whose objects count up from `first_object`.
std::vector<PostingFile::Entry> MakeRun(uint32_t first_object, uint32_t n) {
  std::vector<PostingFile::Entry> run;
  for (uint32_t i = 0; i < n; ++i) {
    run.push_back(PostingFile::Entry{first_object + i,
                                     static_cast<uint16_t>(i), i * 0.25});
  }
  return run;
}

/// Every entry of run `loc`, in order, collected through
/// PostingFile::ForEachEntry.
Status ReadRun(const PostingFile& file, PostingFile::Locator loc,
               std::vector<PostingFile::Entry>* out) {
  out->clear();
  return file.ForEachEntry(
      loc, [out](const PostingFile::Entry& e) { out->push_back(e); });
}

TEST(PostingFileTest, SingleRunRoundTrip) {
  testing::TestDisk disk("posting_single");
  BufferPool pool(disk.get(), 256);
  const Runs runs = {{{10, 0, 1.5}, {11, 1, 2.5}, {12, 2, 3.75}}};
  const std::vector<PostingFile::Entry>& run = runs[0];
  std::vector<PostingFile::Locator> locs;
  const auto file = BuildPostings(&pool, runs, &locs);
  ASSERT_EQ(locs.size(), 1u);
  const PostingFile::Locator loc = locs[0];
  EXPECT_EQ(PostingFile::RunLength(loc), 3u);

  std::vector<PostingFile::Entry> out;
  ASSERT_TRUE(ReadRun(*file, loc, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].object, run[i].object);
    EXPECT_EQ(out[i].pos, run[i].pos);
    EXPECT_DOUBLE_EQ(out[i].w1, run[i].w1);
  }
}

TEST(PostingFileTest, ManyRunsArePackedTightly) {
  testing::TestDisk disk("posting_many");
  BufferPool pool(disk.get(), 256);
  Runs runs;
  for (uint32_t r = 0; r < 100; ++r) {
    std::vector<PostingFile::Entry> run;
    for (uint32_t i = 0; i <= r % 7; ++i) {
      run.push_back(PostingFile::Entry{r * 100 + i,
                                       static_cast<uint16_t>(i), r + 0.25});
    }
    runs.push_back(std::move(run));
  }
  std::vector<PostingFile::Locator> locs;
  const auto file = BuildPostings(&pool, runs, &locs);
  ASSERT_EQ(locs.size(), runs.size());
  // ~400 entries at 256/page must not exceed 3 pages, each written once.
  EXPECT_LE(file->num_pages(), 3u);
  EXPECT_EQ(disk->stats_snapshot().writes, file->num_pages());
  std::vector<PostingFile::Entry> out;
  for (size_t r = 0; r < runs.size(); ++r) {
    ASSERT_TRUE(ReadRun(*file, locs[r], &out).ok());
    ASSERT_EQ(out.size(), runs[r].size()) << "run " << r;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].object, runs[r][i].object);
      EXPECT_DOUBLE_EQ(out[i].w1, runs[r][i].w1);
    }
  }
}

TEST(PostingFileTest, RunLargerThanOnePageSpansContiguously) {
  testing::TestDisk disk("posting_big");
  BufferPool pool(disk.get(), 256);
  const size_t per_page = PostingFile::EntriesPerPage();
  // A run 2.5 pages long must round trip across page boundaries.
  Runs runs(1);
  std::vector<PostingFile::Entry>& big = runs[0];
  for (uint32_t i = 0; i < per_page * 5 / 2; ++i) {
    big.push_back(PostingFile::Entry{1000 + i,
                                     static_cast<uint16_t>(i % 65535),
                                     i * 0.5});
  }
  std::vector<PostingFile::Locator> locs;
  const auto file = BuildPostings(&pool, runs, &locs);
  const PostingFile::Locator loc = locs[0];
  EXPECT_EQ(file->num_pages(), 3u);
  EXPECT_EQ(disk->stats_snapshot().writes, 3u);
  std::vector<PostingFile::Entry> out;
  ASSERT_TRUE(ReadRun(*file, loc, &out).ok());
  ASSERT_EQ(out.size(), big.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].object, big[i].object);
    ASSERT_DOUBLE_EQ(out[i].w1, big[i].w1);
  }
  // The build wrote straight to the disk, so that read was cold: one pool
  // access, one miss and one disk read per page of the run.
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.accesses(), 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(disk->stats_snapshot().reads, 3u);
}

TEST(PostingFileTest, FaultOnALaterPageFailsTheRunAndPinsNothing) {
  testing::TestDisk disk("posting_fault");
  BufferPool pool(disk.get(), 256);
  const auto per_page = static_cast<uint32_t>(PostingFile::EntriesPerPage());
  const Runs runs = {MakeRun(0, per_page * 5 / 2)};
  std::vector<PostingFile::Locator> locs;
  const auto file = BuildPostings(&pool, runs, &locs);
  ASSERT_EQ(file->num_pages(), 3u);
  disk->fault_injector()->FailPageReads(PostingFile::RunPage(locs[0]) + 1, 1);

  // The run is read a page at a time: the first page's entries reach the
  // callback before the second page's read fails the call.
  std::vector<PostingFile::Entry> out;
  const Status s = ReadRun(*file, locs[0], &out);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(out.size(), per_page);
  // Clear() CHECK-fails on a pinned page, so passing proves the failed
  // call released the page it held.
  ASSERT_TRUE(pool.Clear().ok());

  // The one-shot fault is spent: a retry returns the whole run.
  ASSERT_TRUE(ReadRun(*file, locs[0], &out).ok());
  ASSERT_EQ(out.size(), runs[0].size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].object, runs[0][i].object);
    EXPECT_EQ(out[i].pos, runs[0][i].pos);
    EXPECT_DOUBLE_EQ(out[i].w1, runs[0][i].w1);
  }
}

TEST(PostingFileTest, RunThatDoesNotFitTheTailStartsOnTheNextPage) {
  testing::TestDisk disk("posting_tail");
  BufferPool pool(disk.get(), 256);
  const auto per_page = static_cast<uint32_t>(PostingFile::EntriesPerPage());
  // The first run leaves 56 slots on its page: the second (100 entries)
  // does not fit them and starts at slot 0 of the next page; the third
  // (150 entries) fits the 156 slots the second leaves and follows it.
  const uint32_t first = per_page - 56;
  const Runs runs = {MakeRun(0, first), MakeRun(1000, 100),
                     MakeRun(2000, 150)};
  std::vector<PostingFile::Locator> locs;
  const auto file = BuildPostings(&pool, runs, &locs);
  ASSERT_EQ(locs.size(), 3u);
  EXPECT_EQ(PostingFile::RunSlot(locs[0]), 0u);
  EXPECT_EQ(PostingFile::RunPage(locs[1]), PostingFile::RunPage(locs[0]) + 1);
  EXPECT_EQ(PostingFile::RunSlot(locs[1]), 0u);
  EXPECT_EQ(PostingFile::RunPage(locs[2]), PostingFile::RunPage(locs[1]));
  EXPECT_EQ(PostingFile::RunSlot(locs[2]), 100u);
  EXPECT_EQ(PostingFile::RunLength(locs[1]), 100u);
  EXPECT_EQ(file->num_pages(), 2u);
  EXPECT_EQ(file->num_entries(), first + 250u);
  EXPECT_EQ(disk->stats_snapshot().writes, 2u);
  std::vector<PostingFile::Entry> out;
  for (size_t r = 0; r < runs.size(); ++r) {
    ASSERT_TRUE(ReadRun(*file, locs[r], &out).ok());
    ASSERT_EQ(out.size(), runs[r].size()) << "run " << r;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].object, runs[r][i].object);
      EXPECT_EQ(out[i].pos, runs[r][i].pos);
      EXPECT_DOUBLE_EQ(out[i].w1, runs[r][i].w1);
    }
  }
}

TEST(ObjectFileTest, RecordsRoundTrip) {
  auto data = testing::MakeRandomDataset(55, 100, 300, 20, 3);
  testing::TestDisk disk("objects_round_trip");
  BufferPool pool(disk.get(), 1024);
  ObjectFile file(&pool, *data.objects);
  EXPECT_GT(file.num_pages(), 0u);
  EXPECT_EQ(disk->stats_snapshot().writes, file.num_pages());

  const RoadNetwork& net = *data.network;
  for (ObjectId id = 0; id < data.objects->size(); ++id) {
    const auto& obj = data.objects->object(id);
    ObjectFile::Record rec;
    ASSERT_TRUE(file.Get(id, &rec).ok());
    ASSERT_EQ(rec.edge, obj.edge);
    EXPECT_DOUBLE_EQ(rec.w1, net.WeightFromN1(obj.edge, obj.offset));
  }
}

TEST(ObjectFileTest, PositionsMatchEdgeOrder) {
  auto data = testing::MakeRandomDataset(56, 100, 300, 20, 3);
  testing::TestDisk disk("objects_positions");
  BufferPool pool(disk.get(), 1024);
  ObjectFile file(&pool, *data.objects);
  for (EdgeId e = 0; e < data.network->num_edges(); ++e) {
    uint16_t expected = 0;
    for (ObjectId id : data.objects->ObjectsOnEdge(e)) {
      ObjectFile::Record rec;
      ASSERT_TRUE(file.Get(id, &rec).ok());
      EXPECT_EQ(rec.pos, expected) << "edge " << e;
      ++expected;
    }
  }
}

// Every builder writes each page once, straight to the disk: right after
// BuildIndex every allocated page has been written exactly once and the
// pool holds no frame.
class BuildWritesOnceTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(BuildWritesOnceTest, EveryPageWrittenOnceAndNoFrameHeld) {
  testing::BackendDatabase db(ScalePreset(PresetSYN(), 0.03), "writes_once");
  IndexOptions opts;
  opts.kind = GetParam();
  db->BuildIndex(opts);
  EXPECT_EQ(db->disk()->stats_snapshot().writes, db->disk()->num_pages());
  EXPECT_EQ(db->pool()->num_frames_in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, BuildWritesOnceTest,
                         ::testing::Values(IndexKind::kIR, IndexKind::kIF,
                                           IndexKind::kSIF, IndexKind::kSIFP,
                                           IndexKind::kSIFG),
                         [](const auto& info) {
                           std::string n = IndexKindName(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

}  // namespace
}  // namespace dsks
