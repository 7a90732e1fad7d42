#include <algorithm>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace dsks {
namespace {

std::vector<RTree::Entry> RandomPoints(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<RTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point p{rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
    entries.push_back(RTree::Entry{Mbr::FromPoint(p), i});
  }
  return entries;
}

TEST(RTreeTest, EmptyTree) {
  DiskManager disk;
  BufferPool pool(&disk, 1024);
  RTree tree = RTree::BulkLoad(&pool, {});
  int count = 0;
  tree.RangeSearch(Mbr::FromPoints({0, 0}, {10000, 10000}),
                   [&count](const Mbr&, uint64_t) {
                     ++count;
                     return true;
                   });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(tree.num_pages(), 1u);
  EXPECT_EQ(disk.stats_snapshot().writes, 1u);
  EXPECT_EQ(tree.height(), 1);
}

TEST(RTreeTest, SingleEntry) {
  DiskManager disk;
  BufferPool pool(&disk, 1024);
  RTree tree =
      RTree::BulkLoad(&pool, {RTree::Entry{Mbr::FromPoint({5, 5}), 77}});
  std::vector<uint64_t> hits;
  auto collect = [&hits](const Mbr& mbr, uint64_t payload) {
    EXPECT_TRUE(mbr.Contains(Point{5, 5}));
    hits.push_back(payload);
    return true;
  };
  tree.RangeSearch(Mbr::FromPoints({4, 4}, {6, 6}), collect);
  EXPECT_EQ(hits, std::vector<uint64_t>{77});
  hits.clear();
  tree.RangeSearch(Mbr::FromPoints({6, 6}, {9, 9}), collect);
  EXPECT_TRUE(hits.empty());
}

struct RTreeParam {
  uint64_t seed;
  size_t n;
};

class RTreeRandomTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreeRandomTest, RangeSearchMatchesLinearScan) {
  const auto [seed, n] = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 4096);
  auto entries = RandomPoints(n, seed);
  RTree tree = RTree::BulkLoad(&pool, entries);

  Random rng(seed ^ 0xBEEF);
  for (int round = 0; round < 25; ++round) {
    const double x1 = rng.UniformDouble(0, 10000);
    const double y1 = rng.UniformDouble(0, 10000);
    const double w = rng.UniformDouble(0, 3000);
    const double h = rng.UniformDouble(0, 3000);
    const Mbr range = Mbr::FromPoints({x1, y1}, {x1 + w, y1 + h});

    std::vector<uint64_t> got;
    tree.RangeSearch(range, [&got](const Mbr&, uint64_t id) {
      got.push_back(id);
      return true;
    });
    std::sort(got.begin(), got.end());

    std::vector<uint64_t> want;
    for (const auto& e : entries) {
      if (e.mbr.Intersects(range)) {
        want.push_back(e.payload);
      }
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "round " << round;
  }
}

TEST_P(RTreeRandomTest, EarlyStopVisitsAtMostRequested) {
  const auto [seed, n] = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 4096);
  RTree tree = RTree::BulkLoad(&pool, RandomPoints(n, seed));
  int seen = 0;
  tree.RangeSearch(Mbr::FromPoints({0, 0}, {10000, 10000}),
                   [&seen](const Mbr&, uint64_t) {
                     ++seen;
                     return seen < 3;
                   });
  EXPECT_EQ(seen, std::min<size_t>(3, n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RTreeRandomTest,
                         ::testing::Values(RTreeParam{11, 10},
                                           RTreeParam{12, 101},   // 1 leaf+
                                           RTreeParam{13, 1000},  // 2 levels
                                           RTreeParam{14, 15000}, // 3 levels
                                           RTreeParam{15, 257}));

TEST(RTreeTest, MultiLevelTreeHasExpectedHeight) {
  DiskManager disk;
  BufferPool pool(&disk, 8192);
  const size_t cap = RTree::LeafCapacity();
  RTree small = RTree::BulkLoad(&pool, RandomPoints(cap, 1));
  EXPECT_EQ(small.height(), 1);
  RTree medium = RTree::BulkLoad(&pool, RandomPoints(cap * 3, 2));
  EXPECT_EQ(medium.height(), 2);
  RTree large = RTree::BulkLoad(&pool, RandomPoints(cap * cap + 1, 3));
  EXPECT_EQ(large.height(), 3);
  // Each node is written once: cap + 1 leaves, two internal nodes, a root.
  EXPECT_EQ(small.num_pages(), 1u);
  EXPECT_EQ(medium.num_pages(), 4u);
  EXPECT_EQ(large.num_pages(), cap + 4);
  EXPECT_EQ(disk.stats_snapshot().writes, 1 + 4 + cap + 4);
}

}  // namespace
}  // namespace dsks
