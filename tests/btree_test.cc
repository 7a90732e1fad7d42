#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace dsks {
namespace {

using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;

/// BPlusTree::Get on a fault-free disk, where it never fails.
std::optional<uint64_t> Lookup(const BPlusTree& tree, uint64_t key) {
  std::optional<uint64_t> result;
  EXPECT_TRUE(tree.Get(key, &result).ok()) << "key " << key;
  return result;
}

class BPlusTreeTest : public ::testing::Test {
 protected:
  BPlusTreeTest() : pool_(&disk_, 4096) {}

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BPlusTreeTest, EmptyTreeFindsNothing) {
  BPlusTree tree = BPlusTree::BulkLoad(&pool_, Pairs{});
  EXPECT_FALSE(Lookup(tree, 42).has_value());
  EXPECT_FALSE(Lookup(tree, 0).has_value());
  EXPECT_EQ(tree.num_pages(), 1u);
  EXPECT_EQ(disk_.stats_snapshot().writes, 1u);
}

TEST_F(BPlusTreeTest, SingleLeafGet) {
  BPlusTree tree =
      BPlusTree::BulkLoad(&pool_, Pairs{{1, 10}, {5, 50}, {9, 90}});
  EXPECT_EQ(Lookup(tree, 5), 50u);
  EXPECT_EQ(Lookup(tree, 1), 10u);
  EXPECT_EQ(Lookup(tree, 9), 90u);
  EXPECT_FALSE(Lookup(tree, 0).has_value());
  EXPECT_FALSE(Lookup(tree, 2).has_value());
  EXPECT_FALSE(Lookup(tree, 10).has_value());
  EXPECT_EQ(tree.num_pages(), 1u);
}

struct RandomOpsParam {
  uint64_t seed;
  size_t ops;
  uint64_t key_space;
};

class BPlusTreeRandomTest
    : public ::testing::TestWithParam<RandomOpsParam> {};

/// Property: a tree bulk-loaded from a random key set answers every point
/// lookup, present or absent, exactly like std::map over the same set.
TEST_P(BPlusTreeRandomTest, MatchesStdMap) {
  const RandomOpsParam p = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 4096);
  std::map<uint64_t, uint64_t> ref;
  Random rng(p.seed);
  for (size_t i = 0; i < p.ops; ++i) {
    const uint64_t key = rng.Uniform(p.key_space);
    ref[key] = rng.Uniform(1u << 30);
  }
  const Pairs sorted(ref.begin(), ref.end());
  BPlusTree tree = BPlusTree::BulkLoad(&pool, sorted);

  for (const auto& [k, v] : ref) {
    ASSERT_EQ(Lookup(tree, k), v) << "key " << k;
  }
  for (size_t i = 0; i < 200; ++i) {
    const uint64_t key = rng.Uniform(p.key_space * 2);
    auto it = ref.find(key);
    auto got = Lookup(tree, key);
    if (it == ref.end()) {
      EXPECT_FALSE(got.has_value()) << "key " << key;
    } else {
      ASSERT_TRUE(got.has_value()) << "key " << key;
      EXPECT_EQ(*got, it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeRandomTest,
    ::testing::Values(RandomOpsParam{1, 100, 200},
                      RandomOpsParam{2, 1000, 500},
                      RandomOpsParam{3, 5000, 100000},
                      RandomOpsParam{4, 20000, 1u << 20},
                      RandomOpsParam{5, 3000, 64},  // dense key space
                      RandomOpsParam{6, 12000, 12000}));

class BPlusTreeBulkLoadTest : public ::testing::TestWithParam<size_t> {};

/// Every loaded key is found with its value and no key between them is,
/// across leaf and internal-node boundaries: sizes straddle one leaf
/// (~230 keys), one full internal node (~70,000) and the levels between.
TEST_P(BPlusTreeBulkLoadTest, GetFindsEveryKeyAndNoOther) {
  const size_t n = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 8192);
  Pairs pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(i * 3 + 1, i * 7);
  }
  BPlusTree tree = BPlusTree::BulkLoad(&pool, pairs);
  for (const auto& [k, v] : pairs) {
    ASSERT_EQ(Lookup(tree, k), v) << "key " << k;
    ASSERT_FALSE(Lookup(tree, k - 1).has_value()) << "key " << k - 1;
    ASSERT_FALSE(Lookup(tree, k + 1).has_value()) << "key " << k + 1;
  }
  EXPECT_FALSE(Lookup(tree, n * 3 + 1).has_value());
  EXPECT_FALSE(Lookup(tree, UINT64_MAX).has_value());
  // Every node was written once, straight to the disk.
  EXPECT_EQ(tree.num_pages(), disk.num_pages());
  EXPECT_EQ(disk.stats_snapshot().writes, disk.num_pages());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BPlusTreeBulkLoadTest,
                         ::testing::Values(1, 2, 100, 255, 256, 1000, 10000,
                                           70000));

/// A point lookup is one root-to-leaf descent: on a cold pool, a Get in a
/// three-level tree accesses, misses and reads exactly one page per level,
/// whether the key is present or not.
TEST_F(BPlusTreeTest, ColdGetReadsOnePagePerLevel) {
  // BulkLoad fills nodes to ~90%, so this many keys need two internal
  // nodes under the root.
  const uint64_t n = BPlusTree::LeafCapacity() * BPlusTree::InternalCapacity();
  Pairs pairs;
  for (uint64_t i = 0; i < n; ++i) {
    pairs.emplace_back(i * 2, i);
  }
  BPlusTree tree = BPlusTree::BulkLoad(&pool_, pairs);
  for (const uint64_t key : {uint64_t{0}, n, n + 1, 2 * n - 2, UINT64_MAX}) {
    ASSERT_TRUE(pool_.Clear().ok());
    pool_.ResetStats();
    disk_.ResetStats();
    std::optional<uint64_t> result;
    ASSERT_TRUE(tree.Get(key, &result).ok()) << "key " << key;
    EXPECT_EQ(result.has_value(), key % 2 == 0 && key < 2 * n) << "key " << key;
    const BufferPoolStatsSnapshot s = pool_.stats_snapshot();
    EXPECT_EQ(s.accesses(), 3u) << "key " << key;
    EXPECT_EQ(s.misses, 3u) << "key " << key;
    EXPECT_EQ(disk_.stats_snapshot().reads, 3u) << "key " << key;
  }
}

/// BulkLoad's strictly-increasing check covers the leaf boundaries too: a
/// repeated or descending key there would otherwise build a tree whose Get
/// misses keys.
TEST(BPlusTreeDeathTest, BulkLoadRejectsRepeatedKeyAtLeafBoundary) {
  // BulkLoad fills each leaf to 90% of its capacity.
  const size_t first_leaf = BPlusTree::LeafCapacity() * 9 / 10;
  Pairs pairs;
  for (uint64_t i = 0; i < first_leaf * 2; ++i) {
    pairs.emplace_back(i * 2, i);
  }
  Pairs repeated = pairs;
  repeated[first_leaf].first = repeated[first_leaf - 1].first;
  Pairs descending = pairs;
  descending[first_leaf].first = pairs[first_leaf - 1].first - 1;
  EXPECT_DEATH(
      {
        DiskManager disk;
        BufferPool pool(&disk, 64);
        BPlusTree::BulkLoad(&pool, repeated);
      },
      "strictly increasing keys");
  EXPECT_DEATH(
      {
        DiskManager disk;
        BufferPool pool(&disk, 64);
        BPlusTree::BulkLoad(&pool, descending);
      },
      "strictly increasing keys");
}

}  // namespace
}  // namespace dsks
