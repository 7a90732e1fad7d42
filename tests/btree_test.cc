#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
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

/// MultiGet over trees of one, two and three levels (plus an absent tree
/// and a repeated root) returns, for present and absent keys alike, what
/// each tree's own Get returns — with prefetching on and off. With it off,
/// one MultiGet on a cold pool reads exactly the pages the per-tree Gets
/// read.
TEST(BPlusTreeMultiGetTest, MatchesPerTreeGet) {
  DiskManager disk;
  BufferPool pool(&disk, 8192);
  // Keys of tree j are the multiples of j + 1, so a probe key is present
  // in some trees and absent from others.
  const size_t sizes[] = {
      50, 2000, BPlusTree::LeafCapacity() * BPlusTree::InternalCapacity()};
  std::vector<BPlusTree> trees;
  for (size_t j = 0; j < 3; ++j) {
    Pairs pairs;
    for (uint64_t i = 0; i < sizes[j]; ++i) {
      pairs.emplace_back(i * (j + 1), i * 10 + j);
    }
    trees.push_back(BPlusTree::BulkLoad(&pool, pairs));
  }
  const std::vector<PageId> roots = {trees[2].root(), kInvalidPageId,
                                     trees[0].root(), trees[1].root(),
                                     trees[2].root()};

  auto expected = [&](uint64_t key) {
    std::vector<std::optional<uint64_t>> want;
    for (PageId root : roots) {
      want.push_back(root == kInvalidPageId
                         ? std::nullopt
                         : Lookup(BPlusTree(&pool, root), key));
    }
    return want;
  };
  Random rng(7);
  std::vector<uint64_t> keys = {0, 1, 2, 3, 6, 49, 98, 99, 3998, 3999, 4000,
                                sizes[2] * 3 - 3, sizes[2] * 3, UINT64_MAX};
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng.Uniform(sizes[2] * 3));
  }
  for (bool prefetch : {true, false}) {
    pool.set_prefetch_enabled(prefetch);
    for (uint64_t key : keys) {
      std::vector<std::optional<uint64_t>> got(roots.size());
      ASSERT_TRUE(BPlusTree::MultiGet(&pool, roots, key,
                                      std::span<std::optional<uint64_t>>(got))
                      .ok());
      EXPECT_EQ(got, expected(key)) << "key " << key << " prefetch "
                                    << prefetch;
    }
  }

  // Cold-pool reads with prefetching off: one page per level per distinct
  // tree, 1 + 2 + 3, whether the trees are descended together or apart.
  pool.set_prefetch_enabled(false);
  auto cold_reads = [&](const std::function<void()>& lookups) {
    EXPECT_TRUE(pool.Clear().ok());
    const uint64_t before = disk.stats_snapshot().reads;
    lookups();
    return disk.stats_snapshot().reads - before;
  };
  for (uint64_t key : {uint64_t{0}, uint64_t{6}, uint64_t{7}, UINT64_MAX}) {
    const uint64_t multi = cold_reads([&] {
      std::vector<std::optional<uint64_t>> got(roots.size());
      EXPECT_TRUE(BPlusTree::MultiGet(&pool, roots, key,
                                      std::span<std::optional<uint64_t>>(got))
                      .ok());
    });
    const uint64_t single = cold_reads([&] { expected(key); });
    EXPECT_EQ(multi, single) << "key " << key;
    EXPECT_EQ(single, 6u) << "key " << key;
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
