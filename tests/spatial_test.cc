#include <cmath>

#include "common/random.h"
#include "gtest/gtest.h"
#include "spatial/mbr.h"
#include "spatial/point.h"
#include "spatial/zorder.h"

namespace dsks {
namespace {

TEST(PointTest, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
}

TEST(MbrTest, EmptyAndExtend) {
  Mbr m = Mbr::Empty();
  EXPECT_TRUE(m.IsEmpty());
  EXPECT_FALSE(m.Contains(Point{0, 0}));
  m.Extend(Point{2, 3});
  EXPECT_FALSE(m.IsEmpty());
  EXPECT_TRUE(m.Contains(Point{2, 3}));  // degenerate point box
  m.Extend(Point{4, 7});
  EXPECT_DOUBLE_EQ(m.min_x, 2.0);
  EXPECT_DOUBLE_EQ(m.min_y, 3.0);
  EXPECT_DOUBLE_EQ(m.max_x, 4.0);
  EXPECT_DOUBLE_EQ(m.max_y, 7.0);
  EXPECT_TRUE(m.Contains(Point{3, 5}));
  EXPECT_FALSE(m.Contains(Point{1, 5}));
}

TEST(MbrTest, IntersectsIsSymmetricAndTightOnBoundary) {
  const Mbr a = Mbr::FromPoints({0, 0}, {2, 2});
  const Mbr b = Mbr::FromPoints({2, 2}, {4, 4});  // touching corner
  const Mbr c = Mbr::FromPoints({3, 0}, {5, 1});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(c.Intersects(a));
}

TEST(MbrTest, MinDistanceZeroInsidePositiveOutside) {
  const Mbr m = Mbr::FromPoints({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(m.MinDistance(Point{5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(m.MinDistance(Point{13, 14}), 5.0);  // corner distance
  EXPECT_DOUBLE_EQ(m.MinDistance(Point{-2, 5}), 2.0);   // edge distance
}

TEST(ZOrderTest, CellRoundTrip) {
  for (uint32_t cx : {0u, 1u, 255u, 65535u}) {
    for (uint32_t cy : {0u, 42u, 65535u}) {
      const uint64_t code = ZOrder::EncodeCell(cx, cy);
      uint32_t rx = 0;
      uint32_t ry = 0;
      ZOrder::DecodeCell(code, &rx, &ry);
      EXPECT_EQ(rx, cx);
      EXPECT_EQ(ry, cy);
    }
  }
}

TEST(ZOrderTest, EncodeDecodeApproxWithinOneCell) {
  Random rng(17);
  const double cell =
      (ZOrder::kSpaceMax - ZOrder::kSpaceMin) / (ZOrder::kCellsPerDim - 1);
  for (int i = 0; i < 1000; ++i) {
    const Point p{rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
    const Point q = ZOrder::DecodeApprox(ZOrder::Encode(p));
    EXPECT_LE(std::abs(p.x - q.x), cell + 1e-9);
    EXPECT_LE(std::abs(p.y - q.y), cell + 1e-9);
  }
}

TEST(ZOrderTest, QuantizeClampsOutOfRange) {
  EXPECT_EQ(ZOrder::Quantize(-5.0), 0u);
  EXPECT_EQ(ZOrder::Quantize(1e9), ZOrder::kCellsPerDim - 1);
}

/// Z-order locality: points in the same quadrant share the leading bits,
/// so quadrant order is preserved at the top level.
TEST(ZOrderTest, QuadrantOrdering) {
  const uint64_t sw = ZOrder::Encode({100, 100});
  const uint64_t se = ZOrder::Encode({9900, 100});
  const uint64_t nw = ZOrder::Encode({100, 9900});
  const uint64_t ne = ZOrder::Encode({9900, 9900});
  EXPECT_LT(sw, se);
  EXPECT_LT(se, nw);  // y-bit is more significant than x-bit
  EXPECT_LT(nw, ne);
}

TEST(ZOrderTest, MonotoneAlongEqualCells) {
  // Identical points encode identically; nearby points in one cell too.
  const Point p{1234.5, 6789.0};
  EXPECT_EQ(ZOrder::Encode(p), ZOrder::Encode(p));
}

}  // namespace
}  // namespace dsks
