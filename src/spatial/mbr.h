#ifndef DSKS_SPATIAL_MBR_H_
#define DSKS_SPATIAL_MBR_H_

#include <algorithm>
#include <limits>

#include "spatial/point.h"

namespace dsks {

/// Axis-aligned minimum bounding rectangle: the entry and node key of the
/// per-keyword R-trees of the inverted R-tree baseline (§5), and the box
/// that IR (an edge's extent) and the Euclidean baseline search them with.
struct Mbr {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  /// An MBR containing nothing; Extend()ing it yields the argument.
  static Mbr Empty() { return Mbr(); }

  static Mbr FromPoint(const Point& p) { return Mbr{p.x, p.y, p.x, p.y}; }

  static Mbr FromPoints(const Point& a, const Point& b) {
    return Mbr{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
               std::max(a.y, b.y)};
  }

  bool IsEmpty() const { return min_x > max_x; }

  void Extend(const Mbr& other) {
    min_x = std::min(min_x, other.min_x);
    min_y = std::min(min_y, other.min_y);
    max_x = std::max(max_x, other.max_x);
    max_y = std::max(max_y, other.max_y);
  }

  void Extend(const Point& p) { Extend(FromPoint(p)); }

  bool Intersects(const Mbr& other) const {
    return !(other.min_x > max_x || other.max_x < min_x ||
             other.min_y > max_y || other.max_y < min_y);
  }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  Point Center() const {
    return Point{(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  /// Minimum Euclidean distance from `p` to this rectangle (0 if inside).
  double MinDistance(const Point& p) const;
};

}  // namespace dsks

#endif  // DSKS_SPATIAL_MBR_H_
