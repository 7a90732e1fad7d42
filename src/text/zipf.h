#ifndef DSKS_TEXT_ZIPF_H_
#define DSKS_TEXT_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"

namespace dsks {

/// Samples ranks from a Zipf distribution: P(rank = r) proportional to
/// 1/r^z for r in [1, n]. The paper's synthetic vocabularies draw term
/// frequencies this way with z in [0.9, 1.3], default 1.1 (§5).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double z);

  /// Returns a 0-based rank in [0, n).
  size_t Sample(Random* rng) const { return RankOf(rng->NextDouble()); }

  /// The inverse CDF: the first rank r with cumulative()[r] >= u (n - 1
  /// when u exceeds them all). A power-of-two bucket table narrows the
  /// binary search to the ranks bucket floor(u * G) can reach; the answer
  /// is the full lower_bound's for every u.
  size_t RankOf(double u) const;

  /// Probability mass of 0-based rank `r`.
  double Probability(size_t r) const;

  size_t n() const { return cumulative_.size(); }
  double z() const { return z_; }

  /// cumulative()[r] = P(rank <= r); strictly increasing, last element 1.
  std::span<const double> cumulative() const { return cumulative_; }
  /// G, the number of equal-width buckets of [0, 1): a power of two.
  size_t num_buckets() const { return bucket_first_.size() - 1; }

 private:
  double z_;
  std::vector<double> cumulative_;
  /// bucket_first_[b] = lower_bound(cumulative_, b / G) for b in [0, G]:
  /// every u in [b / G, (b + 1) / G) lands in [bucket_first_[b],
  /// bucket_first_[b + 1]].
  std::vector<uint32_t> bucket_first_;
};

}  // namespace dsks

#endif  // DSKS_TEXT_ZIPF_H_
