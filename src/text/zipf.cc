#include "text/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/macros.h"

namespace dsks {

ZipfSampler::ZipfSampler(size_t n, double z) : z_(z) {
  DSKS_CHECK_MSG(n > 0, "Zipf over empty domain");
  DSKS_CHECK_MSG(n <= UINT32_MAX, "Zipf domain beyond 32-bit ranks");
  cumulative_.resize(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), z);
    cumulative_[r] = total;
  }
  for (double& c : cumulative_) {
    c /= total;
  }
  cumulative_.back() = 1.0;

  // About one bucket per rank. G is a power of two, so b / G is exact and
  // RankOf's u * G is exact too: floor(u * G) = b exactly when
  // b / G <= u < (b + 1) / G, and lower_bound is monotone in u.
  const size_t buckets = std::bit_ceil(n);
  bucket_first_.resize(buckets + 1);
  auto first = cumulative_.begin();
  for (size_t b = 0; b <= buckets; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(buckets);
    first = std::lower_bound(first, cumulative_.end(), edge);
    bucket_first_[b] = static_cast<uint32_t>(first - cumulative_.begin());
  }
}

size_t ZipfSampler::RankOf(double u) const {
  const double scaled = u * static_cast<double>(num_buckets());
  auto lo = cumulative_.begin();
  auto hi = cumulative_.end();
  // Outside [0, 1) (NaN included) the whole array is searched.
  if (scaled >= 0.0 && scaled < static_cast<double>(num_buckets())) {
    const auto b = static_cast<size_t>(scaled);
    // bucket_first_[b + 1] <= n - 1 (cumulative_ ends at 1.0), and it is
    // the answer whenever every rank before it lies below u.
    lo += bucket_first_[b];
    hi = cumulative_.begin() + bucket_first_[b + 1];
  }
  const auto it = std::lower_bound(lo, hi, u);
  if (it == cumulative_.end()) {
    return cumulative_.size() - 1;
  }
  return static_cast<size_t>(it - cumulative_.begin());
}

double ZipfSampler::Probability(size_t r) const {
  DSKS_CHECK(r < cumulative_.size());
  if (r == 0) {
    return cumulative_[0];
  }
  return cumulative_[r] - cumulative_[r - 1];
}

}  // namespace dsks
