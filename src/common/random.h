#ifndef DSKS_COMMON_RANDOM_H_
#define DSKS_COMMON_RANDOM_H_

#include <cstdint>
#include <random>

namespace dsks {

/// Deterministic pseudo-random source used throughout data generation and
/// tests so that every experiment is reproducible from a single seed.
class Random {
 public:
  explicit Random(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dsks

#endif  // DSKS_COMMON_RANDOM_H_
