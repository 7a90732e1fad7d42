#include "storage/fault_injector.h"

namespace dsks {

namespace {

/// SplitMix64 finalizer: maps (seed, counter) to a uniform 64-bit hash.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// p in [0,1] -> threshold such that (hash <= threshold) fires with
/// probability ~p. 0 means never (guarded explicitly), UINT64_MAX always.
uint64_t Threshold(double p) {
  if (p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return UINT64_MAX;
  }
  return static_cast<uint64_t>(p * 18446744073709551616.0L);  // p * 2^64
}

constexpr uint64_t kReadSalt = 0x72656164ull;     // "read"
constexpr uint64_t kCorruptSalt = 0x636F7272ull;  // "corr"

}  // namespace

void FaultInjector::Configure(const Config& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  RecomputeArmedLocked();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = Config{};
  one_shot_read_ = false;
  one_shot_write_ = false;
  targeted_reads_.clear();
  RecomputeArmedLocked();
}

void FaultInjector::InjectReadFaultOnce() {
  std::lock_guard<std::mutex> lock(mutex_);
  one_shot_read_ = true;
  RecomputeArmedLocked();
}

void FaultInjector::InjectWriteFaultOnce() {
  std::lock_guard<std::mutex> lock(mutex_);
  one_shot_write_ = true;
  RecomputeArmedLocked();
}

void FaultInjector::FailPageReads(PageId id, uint32_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count == 0) {
    targeted_reads_.erase(id);
  } else {
    targeted_reads_[id] = count;
  }
  RecomputeArmedLocked();
}

void FaultInjector::RecomputeArmedLocked() {
  const bool armed = config_.read_fault_p > 0.0 ||
                     config_.corrupt_read_p > 0.0 || one_shot_read_ ||
                     one_shot_write_ || !targeted_reads_.empty();
  armed_.store(armed, std::memory_order_relaxed);
}

bool FaultInjector::Draw(double p, std::atomic<uint64_t>* op_counter,
                         uint64_t salt, uint64_t* hash_out) {
  const uint64_t threshold = Threshold(p);
  // Every armed op consumes one counter tick so the fault count over N ops
  // is deterministic in (seed, N, p) regardless of thread interleaving.
  const uint64_t op = op_counter->fetch_add(1, std::memory_order_relaxed);
  uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seed = config_.seed;
  }
  const uint64_t hash = SplitMix64(seed ^ SplitMix64(op ^ salt));
  if (hash_out != nullptr) {
    *hash_out = hash;
  }
  return threshold != 0 && hash <= threshold;
}

bool FaultInjector::ShouldFailRead(PageId id) {
  if (!armed()) {
    return false;
  }
  double p;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (one_shot_read_) {
      one_shot_read_ = false;
      RecomputeArmedLocked();
      read_faults_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    auto it = targeted_reads_.find(id);
    if (it != targeted_reads_.end()) {
      if (it->second != kAlways && --it->second == 0) {
        targeted_reads_.erase(it);
        RecomputeArmedLocked();
      }
      read_faults_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    p = config_.read_fault_p;
  }
  if (p > 0.0 && Draw(p, &read_ops_, kReadSalt, nullptr)) {
    read_faults_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::ShouldFailWrite(PageId id) {
  (void)id;
  if (!armed()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!one_shot_write_) {
    return false;
  }
  one_shot_write_ = false;
  RecomputeArmedLocked();
  write_faults_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::ShouldCorruptRead(PageId id, uint32_t* bit_index) {
  (void)id;
  if (!armed()) {
    return false;
  }
  double p;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    p = config_.corrupt_read_p;
  }
  uint64_t hash = 0;
  if (p > 0.0 && Draw(p, &corrupt_ops_, kCorruptSalt, &hash)) {
    corruptions_.fetch_add(1, std::memory_order_relaxed);
    // Reuse high bits of the draw to pick which bit flips.
    *bit_index = static_cast<uint32_t>((hash >> 32) % (kPageSize * 8));
    return true;
  }
  return false;
}

}  // namespace dsks
