#ifndef DSKS_STORAGE_FAULT_INJECTOR_H_
#define DSKS_STORAGE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "storage/page.h"

namespace dsks {

/// Deterministic, seedable fault source for the simulated disk. A
/// DiskManager owns one and consults it on every ReadPage/WritePage; when
/// disarmed (the default) the per-op cost is a single relaxed atomic load.
///
/// Three fault mechanisms compose:
///  - per-op probabilities: each read-fault/corruption decision hashes a
///    dedicated operation counter with the seed (SplitMix64), so the
///    *number* of injected faults over N operations is a pure function of
///    (seed, N, p) even under concurrency — only *which* interleaved op
///    draws a given counter value varies between runs. Writes have no
///    probability: builds write every page before faults are armed, so a
///    write fault is only ever a one-shot.
///  - one-shot faults: the next read (or write) fails exactly once.
///  - targeted-page faults: reads of a specific page fail `count` times
///    (kAlways for every time). Useful for aiming a fault at a known index
///    page.
///
/// Corruption mode does not fail the operation: it flips one
/// deterministically-chosen bit in a private copy of the page a read
/// returns, so the read only fails through checksum verification
/// (kCorruption), which is exactly the silent-corruption scenario
/// checksums exist for.
class FaultInjector {
 public:
  static constexpr uint32_t kAlways = UINT32_MAX;

  struct Config {
    double read_fault_p = 0.0;
    /// Probability that a successful read is returned with one flipped bit.
    double corrupt_read_p = 0.0;
    uint64_t seed = 0;
  };

  /// Plain copy of the injection counters (single coherent read).
  struct StatsSnapshot {
    uint64_t read_faults = 0;
    uint64_t write_faults = 0;
    uint64_t corruptions = 0;
  };

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs probabilities + seed and arms the injector. Does not clear
  /// one-shot/targeted faults or stats.
  void Configure(const Config& config);

  /// Turns all injection off (probabilities, one-shots and targeted faults
  /// stop firing) without clearing stats.
  void Disarm();

  /// True when any fault source is active; the disarmed fast path is one
  /// relaxed load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Arms a fault for the next read (any page), firing exactly once.
  void InjectReadFaultOnce();
  /// Arms a fault for the next write (any page), firing exactly once.
  void InjectWriteFaultOnce();
  /// Arms `count` read faults targeted at page `id` (kAlways = persistent).
  void FailPageReads(PageId id, uint32_t count);

  /// Decision hooks for DiskManager. Each returns true when the current
  /// operation must fail (and bumps the matching stat).
  bool ShouldFailRead(PageId id);
  bool ShouldFailWrite(PageId id);
  /// True when the read of `id` should be returned corrupted; `*bit_index`
  /// receives the bit to flip, in [0, kPageSize * 8).
  bool ShouldCorruptRead(PageId id, uint32_t* bit_index);

  StatsSnapshot stats() const {
    StatsSnapshot s;
    s.read_faults = read_faults_.load(std::memory_order_relaxed);
    s.write_faults = write_faults_.load(std::memory_order_relaxed);
    s.corruptions = corruptions_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    read_faults_.store(0, std::memory_order_relaxed);
    write_faults_.store(0, std::memory_order_relaxed);
    corruptions_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Hashes (seed, op counter) into a uniform uint64 and compares against
  /// the probability threshold.
  bool Draw(double p, std::atomic<uint64_t>* op_counter, uint64_t salt,
            uint64_t* hash_out);
  void RecomputeArmedLocked();

  std::atomic<bool> armed_{false};

  mutable std::mutex mutex_;
  Config config_;
  bool one_shot_read_ = false;
  bool one_shot_write_ = false;
  /// PageId -> remaining targeted read faults (kAlways = persistent).
  std::unordered_map<PageId, uint32_t> targeted_reads_;

  /// Per-category operation counters feeding the deterministic draws.
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> corrupt_ops_{0};

  std::atomic<uint64_t> read_faults_{0};
  std::atomic<uint64_t> write_faults_{0};
  std::atomic<uint64_t> corruptions_{0};
};

}  // namespace dsks

#endif  // DSKS_STORAGE_FAULT_INJECTOR_H_
