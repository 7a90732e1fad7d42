#ifndef DSKS_OBS_SAMPLER_H_
#define DSKS_OBS_SAMPLER_H_

#include <cstdint>

namespace dsks::obs {

/// Policy knobs for always-on sampled tracing. Default-constructed, both
/// mechanisms are off and the sampler costs one branch per query.
struct TraceSamplerConfig {
  /// Trace 1 query in N on each worker; 0 turns sampling off.
  uint32_t sample_every = 0;
  /// Queries at least this slow always get a flight-recorder entry, traced
  /// or not — the slow tail is exactly what a 1-in-N subset would miss.
  /// 0 disables the threshold.
  double slow_ms = 0.0;
  /// Shifts which positions of the 1-in-N stream are sampled, so repeated
  /// runs with the same seed trace the same queries.
  uint64_t seed = 0;
};

/// Per-worker sampling decisions, deterministic by construction: worker
/// `stream` with seed S samples query n of its own stream iff
/// (n + S + stream·phi) mod sample_every == 0 (phi spreads distinct
/// streams over distinct phases, so workers don't all trace their first
/// query in lockstep). No RNG, no atomics — each worker owns its sampler.
class TraceSampler {
 public:
  TraceSampler() = default;
  TraceSampler(const TraceSamplerConfig& config, uint64_t stream)
      : config_(config) {
    if (config_.sample_every > 0) {
      countdown_ = static_cast<uint32_t>(
          (config_.seed + stream * 0x9e3779b97f4a7c15ULL) %
          config_.sample_every);
    }
  }

  /// Pre-execution: should this query run traced? Advances the stream.
  bool ShouldTrace() {
    if (config_.sample_every == 0) {
      return false;
    }
    const bool hit = countdown_ == 0;
    countdown_ = hit ? config_.sample_every - 1 : countdown_ - 1;
    return hit;
  }

  /// Post-execution: should this query get a flight-recorder entry?
  /// Sampled queries always record; errored and over-threshold queries
  /// record even when they weren't in the sampled subset.
  bool ShouldRecord(bool sampled, bool ok, double total_ms) const {
    if (sampled || !ok) {
      return true;
    }
    return config_.slow_ms > 0.0 && total_ms >= config_.slow_ms;
  }

  const TraceSamplerConfig& config() const { return config_; }

 private:
  TraceSamplerConfig config_;
  uint32_t countdown_ = 0;  // queries until the next sampled one
};

}  // namespace dsks::obs

#endif  // DSKS_OBS_SAMPLER_H_
