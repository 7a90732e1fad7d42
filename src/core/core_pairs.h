#ifndef DSKS_CORE_CORE_PAIRS_H_
#define DSKS_CORE_CORE_PAIRS_H_

#include <span>
#include <vector>

#include "core/diversify.h"
#include "core/query.h"
#include "graph/types.h"

namespace dsks {

/// Incrementally maintained core pairs CP and diversification-distance
/// threshold θ_T (§4.2, Algorithm 5).
///
/// After initialization with the greedy pairs of the first k objects, each
/// OnArrival call updates CP in O(n · k) so that it always equals the set
/// of pairs Algorithm 1 would select from scratch over all objects seen so
/// far — the invariant the property tests check. θ_T (the distance of the
/// ⌊k/2⌋-th pair) grows monotonically (Theorem 1), which is what makes the
/// early termination of Algorithm 6 safe.
class CorePairSet {
 public:
  explicit CorePairSet(size_t num_pairs) : num_pairs_(num_pairs) {}

  /// Installs the greedy pairs computed on the first k objects. `pairs`
  /// must be in selection (Better-first) order.
  void Init(std::vector<ScoredPair> pairs);

  /// Algorithm 5. `o` is the arriving object; `seen` holds every object
  /// seen so far, `o` included (never paired with itself); `theta`
  /// evaluates diversification distances. `theta_ub`, when given, must
  /// satisfy theta_ub(u,v) >= theta(u,v); candidates whose bound is
  /// *strictly* below θ_T are skipped without an exact evaluation (they
  /// would fail the Better(θ_T) test anyway), leaving the maintained pairs
  /// bit-identical.
  void OnArrival(const SkResult& o, std::span<const SkResult> seen,
                 const ThetaFn& theta, const ThetaFn* theta_ub = nullptr);

  /// Current core pairs, Better-first; θ_T is pairs().back().
  const std::vector<ScoredPair>& pairs() const { return pairs_; }

  /// θ_T as a ScoredPair (for total-order comparisons) — requires full().
  const ScoredPair& threshold() const { return pairs_.back(); }

  bool full() const { return pairs_.size() == num_pairs_; }

  bool IsCore(ObjectId id) const;

 private:
  /// Index of the pair containing `id`, or pairs_.size().
  size_t PairIndexOf(ObjectId id) const;

  void InsertSorted(const ScoredPair& sp);

  size_t num_pairs_;
  std::vector<ScoredPair> pairs_;
};

}  // namespace dsks

#endif  // DSKS_CORE_CORE_PAIRS_H_
