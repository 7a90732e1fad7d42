#ifndef DSKS_CORE_DIVERSIFY_H_
#define DSKS_CORE_DIVERSIFY_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/query.h"
#include "graph/types.h"

namespace dsks {

/// A candidate pair with its diversification distance, ordered by a total
/// order (θ descending, then object ids) so that the greedy (Algorithm 1)
/// and the incremental maintenance (Algorithm 5) break ties identically.
struct ScoredPair {
  double theta = 0.0;
  ObjectId a = kInvalidObjectId;  // smaller id
  ObjectId b = kInvalidObjectId;  // larger id

  static ScoredPair Make(double theta, ObjectId x, ObjectId y);

  /// True if *this ranks strictly better (is picked earlier) than `other`.
  bool Better(const ScoredPair& other) const;
};

/// θ for a pair of result objects, as a function supplied by the caller
/// (it closes over the Objective and the distance oracle).
using ThetaFn =
    std::function<double(const SkResult&, const SkResult&)>;

/// Output of the greedy diversification.
struct GreedyDivResult {
  /// The core pairs in selection order (best first); ⌊k/2⌋ of them (or
  /// fewer if not enough objects).
  std::vector<ScoredPair> pairs;
  /// The selected objects: the pairs' members plus, for odd k, one extra
  /// object (ClosestToQuery over the remaining ones). Empty when there are
  /// no more candidates than k: every candidate is the answer then, and the
  /// caller already holds them.
  std::vector<SkResult> selected;
};

/// Algorithm 1 line 5: for odd k, one more object joins the pairs'
/// members. The paper leaves it arbitrary; here it is the remaining object
/// closest to q, ties broken by id, so SEQ and COM pick the same one.
/// Returns whichever of `best` (null: none yet) and `r` comes first in
/// that order: fold it over the remaining objects.
const SkResult* ClosestToQuery(const SkResult* best, const SkResult& r);

/// Algorithm 1: repeatedly pick the remaining pair with the largest
/// diversification distance; each object joins at most one pair. A
/// 2-approximation of max f(S) [Gollapudi & Sharma].
///
/// `theta_ub`, when given, must satisfy theta_ub(u,v) >= theta(u,v) for
/// every pair. Pairs whose upper bound is *strictly* below the current
/// round's best are skipped without evaluating θ exactly — ties still
/// evaluate, so the chosen pairs (including tie-breaks) are identical to
/// the unbounded run.
GreedyDivResult GreedyDiversify(const std::vector<SkResult>& candidates,
                                size_t k, const ThetaFn& theta,
                                const ThetaFn* theta_ub = nullptr);

/// Exhaustive optimum of f(S) over all k-subsets, for the approximation
/// tests; exponential, use only on tiny instances.
std::vector<SkResult> BruteForceOptimal(
    const std::vector<SkResult>& candidates, size_t k, double lambda,
    double delta_max,
    const std::function<double(const SkResult&, const SkResult&)>& dist);

}  // namespace dsks

#endif  // DSKS_CORE_DIVERSIFY_H_
