#ifndef DSKS_CORE_DIV_SEARCH_H_
#define DSKS_CORE_DIV_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "core/objective.h"
#include "core/query.h"
#include "core/sk_search.h"

namespace dsks {

/// Counters of one diversified search execution.
struct DivSearchStats {
  /// Objects pulled from the incremental SK search.
  uint64_t candidates = 0;
  /// Always 0. Algorithm 6's removal of visited objects (lines 13-14)
  /// cannot take effect before termination does, so COM keeps every seen
  /// object (DESIGN.md "Why COM keeps every seen object"); the field stays
  /// for the readers that report it.
  uint64_t pruned_objects = 0;
  /// True when the diversity bound terminated the network expansion before
  /// the SK search was exhausted.
  bool early_terminated = false;
  /// Pairwise distance fields computed by the oracle (per-object bounded
  /// Dijkstra expansions — eager under kPerObjectDijkstra, fallback-only
  /// under kSharedExpansion).
  uint64_t distance_fields = 0;
  /// Distance() evaluations with distinct endpoints.
  uint64_t oracle_pairs = 0;
  /// Of those, pairs answered exactly from the shared expansion.
  uint64_t oracle_pairs_shared = 0;
  /// Shared expansions run by the oracle (0 or 1).
  uint64_t oracle_shared_expansions = 0;
};

struct DivSearchOutput {
  /// The k selected objects (fewer if fewer candidates exist).
  std::vector<SkResult> selected;
  /// f(S) of the selection (0 when |S| < 2).
  double objective = 0.0;
  /// First storage error hit by the SK search or the distance oracle.
  /// When non-OK the selection reflects only the work done before the
  /// error; `stats` still accounts that partial work.
  Status status;
  DivSearchStats stats;
};

/// SEQ (§4.1): run Algorithm 3 to completion, then feed every candidate to
/// the greedy Algorithm 1. The straightforward baseline of §5.2.
DivSearchOutput DiversifiedSearchSEQ(IncrementalSkSearch* search,
                                     const DivQuery& query,
                                     PairwiseDistanceOracle* oracle);

/// COM (§4.3, Algorithm 6): consume candidates incrementally, maintain the
/// core pairs and θ_T with Algorithm 5 over every object seen so far, and
/// terminate the network expansion as soon as no unseen object can
/// contribute a pair above θ_T.
DivSearchOutput DiversifiedSearchCOM(IncrementalSkSearch* search,
                                     const DivQuery& query,
                                     PairwiseDistanceOracle* oracle);

/// f(S) of an explicit selection, using the oracle for pairwise distances.
double EvaluateObjective(const Objective& objective,
                         PairwiseDistanceOracle* oracle,
                         const std::vector<SkResult>& selected);

}  // namespace dsks

#endif  // DSKS_CORE_DIV_SEARCH_H_
