#ifndef DSKS_CORE_EUCLIDEAN_BASELINE_H_
#define DSKS_CORE_EUCLIDEAN_BASELINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "graph/ccam.h"
#include "graph/road_network.h"
#include "index/inverted_rtree.h"

namespace dsks {

struct EuclideanBaselineStats {
  /// Objects surviving the Euclidean filter (superset of the answer).
  uint64_t euclidean_candidates = 0;
  /// Candidates whose network distance actually fit δmax.
  uint64_t verified = 0;
  uint64_t nodes_settled = 0;
};

/// The filter-and-refine strategy a Euclidean spatial-keyword index
/// (inverted R-tree and friends, §6) forces on road networks: since
/// network distance >= Euclidean distance, every answer lies within the
/// Euclidean δmax circle — so (1) intersect the per-keyword R-trees over
/// that circle, then (2) verify each candidate's *network* distance with a
/// Dijkstra expansion from the query.
///
/// This is the §1 argument made runnable: the filter is blind to the road
/// topology, so in dense areas it admits many candidates whose network
/// distance exceeds δmax (rivers, highways, detours), and the refinement
/// pays a network expansion anyway — which is why the paper builds
/// network-native indexes instead. Returns exactly the Definition 1 result
/// (tests assert equivalence with Algorithm 3).
///
/// Requires edge weights to equal edge lengths: only then is Euclidean
/// distance a lower bound on network distance. This is exactly the kind
/// of "specific restriction" (§3.2) the paper's INE design avoids — with
/// travel-time weights the filter would be unsound while INE still works.
///
/// `net` provides the edge endpoint/weight table for verification (the
/// same in-memory metadata the R-tree build used). On a storage error or
/// cancellation `*out` is left empty; `*stats` (when given) still accounts
/// the partial work. `ctx` supplies the expansion scratch and the deadline
/// (nullptr: a private context).
Status EuclideanFilterRefine(const CcamGraph* graph, const RoadNetwork& net,
                             InvertedRTreeIndex* index, const SkQuery& query,
                             const QueryEdgeInfo& query_edge,
                             std::vector<SkResult>* out,
                             EuclideanBaselineStats* stats,
                             QueryContext* ctx = nullptr);

}  // namespace dsks

#endif  // DSKS_CORE_EUCLIDEAN_BASELINE_H_
