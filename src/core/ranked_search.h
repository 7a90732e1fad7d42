#ifndef DSKS_CORE_RANKED_SEARCH_H_
#define DSKS_CORE_RANKED_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "graph/ccam.h"
#include "index/object_index.h"

namespace dsks {

/// The ranked (top-k) spatial keyword query on road networks, the §6
/// related-work variant studied by Rocha-Junior et al. [17]: instead of
/// the boolean AND constraint, every object containing at least one query
/// keyword competes with the score
///
///     score(o) = α · δ(q,o)/δmax + (1-α) · (1 − |q.T ∩ o.T| / |q.T|)
///
/// (lower is better), and the k best-scored objects within δmax are
/// returned. Implemented as a client of Algorithm 3 (IncrementalSkSearch)
/// over an OR view of the index, with threshold termination: objects
/// arrive by network distance, so once α·δ/δmax of the expansion frontier
/// exceeds the k-th best score no unseen object can improve the result.
struct RankedQuery {
  SkQuery sk;  // terms under OR semantics here
  size_t k = 10;
  /// Weight of the spatial component; 1 = pure distance.
  double alpha = 0.5;
};

struct RankedResult {
  ObjectId id = kInvalidObjectId;
  double dist = 0.0;
  uint32_t matched = 0;
  double score = 0.0;
};

struct RankedSearchStats {
  uint64_t objects_scored = 0;
  uint64_t nodes_settled = 0;
  bool early_terminated = false;
};

/// Runs the ranked query; `*out` holds the results sorted by (score, id).
/// The query's terms must be normalized (sorted and distinct, as
/// NormalizeSkQuery leaves them; every Database query has them so), like
/// any IncrementalSkSearch's. On a storage error or cancellation `*out` is
/// left empty and `*stats` (when given) still accounts the work done
/// before it. `ctx` supplies the search scratch, the deadline and the
/// trace, as for IncrementalSkSearch.
Status RankedSkSearch(const CcamGraph* graph, ObjectIndex* index,
                      const RankedQuery& query,
                      const QueryEdgeInfo& query_edge,
                      std::vector<RankedResult>* out, RankedSearchStats* stats,
                      QueryContext* ctx);

/// Boolean k-nearest-neighbour SK query (Definition 1 with a result-count
/// bound instead of exhausting δmax): the k closest objects containing all
/// keywords. Thin wrapper over IncrementalSkSearch (run on `ctx`) that
/// stops pulling after k results — the expansion never goes further than
/// needed. On a storage error `*out` keeps the (correct) results emitted
/// before it.
Status BooleanKnnSearch(const CcamGraph* graph, ObjectIndex* index,
                        const SkQuery& query,
                        const QueryEdgeInfo& query_edge, size_t k,
                        std::vector<SkResult>* out, QueryContext* ctx);

}  // namespace dsks

#endif  // DSKS_CORE_RANKED_SEARCH_H_
