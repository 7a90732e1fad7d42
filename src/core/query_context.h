#ifndef DSKS_CORE_QUERY_CONTEXT_H_
#define DSKS_CORE_QUERY_CONTEXT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/flat_containers.h"
#include "graph/types.h"
#include "index/object_index.h"
#include "obs/io_account.h"

namespace dsks {

namespace obs {
class QueryTrace;
}  // namespace obs

/// Scratch for one NetworkExpansion: the radius-bounded Dijkstra state
/// every search runs over the CCAM file. Reset-not-freed between
/// expansions like the rest of the context.
struct ExpansionScratch {
  EpochArray<double> tentative;  // node -> best tentative distance
  EpochArray<double> settled;    // node -> final distance
  ReusableMinHeap<std::pair<double, uint32_t>> heap;  // (distance, node)
};

/// The adjacency lists one query has decoded, shared by every
/// NetworkExpansion on the context: INE, the oracle's shared pass and its
/// per-object fields cover overlapping balls, and each node is read from
/// the buffer pool at most once per query. A node's list is the slice
/// [begin, begin + count) of one flat arena.
///
/// Reset by whatever starts a query on the context, and nowhere else: the
/// IncrementalSkSearch constructor (under the SK, kNN, ranked and
/// diversified searches alike), EuclideanFilterRefine before it seeds, and
/// a PairwiseDistanceOracle constructed while no SK search is live. A
/// failed or cancelled fetch leaves no entry.
struct AdjacencyMemo {
  struct Slice {
    uint32_t begin = 0;
    uint32_t count = 0;
  };
  EpochArray<Slice> slice;  // node -> its list in `arena`
  std::vector<AdjacentEdge> arena;
  std::vector<AdjacentEdge> fetched;  // a miss's list on its way in

  /// Forgets every list in O(1), keeping all capacity.
  void Reset() {
    slice.Reset();
    arena.clear();
  }
};

/// Per-object search state of the incremental SK search (Algorithm 3):
/// the best known distance plus the object's edge placement, enough to
/// re-derive its network location without reloading the edge.
struct SkObjectState {
  double best = 0.0;
  bool emitted = false;
  EdgeId edge = kInvalidEdgeId;
  NodeId n1 = kInvalidNodeId;
  NodeId n2 = kInvalidNodeId;
  double w1 = 0.0;
  double edge_weight = 0.0;
};

/// Scratch for the query's own expansion from q — one IncrementalSkSearch
/// or EuclideanFilterRefine at a time. Everything here is reset-not-freed
/// between queries: epoch arrays invalidate in O(1), flat maps and heaps
/// clear without releasing their backing storage, and the edge pool
/// recycles its per-edge object vectors.
struct SkSearchScratch {
  ExpansionScratch expansion;
  ReusableMinHeap<std::pair<double, uint32_t>> object_heap;
  FlatHashMap<EdgeId, uint32_t> edge_slot;  // edge -> index into edge_pool
  // A processed edge's matching objects, loaded from the index once per
  // query; [0, edge_pool_used) are live.
  std::vector<std::vector<LoadedObject>> edge_pool;
  size_t edge_pool_used = 0;
  FlatHashMap<ObjectId, SkObjectState> object_state;

  // The ranked search's OR view of the index: one keyword's probe on its
  // way into the union, and how many query keywords each loaded object
  // matched.
  std::vector<LoadedObject> keyword_objects;
  FlatHashMap<ObjectId, uint32_t> matched;
};

/// Scratch for one PairwiseDistanceOracle. Holds the shared-expansion
/// shortest-path-tree state (parent edges and subtree labels, indexed by
/// settle order) plus a pool of per-object fallback distance fields. The
/// shared pass and the field passes expand over separate scratches: the
/// shared distances are read by every later probe, across field passes.
struct OracleScratch {
  // Shared expansion from the query location.
  ExpansionScratch shared;
  EpochArray<EdgeId> pending_edge;      // best relaxing edge while tentative
  EpochArray<NodeId> pending_parent;    // best relaxing parent node
  EpochArray<EdgeId> parent_edge;       // edge that settled the node
  EpochArray<uint32_t> local_index;     // node -> index into settle order
  // Per local index: the parent's local index (UINT32_MAX for a root), the
  // subtree's size and the node's preorder slot. A subtree's slots are
  // [slot, slot + subtree_size).
  std::vector<uint32_t> parent_local;
  std::vector<uint32_t> subtree_size;
  std::vector<uint32_t> slot;
  std::vector<uint32_t> next_child_slot;  // where the next child's block goes

  // Per-object fallback fields: one expansion each, its settled distances
  // copied into a pooled map whose slot arrays serve later queries. A
  // query's fields take slots [0, field_index.size()).
  ExpansionScratch field;
  std::vector<FlatHashMap<NodeId, double>> field_pool;
  FlatHashMap<ObjectId, uint32_t> field_index;  // object -> pool index

  // Memoized pair distances, keyed by (canonical id << 32 | other id),
  // cleared between queries.
  FlatHashMap<uint64_t, double> pair_cache;
};

/// Reusable per-thread query scratch, the one home of a query's state. One
/// QueryContext serves one query at a time (one SK search plus one
/// distance oracle — the diversified search uses both concurrently, over
/// one adjacency memo); QueryExecutor owns one per worker thread, the CLI
/// and sequential harness own one per loop. Every search takes one;
/// Database::Run*Query makes one for the query when its caller passes none.
struct QueryContext {
  SkSearchScratch sk_search;
  OracleScratch oracle;
  AdjacencyMemo adjacency_memo;

  /// Optional per-query trace sink. Null (the default) means tracing is
  /// off and every span hook reduces to a pointer null test; when set, the
  /// search phases record spans into it. The pointer is borrowed — the
  /// trace must outlive the query that uses this context.
  obs::QueryTrace* trace = nullptr;

  /// Per-query I/O attribution account. Database::Run* installs it as the
  /// thread's charge target (obs::ScopedIoAccount) for the query's
  /// duration, so the storage layer adds exactly this query's pool/disk
  /// events here — concurrent queries charge their own contexts. The
  /// counters accumulate across queries on this context (like the global
  /// stats do); consumers snapshot before/after and difference. Only the
  /// thread running the context's query may touch them.
  obs::IoCounters io;

  /// Cooperative cancellation deadline as a steady-clock timestamp in
  /// nanoseconds, 0 meaning "no deadline" (the default — benches and tests
  /// run deadline-free). The query service arms it per request before the
  /// task runs; every NetworkExpansion polls DeadlineExceeded once per
  /// settle batch and stops with Status::Cancelled, so partial work up to
  /// the cancellation point stays exactly accounted (trace spans, I/O
  /// counters).
  int64_t deadline_steady_ns = 0;

  bool DeadlineExceeded() const {
    return deadline_steady_ns != 0 &&
           std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
                   .count() >= deadline_steady_ns;
  }

  // Debug-build guards against two live consumers sharing one section.
  bool sk_search_in_use = false;
  bool oracle_in_use = false;
};

/// The deadline value for "`millis` from now" on the steady clock; pass the
/// result to QueryContext::deadline_steady_ns. Non-positive millis arms an
/// already-expired deadline (the first check cancels); a deadline more
/// than 2^62 ns (~146 years) away saturates and never expires.
inline int64_t DeadlineFromNowMillis(double millis) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  // Bounded as a double before the cast, which is undefined out of range.
  constexpr double kFarNs = 0x1p62;
  const double ns = millis * 1e6;
  if (!(ns < kFarNs)) {
    return std::numeric_limits<int64_t>::max();
  }
  return now + static_cast<int64_t>(std::max(ns, -kFarNs));
}

}  // namespace dsks

#endif  // DSKS_CORE_QUERY_CONTEXT_H_
