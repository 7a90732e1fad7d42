#ifndef DSKS_CORE_NETWORK_EXPANSION_H_
#define DSKS_CORE_NETWORK_EXPANSION_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "core/query_context.h"
#include "graph/ccam.h"
#include "graph/dijkstra.h"  // kInfDistance
#include "graph/types.h"

namespace dsks {

/// The one network-expansion primitive under every search: a
/// radius-bounded Dijkstra over the CCAM file that settles one node at a
/// time (the expansion of Algorithm 3). INE (under the SK, kNN, ranked and
/// diversified searches), the distance oracle's shared pass and per-object
/// fields and the Euclidean baseline's refine step all run it; each keeps
/// only its own relax loop over adjacency() and its per-settle work.
///
/// The expansion owns the state (in an ExpansionScratch), the settle
/// counter, and the context's deadline poll every kPollInterval settles.
/// Adjacency is read through the context's AdjacencyMemo, so the
/// expansions of one query fetch each node from the pool at most once
/// between them. Adjacency fetches have a sticky status: the first error
/// or cancellation stops the expansion. The plain loop:
///
///   x.Seed(edge.n1, edge.n2, edge.weight, edge.w1);
///   while (x.Settle(&v, &d)) {
///     for (const AdjacentEdge& adj : x.adjacency()) {
///       x.Relax(adj.neighbor, d + adj.weight);
///     }
///   }
class NetworkExpansion {
 public:
  /// Settles between two deadline polls.
  static constexpr uint64_t kPollInterval = 32;

  /// `scratch` and `ctx` are borrowed and must outlive the expansion;
  /// `ctx` supplies the deadline and the adjacency memo. Nothing is
  /// touched until Seed().
  NetworkExpansion(const CcamGraph* graph, double radius,
                   ExpansionScratch* scratch, QueryContext* ctx)
      : graph_(graph), radius_(radius), s_(scratch), ctx_(ctx) {}

  NetworkExpansion(const NetworkExpansion&) = delete;
  NetworkExpansion& operator=(const NetworkExpansion&) = delete;

  /// Starts a fresh expansion from a location on edge (n1, n2) of weight
  /// `weight`, `w1` from n1: resets all state, keeping capacity, and
  /// relaxes both endpoints.
  void Seed(NodeId n1, NodeId n2, double weight, double w1);

  /// Offers distance `d` to node `v`. Returns true iff it improved `v`'s
  /// tentative distance (so `v` is unsettled and `d` is within the radius).
  bool Relax(NodeId v, double d) {
    if (d > radius_ || s_->settled.Contains(v)) {
      return false;
    }
    const double* t = s_->tentative.Find(v);
    if (t != nullptr && !(d < *t)) {
      return false;
    }
    s_->tentative.Set(v, d);
    s_->heap.push({d, v});
    return true;
  }

  /// δT: the distance of the next node to settle, or kInfDistance when the
  /// expansion is exhausted. Drops superseded heap entries. A superseded
  /// entry always belongs to a settled node: the improving entry is
  /// smaller, so it pops — and settles its node — first.
  double Frontier() {
    while (!s_->heap.empty()) {
      const auto& [d, v] = s_->heap.top();
      if (!s_->settled.Contains(v)) {
        return d;
      }
      s_->heap.pop();
    }
    return kInfDistance;
  }

  /// Settles the closest unsettled node into `*v`, `*d` and loads its
  /// adjacency(). Returns false when the expansion is exhausted or an
  /// earlier call failed. A call that fails — deadline expired, adjacency
  /// fetch error — still settles and returns its node, with an empty
  /// adjacency() and a non-OK status(); only the next call returns false.
  bool Settle(NodeId* v, double* d);

  /// The adjacency list of the node the last Settle() returned, a view
  /// into the context's memo arena. It stays valid until the next Settle()
  /// of any expansion on the same context (a memo miss may grow the
  /// arena), so finish the relax loop over one node before settling
  /// another.
  std::span<const AdjacentEdge> adjacency() const { return adjacency_; }

  /// Final distance of `v`, or kInfDistance while `v` is unsettled.
  double SettledDistance(NodeId v) const {
    const double* d = s_->settled.Find(v);
    return d == nullptr ? kInfDistance : *d;
  }

  /// Nodes settled since the last Seed().
  uint64_t settles() const { return settles_; }

  /// First error of this expansion: Cancelled on an expired deadline, or
  /// the adjacency fetch's IOError/Corruption. OK while healthy.
  const Status& status() const { return status_; }

 private:
  const CcamGraph* graph_;
  const double radius_;
  ExpansionScratch* s_;
  QueryContext* ctx_;
  std::span<const AdjacentEdge> adjacency_;
  uint64_t settles_ = 0;
  Status status_;
};

}  // namespace dsks

#endif  // DSKS_CORE_NETWORK_EXPANSION_H_
