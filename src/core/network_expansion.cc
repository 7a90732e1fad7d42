#include "core/network_expansion.h"

#include <algorithm>
#include <span>

namespace dsks {

namespace {

/// Heap entries sampled per frontier prefetch. The read blocks the
/// caller, so the sample stays small.
constexpr size_t kFrontierSample = 16;

}  // namespace

void NetworkExpansion::Seed(NodeId n1, NodeId n2, double weight, double w1) {
  const size_t n = graph_->num_nodes();
  s_->tentative.EnsureSize(n);
  s_->settled.EnsureSize(n);
  ctx_->adjacency_memo.slice.EnsureSize(n);
  s_->tentative.Reset();
  s_->settled.Reset();
  s_->heap.clear();
  adjacency_ = {};
  settles_ = 0;
  status_ = Status::Ok();
  Relax(n1, w1);
  Relax(n2, weight - w1);
}

bool NetworkExpansion::Settle(NodeId* v, double* d) {
  if (!status_.ok()) {
    return false;
  }
  const double dist = Frontier();
  if (dist == kInfDistance) {
    return false;
  }
  const NodeId node = s_->heap.top().second;
  s_->heap.pop();
  s_->settled.Set(node, dist);
  *v = node;
  *d = dist;
  adjacency_ = {};
  if (++settles_ % kPollInterval == 0) {
    // One clock read per settle batch, never per node. The spans and I/O
    // recorded so far remain as the cancelled query's partial-work
    // account.
    if (ctx_->DeadlineExceeded()) {
      status_ = Status::Cancelled("query deadline exceeded during expansion");
      return true;
    }
    PrefetchFrontier();
  }
  AdjacencyMemo& memo = ctx_->adjacency_memo;
  if (const AdjacencyMemo::Slice* hit = memo.slice.Find(node)) {
    adjacency_ = {memo.arena.data() + hit->begin, hit->count};
    return true;
  }
  status_ = graph_->GetAdjacency(node, &memo.fetched);
  if (status_.ok()) {  // a failed fetch is not memoized
    const auto begin = static_cast<uint32_t>(memo.arena.size());
    const auto count = static_cast<uint32_t>(memo.fetched.size());
    memo.arena.insert(memo.arena.end(), memo.fetched.begin(),
                      memo.fetched.end());
    memo.slice.Set(node, {begin, count});
    adjacency_ = {memo.arena.data() + begin, count};
  }
  return true;
}

void NetworkExpansion::PrefetchFrontier() const {
  const std::vector<std::pair<double, uint32_t>>& heap = s_->heap.storage();
  const size_t n = std::min(heap.size(), kFrontierSample);
  NodeId nodes[kFrontierSample];
  for (size_t i = 0; i < n; ++i) {
    nodes[i] = heap[i].second;
  }
  graph_->PrefetchNodes(std::span<const NodeId>(nodes, n));
}

}  // namespace dsks
