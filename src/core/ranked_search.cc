#include "core/ranked_search.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "common/macros.h"

namespace dsks {

Status BooleanKnnSearch(const CcamGraph* graph, ObjectIndex* index,
                        const SkQuery& query,
                        const QueryEdgeInfo& query_edge, size_t k,
                        std::vector<SkResult>* out, QueryContext* ctx) {
  out->clear();
  IncrementalSkSearch search(graph, index, query, query_edge, ctx);
  SkResult r;
  while (out->size() < k && search.Next(&r)) {
    out->push_back(r);
  }
  return search.status();
}

namespace {

/// The index under OR semantics: the objects of an edge that carry at
/// least one of the query's keywords, each once, sorted by position. It
/// makes one single-keyword LoadObjects probe per keyword, in keyword
/// order, and counts in `matched` how many keywords each object carries.
/// An object lies on one edge, so the counts of one query never mix.
class OrView final : public ObjectIndex {
 public:
  /// Starts a query: forgets the previous query's counts.
  OrView(ObjectIndex* index, SkSearchScratch* scratch)
      : index_(index), s_(scratch) {
    s_->matched.clear();
  }

  Status LoadObjects(EdgeId edge, std::span<const TermId> terms,
                     std::vector<LoadedObject>* out) override {
    out->clear();
    for (const TermId t : terms) {
      const TermId single[1] = {t};
      DSKS_RETURN_IF_ERROR(
          index_->LoadObjects(edge, single, &s_->keyword_objects));
      for (const LoadedObject& o : s_->keyword_objects) {
        auto [count, first] = s_->matched.try_emplace(o.id, 0u);
        if (first) {
          out->push_back(o);
        }
        ++*count;
      }
    }
    std::sort(out->begin(), out->end(),
              [](const LoadedObject& a, const LoadedObject& b) {
                return a.pos < b.pos;
              });
    return Status::Ok();
  }

  /// Keywords object `id` carries, of those of the query; `id` was loaded.
  uint32_t Matched(ObjectId id) const { return s_->matched.at(id); }

  uint64_t SizeBytes() const override { return index_->SizeBytes(); }
  std::string name() const override { return index_->name(); }

 private:
  ObjectIndex* index_;
  SkSearchScratch* s_;
};

}  // namespace

Status RankedSkSearch(const CcamGraph* graph, ObjectIndex* index,
                      const RankedQuery& query,
                      const QueryEdgeInfo& query_edge,
                      std::vector<RankedResult>* out,
                      RankedSearchStats* stats, QueryContext* ctx) {
  out->clear();
  const double delta_max = query.sk.delta_max;
  const double alpha = query.alpha;
  const auto num_terms = static_cast<double>(query.sk.terms.size());
  DSKS_CHECK_MSG(query.k > 0, "ranked query needs k > 0");
  std::unique_ptr<QueryContext> owned_ctx;
  ctx = ContextOrOwned(ctx, &owned_ctx);
  OrView or_view(index, &ctx->sk_search);
  IncrementalSkSearch search(graph, &or_view, query.sk, query_edge, ctx);

  // The top-k, kept in `*out` as a max-heap over scores (worst on top).
  auto better = [](const RankedResult& a, const RankedResult& b) {
    return a.score != b.score ? a.score < b.score : a.id < b.id;
  };
  RankedSearchStats local_stats;
  SkResult o;
  while (true) {
    // Objects arrive final, in distance order and within δmax.
    while (search.PopFinalized(&o)) {
      ++local_stats.objects_scored;
      RankedResult r;
      r.id = o.id;
      r.dist = o.dist;
      r.matched = or_view.Matched(o.id);
      r.score = alpha * (o.dist / delta_max) +
                (1.0 - alpha) *
                    (1.0 - static_cast<double>(r.matched) / num_terms);
      if (out->size() < query.k) {
        out->push_back(r);
        std::push_heap(out->begin(), out->end(), better);
      } else if (better(r, out->front())) {
        std::pop_heap(out->begin(), out->end(), better);
        out->back() = r;
        std::push_heap(out->begin(), out->end(), better);
      }
    }
    // Threshold termination: no unemitted object can have distance below
    // δT, hence no score below α·δT/δmax.
    const double delta_t = search.Frontier();
    if (out->size() == query.k &&
        alpha * (delta_t / delta_max) > out->front().score) {
      local_stats.early_terminated = true;
      break;
    }
    // Exhausted (tested first, as Next() does, so that no empty settle
    // span is traced), or a storage error or cancellation.
    if (delta_t == kInfDistance || !search.ExpandOneNode()) {
      break;
    }
  }
  local_stats.nodes_settled = search.stats().nodes_settled;

  if (stats != nullptr) {
    *stats = local_stats;
  }
  if (!search.status().ok()) {
    out->clear();
    return search.status();
  }
  std::sort(out->begin(), out->end(), better);
  return Status::Ok();
}

}  // namespace dsks
