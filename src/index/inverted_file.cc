#include "index/inverted_file.h"

#include <algorithm>

#include "common/flat_containers.h"
#include "common/macros.h"
#include "spatial/zorder.h"

namespace dsks {

namespace {

/// Query keywords one LoadObjects call resolves without allocating.
constexpr size_t kInlineTerms = 16;

/// How many objects ahead the build's edge walk prefetches an object; its
/// terms are prefetched half as far ahead, once the object is in cache.
constexpr size_t kWalkLookahead = 16;

}  // namespace

InvertedFileIndex::InvertedFileIndex(BufferPool* pool,
                                     const ObjectSet& objects,
                                     size_t vocab_size, RunEdges* run_edges)
    : pool_(pool) {
  const RoadNetwork& net = objects.network();
  DSKS_CHECK_MSG(objects.finalized(), "object set must be finalized");

  edge_zcode_.resize(net.num_edges());
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    edge_zcode_[e] = ZOrder::Encode(net.EdgeCenter(e));
  }

  // Every object, handed to `fn(edge, i, object)` edge by edge in id
  // order and, on an edge, in position order, where i is its index in
  // `walk`: a keyword's postings on one edge are met back to back, sorted
  // by position. The walk meets objects out of id order, so it prefetches
  // ahead of itself: each object, then its terms.
  const std::span<const ObjectId> walk = objects.ObjectsInEdgeOrder();
  auto for_each_object = [&](auto&& fn) {
    size_t i = 0;  // the walk's position in `walk`
    for (EdgeId e = 0; e < net.num_edges(); ++e) {
      const size_t end = i + objects.ObjectsOnEdge(e).size();
      for (; i < end; ++i) {
        if (i + kWalkLookahead < walk.size()) {
          __builtin_prefetch(&objects.object(walk[i + kWalkLookahead]));
        }
        if (i + kWalkLookahead / 2 < walk.size()) {
          __builtin_prefetch(
              objects.object(walk[i + kWalkLookahead / 2]).terms.data());
        }
        fn(e, i, objects.object(walk[i]));
      }
    }
  };

  // A counting sort of the postings into one keyword-major array holding
  // each posting as its object's index in `walk` (4 bytes). First count
  // each keyword's postings and runs; their prefix sums are the keyword's
  // slices.
  posting_count_.assign(vocab_size, 0);
  RunEdges runs;
  runs.offsets.assign(vocab_size + 1, 0);
  std::vector<EdgeId> last_edge(vocab_size, kInvalidEdgeId);
  for_each_object([&](EdgeId e, size_t, const SpatioTextualObject& obj) {
    for (const TermId t : obj.terms) {
      ++posting_count_[t];
      if (last_edge[t] != e) {
        last_edge[t] = e;
        ++runs.offsets[t + 1];
      }
    }
  });
  std::vector<size_t> slice(vocab_size + 1, 0);
  for (TermId t = 0; t < vocab_size; ++t) {
    slice[t + 1] = slice[t] + posting_count_[t];
    runs.offsets[t + 1] += runs.offsets[t];
  }
  const size_t num_runs = runs.offsets[vocab_size];
  // Then place each posting in its keyword's slice, recording each run's
  // edge as the run starts, and each object's w1 once.
  std::vector<uint32_t> postings(slice[vocab_size]);
  std::vector<double> w1(walk.size());
  runs.edges.resize(num_runs);
  std::vector<size_t> next_posting(slice.begin(), slice.end() - 1);
  std::vector<size_t> next_run(runs.offsets.begin(), runs.offsets.end() - 1);
  std::fill(last_edge.begin(), last_edge.end(), kInvalidEdgeId);
  for_each_object([&](EdgeId e, size_t i, const SpatioTextualObject& obj) {
    w1[i] = net.WeightFromN1(e, obj.offset);
    for (const TermId t : obj.terms) {
      if (last_edge[t] != e) {
        last_edge[t] = e;
        runs.edges[next_run[t]++] = e;
      }
      postings[next_posting[t]++] = static_cast<uint32_t>(i);
    }
  });

  // Phase 1: append every posting run, in keyword order, then edge order
  // (a run's pages must be contiguous, so nothing else allocates
  // meanwhile). A run is the stretch of its keyword's slice whose walk
  // indexes lie on the run's edge; a keyword's run ends where the walk
  // moved that keyword to another edge, never at another keyword's run on
  // the same edge. It is decoded into `entries` as it is written.
  postings_ = std::make_unique<PostingFile>(pool_);
  std::vector<PostingFile::Locator> locators(num_runs);
  std::vector<PostingFile::Entry> entries;
  size_t next = 0;  // the first posting not yet written
  for (TermId t = 0; t < vocab_size; ++t) {
    for (size_t r = runs.offsets[t]; r < runs.offsets[t + 1]; ++r) {
      const EdgeId e = runs.edges[r];
      const std::span<const ObjectId> on_edge = objects.ObjectsOnEdge(e);
      const auto first = static_cast<size_t>(on_edge.data() - walk.data());
      const size_t end = first + on_edge.size();
      entries.clear();
      for (; next < slice[t + 1] && postings[next] < end; ++next) {
        const uint32_t i = postings[next];
        entries.push_back(PostingFile::Entry{
            walk[i], static_cast<uint16_t>(i - first), w1[i]});
      }
      locators[r] = postings_->AppendRun(entries);
    }
  }
  DSKS_CHECK_MSG(next == postings.size(), "postings outside every run");
  postings_->Finish();
  // The B+trees need only the run edges and locators.
  postings = std::vector<uint32_t>();
  w1 = std::vector<double>();

  // Phase 2: one B+tree per keyword mapping edge keys to run locators,
  // bulk loaded from the keyword's sorted edge-key list.
  term_roots_.assign(vocab_size, kInvalidPageId);
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (TermId t = 0; t < vocab_size; ++t) {
    if (runs.offsets[t] == runs.offsets[t + 1]) {
      continue;
    }
    pairs.clear();
    pairs.reserve(runs.offsets[t + 1] - runs.offsets[t]);
    for (size_t run = runs.offsets[t]; run < runs.offsets[t + 1]; ++run) {
      const EdgeId edge = runs.edges[run];
      pairs.emplace_back(EdgeKey(edge_zcode_[edge], edge), locators[run]);
    }
    std::sort(pairs.begin(), pairs.end());
    BPlusTree tree = BPlusTree::BulkLoad(pool_, pairs);
    term_roots_[t] = tree.root();
    btree_pages_ += tree.num_pages();
  }
  directory_bytes_ = term_roots_.size() * sizeof(PageId) +
                     edge_zcode_.size() * sizeof(uint64_t);
  if (run_edges != nullptr) {
    *run_edges = std::move(runs);
  }
}

Status InvertedFileIndex::FindRun(
    TermId t, EdgeId edge, std::optional<PostingFile::Locator>* loc) const {
  loc->reset();
  if (t >= term_roots_.size() || term_roots_[t] == kInvalidPageId) {
    return Status::Ok();
  }
  BPlusTree tree(pool_, term_roots_[t]);
  return tree.Get(EdgeKey(edge_zcode_[edge], edge), loc);
}

Status InvertedFileIndex::LoadObjects(EdgeId edge,
                                      std::span<const TermId> terms,
                                      std::vector<LoadedObject>* out) {
  out->clear();
  DSKS_CHECK_MSG(!terms.empty(), "query must have at least one keyword");
  ++stats_.edges_probed;

  std::vector<PosRange> ranges;
  if (!CheckSignature(edge, terms, &ranges)) {
    ++stats_.edges_skipped_by_signature;
    return Status::Ok();
  }
  auto in_ranges = [&ranges](uint16_t pos) {
    if (ranges.empty()) {
      return true;
    }
    for (const PosRange& r : ranges) {
      if (pos >= r.start && pos < r.end) {
        return true;
      }
    }
    return false;
  };

  // Resolve every term's run locator up front. With prefetching enabled
  // the per-keyword B+trees are descended in lockstep — one batched read
  // per level instead of one blocking miss per tree per level — and the
  // surviving runs' pages are pulled in a single speculative batch so the
  // run reads below hit the pool. With prefetching disabled this is the
  // classic one-tree-at-a-time probe with identical read counts.
  InlineArray<std::optional<PostingFile::Locator>, kInlineTerms> locs(
      terms.size());
  if (pool_->prefetch_enabled() && terms.size() > 1) {
    InlineArray<PageId, kInlineTerms> roots(terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      roots[i] = terms[i] < term_roots_.size() ? term_roots_[terms[i]]
                                               : kInvalidPageId;
    }
    DSKS_RETURN_IF_ERROR(BPlusTree::MultiGet(
        pool_, roots.span(), EdgeKey(edge_zcode_[edge], edge), locs.span()));
    // Prefetch only the prefix up to the first absent term: the
    // intersection loop below stops there, and runs past it are never
    // read.
    InlineArray<PostingFile::Locator, kInlineTerms> present(terms.size());
    size_t num_present = 0;
    while (num_present < terms.size() && locs[num_present].has_value()) {
      present[num_present] = *locs[num_present];
      ++num_present;
    }
    if (num_present > 1) {
      postings_->PrefetchRuns(present.span().first(num_present));
    }
  } else {
    for (size_t i = 0; i < terms.size(); ++i) {
      DSKS_RETURN_IF_ERROR(FindRun(terms[i], edge, &locs[i]));
      if (!locs[i].has_value()) {
        break;  // the intersection is already empty; skip the other trees
      }
    }
  }

  // Intersect by position (positions are unique per edge, and every run is
  // sorted by position) in place, straight off the pinned posting pages:
  // the first run's in-range entries become `out`, and each later run
  // compacts `out` to the candidates it also holds.
  uint64_t loaded_here = 0;
  for (size_t t = 0; t < terms.size(); ++t) {
    if (!locs[t].has_value()) {
      out->clear();
      break;
    }
    if (t == 0) {
      DSKS_RETURN_IF_ERROR(postings_->ForEachEntry(
          *locs[t], [&](const PostingFile::Entry& e) {
            if (in_ranges(e.pos)) {
              ++loaded_here;
              out->push_back(LoadedObject{e.object, e.pos, e.w1});
            }
          }));
    } else {
      LoadedObject* candidates = out->data();
      const size_t num_candidates = out->size();
      size_t next = 0;  // first candidate not yet passed by the run
      size_t kept = 0;
      DSKS_RETURN_IF_ERROR(postings_->ForEachEntry(
          *locs[t], [&](const PostingFile::Entry& e) {
            if (!in_ranges(e.pos)) {
              return;
            }
            ++loaded_here;
            while (next < num_candidates && candidates[next].pos < e.pos) {
              ++next;
            }
            if (next < num_candidates && candidates[next].pos == e.pos) {
              candidates[kept++] = candidates[next++];
            }
          }));
      out->resize(kept);
    }
    if (out->empty()) {
      break;
    }
  }

  stats_.objects_loaded += loaded_here;
  if (out->empty()) {
    if (loaded_here > 0) {
      ++stats_.false_hits;
      stats_.false_hit_objects += loaded_here;
    }
    return Status::Ok();
  }
  stats_.objects_returned += out->size();
  return Status::Ok();
}

uint64_t InvertedFileIndex::SizeBytes() const {
  return (postings_->num_pages() + btree_pages_) * kPageSize +
         directory_bytes_ + SummarySizeBytes();
}

}  // namespace dsks
