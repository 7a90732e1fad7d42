#include "index/sif_partitioned.h"

#include <algorithm>

#include "common/macros.h"
#include "common/timer.h"

namespace dsks {

namespace {

/// An edge needs at least two objects before a cut can separate any.
constexpr size_t kMinObjectsToPartition = 2;

}  // namespace

SifPartitionedIndex::SifPartitionedIndex(BufferPool* pool,
                                         const ObjectSet& objects,
                                         size_t vocab_size,
                                         const SifPConfig& config,
                                         size_t min_postings)
    : SifIndex(pool, objects, vocab_size, min_postings) {
  DSKS_CHECK_MSG(config.log_provider != nullptr,
                 "SIF-P requires a query-log provider");
  const RoadNetwork& net = objects.network();

  // Pick the heavy edges: object count in the top heavy_edge_fraction.
  std::vector<std::pair<size_t, EdgeId>> by_count;
  by_count.reserve(net.num_edges());
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    const size_t m = objects.ObjectsOnEdge(e).size();
    if (m >= kMinObjectsToPartition) {
      by_count.emplace_back(m, e);
    }
  }
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  const size_t budget = static_cast<size_t>(
      static_cast<double>(net.num_edges()) * config.heavy_edge_fraction);
  const size_t num_heavy = std::min(by_count.size(), budget);

  Timer timer;
  for (size_t i = 0; i < num_heavy; ++i) {
    const EdgeId e = by_count[i].second;
    const auto on_edge = objects.ObjectsOnEdge(e);
    std::vector<std::vector<TermId>> term_sets;
    term_sets.reserve(on_edge.size());
    for (ObjectId id : on_edge) {
      const std::span<const TermId> terms = objects.object(id).terms;
      term_sets.emplace_back(terms.begin(), terms.end());  // already sorted
    }
    const std::vector<LogQuery> log = config.log_provider(e, term_sets);
    if (log.empty()) {
      continue;
    }
    EdgePartition partition =
        GreedyPartition(term_sets, log, config.max_cuts);
    if (partition.boundaries.empty()) {
      continue;  // no beneficial cut; plain SIF behaviour suffices
    }
    PartitionedEdge pe;
    pe.num_objects = static_cast<uint16_t>(term_sets.size());
    pe.ve_terms.resize(partition.num_virtual_edges());
    for (size_t v = 0; v < partition.num_virtual_edges(); ++v) {
      size_t start = 0;
      size_t end = 0;
      partition.Range(v, term_sets.size(), &start, &end);
      std::vector<TermId>& terms = pe.ve_terms[v];
      for (size_t o = start; o < end; ++o) {
        terms.insert(terms.end(), term_sets[o].begin(), term_sets[o].end());
      }
      std::sort(terms.begin(), terms.end());
      terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
      partition_bytes_ += terms.size() * sizeof(TermId);
    }
    partition_bytes_ += partition.boundaries.size() * sizeof(uint16_t);
    pe.partition = std::move(partition);
    partitions_.emplace(e, std::move(pe));
  }
  partition_build_millis_ = timer.ElapsedMillis();
}

bool SifPartitionedIndex::CheckSignature(EdgeId edge,
                                         std::span<const TermId> terms,
                                         std::vector<PosRange>* ranges) {
  // Global per-keyword signatures first (cheapest test).
  if (!SifIndex::CheckSignature(edge, terms, ranges)) {
    return false;
  }
  auto it = partitions_.find(edge);
  if (it == partitions_.end()) {
    return true;
  }
  const PartitionedEdge& pe = it->second;
  bool all_pass = true;
  std::vector<PosRange> passing;
  for (size_t v = 0; v < pe.partition.num_virtual_edges(); ++v) {
    const std::vector<TermId>& ve = pe.ve_terms[v];
    bool pass = true;
    for (TermId t : terms) {
      if (!std::binary_search(ve.begin(), ve.end(), t)) {
        pass = false;
        break;
      }
    }
    if (pass) {
      size_t start = 0;
      size_t end = 0;
      pe.partition.Range(v, pe.num_objects, &start, &end);
      passing.push_back(PosRange{static_cast<uint16_t>(start),
                                 static_cast<uint16_t>(end)});
    } else {
      all_pass = false;
    }
  }
  if (passing.empty()) {
    return false;  // every virtual edge fails: skip the edge entirely
  }
  if (!all_pass) {
    *ranges = std::move(passing);  // restrict loading to passing ranges
  }
  return true;
}

uint64_t SifPartitionedIndex::SummarySizeBytes() const {
  return SifIndex::SummarySizeBytes() + partition_bytes_;
}

}  // namespace dsks
