#include "index/sif_group.h"

#include <algorithm>

namespace dsks {

SifGroupIndex::SifGroupIndex(BufferPool* pool, const ObjectSet& objects,
                             size_t vocab_size, size_t num_frequent_terms,
                             size_t min_postings)
    : SifIndex(pool, objects, vocab_size, min_postings) {
  // Rank keywords by posting count; the top x become the frequent set.
  std::vector<TermId> by_freq(vocab_size);
  for (TermId t = 0; t < vocab_size; ++t) by_freq[t] = t;
  std::sort(by_freq.begin(), by_freq.end(), [this](TermId a, TermId b) {
    return PostingCount(a) != PostingCount(b)
               ? PostingCount(a) > PostingCount(b)
               : a < b;
  });
  const size_t x = std::min(num_frequent_terms, by_freq.size());
  frequent_terms_.assign(by_freq.begin(), by_freq.begin() + x);
  std::sort(frequent_terms_.begin(), frequent_terms_.end());

  // For every edge, mark each frequent pair co-occurring inside a single
  // object.
  const RoadNetwork& net = objects.network();
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    for (ObjectId id : objects.ObjectsOnEdge(e)) {
      const auto& terms = objects.object(id).terms;
      std::vector<TermId> freq_terms;
      for (TermId t : terms) {
        if (std::binary_search(frequent_terms_.begin(), frequent_terms_.end(),
                               t)) {
          freq_terms.push_back(t);
        }
      }
      for (size_t i = 0; i < freq_terms.size(); ++i) {
        for (size_t j = i + 1; j < freq_terms.size(); ++j) {
          auto& edges = pair_edges_[PairKey(freq_terms[i], freq_terms[j])];
          if (edges.empty() || edges.back() != e) {
            edges.push_back(e);  // edge ids arrive in increasing order
          }
        }
      }
    }
  }
  for (const auto& [key, edges] : pair_edges_) {
    (void)key;
    pair_bytes_ += edges.size() * sizeof(EdgeId) + sizeof(uint64_t);
  }
}

uint64_t SifGroupIndex::EstimatePairListBytes(const ObjectSet& objects,
                                              size_t vocab_size,
                                              size_t num_frequent_terms) {
  std::vector<uint64_t> freq(vocab_size, 0);
  for (const auto& obj : objects.objects()) {
    for (TermId t : obj.terms) {
      ++freq[t];
    }
  }
  std::vector<TermId> by_freq(vocab_size);
  for (TermId t = 0; t < vocab_size; ++t) by_freq[t] = t;
  std::sort(by_freq.begin(), by_freq.end(), [&freq](TermId a, TermId b) {
    return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
  });
  const size_t x = std::min(num_frequent_terms, by_freq.size());
  std::vector<TermId> frequent(by_freq.begin(), by_freq.begin() + x);
  std::sort(frequent.begin(), frequent.end());

  // pair key -> (last edge added, list length).
  std::unordered_map<uint64_t, std::pair<EdgeId, uint64_t>> lists;
  const RoadNetwork& net = objects.network();
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    for (ObjectId id : objects.ObjectsOnEdge(e)) {
      const auto& terms = objects.object(id).terms;
      std::vector<TermId> freq_terms;
      for (TermId t : terms) {
        if (std::binary_search(frequent.begin(), frequent.end(), t)) {
          freq_terms.push_back(t);
        }
      }
      for (size_t i = 0; i < freq_terms.size(); ++i) {
        for (size_t j = i + 1; j < freq_terms.size(); ++j) {
          auto& entry = lists[PairKey(freq_terms[i], freq_terms[j])];
          if (entry.second == 0 || entry.first != e) {
            entry.first = e;
            ++entry.second;
          }
        }
      }
    }
  }
  uint64_t bytes = 0;
  for (const auto& [key, entry] : lists) {
    (void)key;
    bytes += entry.second * sizeof(EdgeId) + sizeof(uint64_t);
  }
  return bytes;
}

bool SifGroupIndex::CheckSignature(EdgeId edge, std::span<const TermId> terms,
                                   std::vector<PosRange>* ranges) {
  if (!SifIndex::CheckSignature(edge, terms, ranges)) {
    return false;
  }
  // Any indexed query-term pair whose list misses this edge disproves the
  // conjunction.
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      auto it = pair_edges_.find(PairKey(terms[i], terms[j]));
      if (it == pair_edges_.end()) {
        // Pair not indexed: no information unless both terms are frequent,
        // in which case the absence of the list means no edge carries both.
        const bool a_freq = std::binary_search(
            frequent_terms_.begin(), frequent_terms_.end(), terms[i]);
        const bool b_freq = std::binary_search(
            frequent_terms_.begin(), frequent_terms_.end(), terms[j]);
        if (a_freq && b_freq) {
          return false;
        }
        continue;
      }
      if (!std::binary_search(it->second.begin(), it->second.end(), edge)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace dsks
