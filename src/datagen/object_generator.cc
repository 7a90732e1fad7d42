#include "datagen/object_generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/macros.h"
#include "spatial/zorder.h"
#include "text/zipf.h"

namespace dsks {

namespace {

/// Deterministic topic of a map cell: hash the cell, then push the hash
/// through the topic-popularity Zipf so popular topics own more cells.
size_t CellTopic(size_t cx, size_t cy, const ZipfSampler& topic_zipf,
                 uint64_t seed) {
  uint64_t h = seed ^ (cx * 0x9E3779B97F4A7C15ULL) ^
               (cy * 0xC2B2AE3D27D4EB4FULL);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  Random rng(h);
  return topic_zipf.Sample(&rng);
}

}  // namespace

std::unique_ptr<ObjectSet> GenerateObjects(const RoadNetwork& network,
                                           const ObjectGenConfig& config) {
  DSKS_CHECK_MSG(network.finalized(), "network must be finalized");
  DSKS_CHECK_MSG(config.vocab_size > config.keywords_per_object * 2,
                 "vocabulary too small for the keyword count");
  Random rng(config.seed);
  auto objects = std::make_unique<ObjectSet>(&network);

  // Cumulative edge lengths for uniform-along-the-network placement.
  std::vector<double> cum_length(network.num_edges());
  double total = 0.0;
  for (EdgeId e = 0; e < network.num_edges(); ++e) {
    total += network.edge(e).length;
    cum_length[e] = total;
  }

  ZipfSampler global_zipf(config.vocab_size, config.zipf_z);

  // Topic machinery (unused when num_topics == 0).
  const size_t num_topics = std::min(config.num_topics,
                                     config.vocab_size /
                                         (config.keywords_per_object + 1));
  const size_t block =
      num_topics == 0 ? 0 : config.vocab_size / num_topics;
  std::unique_ptr<ZipfSampler> topic_zipf;
  std::unique_ptr<ZipfSampler> block_zipf;
  if (num_topics > 0) {
    topic_zipf = std::make_unique<ZipfSampler>(num_topics,
                                               config.topic_zipf_z);
    block_zipf = std::make_unique<ZipfSampler>(block, config.zipf_z);
  }
  const size_t grid = std::max<size_t>(1, config.topic_cell_grid);
  const double cell_width =
      (ZOrder::kSpaceMax - ZOrder::kSpaceMin) / static_cast<double>(grid);
  // Each cell's topic, computed once: generated coordinates lie in
  // [kSpaceMin, kSpaceMax], so the cell index takes grid + 1 values per
  // axis. A cell outside the table (a network with coordinates outside that
  // range) computes its topic itself.
  const size_t table_side = grid + 1;
  std::vector<size_t> cell_topic;
  if (num_topics > 0) {
    cell_topic.resize(table_side * table_side);
    for (size_t cy = 0; cy < table_side; ++cy) {
      for (size_t cx = 0; cx < table_side; ++cx) {
        cell_topic[cy * table_side + cx] =
            CellTopic(cx, cy, *topic_zipf, config.seed);
      }
    }
  }

  // At most this many keywords per object, so the term array never grows.
  const size_t max_count = config.fixed_keyword_count
                               ? config.keywords_per_object
                               : std::max<size_t>(
                                     1, config.keywords_per_object * 3 / 2);
  objects->Reserve(config.num_objects, config.num_objects * max_count);

  std::vector<TermId> terms;
  for (size_t i = 0; i < config.num_objects; ++i) {
    const double u = rng.NextDouble() * total;
    const auto it =
        std::lower_bound(cum_length.begin(), cum_length.end(), u);
    const EdgeId e = static_cast<EdgeId>(it - cum_length.begin());
    const double offset = rng.NextDouble() * network.edge(e).length;

    size_t count = config.keywords_per_object;
    if (!config.fixed_keyword_count) {
      // Cheap Poisson-ish spread: uniform around the mean.
      const auto lo = static_cast<int64_t>(config.keywords_per_object / 2);
      const auto hi =
          static_cast<int64_t>(config.keywords_per_object * 3 / 2);
      count = static_cast<size_t>(std::max<int64_t>(1, rng.UniformRange(lo, hi)));
    }

    // Topic of this object: usually the cell's topic (spatial clustering
    // of related businesses), sometimes an independent draw.
    size_t topic = 0;
    if (num_topics > 0) {
      if (rng.NextDouble() < config.topic_spatial_coherence) {
        const Point p = network.PointOnEdge(e, offset);
        const auto cx = static_cast<size_t>((p.x - ZOrder::kSpaceMin) /
                                            cell_width);
        const auto cy = static_cast<size_t>((p.y - ZOrder::kSpaceMin) /
                                            cell_width);
        topic = cx < table_side && cy < table_side
                    ? cell_topic[cy * table_side + cx]
                    : CellTopic(cx, cy, *topic_zipf, config.seed);
      } else {
        topic = topic_zipf->Sample(&rng);
      }
    }

    terms.clear();
    size_t attempts = 0;
    while (terms.size() < count && attempts < count * 64) {
      ++attempts;
      TermId t;
      if (num_topics > 0 && rng.NextDouble() < config.topic_affinity) {
        t = static_cast<TermId>(topic * block + block_zipf->Sample(&rng));
      } else {
        t = static_cast<TermId>(global_zipf.Sample(&rng));
      }
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    ObjectId id;
    DSKS_CHECK(objects->Add(e, offset, terms, &id).ok());
  }
  objects->Finalize();
  return objects;
}

}  // namespace dsks
