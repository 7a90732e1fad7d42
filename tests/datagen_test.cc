#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>
#include <vector>

#include "common/random.h"

#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/dijkstra.h"
#include "gtest/gtest.h"
#include "text/term_stats.h"

namespace dsks {
namespace {

TEST(NetworkGeneratorTest, RespectsNodeAndEdgeTargets) {
  NetworkGenConfig c;
  c.num_nodes = 1000;
  c.edge_node_ratio = 1.5;
  c.seed = 1;
  auto net = GenerateRoadNetwork(c);
  // The grid rounds the node count; stay within 5%.
  EXPECT_NEAR(static_cast<double>(net->num_nodes()), 1000.0, 50.0);
  const double ratio = static_cast<double>(net->num_edges()) /
                       static_cast<double>(net->num_nodes());
  EXPECT_NEAR(ratio, 1.5, 0.1);
}

TEST(NetworkGeneratorTest, GraphIsConnected) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    NetworkGenConfig c;
    c.num_nodes = 400;
    c.edge_node_ratio = 1.05;  // sparsest setting
    c.seed = seed;
    auto net = GenerateRoadNetwork(c);
    const auto dist = DijkstraFromNode(*net, 0);
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      ASSERT_NE(dist[v], kInfDistance) << "node " << v << " unreachable";
    }
  }
}

TEST(NetworkGeneratorTest, CoordinatesInsideDataSpace) {
  NetworkGenConfig c;
  c.num_nodes = 500;
  c.seed = 9;
  auto net = GenerateRoadNetwork(c);
  for (const Node& n : net->nodes()) {
    EXPECT_GE(n.loc.x, 0.0);
    EXPECT_LE(n.loc.x, 10000.0);
    EXPECT_GE(n.loc.y, 0.0);
    EXPECT_LE(n.loc.y, 10000.0);
  }
}

TEST(NetworkGeneratorTest, DeterministicForSameSeed) {
  NetworkGenConfig c;
  c.num_nodes = 300;
  c.seed = 77;
  auto a = GenerateRoadNetwork(c);
  auto b = GenerateRoadNetwork(c);
  ASSERT_EQ(a->num_nodes(), b->num_nodes());
  ASSERT_EQ(a->num_edges(), b->num_edges());
  for (EdgeId e = 0; e < a->num_edges(); ++e) {
    EXPECT_EQ(a->edge(e).n1, b->edge(e).n1);
    EXPECT_EQ(a->edge(e).n2, b->edge(e).n2);
  }
}

TEST(ObjectGeneratorTest, ObjectsLieOnEdgesWithValidTerms) {
  NetworkGenConfig nc;
  nc.num_nodes = 200;
  nc.seed = 3;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 2000;
  oc.vocab_size = 100;
  oc.keywords_per_object = 5;
  oc.seed = 4;
  auto objects = GenerateObjects(*net, oc);
  ASSERT_EQ(objects->size(), 2000u);
  for (const auto& obj : objects->objects()) {
    ASSERT_LT(obj.edge, net->num_edges());
    EXPECT_GE(obj.offset, 0.0);
    EXPECT_LE(obj.offset, net->edge(obj.edge).length);
    EXPECT_EQ(obj.terms.size(), 5u);  // fixed count
    for (TermId t : obj.terms) {
      EXPECT_LT(t, 100u);
    }
  }
}

TEST(ObjectGeneratorTest, ZipfSkewShowsInTermFrequencies) {
  NetworkGenConfig nc;
  nc.num_nodes = 150;
  nc.seed = 5;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 4000;
  oc.vocab_size = 500;
  oc.keywords_per_object = 8;
  oc.zipf_z = 1.2;
  oc.seed = 6;
  auto objects = GenerateObjects(*net, oc);
  TermStats stats(*objects, 500);
  // The most frequent term dominates the median term by a wide margin.
  const TermId top = stats.ByFrequency().front();
  const TermId mid = stats.ByFrequency()[250];
  EXPECT_GT(stats.Frequency(top), 10 * std::max<uint64_t>(
                                           1, stats.Frequency(mid)));
}

TEST(ObjectGeneratorTest, TopicModelCreatesCoOccurrence) {
  NetworkGenConfig nc;
  nc.num_nodes = 200;
  nc.seed = 21;
  auto net = GenerateRoadNetwork(nc);

  ObjectGenConfig oc;
  oc.num_objects = 4000;
  oc.vocab_size = 800;
  oc.keywords_per_object = 6;
  oc.zipf_z = 1.0;
  oc.seed = 22;

  // Independent baseline.
  auto indep = GenerateObjects(*net, oc);
  // Topic-structured variant.
  oc.num_topics = 40;
  auto topical = GenerateObjects(*net, oc);

  // Co-occurrence metric: how many *other* objects satisfy a 3-keyword
  // conjunction drawn from a random object's keyword set? This is exactly
  // what conjunctive queries need; topic structure must raise it sharply.
  auto conjunction_matches = [](const ObjectSet& objects) {
    Random rng(23);
    uint64_t total = 0;
    for (int round = 0; round < 150; ++round) {
      const auto& src = objects.object(
          static_cast<ObjectId>(rng.Uniform(objects.size())));
      if (src.terms.size() < 3) continue;
      std::vector<TermId> terms(src.terms.begin(), src.terms.end());
      std::shuffle(terms.begin(), terms.end(), rng.engine());
      terms.resize(3);
      std::sort(terms.begin(), terms.end());
      for (const auto& obj : objects.objects()) {
        if (obj.id != src.id && objects.ObjectHasAllTerms(obj.id, terms)) {
          ++total;
        }
      }
    }
    return total;
  };
  const uint64_t topical_matches = conjunction_matches(*topical);
  const uint64_t indep_matches = conjunction_matches(*indep);
  EXPECT_GT(topical_matches, 3 * indep_matches + 50);
}

TEST(ObjectGeneratorTest, TopicModelClustersSpatially) {
  NetworkGenConfig nc;
  nc.num_nodes = 400;
  nc.seed = 24;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 6000;
  oc.vocab_size = 800;
  oc.keywords_per_object = 6;
  oc.num_topics = 40;
  oc.topic_spatial_coherence = 0.8;
  oc.seed = 25;
  auto objects = GenerateObjects(*net, oc);

  // Same-edge object pairs must share far more terms than random pairs.
  double same_edge = 0.0;
  size_t same_edge_pairs = 0;
  for (EdgeId e = 0; e < net->num_edges(); ++e) {
    const auto on_edge = objects->ObjectsOnEdge(e);
    for (size_t i = 0; i + 1 < on_edge.size() && i < 4; ++i) {
      const auto& a = objects->object(on_edge[i]);
      const auto& b = objects->object(on_edge[i + 1]);
      std::vector<TermId> common;
      std::set_intersection(a.terms.begin(), a.terms.end(), b.terms.begin(),
                            b.terms.end(), std::back_inserter(common));
      same_edge += static_cast<double>(common.size());
      ++same_edge_pairs;
    }
  }
  ASSERT_GT(same_edge_pairs, 100u);
  same_edge /= static_cast<double>(same_edge_pairs);

  Random rng(26);
  double random_pairs_shared = 0.0;
  const int pairs = 4000;
  for (int i = 0; i < pairs; ++i) {
    const auto& a = objects->object(
        static_cast<ObjectId>(rng.Uniform(objects->size())));
    const auto& b = objects->object(
        static_cast<ObjectId>(rng.Uniform(objects->size())));
    std::vector<TermId> common;
    std::set_intersection(a.terms.begin(), a.terms.end(), b.terms.begin(),
                          b.terms.end(), std::back_inserter(common));
    random_pairs_shared += static_cast<double>(common.size());
  }
  random_pairs_shared /= pairs;
  EXPECT_GT(same_edge, 1.5 * random_pairs_shared);
}

TEST(PresetsTest, ShapesMatchTable2) {
  const auto presets = AllPresets();
  ASSERT_EQ(presets.size(), 4u);
  const DatasetConfig na = PresetNA();
  const DatasetConfig tw = PresetTW();
  const DatasetConfig sf = PresetSF();
  // NA is the sparsest network; TW the densest and largest.
  EXPECT_LT(na.network.edge_node_ratio, sf.network.edge_node_ratio);
  EXPECT_GT(tw.network.edge_node_ratio, 2.0);
  EXPECT_GT(tw.network.num_nodes, na.network.num_nodes);
  // SF has the longest texts and smallest vocabulary (Table 2).
  EXPECT_GT(sf.objects.keywords_per_object, na.objects.keywords_per_object);
  EXPECT_LT(sf.objects.vocab_size, na.objects.vocab_size);
}

/// A hash of every generated object, in id order: its edge, the bits of
/// its offset and location, and its sorted terms.
uint64_t ObjectsFingerprint(const ObjectSet& objects) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  };
  mix(objects.size());
  for (const SpatioTextualObject& o : objects.objects()) {
    mix(o.edge);
    mix(std::bit_cast<uint64_t>(o.offset));
    mix(std::bit_cast<uint64_t>(o.loc.x));
    mix(std::bit_cast<uint64_t>(o.loc.y));
    mix(o.terms.size());
    for (const TermId t : o.terms) {
      mix(t);
    }
  }
  return h;
}

/// Pins the generator's output object for object: a change to the
/// placement, the topic model or the Zipf sampling that moves any object,
/// keyword or bit shows here, whatever the index and query tests see.
TEST(ObjectGeneratorTest, PresetFingerprintsArePinned) {
  struct Case {
    DatasetConfig config;
    double scale;
    size_t objects;
    uint64_t fingerprint;
  };
  const Case cases[] = {
      {PresetNA(), 0.05, 20000, 0x173D191E694C11FAULL},
      {PresetSF(), 0.05, 12750, 0x5512E86922063E5DULL},
      {PresetSYN(), 0.05, 10000, 0x61973CA66F92DE76ULL},
      {PresetTW(), 0.05, 22000, 0xC4FBB3EA15B067F3ULL},
      // The benchmark's dataset.
      {PresetNA(), 1.0, 400000, 0x3B5BCDE45BE173D8ULL},
  };
  for (const Case& c : cases) {
    const DatasetConfig config = c.scale == 1.0
                                     ? c.config
                                     : ScalePreset(c.config, c.scale);
    ASSERT_GT(config.objects.num_topics, 0u);  // the topic model is on
    const auto net = GenerateRoadNetwork(config.network);
    const auto objects = GenerateObjects(*net, config.objects);
    EXPECT_EQ(objects->size(), c.objects) << config.name << " " << c.scale;
    EXPECT_EQ(ObjectsFingerprint(*objects), c.fingerprint)
        << config.name << " at scale " << c.scale << ": 0x" << std::hex
        << ObjectsFingerprint(*objects);
  }
}

TEST(PresetsTest, ScalePresetShrinksCounts) {
  const DatasetConfig base = PresetSYN();
  const DatasetConfig small = ScalePreset(base, 0.1);
  EXPECT_LT(small.network.num_nodes, base.network.num_nodes);
  EXPECT_LT(small.objects.num_objects, base.objects.num_objects);
  EXPECT_GT(small.objects.vocab_size,
            small.objects.keywords_per_object * 2);
}

TEST(WorkloadTest, QueriesFollowTheSpec) {
  NetworkGenConfig nc;
  nc.num_nodes = 200;
  nc.seed = 8;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 3000;
  oc.vocab_size = 200;
  oc.keywords_per_object = 6;
  oc.seed = 9;
  auto objects = GenerateObjects(*net, oc);
  TermStats stats(*objects, 200);

  WorkloadConfig wc;
  wc.num_queries = 50;
  wc.num_keywords = 3;
  wc.seed = 10;
  const Workload wl = GenerateWorkload(*objects, stats, wc);
  ASSERT_EQ(wl.queries.size(), 50u);
  for (const auto& wq : wl.queries) {
    EXPECT_EQ(wq.sk.terms.size(), 3u);
    EXPECT_TRUE(std::is_sorted(wq.sk.terms.begin(), wq.sk.terms.end()));
    EXPECT_DOUBLE_EQ(wq.sk.delta_max, 1500.0);  // 500 * l
    ASSERT_LT(wq.sk.loc.edge, net->num_edges());
    EXPECT_EQ(wq.edge.edge, wq.sk.loc.edge);
    EXPECT_LT(wq.edge.n1, wq.edge.n2);
    EXPECT_GE(wq.edge.w1, 0.0);
    EXPECT_LE(wq.edge.w1, wq.edge.weight + 1e-9);
  }
}

TEST(WorkloadTest, FrequencyBiasedKeywordChoice) {
  NetworkGenConfig nc;
  nc.num_nodes = 150;
  nc.seed = 11;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 3000;
  oc.vocab_size = 300;
  oc.keywords_per_object = 6;
  oc.zipf_z = 1.1;
  oc.seed = 12;
  auto objects = GenerateObjects(*net, oc);
  TermStats stats(*objects, 300);
  WorkloadConfig wc;
  wc.num_queries = 400;
  wc.num_keywords = 1;
  wc.seed = 13;
  const Workload wl = GenerateWorkload(*objects, stats, wc);
  // The head term (rank 0) must appear far more often than a tail term.
  size_t head_hits = 0;
  size_t tail_hits = 0;
  const TermId head = stats.ByFrequency().front();
  const TermId tail = stats.ByFrequency()[250];
  for (const auto& wq : wl.queries) {
    head_hits += wq.sk.terms[0] == head ? 1 : 0;
    tail_hits += wq.sk.terms[0] == tail ? 1 : 0;
  }
  EXPECT_GT(head_hits, tail_hits + 5);
}

TEST(WorkloadTest, CoLocatedKeywordsAreSatisfiable) {
  NetworkGenConfig nc;
  nc.num_nodes = 150;
  nc.seed = 27;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 2000;
  oc.vocab_size = 400;
  oc.keywords_per_object = 6;
  oc.num_topics = 20;
  oc.seed = 28;
  auto objects = GenerateObjects(*net, oc);
  TermStats stats(*objects, 400);

  WorkloadConfig wc;
  wc.num_queries = 60;
  wc.num_keywords = 3;
  wc.keyword_source = KeywordSource::kCoLocatedObject;
  wc.seed = 29;
  const Workload wl = GenerateWorkload(*objects, stats, wc);
  for (const auto& wq : wl.queries) {
    // Some object (the co-located one) satisfies the whole conjunction.
    bool satisfiable = false;
    for (const auto& obj : objects->objects()) {
      if (objects->ObjectHasAllTerms(obj.id, wq.sk.terms)) {
        satisfiable = true;
        break;
      }
    }
    EXPECT_TRUE(satisfiable);
  }
}

TEST(WorkloadTest, GlobalFrequencyModeMatchesPaperSpec) {
  NetworkGenConfig nc;
  nc.num_nodes = 150;
  nc.seed = 30;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 2000;
  oc.vocab_size = 300;
  oc.keywords_per_object = 6;
  oc.seed = 31;
  auto objects = GenerateObjects(*net, oc);
  TermStats stats(*objects, 300);
  WorkloadConfig wc;
  wc.num_queries = 300;
  wc.num_keywords = 2;
  wc.keyword_source = KeywordSource::kGlobalFrequency;
  wc.seed = 32;
  const Workload wl = GenerateWorkload(*objects, stats, wc);
  // Terms are distinct, sorted, and biased toward the head.
  size_t head_hits = 0;
  const TermId head = stats.ByFrequency().front();
  for (const auto& wq : wl.queries) {
    ASSERT_EQ(wq.sk.terms.size(), 2u);
    EXPECT_NE(wq.sk.terms[0], wq.sk.terms[1]);
    head_hits += std::count(wq.sk.terms.begin(), wq.sk.terms.end(), head);
  }
  EXPECT_GT(head_hits, 10u);
}

TEST(WorkloadTest, DeltaMaxOverride) {
  NetworkGenConfig nc;
  nc.num_nodes = 100;
  nc.seed = 14;
  auto net = GenerateRoadNetwork(nc);
  ObjectGenConfig oc;
  oc.num_objects = 500;
  oc.vocab_size = 50;
  oc.keywords_per_object = 4;
  oc.seed = 15;
  auto objects = GenerateObjects(*net, oc);
  TermStats stats(*objects, 50);
  WorkloadConfig wc;
  wc.num_queries = 10;
  wc.delta_max_override = 777.0;
  wc.seed = 16;
  const Workload wl = GenerateWorkload(*objects, stats, wc);
  for (const auto& wq : wl.queries) {
    EXPECT_DOUBLE_EQ(wq.sk.delta_max, 777.0);
  }
}

}  // namespace
}  // namespace dsks
