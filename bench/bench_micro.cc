// Micro-benchmarks (google-benchmark) for the building blocks: Z-order
// encoding, Dijkstra, buffer-pool hits and evicting misses, CCAM adjacency
// loads, B+tree lookups, signature tests, LoadObjects, core-pair
// maintenance, the full SK search, the flat hot-path containers, the
// pairwise distance oracle strategies, a whole-network COM query, and two
// setup steps on the golden dataset: object generation and the SIF build.
//
// Results are written to BENCH_micro.json (google-benchmark JSON format)
// in the working directory, alongside the usual console table.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/flat_containers.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/core_pairs.h"
#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "graph/dijkstra.h"
#include "harness/database.h"
#include "index/sif.h"
#include "spatial/zorder.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/term_stats.h"

namespace dsks {
namespace {

/// Shared medium-size fixture, built once.
struct World {
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objects;
  DiskManager disk;
  std::unique_ptr<BufferPool> pool;
  CcamFile ccam;
  std::unique_ptr<CcamGraph> graph;
  std::unique_ptr<SifIndex> index;

  World() {
    NetworkGenConfig nc;
    nc.num_nodes = 4000;
    nc.seed = 1;
    net = GenerateRoadNetwork(nc);
    ObjectGenConfig oc;
    oc.num_objects = 40000;
    oc.vocab_size = 2000;
    oc.keywords_per_object = 8;
    oc.seed = 2;
    objects = GenerateObjects(*net, oc);
    pool = std::make_unique<BufferPool>(&disk, 1u << 16);
    ccam = CcamFileBuilder::Build(*net, &disk);
    graph = std::make_unique<CcamGraph>(&ccam, pool.get());
    index = std::make_unique<SifIndex>(pool.get(), *objects, 2000, 1);
  }
};

World& TheWorld() {
  static World* world = new World();
  return *world;
}

void BM_ZOrderEncode(benchmark::State& state) {
  Random rng(3);
  std::vector<Point> points(1024);
  for (auto& p : points) {
    p = {rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZOrder::Encode(points[i++ & 1023]));
  }
}
BENCHMARK(BM_ZOrderEncode);

void BM_DijkstraFullNetwork(benchmark::State& state) {
  World& w = TheWorld();
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DijkstraFromNode(*w.net, src));
    src = (src + 97) % w.net->num_nodes();
  }
}
BENCHMARK(BM_DijkstraFullNetwork);

void BM_BoundedDijkstra(benchmark::State& state) {
  World& w = TheWorld();
  const double radius = static_cast<double>(state.range(0));
  EdgeId e = 0;
  for (auto _ : state) {
    NetworkLocation loc{e, w.net->edge(e).length / 2.0};
    benchmark::DoNotOptimize(BoundedDijkstraFromLocation(*w.net, loc, radius));
    e = (e + 131) % w.net->num_edges();
  }
}
BENCHMARK(BM_BoundedDijkstra)->Arg(500)->Arg(1500)->Arg(3000);

/// Allocates `n` pages on `disk` and writes each once, as the index
/// builders do, so every page has a recorded checksum.
void WritePages(DiskManager* disk, size_t n) {
  std::vector<char> page(kPageSize);
  for (size_t i = 0; i < n; ++i) {
    std::memset(page.data(), static_cast<int>(i), kPageSize);
    const Status s = disk->WritePage(disk->AllocatePage(), page.data());
    DSKS_CHECK_MSG(s.ok(), "bench page write failed");
  }
}

/// FetchPage + UnpinPage of `id`; false (and the benchmark skipped) on a
/// read error.
bool FetchUnpin(benchmark::State& state, BufferPool* pool, PageId id) {
  char* data = nullptr;
  if (!pool->FetchPage(id, &data).ok()) {
    state.SkipWithError("FetchPage failed");
    return false;
  }
  benchmark::DoNotOptimize(data[0]);
  pool->UnpinPage(id, /*dirty=*/false);
  return true;
}

// The pool's hit path: every page is resident.
void BM_BufferPoolFetchHit(benchmark::State& state) {
  constexpr PageId kPages = 256;
  DiskManager disk;
  WritePages(&disk, kPages);
  BufferPool pool(&disk, kPages);
  for (PageId id = 0; id < kPages; ++id) {
    if (!FetchUnpin(state, &pool, id)) {
      return;
    }
  }
  PageId id = 0;
  for (auto _ : state) {
    if (!FetchUnpin(state, &pool, id)) {
      break;
    }
    id = (id + 61) % kPages;
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

// The pool's miss path: cycling through four times as many pages as the
// pool holds makes every fetch a miss that evicts, read from the sim
// backend with no simulated delay (CRC check included; the sim backend
// lends its page to the pool instead of copying it).
void BM_BufferPoolMissEvict(benchmark::State& state) {
  constexpr PageId kPages = 1024;
  DiskManager disk;
  disk.set_read_delay_us(0);
  WritePages(&disk, kPages);
  BufferPool pool(&disk, kPages / 4);
  PageId id = 0;
  for (auto _ : state) {
    if (!FetchUnpin(state, &pool, id)) {
      break;
    }
    id = (id + 1) % kPages;
  }
}
BENCHMARK(BM_BufferPoolMissEvict);

void BM_CcamAdjacency(benchmark::State& state) {
  World& w = TheWorld();
  std::vector<AdjacentEdge> adj;
  NodeId v = 0;
  for (auto _ : state) {
    w.graph->GetAdjacency(v, &adj);
    benchmark::DoNotOptimize(adj.size());
    v = (v + 61) % w.net->num_nodes();
  }
}
BENCHMARK(BM_CcamAdjacency);

void BM_BPlusTreeGet(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 1u << 14);
  const uint64_t n = 100000;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    pairs.emplace_back(k * 7, k);
  }
  const BPlusTree tree = BPlusTree::BulkLoad(&pool, pairs);
  Random rng(4);
  std::optional<uint64_t> value;
  for (auto _ : state) {
    const Status s = tree.Get(rng.Uniform(n) * 7, &value);
    benchmark::DoNotOptimize(s.ok());
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_SignatureTest(benchmark::State& state) {
  World& w = TheWorld();
  const SignatureFile& sig = w.index->signature();
  Random rng(5);
  for (auto _ : state) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(w.net->num_edges()));
    const TermId t = static_cast<TermId>(rng.Uniform(2000));
    benchmark::DoNotOptimize(sig.Test(e, t));
  }
}
BENCHMARK(BM_SignatureTest);

void BM_LoadObjects(benchmark::State& state) {
  World& w = TheWorld();
  Random rng(6);
  std::vector<LoadedObject> out;
  const std::vector<TermId> terms = {0, 1, 5};
  for (auto _ : state) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(w.net->num_edges()));
    w.index->LoadObjects(e, terms, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_LoadObjects);

void BM_SkSearchQuery(benchmark::State& state) {
  World& w = TheWorld();
  TermStats stats(*w.objects, 2000);
  WorkloadConfig wc;
  wc.num_queries = 64;
  wc.num_keywords = 3;
  wc.seed = 7;
  const Workload wl = GenerateWorkload(*w.objects, stats, wc);
  // One reused context, as every executor worker keeps.
  QueryContext ctx;
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadQuery& wq = wl.queries[i++ % wl.queries.size()];
    IncrementalSkSearch search(w.graph.get(), w.index.get(), wq.sk, wq.edge,
                               &ctx);
    SkResult r;
    size_t count = 0;
    while (search.Next(&r)) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SkSearchQuery);

void BM_CorePairUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(8);
  std::vector<std::vector<double>> theta(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      theta[i][j] = theta[j][i] = rng.NextDouble();
    }
  }
  const ThetaFn fn = [&theta](const SkResult& a, const SkResult& b) {
    return theta[a.id][b.id];
  };
  // Only the id matters to `fn`.
  std::vector<SkResult> objects(n);
  for (ObjectId id = 0; id < n; ++id) {
    objects[id].id = id;
  }
  // Greedy pairs over the first ten objects (Algorithm 1 reference).
  auto greedy_init = [&theta]() {
    std::vector<ScoredPair> pairs;
    std::vector<ObjectId> remaining;
    for (ObjectId id = 0; id < 10; ++id) remaining.push_back(id);
    while (pairs.size() < 5) {
      ScoredPair best;
      bool found = false;
      ObjectId bi = 0;
      ObjectId bj = 0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        for (size_t j = i + 1; j < remaining.size(); ++j) {
          const ScoredPair sp = ScoredPair::Make(
              theta[remaining[i]][remaining[j]], remaining[i], remaining[j]);
          if (!found || sp.Better(best)) {
            found = true;
            best = sp;
            bi = remaining[i];
            bj = remaining[j];
          }
        }
      }
      pairs.push_back(best);
      std::erase(remaining, bi);
      std::erase(remaining, bj);
    }
    return pairs;
  };
  for (auto _ : state) {
    CorePairSet cp(5);
    cp.Init(greedy_init());
    for (size_t seen = 11; seen <= n; ++seen) {
      const std::span<const SkResult> prefix(objects.data(), seen);
      cp.OnArrival(prefix.back(), prefix, fn);
    }
    benchmark::DoNotOptimize(cp.threshold().theta);
  }
}
BENCHMARK(BM_CorePairUpdate)->Arg(50)->Arg(200);

/// The per-query fill-then-probe cycle of hot-path maps: insert `n` keys
/// into a cleared-but-warm map, probe them all, clear. Paired with
/// BM_UnorderedMapCycle below to show what the flat map buys.
void BM_FlatHashMapCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(9);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    k = rng.Uniform(1u << 30);
  }
  FlatHashMap<uint64_t, double> map;
  for (auto _ : state) {
    map.clear();
    for (uint64_t k : keys) {
      map.try_emplace(k, 1.0);
    }
    double sum = 0.0;
    for (uint64_t k : keys) {
      sum += *map.find(k);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_FlatHashMapCycle)->Arg(64)->Arg(512)->Arg(4096);

void BM_UnorderedMapCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(9);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    k = rng.Uniform(1u << 30);
  }
  std::unordered_map<uint64_t, double> map;
  for (auto _ : state) {
    map.clear();
    for (uint64_t k : keys) {
      map.try_emplace(k, 1.0);
    }
    double sum = 0.0;
    for (uint64_t k : keys) {
      sum += map.find(k)->second;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_UnorderedMapCycle)->Arg(64)->Arg(512)->Arg(4096);

/// Sparse per-query use of a num_nodes-sized tentative-distance array:
/// touch 256 of 65536 slots, then Reset(). The O(1) epoch reset is what
/// makes this shape affordable compared to refilling a dense vector.
void BM_EpochArrayCycle(benchmark::State& state) {
  const size_t n = 65536;
  EpochArray<double> arr;
  arr.EnsureSize(n);
  Random rng(10);
  std::vector<uint32_t> idx(256);
  for (auto& i : idx) {
    i = static_cast<uint32_t>(rng.Uniform(n));
  }
  for (auto _ : state) {
    arr.Reset();
    for (uint32_t i : idx) {
      arr.Set(i, 1.5);
    }
    double sum = 0.0;
    for (uint32_t i : idx) {
      const double* v = arr.Find(i);
      if (v != nullptr) {
        sum += *v;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EpochArrayCycle);

/// Same sparse cycle through a dense vector that must be refilled per
/// query — the cost EpochArray::Reset avoids.
void BM_DenseVectorRefillCycle(benchmark::State& state) {
  const size_t n = 65536;
  std::vector<double> arr(n);
  Random rng(10);
  std::vector<uint32_t> idx(256);
  for (auto& i : idx) {
    i = static_cast<uint32_t>(rng.Uniform(n));
  }
  for (auto _ : state) {
    std::fill(arr.begin(), arr.end(), -1.0);
    for (uint32_t i : idx) {
      arr[i] = 1.5;
    }
    double sum = 0.0;
    for (uint32_t i : idx) {
      sum += arr[i];
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DenseVectorRefillCycle);

/// Full diversified COM query through the pairwise oracle, comparing the
/// shared-expansion strategy (range(1) == 0) against per-object Dijkstra
/// (range(1) == 1) at k in {5, 10, 20}. Counters expose the per-object
/// field expansions — the quantity the shared strategy exists to shrink —
/// and the certified-pair ratio.
void BM_DivComOracle(benchmark::State& state) {
  World& w = TheWorld();
  const size_t k = static_cast<size_t>(state.range(0));
  const OracleStrategy strategy = state.range(1) == 0
                                      ? OracleStrategy::kSharedExpansion
                                      : OracleStrategy::kPerObjectDijkstra;
  TermStats stats(*w.objects, 2000);
  WorkloadConfig wc;
  wc.num_queries = 32;
  wc.num_keywords = 3;
  wc.seed = 11;
  const Workload wl = GenerateWorkload(*w.objects, stats, wc);
  QueryContext ctx;
  uint64_t fields = 0;
  uint64_t pairs = 0;
  uint64_t shared_exact = 0;
  uint64_t queries = 0;
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadQuery& wq = wl.queries[i++ % wl.queries.size()];
    DivQuery dq;
    dq.sk = wq.sk;
    dq.k = k;
    dq.lambda = 0.8;
    IncrementalSkSearch search(w.graph.get(), w.index.get(), dq.sk, wq.edge,
                               &ctx);
    PairwiseDistanceOracle oracle(w.graph.get(), 2.0 * dq.sk.delta_max,
                                  strategy, &ctx);
    oracle.SetQueryEdge(wq.edge);
    const DivSearchOutput out = DiversifiedSearchCOM(&search, dq, &oracle);
    benchmark::DoNotOptimize(out.objective);
    fields += oracle.stats().fields_computed;
    pairs += oracle.stats().pairs_evaluated;
    shared_exact += oracle.stats().pairs_shared_exact;
    ++queries;
  }
  const double q = queries > 0 ? static_cast<double>(queries) : 1.0;
  state.counters["fields_per_query"] = static_cast<double>(fields) / q;
  state.counters["pairs_per_query"] = static_cast<double>(pairs) / q;
  state.counters["shared_exact_per_query"] =
      static_cast<double>(shared_exact) / q;
}
BENCHMARK(BM_DivComOracle)
    ->ArgNames({"k", "per_object"})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({20, 0})
    ->Args({20, 1});

/// The whole-network COM query: NA at scale 0.03, keyword 0 and δmax =
/// 10^6, so every object holding the keyword is a candidate (6,126), k =
/// 10, λ = 0.8, from object 0's location: `dsks_cli query --mode div-com
/// --terms 0 --delta 1000000 --k 10` on that dataset, on a resident pool
/// and one reused context. COM's per-arrival work (Algorithm 5 and the
/// termination test) is most of it.
void BM_DivComWide(benchmark::State& state) {
  static Database* const db = [] {
    auto* d = new Database(ScalePreset(PresetNA(), 0.03));
    d->BuildIndex(IndexOptions{});
    d->PrepareForQueries(1.0);
    return d;
  }();
  const SpatioTextualObject& anchor = db->objects().object(0);
  DivQuery dq;
  dq.sk.loc = NetworkLocation{anchor.edge, anchor.offset};
  dq.sk.terms = {0};
  dq.sk.delta_max = 1e6;
  dq.k = 10;
  dq.lambda = 0.8;
  const QueryEdgeInfo edge = MakeQueryEdgeInfo(db->network(), dq.sk.loc);
  QueryContext ctx;
  DivSearchOutput out;
  for (auto _ : state) {
    DSKS_CHECK(db->RunDivQuery(dq, edge, /*use_com=*/true, &out, &ctx).ok());
    benchmark::DoNotOptimize(out.objective);
  }
  state.counters["candidates"] = static_cast<double>(out.stats.candidates);
}
BENCHMARK(BM_DivComWide)->Unit(benchmark::kMillisecond);

/// The golden counters' dataset (golden_counters_test): SYN at scale 0.2
/// with 6 keywords per object.
DatasetConfig GoldenConfig() {
  DatasetConfig config = ScalePreset(PresetSYN(), 0.2);
  config.objects.keywords_per_object = 6;
  return config;
}

/// §5's object generator on the golden network: placement, topics and Zipf
/// keywords for 40,000 objects.
void BM_GenerateObjects(benchmark::State& state) {
  const DatasetConfig config = GoldenConfig();
  const auto net = GenerateRoadNetwork(config.network);
  for (auto _ : state) {
    auto objects = GenerateObjects(*net, config.objects);
    benchmark::DoNotOptimize(objects->size());
  }
}
BENCHMARK(BM_GenerateObjects)->Unit(benchmark::kMillisecond);

/// The SIF bulk load of §3.1 on the golden dataset: the IF's counting
/// sort, posting file and B+trees, then the signature, onto a fresh
/// in-memory disk each time.
void BM_BuildSifIndex(benchmark::State& state) {
  const DatasetConfig config = GoldenConfig();
  const auto net = GenerateRoadNetwork(config.network);
  const auto objects = GenerateObjects(*net, config.objects);
  for (auto _ : state) {
    DiskManager disk;
    BufferPool pool(&disk, 64);
    SifIndex index(&pool, *objects, config.objects.vocab_size);
    benchmark::DoNotOptimize(index.SizeBytes());
  }
}
BENCHMARK(BM_BuildSifIndex)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsks

int main(int argc, char** argv) {
  // Default the JSON artifact to BENCH_micro.json in the working directory
  // (tools/check.sh runs from the repo root, so it lands next to
  // BENCH_throughput.json); an explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  char out_flag[] = "--benchmark_out=BENCH_micro.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
