// Ablation for the CCAM storage layout (§2.2): how much I/O does the
// connectivity-clustered placement save during network expansion compared
// to random page assignment, and what does the refinement pass add on top
// of plain Z-order packing?
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/sk_search.h"
#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "graph/ccam.h"
#include "index/sif.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Ablation: CCAM node placement policies",
              "the §2.2 storage layout choice");
  const size_t num_queries = QueriesFromEnv(60);

  const DatasetConfig cfg = Scaled(PresetNA());
  // Build the dataset once; each placement gets its own disk + pool so
  // buffer effects are comparable.
  auto net = GenerateRoadNetwork(cfg.network);
  auto objects = GenerateObjects(*net, cfg.objects);
  TermStats stats(*objects, cfg.objects.vocab_size);
  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = 777;
  const Workload wl = GenerateWorkload(*objects, stats, wc);

  TablePrinter table({"placement", "connectivity ratio",
                      "graph misses/query", "avg ms"});
  struct Variant {
    const char* name;
    CcamPlacement placement;
  };
  for (const Variant& v :
       {Variant{"random", CcamPlacement::kRandom},
        Variant{"z-order", CcamPlacement::kZOrder},
        Variant{"z-order+refine", CcamPlacement::kZOrderRefined}}) {
    DiskManager disk;
    // Separate pools isolate the graph traffic from the index traffic:
    // the CCAM pool gets only ~3% of the CCAM file, so placement quality
    // shows up directly as page misses.
    BufferPool index_pool(&disk, 1u << 16);
    CcamFile ccam = CcamFileBuilder::Build(*net, &disk, v.placement);
    BufferPool ccam_pool(
        &disk, std::max<size_t>(4, ccam.num_pages() * 3 / 100));
    CcamGraph graph(&ccam, &ccam_pool);
    SifIndex index(&index_pool, *objects, cfg.objects.vocab_size);
    index_pool.SetCapacity(std::max<size_t>(
        64, static_cast<size_t>(
                0.02 * static_cast<double>(index.SizeBytes() / kPageSize))));
    disk.mutable_stats()->Reset();
    ccam_pool.mutable_stats()->Reset();
    disk.set_read_delay_us(50.0);

    Timer timer;
    for (const WorkloadQuery& wq : wl.queries) {
      IncrementalSkSearch search(&graph, &index, wq.sk, wq.edge);
      SkResult r;
      while (search.Next(&r)) {
      }
    }
    const double ms =
        timer.ElapsedMillis() / static_cast<double>(wl.queries.size());
    const double graph_io = static_cast<double>(ccam_pool.stats().misses) /
                            static_cast<double>(wl.queries.size());
    table.AddRow({v.name,
                  TablePrinter::Fmt(CcamConnectivityRatio(*net, ccam), 3),
                  TablePrinter::Fmt(graph_io, 1), TablePrinter::Fmt(ms, 2)});
  }
  table.Print();
  std::printf(
      "\nExpected: locality rises random -> z-order -> refined, and the\n"
      "expansion I/O falls accordingly.\n");
  return 0;
}
