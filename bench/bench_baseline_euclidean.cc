// Makes the paper's §1 motivation measurable: a Euclidean spatial-keyword
// index forced into filter-and-refine on a road network versus the
// network-native incremental expansion (Algorithm 3 + SIF). The Euclidean
// filter admits every object within the straight-line δmax circle — many
// of which are network-unreachable within δmax — and still pays a network
// expansion to verify them.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/timer.h"
#include "core/euclidean_baseline.h"
#include "core/sk_search.h"
#include "graph/ccam.h"
#include "index/inverted_rtree.h"
#include "index/sif.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Baseline: Euclidean filter-and-refine vs network expansion",
              "the §1/§6 motivation for network-native indexing");
  const size_t num_queries = QueriesFromEnv(60);

  TablePrinter table({"dataset", "INE+SIF ms", "Euclid F&R ms",
                      "euclid candidates", "answers"});
  for (const DatasetConfig& preset : AllPresets()) {
    Database db(Scaled(preset));
    WorkloadConfig wc;
    wc.num_queries = num_queries;
    wc.seed = 2718;
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

    // Network-native: SIF through the Database facade.
    IndexOptions opts;
    opts.kind = IndexKind::kSIF;
    db.BuildIndex(opts);
    db.PrepareForQueries();
    double ine_ms = 0.0;
    double answers = 0.0;
    {
      ScopedIoDelay delay(db.disk());
      Timer timer;
      std::vector<SkResult> results;
      for (const WorkloadQuery& wq : wl.queries) {
        DSKS_CHECK(db.RunSkQuery(wq.sk, wq.edge, &results).ok());
        answers += static_cast<double>(results.size());
      }
      ine_ms = timer.ElapsedMillis() / static_cast<double>(wl.queries.size());
      answers /= static_cast<double>(wl.queries.size());
    }

    // Euclidean filter-and-refine on the same data, own disk + pool.
    IndexOptions ir;
    ir.kind = IndexKind::kIR;
    db.BuildIndex(ir);
    db.PrepareForQueries();
    auto* index = static_cast<InvertedRTreeIndex*>(db.index());
    double fr_ms = 0.0;
    double candidates = 0.0;
    {
      ScopedIoDelay delay(db.disk());
      Timer timer;
      for (const WorkloadQuery& wq : wl.queries) {
        EuclideanBaselineStats stats;
        std::vector<SkResult> results;
        const Status s =
            EuclideanFilterRefine(&db.ccam_graph(), db.network(), index,
                                  wq.sk, wq.edge, &results, &stats);
        DSKS_CHECK_MSG(s.ok(), "fault-free baseline must not fail");
        candidates += static_cast<double>(stats.euclidean_candidates);
      }
      fr_ms = timer.ElapsedMillis() / static_cast<double>(wl.queries.size());
      candidates /= static_cast<double>(wl.queries.size());
    }

    table.AddRow({preset.name, TablePrinter::Fmt(ine_ms, 2),
                  TablePrinter::Fmt(fr_ms, 2),
                  TablePrinter::Fmt(candidates, 1),
                  TablePrinter::Fmt(answers, 1)});
  }
  table.Print();
  std::printf(
      "\nExpected: the Euclidean filter admits far more candidates than\n"
      "there are answers, and the combined filter+verify time exceeds the\n"
      "incremental network expansion.\n");
  return 0;
}
