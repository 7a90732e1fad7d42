// Reproduces Fig. 11: diversified SK search (SEQ vs COM) on the four
// datasets with default parameters (l=3, δmax=500·l, k=10, λ=0.8).
// Expected shape: COM clearly outperforms SEQ everywhere because its
// early termination avoids retrieving and pairwise-evaluating most
// candidates; the objective values stay equal (same answer).
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Fig. 11: diversified SK search on different datasets",
              "Fig. 11");
  const size_t num_queries = QueriesFromEnv(30);

  TablePrinter time_table({"dataset", "SEQ", "COM"});
  TablePrinter cand_table({"dataset", "SEQ", "COM", "COM early-term %"});
  TablePrinter obj_table({"dataset", "SEQ f(S)", "COM f(S)"});
  TablePrinter io_table({"dataset", "SEQ", "COM"});

  for (const DatasetConfig& preset : AllPresets()) {
    Database db(Scaled(preset));
    IndexOptions opts;
    opts.kind = IndexKind::kSIF;
    db.BuildIndex(opts);
    db.PrepareForQueries();
    WorkloadConfig wc;
    wc.num_queries = num_queries;
    wc.seed = 1100;
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

    const DivWorkloadMetrics seq = RunDivWorkload(&db, wl, 10, 0.8, false);
    const DivWorkloadMetrics com = RunDivWorkload(&db, wl, 10, 0.8, true);
    time_table.AddRow({preset.name, TablePrinter::Fmt(seq.avg_millis, 2),
                       TablePrinter::Fmt(com.avg_millis, 2)});
    cand_table.AddRow({preset.name,
                       TablePrinter::Fmt(seq.avg_candidates, 1),
                       TablePrinter::Fmt(com.avg_candidates, 1),
                       TablePrinter::Fmt(com.early_termination_rate * 100.0,
                                         0)});
    obj_table.AddRow({preset.name, TablePrinter::Fmt(seq.avg_objective, 4),
                      TablePrinter::Fmt(com.avg_objective, 4)});
    io_table.AddRow({preset.name, TablePrinter::Fmt(seq.avg_io, 1),
                     TablePrinter::Fmt(com.avg_io, 1)});
  }

  std::printf("\navg query response time (ms)\n");
  time_table.Print();
  std::printf("\navg # candidate objects (COM stops before the rest)\n");
  cand_table.Print();
  std::printf("\navg objective f(S) (identical answers expected)\n");
  obj_table.Print();
  std::printf("\navg # of I/O (disk reads per query, 2%% pool)\n");
  io_table.Print();
  return 0;
}
