// Reproduces Fig. 14: diversified search (SEQ vs COM) on NA as k grows
// 5..20. Expected shape: SEQ is insensitive to k (its cost is retrieving
// all candidates); COM degrades with k because a larger k lowers θ_T and
// weakens the pruning, yet stays well below SEQ.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Fig. 14: diversified search vs result size (k)",
              "Fig. 14, dataset NA");
  const size_t num_queries = QueriesFromEnv(30);

  Database db(Scaled(PresetNA()));
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = 1400;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  TablePrinter table({"k", "SEQ ms", "COM ms", "COM cands",
                      "COM early-term %", "SEQ I/O", "COM I/O"});
  for (size_t k : {5, 10, 15, 20}) {
    const DivWorkloadMetrics seq = RunDivWorkload(&db, wl, k, 0.8, false);
    const DivWorkloadMetrics com = RunDivWorkload(&db, wl, k, 0.8, true);
    table.AddRow({std::to_string(k), TablePrinter::Fmt(seq.avg_millis, 2),
                  TablePrinter::Fmt(com.avg_millis, 2),
                  TablePrinter::Fmt(com.avg_candidates, 1),
                  TablePrinter::Fmt(com.early_termination_rate * 100.0, 0),
                  TablePrinter::Fmt(seq.avg_io, 1),
                  TablePrinter::Fmt(com.avg_io, 1)});
  }
  std::printf("\navg response time and I/O per query\n");
  table.Print();
  return 0;
}
