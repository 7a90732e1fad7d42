// Reproduces Fig. 13: diversified search (SEQ vs COM) on NA as the search
// range δmax grows. Expected shape: COM's advantage widens with the range
// because SEQ must retrieve and pairwise-evaluate every candidate in the
// region while COM's diversity pruning terminates early.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Fig. 13: diversified search vs search range (delta_max)",
              "Fig. 13, dataset NA");
  const size_t num_queries = QueriesFromEnv(30);

  Database db(Scaled(PresetNA()));
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  TablePrinter table({"delta_max", "SEQ ms", "COM ms", "SEQ cands",
                      "COM cands", "SEQ I/O", "COM I/O"});
  for (double r : {500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    WorkloadConfig wc;
    wc.num_queries = num_queries;
    wc.delta_max_override = r;
    wc.seed = 1300;
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
    const DivWorkloadMetrics seq = RunDivWorkload(&db, wl, 10, 0.8, false);
    const DivWorkloadMetrics com = RunDivWorkload(&db, wl, 10, 0.8, true);
    table.AddRow({TablePrinter::Fmt(r, 0), TablePrinter::Fmt(seq.avg_millis, 2),
                  TablePrinter::Fmt(com.avg_millis, 2),
                  TablePrinter::Fmt(seq.avg_candidates, 1),
                  TablePrinter::Fmt(com.avg_candidates, 1),
                  TablePrinter::Fmt(seq.avg_io, 1),
                  TablePrinter::Fmt(com.avg_io, 1)});
  }
  std::printf("\navg response time, candidates and I/O per query\n");
  table.Print();
  return 0;
}
