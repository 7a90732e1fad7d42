// Reproduces Fig. 15: diversified search (SEQ vs COM) on NA as λ grows
// 0.5..0.9. Expected shape: SEQ is insensitive to λ; COM becomes *more*
// efficient as λ grows since prioritizing closeness lets the expansion
// terminate earlier.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Fig. 15: diversified search vs relevance weight (lambda)",
              "Fig. 15, dataset NA");
  const size_t num_queries = QueriesFromEnv(30);

  Database db(Scaled(PresetNA()));
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = 1500;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  TablePrinter table({"lambda", "SEQ ms", "COM ms", "COM cands",
                      "COM early-term %", "SEQ I/O", "COM I/O"});
  for (double lambda : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    const DivWorkloadMetrics seq = RunDivWorkload(&db, wl, 10, lambda, false);
    const DivWorkloadMetrics com = RunDivWorkload(&db, wl, 10, lambda, true);
    table.AddRow({TablePrinter::Fmt(lambda, 1),
                  TablePrinter::Fmt(seq.avg_millis, 2),
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
