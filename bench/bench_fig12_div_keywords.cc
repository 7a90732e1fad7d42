// Reproduces Fig. 12: diversified search (SEQ vs COM) on NA as the number
// of query keywords l grows 1..4 (δmax = 500·l). Expected shape: COM
// outperforms SEQ at every l; both involve more objects as l grows since
// the search region widens with δmax.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

int main() {
  PrintHeader("Fig. 12: diversified search vs number of query keywords (l)",
              "Fig. 12, dataset NA");
  const size_t num_queries = QueriesFromEnv(30);

  Database db(Scaled(PresetNA()));
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  TablePrinter table({"l", "SEQ ms", "COM ms", "SEQ cands", "COM cands",
                      "SEQ I/O", "COM I/O"});
  for (size_t l = 1; l <= 4; ++l) {
    WorkloadConfig wc;
    wc.num_queries = num_queries;
    wc.num_keywords = l;
    wc.seed = 1200 + l;
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
    const DivWorkloadMetrics seq = RunDivWorkload(&db, wl, 10, 0.8, false);
    const DivWorkloadMetrics com = RunDivWorkload(&db, wl, 10, 0.8, true);
    table.AddRow({std::to_string(l), TablePrinter::Fmt(seq.avg_millis, 2),
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
