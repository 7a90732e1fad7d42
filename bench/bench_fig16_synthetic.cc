// Reproduces Fig. 16: diversified search (SEQ vs COM) on the SYN dataset
// while varying the synthetic knobs — (a) Zipf skew z, (b) number of
// objects n_o, (c) keywords per object n_k, (d) vocabulary size n_v.
// Expected shapes (§5.2): both algorithms degrade with z, n_o and n_k
// (more matching objects) and improve with n_v (fewer matches); COM is
// consistently faster and more scalable than SEQ.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_common.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

namespace {

void RunSweep(const char* title, const char* knob,
              const std::vector<double>& values,
              const std::function<DatasetConfig(double)>& make_config,
              size_t num_queries) {
  TablePrinter table({knob, "SEQ ms", "COM ms", "SEQ cands", "COM cands",
                      "SEQ I/O", "COM I/O"});
  for (double v : values) {
    Database db(make_config(v));
    IndexOptions opts;
    opts.kind = IndexKind::kSIF;
    db.BuildIndex(opts);
    db.PrepareForQueries();
    WorkloadConfig wc;
    wc.num_queries = num_queries;
    wc.seed = 1600;
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
    const DivWorkloadMetrics seq = RunDivWorkload(&db, wl, 10, 0.8, false);
    const DivWorkloadMetrics com = RunDivWorkload(&db, wl, 10, 0.8, true);
    table.AddRow({TablePrinter::Fmt(v, v < 10 ? 1 : 0),
                  TablePrinter::Fmt(seq.avg_millis, 2),
                  TablePrinter::Fmt(com.avg_millis, 2),
                  TablePrinter::Fmt(seq.avg_candidates, 1),
                  TablePrinter::Fmt(com.avg_candidates, 1),
                  TablePrinter::Fmt(seq.avg_io, 1),
                  TablePrinter::Fmt(com.avg_io, 1)});
  }
  std::printf("\n%s\n", title);
  table.Print();
}

}  // namespace

int main() {
  PrintHeader("Fig. 16: diversified search on synthetic data (SYN)",
              "Fig. 16(a)-(d)");
  const size_t num_queries = QueriesFromEnv(25);
  const DatasetConfig base = Scaled(PresetSYN());

  // (a) term-frequency skew z (paper: 0.9 - 1.3, default 1.1).
  RunSweep("(a) effect of the term frequency skewness (z)", "z",
           {0.9, 1.0, 1.1, 1.2, 1.3},
           [&base](double z) {
             DatasetConfig c = base;
             c.objects.zipf_z = z;
             return c;
           },
           num_queries);

  // (b) number of objects (paper: 0.5M - 2M around the 1M default; our
  // preset scales that to 20k - 80k around 40k).
  RunSweep("(b) effect of the number of objects (n_o)", "n_o",
           {0.5 * base.objects.num_objects,
            1.0 * base.objects.num_objects,
            1.5 * base.objects.num_objects,
            2.0 * base.objects.num_objects},
           [&base](double n) {
             DatasetConfig c = base;
             c.objects.num_objects = static_cast<size_t>(n);
             return c;
           },
           num_queries);

  // (c) keywords per object (paper default 15).
  RunSweep("(c) effect of the keywords per object (n_k)", "n_k",
           {5, 10, 15, 20},
           [&base](double nk) {
             DatasetConfig c = base;
             c.objects.keywords_per_object = static_cast<size_t>(nk);
             return c;
           },
           num_queries);

  // (d) vocabulary size (paper: 20k - 100k scaled to 800 - 4000).
  RunSweep("(d) effect of the vocabulary size (n_v)", "n_v",
           {0.2 * base.objects.vocab_size, 0.5 * base.objects.vocab_size,
            0.75 * base.objects.vocab_size,
            1.0 * base.objects.vocab_size},
           [&base](double nv) {
             DatasetConfig c = base;
             c.objects.vocab_size = static_cast<size_t>(nv);
             return c;
           },
           num_queries);
  return 0;
}
