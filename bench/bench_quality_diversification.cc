// Quantifies the motivation of §1/Fig. 1, which the paper argues but
// never measures: how much more spatially spread is the diversified
// result than the plain k-nearest result, and what does it cost in
// closeness? For each dataset we run the same workload twice — λ = 1
// (pure relevance: the k nearest matching objects) and the default
// λ = 0.8 — and compare the average pairwise network distance within the
// answer (the "post-dinner options" spread) against the average distance
// to the query.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "core/distance_oracle.h"

using namespace dsks;        // NOLINT
using namespace dsks::bench; // NOLINT

namespace {

struct Quality {
  double avg_query_dist = 0.0;  // closeness (lower = closer)
  double avg_pair_dist = 0.0;   // spread   (higher = more diverse)
  double avg_fs = 0.0;
  size_t queries = 0;
};

}  // namespace

int main() {
  PrintHeader("Quality: diversified vs nearest-k answers",
              "the Fig. 1 motivation, quantified");
  const size_t num_queries = QueriesFromEnv(25);
  const size_t k = 10;

  TablePrinter table({"dataset", "lambda", "avg dist to q",
                      "avg pairwise dist", "avg f(S)"});
  for (const DatasetConfig& preset : AllPresets()) {
    Database db(Scaled(preset));
    IndexOptions opts;
    opts.kind = IndexKind::kSIF;
    db.BuildIndex(opts);
    db.PrepareForQueries();
    WorkloadConfig wc;
    wc.num_queries = num_queries;
    wc.seed = 31337;
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

    for (double lambda : {1.0, 0.8, 0.5}) {
      Quality q;
      for (const WorkloadQuery& wq : wl.queries) {
        DivQuery dq;
        dq.sk = wq.sk;
        dq.k = k;
        dq.lambda = lambda;
        DivSearchOutput out;
        DSKS_CHECK(db.RunDivQuery(dq, wq.edge, /*use_com=*/true, &out).ok());
        if (out.selected.size() < 2) {
          continue;
        }
        PairwiseDistanceOracle oracle(&db.ccam_graph(),
                                      2.0 * dq.sk.delta_max);
        double qd = 0.0;
        double pd = 0.0;
        size_t pairs = 0;
        for (size_t i = 0; i < out.selected.size(); ++i) {
          qd += out.selected[i].dist;
          for (size_t j = i + 1; j < out.selected.size(); ++j) {
            pd += oracle.Distance(out.selected[i], out.selected[j]);
            ++pairs;
          }
        }
        q.avg_query_dist += qd / static_cast<double>(out.selected.size());
        q.avg_pair_dist += pd / static_cast<double>(pairs);
        q.avg_fs += out.objective;
        ++q.queries;
      }
      if (q.queries == 0) {
        continue;
      }
      const auto n = static_cast<double>(q.queries);
      table.AddRow({preset.name, TablePrinter::Fmt(lambda, 1),
                    TablePrinter::Fmt(q.avg_query_dist / n, 0),
                    TablePrinter::Fmt(q.avg_pair_dist / n, 0),
                    TablePrinter::Fmt(q.avg_fs / n, 4)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected: lowering lambda trades a small increase in distance to\n"
      "the query for a growing pairwise spread of the answer set — the\n"
      "Fig. 1 trade ({p1,p4} over {p1,p2}).\n");
  return 0;
}
