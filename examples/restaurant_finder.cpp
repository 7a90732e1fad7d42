// The paper's §1 motivating scenario at city scale: a tourist looks for
// k = 2 restaurants serving both "lobster" and "pancake" near her
// location, but wants them spatially spread so that each comes with its
// own set of nearby attractions. We compare the plain nearest results
// (λ = 1, relevance only) against the diversified results (λ = 0.7) and
// report the pairwise network distance of each answer set.
#include <cstdio>
#include <vector>

#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "harness/database.h"

using namespace dsks;  // NOLINT

int main() {
  // A small city: the SYN preset.
  DatasetConfig city = PresetSYN();
  city.name = "demo-city";
  Database db(city);
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  std::printf("City: %zu intersections, %zu road segments, %zu restaurants\n",
              db.network().num_nodes(), db.network().num_edges(),
              db.objects().size());

  // The tourist stands at a random restaurant's door and wants the two
  // keywords that restaurant serves (term0/term1 play "lobster" and
  // "pancake").
  const auto& start = db.objects().object(1234 % db.objects().size());
  // Her two dishes: the start restaurant's two most common keywords.
  std::vector<TermId> menu(start.terms.begin(), start.terms.end());
  std::sort(menu.begin(), menu.end(), [&db](TermId a, TermId b) {
    return db.term_stats().Frequency(a) > db.term_stats().Frequency(b);
  });
  DivQuery dq;
  dq.sk.loc = NetworkLocation{start.edge, start.offset};
  dq.sk.terms = {menu[0], menu[1]};
  std::sort(dq.sk.terms.begin(), dq.sk.terms.end());
  dq.sk.delta_max = 1500.0;
  dq.k = 2;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(db.network(), dq.sk.loc);

  // Runs the query as `dq` stands and prints its answer.
  auto describe = [&db, &dq, &qe](const char* title) {
    std::printf("\n%s\n", title);
    DivSearchOutput out;
    if (const Status s = db.RunDivQuery(dq, qe, /*use_com=*/true, &out);
        !s.ok()) {
      std::printf("  query failed: %s %s\n", s.code_name(),
                  s.message().c_str());
      return;
    }
    for (const SkResult& r : out.selected) {
      const Point p = db.objects().object(r.id).loc;
      std::printf("  restaurant #%u at (%.0f, %.0f), walk cost %.0f\n", r.id,
                  p.x, p.y, r.dist);
    }
    if (out.selected.size() == 2) {
      // How far apart are the two picks (for the post-dinner walk)?
      PairwiseDistanceOracle oracle(&db.ccam_graph(), 1e9);
      std::printf("  pairwise network distance: %.0f\n",
                  oracle.Distance(out.selected[0], out.selected[1]));
    }
    std::printf("  objective f(S) = %.4f over %lu candidates\n",
                out.objective,
                static_cast<unsigned long>(out.stats.candidates));
  };

  // Relevance-only: the two closest matching restaurants (often nearly
  // co-located, like p1/p2 in the paper's Fig. 1).
  dq.lambda = 1.0;
  describe("Nearest two (lambda = 1.0):");

  // Diversified: a slight sacrifice in closeness buys spatial spread
  // (like {p1, p4} in Fig. 1).
  dq.lambda = 0.5;
  describe("Diversified two (lambda = 0.5):");
  return 0;
}
