// Road-trip planner: demonstrates the *incremental* search API directly.
// A traveller drives along a sequence of waypoints; at each stop we pull
// matching points of interest from IncrementalSkSearch one at a time and
// stop as soon as three are found within budget — no full range query is
// ever materialized. This is exactly the pull-based interface Algorithm 6
// builds on.
#include <cstdio>
#include <vector>

#include "core/query_context.h"
#include "core/sk_search.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "harness/database.h"

using namespace dsks;  // NOLINT

int main() {
  Database db(ScalePreset(PresetNA(), 0.5));
  IndexOptions opts;
  opts.kind = IndexKind::kSIFP;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  // Waypoints: a handful of objects roughly west-to-east.
  std::vector<ObjectId> waypoints;
  {
    std::vector<std::pair<double, ObjectId>> by_x;
    for (ObjectId id = 0; id < db.objects().size(); id += 9973) {
      by_x.emplace_back(db.objects().object(id).loc.x, id);
    }
    std::sort(by_x.begin(), by_x.end());
    for (size_t i = 0; i < by_x.size(); i += by_x.size() / 5) {
      waypoints.push_back(by_x[i].second);
    }
  }

  std::printf("Planning %zu stops; at each stop: the 3 nearest objects\n"
              "matching two keywords of the local scene, within cost 800.\n\n",
              waypoints.size());

  uint64_t total_io = 0;
  QueryContext ctx;  // one search at a time, reused across the stops
  for (size_t stop = 0; stop < waypoints.size(); ++stop) {
    const auto& here = db.objects().object(waypoints[stop]);
    SkQuery q;
    q.loc = NetworkLocation{here.edge, here.offset};
    q.terms = {here.terms[0],
               here.terms[here.terms.size() > 1 ? 1 : 0]};
    std::sort(q.terms.begin(), q.terms.end());
    q.terms.erase(std::unique(q.terms.begin(), q.terms.end()),
                  q.terms.end());
    q.delta_max = 800.0;

    db.ResetCounters();
    const QueryEdgeInfo qe = MakeQueryEdgeInfo(db.network(), q.loc);
    IncrementalSkSearch search(&db.ccam_graph(), db.index(), q, qe, &ctx);

    std::printf("Stop %zu at (%.0f, %.0f):\n", stop + 1, here.loc.x,
                here.loc.y);
    SkResult r;
    int found = 0;
    while (found < 3 && search.Next(&r)) {
      const Point p = db.objects().object(r.id).loc;
      std::printf("  #%u at (%.0f, %.0f), cost %.0f\n", r.id, p.x, p.y,
                  r.dist);
      ++found;
    }
    if (found == 0) {
      std::printf("  (nothing matches here)\n");
    }
    // Early termination: the expansion stops as soon as we stop pulling.
    std::printf("  nodes expanded: %lu, I/O: %lu\n",
                static_cast<unsigned long>(search.stats().nodes_settled),
                static_cast<unsigned long>(db.IoCount()));
    total_io += db.IoCount();
  }
  std::printf("\nTotal trip I/O: %lu pages\n",
              static_cast<unsigned long>(total_io));
  return 0;
}
