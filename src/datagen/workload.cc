#include "datagen/workload.h"

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"

namespace dsks {

QueryEdgeInfo MakeQueryEdgeInfo(const RoadNetwork& net,
                                const NetworkLocation& loc) {
  const Edge& e = net.edge(loc.edge);
  QueryEdgeInfo info;
  info.n1 = e.n1;
  info.n2 = e.n2;
  info.edge = loc.edge;
  info.weight = e.weight;
  info.w1 = net.WeightFromN1(loc.edge, loc.offset);
  return info;
}

Workload GenerateWorkload(const ObjectSet& objects, const TermStats& stats,
                          const WorkloadConfig& config) {
  DSKS_CHECK_MSG(objects.size() > 0, "workload needs objects");
  DSKS_CHECK_MSG(config.num_keywords > 0, "queries need keywords");
  const RoadNetwork& net = objects.network();
  Random rng(config.seed);
  const auto& by_freq = stats.ByFrequency();
  const auto& cum = stats.CumulativeByFrequency();
  const double total = cum.empty() ? 0.0 : cum.back();
  DSKS_CHECK_MSG(total > 0.0, "term statistics are empty");

  Workload workload;
  workload.queries.reserve(config.num_queries);
  for (size_t q = 0; q < config.num_queries; ++q) {
    WorkloadQuery wq;
    // Location: a random object's position (§5).
    const auto& obj =
        objects.object(static_cast<ObjectId>(rng.Uniform(objects.size())));
    wq.sk.loc = NetworkLocation{obj.edge, obj.offset};
    wq.edge = MakeQueryEdgeInfo(net, wq.sk.loc);

    if (config.keyword_source == KeywordSource::kCoLocatedObject) {
      // Keywords: distinct terms of the co-located object, each chosen
      // with probability proportional to its corpus frequency (the
      // paper's freq(t)/Σfreq bias, restricted to a satisfiable set).
      std::vector<TermId> pool(obj.terms.begin(), obj.terms.end());
      const size_t take = std::min(config.num_keywords, pool.size());
      while (wq.sk.terms.size() < take) {
        double pool_total = 0.0;
        for (TermId t : pool) {
          pool_total += static_cast<double>(stats.Frequency(t));
        }
        double u = rng.NextDouble() * pool_total;
        size_t pick = pool.size() - 1;
        for (size_t i = 0; i < pool.size(); ++i) {
          u -= static_cast<double>(stats.Frequency(pool[i]));
          if (u <= 0.0) {
            pick = i;
            break;
          }
        }
        wq.sk.terms.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
      }
    } else {
      // The paper's independent frequency-weighted sample.
      size_t attempts = 0;
      while (wq.sk.terms.size() < config.num_keywords &&
             attempts < 256 * config.num_keywords) {
        ++attempts;
        const double u = rng.NextDouble() * total;
        const auto it = std::upper_bound(cum.begin(), cum.end(), u);
        const size_t rank = std::min(
            static_cast<size_t>(it - cum.begin()), by_freq.size() - 1);
        const TermId t = by_freq[rank];
        if (std::find(wq.sk.terms.begin(), wq.sk.terms.end(), t) ==
            wq.sk.terms.end()) {
          wq.sk.terms.push_back(t);
        }
      }
    }
    std::sort(wq.sk.terms.begin(), wq.sk.terms.end());

    wq.sk.delta_max =
        config.delta_max_override > 0.0
            ? config.delta_max_override
            : config.delta_max_per_keyword *
                  static_cast<double>(wq.sk.terms.size());
    workload.queries.push_back(std::move(wq));
  }
  return workload;
}

}  // namespace dsks
