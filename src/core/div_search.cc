#include "core/div_search.h"

#include <algorithm>

#include "core/core_pairs.h"
#include "core/diversify.h"
#include "obs/trace.h"

namespace dsks {

namespace {

ThetaFn MakeThetaFn(const Objective* objective,
                    PairwiseDistanceOracle* oracle) {
  return [objective, oracle](const SkResult& a, const SkResult& b) {
    return objective->Theta(a.dist, b.dist, oracle->Distance(a, b));
  };
}

/// θ is monotone increasing in the pairwise distance, so feeding it the
/// oracle's cheap distance upper bound yields an upper bound on θ — without
/// ever triggering a Dijkstra expansion.
ThetaFn MakeThetaUbFn(const Objective* objective,
                      const PairwiseDistanceOracle* oracle) {
  return [objective, oracle](const SkResult& a, const SkResult& b) {
    return objective->Theta(a.dist, b.dist, oracle->DistanceUpperBound(a, b));
  };
}

void FillOracleStats(const PairwiseDistanceOracle& oracle,
                     DivSearchStats* stats) {
  stats->distance_fields = oracle.fields_computed();
  stats->oracle_pairs = oracle.stats().pairs_evaluated;
  stats->oracle_pairs_shared = oracle.stats().pairs_shared_exact;
  stats->oracle_shared_expansions = oracle.stats().shared_expansions;
}

/// The search's error (it stops the candidate stream) takes precedence
/// over the oracle's (it only degrades pairwise distances).
Status MergeStatus(const IncrementalSkSearch& search,
                   const PairwiseDistanceOracle& oracle) {
  if (!search.status().ok()) {
    return search.status();
  }
  return oracle.status();
}

}  // namespace

double EvaluateObjective(const Objective& objective,
                         PairwiseDistanceOracle* oracle,
                         const std::vector<SkResult>& selected) {
  const size_t k = selected.size();
  if (k < 2) {
    return 0.0;
  }
  std::vector<double> dq;
  dq.reserve(k);
  std::vector<double> pw(k * k, 0.0);
  for (size_t u = 0; u < k; ++u) {
    dq.push_back(selected[u].dist);
    for (size_t v = 0; v < k; ++v) {
      if (u != v) {
        pw[u * k + v] = oracle->Distance(selected[u], selected[v]);
      }
    }
  }
  return objective.ObjectiveValue(dq, pw);
}

DivSearchOutput DiversifiedSearchSEQ(IncrementalSkSearch* search,
                                     const DivQuery& query,
                                     PairwiseDistanceOracle* oracle) {
  const Objective objective(query.lambda, query.sk.delta_max);
  const ThetaFn theta = MakeThetaFn(&objective, oracle);
  const ThetaFn theta_ub = MakeThetaUbFn(&objective, oracle);

  DivSearchOutput out;
  std::vector<SkResult> candidates;
  SkResult res;
  while (search->Next(&res)) {
    candidates.push_back(res);
  }
  out.stats.candidates = candidates.size();

  {
    // The greedy itself calls into the oracle, whose Dijkstra phases nest
    // as children and keep their own time/I/O out of this span's exclusive
    // share.
    obs::ScopedSpan span(search->trace(), obs::Phase::kGreedySelection);
    GreedyDivResult greedy =
        GreedyDiversify(candidates, query.k, theta, &theta_ub);
    // No more candidates than requested: everything is the answer.
    out.selected = candidates.size() <= query.k ? std::move(candidates)
                                                : std::move(greedy.selected);
    out.objective = EvaluateObjective(objective, oracle, out.selected);
  }
  out.status = MergeStatus(*search, *oracle);
  FillOracleStats(*oracle, &out.stats);
  return out;
}

DivSearchOutput DiversifiedSearchCOM(IncrementalSkSearch* search,
                                     const DivQuery& query,
                                     PairwiseDistanceOracle* oracle) {
  const Objective objective(query.lambda, query.sk.delta_max);
  const ThetaFn theta = MakeThetaFn(&objective, oracle);
  const ThetaFn theta_ub = MakeThetaUbFn(&objective, oracle);
  DivSearchOutput out;

  // Every arrival in order, that is, in non-decreasing δ(q,o).
  std::vector<SkResult> seen;
  CorePairSet cp(query.k / 2);
  SkResult res;
  while (search->Next(&res)) {
    oracle->EnsureField(res);
    // One span per arrival: the append, the greedy or Algorithm 5, and the
    // termination test. The oracle's expansions nest as children.
    obs::ScopedSpan span(search->trace(), obs::Phase::kGreedySelection);
    seen.push_back(res);
    if (seen.size() < query.k) {
      continue;
    }
    if (query.k < 2) {
      // k = 1 has no pairs to maintain; the closest object is the answer.
      search->Terminate();
      out.stats.early_terminated = true;
      break;
    }
    if (seen.size() == query.k) {
      // The first k arrivals initialize CP and θ_T with the plain greedy
      // (Algorithm 6 line 1).
      cp.Init(GreedyDiversify(seen, query.k, theta, &theta_ub).pairs);
      continue;
    }
    cp.OnArrival(res, seen, theta, &theta_ub);

    // Every unseen object is at least γ from q. Once neither an unseen
    // pair nor any seen object paired with an unseen one can reach θ_T,
    // no later arrival changes CP (DESIGN.md "Objective function").
    const double gamma = res.dist;
    const double theta_t = cp.threshold().theta;
    if (objective.ThetaUpperBoundUnseenPair(gamma) >= theta_t) {
      continue;  // unseen pairs can still beat θ_T
    }
    if (std::all_of(seen.begin(), seen.end(), [&](const SkResult& o) {
          return objective.ThetaUpperBoundSeenUnseen(o.dist, gamma) < theta_t;
        })) {
      search->Terminate();
      out.stats.early_terminated = true;
      break;
    }
  }
  out.stats.candidates = seen.size();

  {
    obs::ScopedSpan span(search->trace(), obs::Phase::kGreedySelection);
    if (seen.size() < query.k) {
      // Fewer candidates than requested: everything is the answer.
      out.selected = std::move(seen);
    } else if (query.k < 2) {
      out.selected = {seen.front()};
    } else {
      // The core objects in pair order, plus the closest non-core object
      // when k is odd.
      auto by_id = [&seen](ObjectId id) -> const SkResult& {
        return *std::find_if(seen.begin(), seen.end(),
                             [id](const SkResult& r) { return r.id == id; });
      };
      for (const ScoredPair& p : cp.pairs()) {
        out.selected.push_back(by_id(p.a));
        out.selected.push_back(by_id(p.b));
      }
      if (query.k % 2 == 1) {
        const SkResult* extra = nullptr;
        for (const SkResult& r : seen) {
          if (!cp.IsCore(r.id)) {
            extra = ClosestToQuery(extra, r);
          }
        }
        if (extra != nullptr) {
          out.selected.push_back(*extra);
        }
      }
    }
    out.objective = EvaluateObjective(objective, oracle, out.selected);
  }
  out.status = MergeStatus(*search, *oracle);
  FillOracleStats(*oracle, &out.stats);
  return out;
}

}  // namespace dsks
