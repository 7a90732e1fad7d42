#include "core/div_search.h"

#include <algorithm>

#include "common/flat_containers.h"
#include "common/macros.h"
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
    out.selected = std::move(greedy.selected);
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

  // Phase 1: the first k arrivals initialize CP and θ_T with the plain
  // greedy (Algorithm 6 line 1).
  std::vector<SkResult> first;
  SkResult res;
  while (first.size() < query.k && search->Next(&res)) {
    oracle->EnsureField(res);
    first.push_back(res);
  }
  out.stats.candidates = first.size();
  if (query.k < 2 && !first.empty()) {
    // k = 1 has no pairs to maintain; the closest object is the answer.
    search->Terminate();
    out.selected = {first[0]};
    out.stats.early_terminated = true;
    out.status = MergeStatus(*search, *oracle);
    FillOracleStats(*oracle, &out.stats);
    return out;
  }
  if (first.size() < query.k) {
    // Fewer candidates than requested: everything is the answer.
    out.selected = first;
    out.objective = EvaluateObjective(objective, oracle, out.selected);
    out.status = MergeStatus(*search, *oracle);
    FillOracleStats(*oracle, &out.stats);
    return out;
  }

  FlatHashMap<ObjectId, SkResult> actives;
  std::vector<ObjectId> active_ids;
  FlatHashMap<ObjectId, double> max_pair_theta;
  for (const SkResult& r : first) {
    actives.try_emplace(r.id, r);
    active_ids.push_back(r.id);
    max_pair_theta.try_emplace(r.id, 0.0);
  }
  // max_pair_theta is tracked with θ *upper bounds*, not exact values.
  // It is only ever compared against θ_T to decide removals, and an
  // inflated maximum can only delay a removal, never cause one — the
  // active set stays a superset of the exact-tracking run. Extra-kept
  // objects cannot change the outcome: OnArrival compares exact θ against
  // θ_T, and an object whose every seen pair was below θ_T when it would
  // have been removed stays below the (monotone) threshold forever, so it
  // never enters the core; the odd-k filler picks the closest active,
  // which the superset preserves. See DESIGN.md.
  for (size_t i = 0; i < first.size(); ++i) {
    for (size_t j = i + 1; j < first.size(); ++j) {
      const double th = theta_ub(first[i], first[j]);
      max_pair_theta[first[i].id] = std::max(max_pair_theta[first[i].id], th);
      max_pair_theta[first[j].id] = std::max(max_pair_theta[first[j].id], th);
    }
  }

  CorePairSet cp(query.k / 2);
  {
    obs::ScopedSpan span(search->trace(), obs::Phase::kGreedySelection);
    GreedyDivResult greedy = GreedyDiversify(first, query.k, theta, &theta_ub);
    cp.Init(std::move(greedy.pairs));
  }

  const CorePairSet::ThetaById theta_by_id = [&](ObjectId x, ObjectId y) {
    const SkResult* ix = actives.find(x);
    const SkResult* iy = actives.find(y);
    DSKS_CHECK(ix != nullptr && iy != nullptr);
    return theta(*ix, *iy);
  };
  const CorePairSet::ThetaById theta_ub_by_id = [&](ObjectId x, ObjectId y) {
    const SkResult* ix = actives.find(x);
    const SkResult* iy = actives.find(y);
    DSKS_CHECK(ix != nullptr && iy != nullptr);
    return theta_ub(*ix, *iy);
  };

  // Phase 2: incremental consumption with diversity pruning.
  while (cp.full() && search->Next(&res)) {
    ++out.stats.candidates;
    oracle->EnsureField(res);
    // Upper bounds again (see the phase-1 comment): no exact pairwise
    // distances are computed just to maintain the removal bookkeeping.
    double res_max = 0.0;
    for (ObjectId id : active_ids) {
      const double th = theta_ub(res, actives.at(id));
      double& mx = max_pair_theta.at(id);
      mx = std::max(mx, th);
      res_max = std::max(res_max, th);
    }
    max_pair_theta.try_emplace(res.id, res_max);
    actives.try_emplace(res.id, res);
    active_ids.push_back(res.id);

    {
      obs::ScopedSpan span(search->trace(), obs::Phase::kGreedySelection);
      cp.OnArrival(res.id, active_ids, theta_by_id, &theta_ub_by_id);
    }

    const double gamma = res.dist;
    const double theta_t = cp.threshold().theta;
    if (objective.ThetaUpperBoundUnseenPair(gamma) >= theta_t) {
      continue;  // unseen pairs can still beat θ_T
    }
    bool can_terminate = true;
    std::vector<ObjectId> removals;
    for (ObjectId id : active_ids) {
      const SkResult& oi = actives.at(id);
      const double ub = objective.ThetaUpperBoundSeenUnseen(oi.dist, gamma);
      if (ub >= theta_t) {
        can_terminate = false;  // oi may pair with an unseen object
        break;
      }
      if (!cp.IsCore(id) && max_pair_theta.at(id) < theta_t) {
        removals.push_back(id);  // oi can never become core again
      }
    }
    if (can_terminate) {
      search->Terminate();
      out.stats.early_terminated = true;
      break;
    }
    for (ObjectId id : removals) {
      actives.erase(id);
      max_pair_theta.erase(id);
      oracle->DropField(id);
      active_ids.erase(
          std::find(active_ids.begin(), active_ids.end(), id));
      ++out.stats.pruned_objects;
    }
  }

  // Assemble the answer: the core objects, plus the closest non-core
  // active when k is odd.
  {
    obs::ScopedSpan span(search->trace(), obs::Phase::kGreedySelection);
    for (ObjectId id : cp.CoreObjects()) {
      out.selected.push_back(actives.at(id));
    }
    if (query.k % 2 == 1) {
      const SkResult* extra = nullptr;
      for (const auto& [id, r] : actives) {
        if (!cp.IsCore(id)) {
          extra = ClosestToQuery(extra, r);
        }
      }
      if (extra != nullptr) {
        out.selected.push_back(*extra);
      }
    }
    out.objective = EvaluateObjective(objective, oracle, out.selected);
  }
  out.status = MergeStatus(*search, *oracle);
  FillOracleStats(*oracle, &out.stats);
  return out;
}

}  // namespace dsks
