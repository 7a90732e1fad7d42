#include "core/diversify.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "core/objective.h"

namespace dsks {

ScoredPair ScoredPair::Make(double theta, ObjectId x, ObjectId y) {
  DSKS_CHECK(x != y);
  return ScoredPair{theta, std::min(x, y), std::max(x, y)};
}

bool ScoredPair::Better(const ScoredPair& other) const {
  if (theta != other.theta) {
    return theta > other.theta;
  }
  if (a != other.a) {
    return a < other.a;
  }
  return b < other.b;
}

const SkResult* ClosestToQuery(const SkResult* best, const SkResult& r) {
  if (best == nullptr || r.dist < best->dist ||
      (r.dist == best->dist && r.id < best->id)) {
    return &r;
  }
  return best;
}

GreedyDivResult GreedyDiversify(const std::vector<SkResult>& candidates,
                                size_t k, const ThetaFn& theta,
                                const ThetaFn* theta_ub) {
  GreedyDivResult result;
  // With n <= k the pairs are still formed, for θ_T-style consumers such
  // as COM's CP initialization; `selected` stays empty (see the header).
  const size_t n = candidates.size();
  std::vector<bool> used(n, false);
  const size_t want_pairs = k / 2;
  while (result.pairs.size() < want_pairs) {
    bool found = false;
    ScoredPair best;
    size_t best_i = 0;
    size_t best_j = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (used[j]) continue;
        // A pair whose θ upper bound is strictly below the incumbent can
        // never win this round (Better() prefers larger θ first), so the
        // exact evaluation — possibly a Dijkstra — is skipped. Ties must
        // still evaluate: they can win on the id tie-break.
        if (found && theta_ub != nullptr &&
            (*theta_ub)(candidates[i], candidates[j]) < best.theta) {
          continue;
        }
        const ScoredPair sp =
            ScoredPair::Make(theta(candidates[i], candidates[j]),
                             candidates[i].id, candidates[j].id);
        if (!found || sp.Better(best)) {
          found = true;
          best = sp;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (!found) {
      break;  // fewer than two unused objects remain
    }
    used[best_i] = true;
    used[best_j] = true;
    result.pairs.push_back(best);
    if (n > k) {
      result.selected.push_back(candidates[best_i]);
      result.selected.push_back(candidates[best_j]);
    }
  }

  // Odd k: one more object from the remainder (Algorithm 1 line 5).
  if (n > k && result.selected.size() < k) {
    const SkResult* extra = nullptr;
    for (size_t i = 0; i < n; ++i) {
      if (!used[i]) {
        extra = ClosestToQuery(extra, candidates[i]);
      }
    }
    if (extra != nullptr) {
      result.selected.push_back(*extra);
    }
  }
  return result;
}

std::vector<SkResult> BruteForceOptimal(
    const std::vector<SkResult>& candidates, size_t k, double lambda,
    double delta_max, const ThetaFn& theta,
    const std::function<double(const SkResult&, const SkResult&)>& dist) {
  (void)theta;
  const size_t n = candidates.size();
  if (n <= k) {
    return candidates;
  }
  DSKS_CHECK_MSG(n <= 24, "brute force limited to tiny instances");
  const Objective objective(lambda, delta_max);

  std::vector<size_t> pick;
  std::vector<size_t> best_pick;
  double best_value = -std::numeric_limits<double>::infinity();

  std::function<void(size_t)> recurse = [&](size_t next) {
    if (pick.size() == k) {
      std::vector<double> dq;
      std::vector<double> pw(k * k, 0.0);
      dq.reserve(k);
      for (size_t u = 0; u < k; ++u) {
        dq.push_back(candidates[pick[u]].dist);
        for (size_t v = 0; v < k; ++v) {
          if (u != v) {
            pw[u * k + v] = dist(candidates[pick[u]], candidates[pick[v]]);
          }
        }
      }
      const double value = objective.ObjectiveValue(dq, pw);
      if (value > best_value) {
        best_value = value;
        best_pick = pick;
      }
      return;
    }
    if (next >= n || pick.size() + (n - next) < k) {
      return;
    }
    pick.push_back(next);
    recurse(next + 1);
    pick.pop_back();
    recurse(next + 1);
  };
  recurse(0);

  std::vector<SkResult> out;
  out.reserve(k);
  for (size_t i : best_pick) {
    out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace dsks
