#include "core/core_pairs.h"

#include <algorithm>

#include "common/macros.h"

namespace dsks {

void CorePairSet::Init(std::vector<ScoredPair> pairs) {
  DSKS_CHECK_MSG(pairs.size() <= num_pairs_, "too many initial pairs");
  pairs_ = std::move(pairs);
  for (size_t i = 1; i < pairs_.size(); ++i) {
    DSKS_CHECK_MSG(pairs_[i - 1].Better(pairs_[i]),
                   "initial pairs must be in selection order");
  }
}

size_t CorePairSet::PairIndexOf(ObjectId id) const {
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (pairs_[i].a == id || pairs_[i].b == id) {
      return i;
    }
  }
  return pairs_.size();
}

bool CorePairSet::IsCore(ObjectId id) const {
  return PairIndexOf(id) < pairs_.size();
}

void CorePairSet::InsertSorted(const ScoredPair& sp) {
  auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), sp,
      [](const ScoredPair& x, const ScoredPair& y) { return x.Better(y); });
  pairs_.insert(it, sp);
}

void CorePairSet::OnArrival(const SkResult& o, std::span<const SkResult> seen,
                            const ThetaFn& theta, const ThetaFn* theta_ub) {
  DSKS_CHECK_MSG(full(), "OnArrival before the first k objects initialized CP");
  const SkResult* cur = &o;
  // The while loop repeats at most k/2 times (§4.2 correctness argument);
  // the +2 slack keeps the guard from ever firing on valid executions.
  size_t guard = num_pairs_ + 2;
  while (guard-- > 0) {
    const ScoredPair theta_t = pairs_.back();
    // φ(cur): seen objects x with θ(cur, x) > θ_T that do not dominate
    // cur; keep the best candidate pair under the total order.
    bool found = false;
    ScoredPair best;
    ObjectId best_partner = kInvalidObjectId;
    for (const SkResult& x : seen) {
      if (x.id == cur->id) {
        continue;
      }
      // If even the upper bound is strictly below θ_T then the exact θ is
      // too, and sp.Better(theta_t) below would fail on the θ comparison
      // alone — skip the exact evaluation. Ties still evaluate (they can
      // win Better's id tie-break).
      if (theta_ub != nullptr && (*theta_ub)(*cur, x) < theta_t.theta) {
        continue;
      }
      const ScoredPair sp = ScoredPair::Make(theta(*cur, x), cur->id, x.id);
      if (!sp.Better(theta_t)) {
        continue;
      }
      const size_t px = PairIndexOf(x.id);
      if (px < pairs_.size() && pairs_[px].Better(sp)) {
        continue;  // x dominates cur (Lemma 1): (cur, x) can never be core
      }
      if (!found || sp.Better(best)) {
        found = true;
        best = sp;
        best_partner = x.id;
      }
    }
    if (!found) {
      return;  // case i: cur contributes nothing
    }
    const size_t partner_pair = PairIndexOf(best_partner);
    if (partner_pair == pairs_.size()) {
      // Case ii: partner is not a core object. The new pair displaces the
      // current ⌊k/2⌋-th pair.
      pairs_.pop_back();
      InsertSorted(best);
      return;
    }
    // Case iii: partner is core; (cur, partner) replaces its pair and the
    // displaced member re-enters as the arriving object.
    const ScoredPair old = pairs_[partner_pair];
    pairs_.erase(pairs_.begin() + static_cast<ptrdiff_t>(partner_pair));
    InsertSorted(best);
    const ObjectId displaced = old.a == best_partner ? old.b : old.a;
    const auto it = std::find_if(
        seen.begin(), seen.end(),
        [displaced](const SkResult& x) { return x.id == displaced; });
    DSKS_CHECK_MSG(it != seen.end(), "a core object is missing from seen");
    cur = &*it;
  }
  DSKS_CHECK_MSG(false, "Algorithm 5 failed to converge");
}

}  // namespace dsks
