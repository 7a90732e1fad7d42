#include <vector>

#include "core/objective.h"
#include "gtest/gtest.h"

namespace dsks {
namespace {

TEST(ObjectiveTest, RelevanceAndDiversityRanges) {
  const Objective obj(0.8, 1000.0);
  EXPECT_DOUBLE_EQ(obj.Relevance(0.0), 1.0);
  EXPECT_DOUBLE_EQ(obj.Relevance(1000.0), 0.0);
  EXPECT_DOUBLE_EQ(obj.Diversity(0.0), 0.0);
  EXPECT_DOUBLE_EQ(obj.Diversity(2000.0), 1.0);
}

TEST(ObjectiveTest, ThetaBlendsWithLambda) {
  // λ = 1: only relevance; λ = 0: only diversity.
  const Objective rel_only(1.0, 1000.0);
  EXPECT_DOUBLE_EQ(rel_only.Theta(200, 400, 1234), (0.8 + 0.6) / 2.0);
  const Objective div_only(0.0, 1000.0);
  EXPECT_DOUBLE_EQ(div_only.Theta(200, 400, 500), 0.25);
  // Blend.
  const Objective mixed(0.8, 1000.0);
  EXPECT_DOUBLE_EQ(mixed.Theta(200, 400, 500),
                   0.8 * 0.7 + 0.2 * 0.25);
}

TEST(ObjectiveTest, UnseenPairBoundDominatesAnyRealUnseenPair) {
  const Objective obj(0.7, 1000.0);
  const double gamma = 600.0;
  const double bound = obj.ThetaUpperBoundUnseenPair(gamma);
  // Any pair of unseen objects has both distances in [gamma, delta_max]
  // and pair distance <= 2 * delta_max.
  for (double du : {600.0, 800.0, 1000.0}) {
    for (double dv : {600.0, 750.0, 1000.0}) {
      for (double duv : {0.0, 900.0, 2000.0}) {
        EXPECT_LE(obj.Theta(du, dv, duv), bound + 1e-12);
      }
    }
  }
}

TEST(ObjectiveTest, SeenUnseenBoundDominates) {
  const Objective obj(0.6, 1000.0);
  const double gamma = 500.0;
  const double dist_qo = 200.0;
  const double bound = obj.ThetaUpperBoundSeenUnseen(dist_qo, gamma);
  // The unseen side is at >= gamma; δ(o, unseen) <= δ(q,o) + δ(q,unseen)
  // <= dist_qo + delta_max.
  for (double dv : {500.0, 700.0, 1000.0}) {
    for (double duv : {0.0, 600.0, 1200.0}) {
      EXPECT_LE(obj.Theta(dist_qo, dv, duv), bound + 1e-12);
    }
  }
}

TEST(ObjectiveTest, BoundsDecreaseAsGammaGrows) {
  const Objective obj(0.8, 1000.0);
  double prev_uu = 2.0;
  double prev_su = 2.0;
  for (double gamma = 0.0; gamma <= 1000.0; gamma += 100.0) {
    const double uu = obj.ThetaUpperBoundUnseenPair(gamma);
    const double su = obj.ThetaUpperBoundSeenUnseen(300.0, gamma);
    EXPECT_LE(uu, prev_uu + 1e-12);
    EXPECT_LE(su, prev_su + 1e-12);
    prev_uu = uu;
    prev_su = su;
  }
}

// COM keeps every seen object: Algorithm 6's removal of visited objects
// (lines 13-14) cannot fire before termination does. These are the two
// facts that argument rests on (DESIGN.md "Why COM keeps every seen
// object"). If a change to the objective breaks one, a visited-object
// prune could pay again.
TEST(ObjectiveTest, VisitedObjectPruneCannotFireBeforeTermination) {
  const double dmax = 1000.0;
  std::vector<double> grid;
  for (double d = 0.0; d <= dmax; d += 62.5) {
    grid.push_back(d);
  }
  // λ <= 0.5: no pair beats the unseen-pair bound, so θ_T never does and
  // the removal block is never reached. Distance() never exceeds
  // δ(q,u) + δ(q,v), and θ grows with the pairwise distance.
  for (double lambda : {0.0, 0.25, 0.5}) {
    const Objective obj(lambda, dmax);
    for (double gamma : grid) {
      const double bound = obj.ThetaUpperBoundUnseenPair(gamma);
      for (double du : grid) {
        for (double dv : grid) {
          EXPECT_LE(obj.Theta(du, dv, du + dv), bound + 1e-12)
              << "lambda " << lambda << " gamma " << gamma << " du " << du
              << " dv " << dv;
        }
      }
    }
  }
  // λ >= 0.5: the seen–unseen bound never grows with δ(q,o). The
  // termination scan walks the seen objects by non-decreasing δ(q,o), so
  // it stops at the first one (nothing to remove) or terminates.
  for (double lambda : {0.5, 0.8, 1.0}) {
    const Objective obj(lambda, dmax);
    for (double gamma : grid) {
      double prev = obj.ThetaUpperBoundSeenUnseen(0.0, gamma);
      for (double d : grid) {
        const double ub = obj.ThetaUpperBoundSeenUnseen(d, gamma);
        EXPECT_LE(ub, prev + 1e-12)
            << "lambda " << lambda << " gamma " << gamma << " d " << d;
        prev = ub;
      }
    }
  }
}

TEST(ObjectiveTest, ObjectiveValueMatchesManualSum) {
  const Objective obj(0.5, 100.0);
  // Three objects at distances 10, 20, 30; pairwise 40, 60, 80.
  const std::vector<double> dq = {10, 20, 30};
  std::vector<double> pw(9, 0.0);
  auto set = [&pw](size_t u, size_t v, double d) {
    pw[u * 3 + v] = d;
    pw[v * 3 + u] = d;
  };
  set(0, 1, 40);
  set(0, 2, 60);
  set(1, 2, 80);
  double manual = 0.0;
  manual += 2 * obj.Theta(10, 20, 40);
  manual += 2 * obj.Theta(10, 30, 60);
  manual += 2 * obj.Theta(20, 30, 80);
  manual /= 6.0;
  EXPECT_NEAR(obj.ObjectiveValue(dq, pw), manual, 1e-12);
}

TEST(ObjectiveTest, DecompositionIdentity) {
  // f(S) = (λ/k)Σrel + ((1-λ)/(k(k-1)))Σ_{u≠v} div (§2.3).
  const Objective obj(0.8, 500.0);
  const std::vector<double> dq = {50, 120, 300, 410};
  const size_t k = dq.size();
  std::vector<double> pw(k * k, 0.0);
  double counter = 100.0;
  for (size_t u = 0; u < k; ++u) {
    for (size_t v = u + 1; v < k; ++v) {
      pw[u * k + v] = counter;
      pw[v * k + u] = counter;
      counter += 77.0;
    }
  }
  double rel_sum = 0.0;
  for (double d : dq) rel_sum += obj.Relevance(d);
  double div_sum = 0.0;
  for (size_t u = 0; u < k; ++u) {
    for (size_t v = 0; v < k; ++v) {
      if (u != v) div_sum += obj.Diversity(pw[u * k + v]);
    }
  }
  const double expected =
      0.8 / k * rel_sum + 0.2 / (k * (k - 1.0)) * div_sum;
  EXPECT_NEAR(obj.ObjectiveValue(dq, pw), expected, 1e-12);
}

}  // namespace
}  // namespace dsks
