#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/diversify.h"
#include "core/objective.h"
#include "gtest/gtest.h"

namespace dsks {
namespace {

/// Synthetic candidates on a line: pairwise distance = |pos_u - pos_v|,
/// query distance = dist field. Cheap, exact, and triangle-inequality
/// consistent — ideal for diversification unit tests.
struct LineWorld {
  std::vector<SkResult> candidates;
  double lambda;
  double delta_max;

  double Dist(const SkResult& a, const SkResult& b) const {
    return std::abs(positions[a.id] - positions[b.id]);
  }
  ThetaFn Theta() const {
    const Objective obj(lambda, delta_max);
    return [this, obj](const SkResult& a, const SkResult& b) {
      return obj.Theta(a.dist, b.dist, Dist(a, b));
    };
  }
  std::vector<double> positions;
};

LineWorld MakeLineWorld(uint64_t seed, size_t n, double lambda = 0.7,
                        double delta_max = 1000.0) {
  LineWorld w;
  w.lambda = lambda;
  w.delta_max = delta_max;
  Random rng(seed);
  w.positions.resize(n);
  for (size_t i = 0; i < n; ++i) {
    SkResult r;
    r.id = static_cast<ObjectId>(i);
    r.dist = rng.UniformDouble(0, delta_max);
    w.positions[i] = rng.UniformDouble(0, delta_max);
    w.candidates.push_back(r);
  }
  return w;
}

TEST(ScoredPairTest, TotalOrder) {
  const ScoredPair a = ScoredPair::Make(0.9, 3, 1);
  EXPECT_EQ(a.a, 1u);
  EXPECT_EQ(a.b, 3u);
  const ScoredPair b = ScoredPair::Make(0.8, 0, 2);
  EXPECT_TRUE(a.Better(b));
  EXPECT_FALSE(b.Better(a));
  // Tie on theta: smaller ids win.
  const ScoredPair c = ScoredPair::Make(0.9, 0, 9);
  EXPECT_TRUE(c.Better(a));
  EXPECT_FALSE(a.Better(a));
}

TEST(GreedyDiversifyTest, PicksDisjointPairsInDescendingOrder) {
  LineWorld w = MakeLineWorld(7, 30);
  const auto result = GreedyDiversify(w.candidates, 10, w.Theta());
  ASSERT_EQ(result.pairs.size(), 5u);
  ASSERT_EQ(result.selected.size(), 10u);

  // Pairs are disjoint and ordered by the total order.
  std::vector<ObjectId> members;
  for (size_t i = 0; i < result.pairs.size(); ++i) {
    members.push_back(result.pairs[i].a);
    members.push_back(result.pairs[i].b);
    if (i > 0) {
      EXPECT_TRUE(result.pairs[i - 1].Better(result.pairs[i]));
    }
  }
  std::sort(members.begin(), members.end());
  EXPECT_EQ(std::unique(members.begin(), members.end()), members.end());

  // The first pair is the global maximum.
  const ThetaFn theta = w.Theta();
  for (size_t i = 0; i < w.candidates.size(); ++i) {
    for (size_t j = i + 1; j < w.candidates.size(); ++j) {
      const ScoredPair sp = ScoredPair::Make(
          theta(w.candidates[i], w.candidates[j]), w.candidates[i].id,
          w.candidates[j].id);
      EXPECT_FALSE(sp.Better(result.pairs[0]));
    }
  }
}

TEST(GreedyDiversifyTest, FewerCandidatesThanK) {
  LineWorld w = MakeLineWorld(8, 4);
  const auto result = GreedyDiversify(w.candidates, 10, w.Theta());
  // Every candidate is the answer, which the caller already holds; the
  // pairs are still formed.
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.pairs.size(), 2u);
}

TEST(GreedyDiversifyTest, OddKAddsClosestRemaining) {
  LineWorld w = MakeLineWorld(9, 20);
  const auto result = GreedyDiversify(w.candidates, 5, w.Theta());
  ASSERT_EQ(result.pairs.size(), 2u);
  ASSERT_EQ(result.selected.size(), 5u);
  // The extra (5th) object is the closest unpaired candidate.
  std::vector<ObjectId> paired;
  for (const auto& p : result.pairs) {
    paired.push_back(p.a);
    paired.push_back(p.b);
  }
  const SkResult& extra = result.selected.back();
  EXPECT_EQ(std::count(paired.begin(), paired.end(), extra.id), 0);
  for (const auto& c : w.candidates) {
    if (std::count(paired.begin(), paired.end(), c.id) == 0) {
      EXPECT_LE(extra.dist, c.dist + 1e-12);
    }
  }
}

TEST(GreedyDiversifyTest, KOneReturnsClosest) {
  LineWorld w = MakeLineWorld(10, 15);
  const auto result = GreedyDiversify(w.candidates, 1, w.Theta());
  ASSERT_EQ(result.selected.size(), 1u);
  for (const auto& c : w.candidates) {
    EXPECT_LE(result.selected[0].dist, c.dist + 1e-12);
  }
}

class GreedyApproxTest : public ::testing::TestWithParam<uint64_t> {};

/// The 2-approximation guarantee of [12]: f(greedy) >= f(OPT) / 2.
TEST_P(GreedyApproxTest, WithinFactorTwoOfBruteForce) {
  LineWorld w = MakeLineWorld(GetParam(), 12, 0.5, 1000.0);
  const size_t k = 4;
  const ThetaFn theta = w.Theta();
  const auto dist_fn = [&w](const SkResult& a, const SkResult& b) {
    return w.Dist(a, b);
  };
  const Objective obj(w.lambda, w.delta_max);

  auto evaluate = [&](const std::vector<SkResult>& sel) {
    std::vector<double> dq;
    std::vector<double> pw(sel.size() * sel.size(), 0.0);
    for (size_t u = 0; u < sel.size(); ++u) {
      dq.push_back(sel[u].dist);
      for (size_t v = 0; v < sel.size(); ++v) {
        if (u != v) pw[u * sel.size() + v] = w.Dist(sel[u], sel[v]);
      }
    }
    return obj.ObjectiveValue(dq, pw);
  };

  const auto greedy = GreedyDiversify(w.candidates, k, theta);
  ASSERT_EQ(greedy.selected.size(), k);
  const auto optimal =
      BruteForceOptimal(w.candidates, k, w.lambda, w.delta_max, dist_fn);
  const double fg = evaluate(greedy.selected);
  const double fo = evaluate(optimal);
  EXPECT_LE(fg, fo + 1e-9);
  EXPECT_GE(fg, fo / 2.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyApproxTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48));

}  // namespace
}  // namespace dsks
