#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/core_pairs.h"
#include "core/diversify.h"
#include "core/query.h"
#include "gtest/gtest.h"

namespace dsks {
namespace {

/// Random symmetric theta matrix over object ids 0..n-1 with distinct
/// values (ties have measure zero with a continuous RNG).
struct ThetaWorld {
  std::vector<std::vector<double>> theta;

  ThetaFn Fn() const {
    return [this](const SkResult& a, const SkResult& b) {
      return theta[a.id][b.id];
    };
  }
};

/// A result that only carries its id, all a ThetaWorld reads.
SkResult Obj(ObjectId id) {
  SkResult r;
  r.id = id;
  return r;
}

/// Objects 0..n-1.
std::vector<SkResult> FirstObjects(size_t n) {
  std::vector<SkResult> out;
  for (ObjectId id = 0; id < n; ++id) {
    out.push_back(Obj(id));
  }
  return out;
}

ThetaWorld MakeThetaWorld(uint64_t seed, size_t n) {
  ThetaWorld w;
  Random rng(seed);
  w.theta.assign(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double t = rng.NextDouble();
      w.theta[i][j] = t;
      w.theta[j][i] = t;
    }
  }
  return w;
}

/// From-scratch reference: Algorithm 1's pair selection over the ids.
std::vector<ScoredPair> GreedyPairsReference(const std::vector<SkResult>& seen,
                                             const ThetaWorld& w,
                                             size_t num_pairs) {
  std::vector<ScoredPair> pairs;
  std::vector<ObjectId> remaining;
  for (const SkResult& r : seen) {
    remaining.push_back(r.id);
  }
  while (pairs.size() < num_pairs && remaining.size() >= 2) {
    bool found = false;
    ScoredPair best;
    ObjectId bi = 0;
    ObjectId bj = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      for (size_t j = i + 1; j < remaining.size(); ++j) {
        const ScoredPair sp = ScoredPair::Make(
            w.theta[remaining[i]][remaining[j]], remaining[i], remaining[j]);
        if (!found || sp.Better(best)) {
          found = true;
          best = sp;
          bi = remaining[i];
          bj = remaining[j];
        }
      }
    }
    pairs.push_back(best);
    remaining.erase(std::remove(remaining.begin(), remaining.end(), bi),
                    remaining.end());
    remaining.erase(std::remove(remaining.begin(), remaining.end(), bj),
                    remaining.end());
  }
  return pairs;
}

struct CorePairSweep {
  uint64_t seed;
  size_t n;          // total objects streamed
  size_t num_pairs;  // k/2
};

class CorePairPropertyTest
    : public ::testing::TestWithParam<CorePairSweep> {};

/// The §4.2 invariant: after every arrival, the incrementally maintained
/// CP equals the from-scratch greedy pairs over all objects seen so far,
/// and θ_T never decreases (Theorem 1).
TEST_P(CorePairPropertyTest, MatchesFromScratchGreedyAfterEveryArrival) {
  const auto p = GetParam();
  const ThetaWorld w = MakeThetaWorld(p.seed, p.n);
  const size_t k = p.num_pairs * 2;

  std::vector<SkResult> seen = FirstObjects(k);
  CorePairSet cp(p.num_pairs);
  cp.Init(GreedyPairsReference(seen, w, p.num_pairs));
  ASSERT_TRUE(cp.full());

  double prev_theta_t = cp.threshold().theta;
  for (ObjectId id = static_cast<ObjectId>(k); id < p.n; ++id) {
    seen.push_back(Obj(id));
    cp.OnArrival(seen.back(), seen, w.Fn());

    // θ_T monotonicity.
    EXPECT_GE(cp.threshold().theta, prev_theta_t - 1e-12);
    prev_theta_t = cp.threshold().theta;

    // Exact match with the from-scratch greedy.
    const auto want = GreedyPairsReference(seen, w, p.num_pairs);
    const auto& got = cp.pairs();
    ASSERT_EQ(got.size(), want.size()) << "after arrival " << id;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].a, want[i].a) << "arrival " << id << " pair " << i;
      EXPECT_EQ(got[i].b, want[i].b) << "arrival " << id << " pair " << i;
      EXPECT_NEAR(got[i].theta, want[i].theta, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorePairPropertyTest,
    ::testing::Values(CorePairSweep{1, 30, 2},
                      CorePairSweep{2, 40, 3},
                      CorePairSweep{3, 60, 5},
                      CorePairSweep{4, 25, 1},
                      CorePairSweep{5, 80, 4},
                      CorePairSweep{6, 50, 7},
                      CorePairSweep{7, 100, 5}));

TEST(CorePairSetTest, PairsCoverEachCoreObjectOnce) {
  const ThetaWorld w = MakeThetaWorld(11, 10);
  const std::vector<SkResult> seen = FirstObjects(4);
  CorePairSet cp(2);
  cp.Init(GreedyPairsReference(seen, w, 2));
  ASSERT_EQ(cp.pairs().size(), 2u);
  // The two pairs cover the four objects, each once.
  std::vector<ObjectId> core;
  for (const ScoredPair& p : cp.pairs()) {
    core.push_back(p.a);
    core.push_back(p.b);
  }
  std::sort(core.begin(), core.end());
  EXPECT_EQ(core, (std::vector<ObjectId>{0, 1, 2, 3}));
  for (ObjectId id : core) {
    EXPECT_TRUE(cp.IsCore(id));
  }
  EXPECT_FALSE(cp.IsCore(9));
}

TEST(CorePairSetTest, ArrivalBelowThresholdChangesNothing) {
  // Build a world where object 4 is uniformly terrible.
  ThetaWorld w = MakeThetaWorld(12, 5);
  for (size_t i = 0; i < 5; ++i) {
    w.theta[4][i] = w.theta[i][4] = 1e-6;
  }
  std::vector<SkResult> seen = FirstObjects(4);
  CorePairSet cp(2);
  cp.Init(GreedyPairsReference(seen, w, 2));
  const auto before = cp.pairs();
  seen.push_back(Obj(4));
  cp.OnArrival(seen.back(), seen, w.Fn());
  const auto& after = cp.pairs();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].a, after[i].a);
    EXPECT_EQ(before[i].b, after[i].b);
  }
}

TEST(CorePairSetTest, DominatingArrivalTriggersCascade) {
  // Craft the paper's case iii: the newcomer pairs with a core object,
  // displacing its partner, which then re-enters and pairs elsewhere.
  ThetaWorld w;
  w.theta.assign(6, std::vector<double>(6, 0.01));
  auto set = [&w](ObjectId a, ObjectId b, double t) {
    w.theta[a][b] = w.theta[b][a] = t;
  };
  set(0, 1, 0.90);  // initial pair 1
  set(2, 3, 0.80);  // initial pair 2
  std::vector<SkResult> seen = FirstObjects(4);
  CorePairSet cp(2);
  cp.Init(GreedyPairsReference(seen, w, 2));

  set(4, 0, 0.95);  // newcomer beats pair 1 through core object 0
  set(1, 5, 0.0);   // (5 unused)
  set(1, 2, 0.85);  // displaced object 1 now beats pair 2 via object 2
  seen.push_back(Obj(4));
  cp.OnArrival(seen.back(), seen, w.Fn());

  const auto want = GreedyPairsReference(seen, w, 2);
  const auto& got = cp.pairs();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a);
    EXPECT_EQ(got[i].b, want[i].b);
  }
  // The cascade happened: (0,4) and (1,2) are the pairs now.
  EXPECT_TRUE(cp.IsCore(4));
  EXPECT_TRUE(cp.IsCore(1));
  EXPECT_FALSE(cp.IsCore(3));
}

}  // namespace
}  // namespace dsks
