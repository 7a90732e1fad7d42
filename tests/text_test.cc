#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "text/term_stats.h"
#include "text/vocabulary.h"
#include "text/zipf.h"

namespace dsks {
namespace {

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  const TermId a = v.Intern("lobster");
  const TermId b = v.Intern("pancake");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.Intern("lobster"), a);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.Name(a), "lobster");
  EXPECT_EQ(v.Lookup("pancake"), b);
  EXPECT_EQ(v.Lookup("sushi"), kInvalidTermId);
}

TEST(VocabularyTest, SyntheticTermsAreDense) {
  Vocabulary v;
  v.AddSyntheticTerms(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Lookup("term0"), 0u);
  EXPECT_EQ(v.Lookup("term99"), 99u);
}

TEST(ZipfTest, ProbabilitiesSumToOneAndDecrease) {
  ZipfSampler zipf(1000, 1.1);
  double sum = 0.0;
  double prev = 1.0;
  for (size_t r = 0; r < zipf.n(); ++r) {
    const double p = zipf.Probability(r);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, SkewControlsHeadMass) {
  // Higher z concentrates more mass on the top ranks.
  ZipfSampler mild(10000, 0.9);
  ZipfSampler steep(10000, 1.3);
  double mild_head = 0.0;
  double steep_head = 0.0;
  for (size_t r = 0; r < 10; ++r) {
    mild_head += mild.Probability(r);
    steep_head += steep.Probability(r);
  }
  EXPECT_GT(steep_head, mild_head);
}

TEST(ZipfTest, EmpiricalFrequencyTracksTheory) {
  ZipfSampler zipf(50, 1.0);
  Random rng(77);
  std::vector<int> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Sample(&rng)];
  }
  for (size_t r : {0ul, 1ul, 5ul, 20ul}) {
    const double expected = zipf.Probability(r) * n;
    EXPECT_NEAR(counts[r], expected, expected * 0.1 + 30)
        << "rank " << r;
  }
}

/// The bucketed inverse CDF must return the plain lower_bound's rank for
/// every u: at each bucket edge b / G, where a bucket's search range ends,
/// and at its nextafter neighbours on both sides.
TEST(ZipfSamplerTest, BucketedRankEqualsPlainLowerBound) {
  const std::pair<size_t, double> shapes[] = {
      {1, 1.0}, {2, 0.9}, {50, 1.0}, {80, 1.2}, {1000, 1.1}, {8000, 1.0}};
  for (const auto& [n, z] : shapes) {
    const ZipfSampler zipf(n, z);
    const std::span<const double> cum = zipf.cumulative();
    auto plain = [&cum](double u) {
      const auto it = std::lower_bound(cum.begin(), cum.end(), u);
      return it == cum.end() ? cum.size() - 1
                             : static_cast<size_t>(it - cum.begin());
    };
    const size_t g = zipf.num_buckets();
    ASSERT_EQ(g & (g - 1), 0u) << "G must be a power of two";
    ASSERT_GE(g, n);
    for (size_t b = 0; b <= g; ++b) {
      const double edge = static_cast<double>(b) / static_cast<double>(g);
      for (const double u : {std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, 2.0)}) {
        ASSERT_EQ(zipf.RankOf(u), plain(u))
            << "n " << n << " bucket " << b << " u " << u;
      }
    }
    // Every cumulative value is a rank boundary too.
    for (const double c : cum) {
      for (const double u :
           {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
        ASSERT_EQ(zipf.RankOf(u), plain(u)) << "n " << n << " u " << u;
      }
    }
    // Sample is RankOf over the generator's next double.
    Random a(5);
    Random b(5);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(zipf.Sample(&a), plain(b.NextDouble()));
    }
  }
}

TEST(TermStatsTest, CountsOccurrencesAndRanks) {
  auto data = testing::MakeRandomDataset(42, 80, 300, 25, 4);
  TermStats stats(*data.objects, 25);
  EXPECT_EQ(stats.vocab_size(), 25u);

  uint64_t total = 0;
  for (TermId t = 0; t < 25; ++t) {
    total += stats.Frequency(t);
  }
  EXPECT_EQ(total, stats.total_occurrences());
  EXPECT_EQ(total, data.objects->TotalTermOccurrences());

  // ByFrequency is ordered by decreasing frequency.
  const auto& order = stats.ByFrequency();
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(stats.Frequency(order[i - 1]), stats.Frequency(order[i]));
  }
  // The cumulative distribution ends at the total.
  EXPECT_DOUBLE_EQ(stats.CumulativeByFrequency().back(),
                   static_cast<double>(total));
}

}  // namespace
}  // namespace dsks
