#include "stats/quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace harvest::stats {
namespace {

TEST(QuantileTest, ExactOnSmallVector) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  // Interpolated between 1 and 2 at q=0.1: pos=0.4.
  EXPECT_NEAR(quantile(v, 0.1), 1.4, 1e-12);
}

TEST(QuantileTest, UnsortedInputHandled) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(QuantileTest, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile(v, 1.5), std::invalid_argument);
}

TEST(QuantileTest, MultipleQuantilesMatchSingle) {
  util::Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform());
  const std::vector<double> qs{0.05, 0.5, 0.95};
  const auto multi = quantiles(v, qs);
  ASSERT_EQ(multi.size(), 3u);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(multi[i], quantile(v, qs[i]));
  }
}

// P2 streaming estimator must converge to the exact quantile on stationary
// input, across distributions and target quantiles.
// gtest names each case by a byte dump of its P2Case, so the struct must
// have no padding bytes (their contents vary from build to build): `dist`
// is 64-bit to fill the 16 bytes exactly.
struct P2Case {
  double q;
  std::int64_t dist;  // 0 uniform, 1 normal, 2 exponential
};
static_assert(sizeof(P2Case) == sizeof(double) + sizeof(std::int64_t));

class P2QuantileProperty : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2QuantileProperty, ConvergesToExactQuantile) {
  const auto [q, dist] = GetParam();
  util::Rng rng(777 + dist);
  P2Quantile p2(q);
  std::vector<double> all;
  const int n = 50000;
  all.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = 0;
    switch (dist) {
      case 0: x = rng.uniform(); break;
      case 1: x = rng.normal(0, 1); break;
      default: x = rng.exponential(1.0); break;
    }
    p2.add(x);
    all.push_back(x);
  }
  const double exact = quantile(all, q);
  const double spread = quantile(all, 0.99) - quantile(all, 0.01);
  EXPECT_NEAR(p2.value(), exact, 0.05 * spread)
      << "q=" << q << " dist=" << dist;
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, P2QuantileProperty,
    ::testing::Values(P2Case{0.5, 0}, P2Case{0.9, 0}, P2Case{0.99, 0},
                      P2Case{0.5, 1}, P2Case{0.95, 1}, P2Case{0.5, 2},
                      P2Case{0.99, 2}));

TEST(P2QuantileTest, ExactForFewSamples) {
  P2Quantile p2(0.5);
  p2.add(3.0);
  EXPECT_DOUBLE_EQ(p2.value(), 3.0);
  p2.add(1.0);
  p2.add(2.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);
}

TEST(P2QuantileTest, EmptyIsNaN) {
  P2Quantile p2(0.9);
  EXPECT_TRUE(std::isnan(p2.value()));
}

TEST(P2QuantileTest, RejectsDegenerateQ) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

}  // namespace
}  // namespace harvest::stats
