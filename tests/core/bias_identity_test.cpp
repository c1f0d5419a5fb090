// The bias-augmented scoring paths (ridge, SGD, LinearPolicy, LinUCB) fold
// the leading 1.0 feature in place instead of building x.with_bias() per
// row. These tests hold them to the materialized reference bit for bit:
// every score, weight and update must equal what the augmented vector gives,
// and a dimension mismatch must still throw std::invalid_argument.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/linalg.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "core/train/linucb.h"
#include "util/rng.h"

namespace harvest::core {
namespace {

constexpr std::size_t kDims[] = {1, 2, 4, 7};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

FeatureVector random_x(util::Rng& rng, std::size_t dim) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng.uniform(-3.0, 3.0);
  return FeatureVector(std::move(v));
}

std::vector<double> random_w(util::Rng& rng, std::size_t dim_with_bias) {
  std::vector<double> w(dim_with_bias);
  for (double& x : w) x = rng.uniform(-2.0, 2.0);
  return w;
}

/// Ridge sufficient statistics accumulated on the materialized (1, x).
struct RidgeReference {
  Matrix xtx;
  std::vector<double> xty;
  RidgeReference(std::size_t n, double lambda) : xtx(n, n), xty(n, 0.0) {
    for (std::size_t i = 0; i < n; ++i) xtx.at(i, i) = lambda;
  }
  void observe(const FeatureVector& x, double reward, double weight) {
    const FeatureVector xb = x.with_bias();
    xtx.add_outer(xb.values(), weight);
    for (std::size_t i = 0; i < xb.size(); ++i) {
      xty[i] += weight * reward * xb[i];
    }
  }
};

TEST(BiasIdentityTest, DotWithBiasMatchesAugmentedDot) {
  util::Rng rng(11);
  for (const std::size_t dim : kDims) {
    for (int trial = 0; trial < 200; ++trial) {
      const FeatureVector x = random_x(rng, dim);
      const std::vector<double> w = random_w(rng, dim + 1);
      EXPECT_EQ(bits(dot_with_bias(x.values(), w)),
                bits(x.with_bias().dot(w)));
    }
  }
  // -0.0 bias weight with an empty context: 0 + (-0.0) is +0.0, and the
  // in-place sum must keep that rounding too.
  const std::vector<double> neg_zero = {-0.0};
  EXPECT_EQ(bits(dot_with_bias({}, neg_zero)),
            bits(FeatureVector{}.with_bias().dot(neg_zero)));
  const FeatureVector x{1.0, 2.0};
  EXPECT_THROW(dot_with_bias(x.values(), std::vector<double>(2)),
               std::invalid_argument);
}

TEST(BiasIdentityTest, RidgeObserveFitAndPredictAreBitIdentical) {
  util::Rng rng(12);
  for (const std::size_t dim : kDims) {
    const std::size_t actions = 3;
    RidgeRewardModel model(actions, dim, 0.5);
    std::vector<RidgeReference> ref(actions, RidgeReference(dim + 1, 0.5));
    for (int i = 0; i < 300; ++i) {
      const FeatureVector x = random_x(rng, dim);
      const auto a = static_cast<ActionId>(rng.uniform_index(actions));
      const double reward = rng.uniform(-1.0, 2.0);
      const double weight = rng.uniform(0.1, 10.0);
      model.observe(x, a, reward, weight);
      ref[a].observe(x, reward, weight);
    }
    model.fit();
    for (std::size_t a = 0; a < actions; ++a) {
      const std::vector<double> coef =
          cholesky_solve(ref[a].xtx, ref[a].xty);
      const std::vector<double>& got = model.weights(static_cast<ActionId>(a));
      ASSERT_EQ(got.size(), coef.size());
      for (std::size_t i = 0; i < coef.size(); ++i) {
        EXPECT_EQ(bits(got[i]), bits(coef[i])) << "dim " << dim << " a " << a;
      }
      for (int t = 0; t < 20; ++t) {
        const FeatureVector x = random_x(rng, dim);
        EXPECT_EQ(bits(model.predict(x, static_cast<ActionId>(a))),
                  bits(x.with_bias().dot(coef)));
      }
    }
    const FeatureVector wrong = random_x(rng, dim + 1);
    EXPECT_THROW(model.predict(wrong, 0), std::invalid_argument);
    EXPECT_THROW(model.observe(wrong, 0, 1.0), std::invalid_argument);
  }
}

TEST(BiasIdentityTest, SgdUpdateAndPredictAreBitIdentical) {
  util::Rng rng(13);
  for (const std::size_t dim : kDims) {
    const std::size_t actions = 2;
    const double lr = 0.3, l2 = 0.01;
    SgdRewardModel model(actions, dim, lr, l2);
    // The pre-change update, on the materialized augmented vector.
    std::vector<std::vector<double>> w(actions,
                                       std::vector<double>(dim + 1, 0.0));
    std::vector<std::size_t> updates(actions, 0);
    for (int i = 0; i < 300; ++i) {
      const FeatureVector x = random_x(rng, dim);
      const auto a = static_cast<ActionId>(rng.uniform_index(actions));
      const double reward = rng.uniform(-1.0, 2.0);
      const double weight = rng.uniform(0.5, 3.0);
      model.update(x, a, reward, weight);

      const FeatureVector xb = x.with_bias();
      double norm2 = 0;
      for (std::size_t k = 0; k < xb.size(); ++k) norm2 += xb[k] * xb[k];
      const double step =
          lr / (norm2 * std::sqrt(1.0 + static_cast<double>(updates[a]) /
                                            100.0));
      const double err = xb.dot(w[a]) - reward;
      for (std::size_t k = 0; k < w[a].size(); ++k) {
        w[a][k] -= step * weight * (err * xb[k] + l2 * w[a][k]);
      }
      ++updates[a];

      const FeatureVector probe = random_x(rng, dim);
      for (std::size_t b = 0; b < actions; ++b) {
        ASSERT_EQ(bits(model.predict(probe, static_cast<ActionId>(b))),
                  bits(probe.with_bias().dot(w[b])))
            << "dim " << dim << " step " << i;
      }
    }
    const FeatureVector wrong = random_x(rng, dim + 1);
    EXPECT_THROW(model.update(wrong, 0, 1.0), std::invalid_argument);
    EXPECT_THROW(model.predict(wrong, 0), std::invalid_argument);
  }
}

TEST(BiasIdentityTest, LinearPolicyChoosesTheReferenceArgmax) {
  util::Rng rng(14);
  for (const std::size_t dim : kDims) {
    const std::size_t actions = 4;
    std::vector<std::vector<double>> weights;
    for (std::size_t a = 0; a < actions; ++a) {
      weights.push_back(random_w(rng, dim + 1));
    }
    // Two arms with equal weights: the tie must still go to the lower id.
    weights[3] = weights[1];
    const LinearPolicy policy(weights);
    for (int t = 0; t < 300; ++t) {
      const FeatureVector x = random_x(rng, dim);
      const FeatureVector xb = x.with_bias();
      ActionId best = 0;
      double best_score = xb.dot(weights[0]);
      for (std::size_t a = 1; a < actions; ++a) {
        const double s = xb.dot(weights[a]);
        if (s > best_score) {
          best_score = s;
          best = static_cast<ActionId>(a);
        }
      }
      EXPECT_EQ(policy.choose(x), best);
    }
    EXPECT_THROW(policy.choose(random_x(rng, dim + 1)),
                 std::invalid_argument);
  }
}

TEST(BiasIdentityTest, LinUcbScoresAreBitIdentical) {
  util::Rng rng(15);
  for (const std::size_t dim : kDims) {
    const std::size_t actions = 3;
    const LinUcbTrainer::Config config{0.7, 1.5};
    LinUcbTrainer online(actions, dim, config);
    LinUcbTrainer batched(actions, dim, config);
    std::vector<RidgeReference> ref(actions,
                                    RidgeReference(dim + 1, config.lambda));
    // learn_batch merges one zero-initialized partial per shard into the
    // arms; a batch below one shard's minimum is a single partial.
    std::vector<RidgeReference> partial(actions, RidgeReference(dim + 1, 0.0));
    std::vector<ExplorationPoint> batch;
    for (int i = 0; i < 200; ++i) {
      const FeatureVector x = random_x(rng, dim);
      const auto a = static_cast<ActionId>(rng.uniform_index(actions));
      const double reward = rng.uniform(-1.0, 2.0);
      online.learn(x, a, reward);
      ref[a].observe(x, reward, 1.0);
      partial[a].observe(x, reward, 1.0);
      batch.push_back({x, a, reward, 1.0});
    }
    batched.learn_batch(batch);
    std::vector<RidgeReference> merged(actions,
                                       RidgeReference(dim + 1, config.lambda));
    for (std::size_t a = 0; a < actions; ++a) {
      for (std::size_t i = 0; i <= dim; ++i) {
        for (std::size_t j = 0; j <= dim; ++j) {
          merged[a].xtx.at(i, j) += partial[a].xtx.at(i, j);
        }
        merged[a].xty[i] += partial[a].xty[i];
      }
    }
    for (int t = 0; t < 20; ++t) {
      const FeatureVector x = random_x(rng, dim);
      const FeatureVector xb = x.with_bias();
      ActionId best = 0;
      double best_score = 0;
      for (std::size_t a = 0; a < actions; ++a) {
        const auto id = static_cast<ActionId>(a);
        const double mean =
            xb.dot(cholesky_solve(ref[a].xtx, ref[a].xty));
        const double bonus =
            config.alpha *
            std::sqrt(std::max(0.0, xb.dot(cholesky_solve(ref[a].xtx,
                                                          xb.values()))));
        EXPECT_EQ(bits(online.predict(x, id)), bits(mean));
        EXPECT_EQ(bits(online.bonus(x, id)), bits(bonus));
        EXPECT_EQ(bits(batched.predict(x, id)),
                  bits(xb.dot(cholesky_solve(merged[a].xtx, merged[a].xty))));
        if (a == 0 || mean + bonus > best_score) {
          best_score = mean + bonus;
          best = id;
        }
      }
      EXPECT_EQ(online.step(x), best);
    }
    const FeatureVector wrong = random_x(rng, dim + 1);
    EXPECT_THROW(online.learn(wrong, 0, 1.0), std::invalid_argument);
    EXPECT_THROW(online.predict(wrong, 0), std::invalid_argument);
    EXPECT_THROW(batched.learn_batch({{wrong, 0, 1.0, 1.0}}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace harvest::core
