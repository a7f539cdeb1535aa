// Property tests on the learning layer: index monotonicity/limits for
// every policy, eq. (3) clipping threshold behavior, eq. (5)-(6) streaming
// updates against batch recomputation, and batch-vs-scalar index consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bandit/cab.h"
#include "bandit/estimates.h"
#include "bandit/llr.h"
#include "bandit/policy.h"
#include "bandit/simple_policies.h"
#include "util/rng.h"

namespace mhca {
namespace {

std::vector<std::unique_ptr<IndexPolicy>> all_policies() {
  std::vector<std::unique_ptr<IndexPolicy>> ps;
  ps.push_back(std::make_unique<CabIndexPolicy>());
  ps.push_back(std::make_unique<LlrIndexPolicy>(10));
  ps.push_back(std::make_unique<Ucb1IndexPolicy>());
  ps.push_back(std::make_unique<GreedyIndexPolicy>());
  ps.push_back(std::make_unique<EpsilonGreedyIndexPolicy>(0.1));
  return ps;
}

TEST(PolicyProperty, IndexAtLeastMeanForAllPolicies) {
  // Optimism: the exploration bonus is never negative.
  for (const auto& p : all_policies()) {
    for (double mean : {0.0, 0.3, 0.99}) {
      for (std::int64_t m : {1, 5, 100}) {
        for (std::int64_t t : {1, 10, 100000}) {
          EXPECT_GE(p->index_from(mean, m, 0, t, 20), mean - 1e-12)
              << p->name() << " mean=" << mean << " m=" << m << " t=" << t;
        }
      }
    }
  }
}

TEST(PolicyProperty, UnplayedDominatesPlayedMeans) {
  // An unplayed arm must outrank any arm whose index is its mean (<= 1).
  for (const auto& p : all_policies()) {
    const double unplayed = p->index_from(0.0, 0, 3, 50, 20);
    EXPECT_GT(unplayed, 1.0) << p->name();
  }
}

TEST(PolicyProperty, BonusNonIncreasingInSampleCount) {
  for (const auto& p : all_policies()) {
    double prev = p->index_from(0.5, 1, 0, 100000, 10) - 0.5;
    for (std::int64_t m : {2, 4, 16, 64, 256}) {
      const double bonus = p->index_from(0.5, m, 0, 100000, 10) - 0.5;
      EXPECT_LE(bonus, prev + 1e-12) << p->name() << " m=" << m;
      prev = bonus;
    }
  }
}

TEST(PolicyProperty, LlrAndUcbBonusesGrowWithT) {
  LlrIndexPolicy llr(5);
  Ucb1IndexPolicy ucb;
  for (std::int64_t t : {2, 10, 100, 10000}) {
    EXPECT_LT(llr.index_from(0.0, 3, 0, t, 10),
              llr.index_from(0.0, 3, 0, t * 10, 10));
    EXPECT_LT(ucb.index_from(0.0, 3, 0, t, 10),
              ucb.index_from(0.0, 3, 0, t * 10, 10));
  }
}

TEST(PolicyProperty, CabClippingThresholdExact) {
  // eq. (3): bonus is zero iff t^{2/3} <= K * m.
  CabIndexPolicy cab;
  const int K = 8;
  for (std::int64_t t : {64, 512, 4096, 32768}) {
    const double threshold =
        std::pow(static_cast<double>(t), 2.0 / 3.0) / static_cast<double>(K);
    for (std::int64_t m = 1; m <= 40; m += 3) {
      const double bonus = cab.index_from(0.0, m, 0, t, K);
      if (static_cast<double>(m) >= threshold) {
        EXPECT_DOUBLE_EQ(bonus, 0.0) << "t=" << t << " m=" << m;
      } else {
        EXPECT_GT(bonus, 0.0) << "t=" << t << " m=" << m;
      }
    }
  }
}

TEST(PolicyProperty, CabBonusSmallerThanLlrEventually) {
  // The core Fig. 7/8 mechanism: for equal state, CAB's bonus <= LLR's
  // once t is large (LLR's never clips).
  CabIndexPolicy cab;
  LlrIndexPolicy llr(15);
  for (std::int64_t m : {1, 5, 50}) {
    EXPECT_LE(cab.index_from(0.4, m, 0, 100000, 45),
              llr.index_from(0.4, m, 0, 100000, 45));
  }
}

TEST(PolicyProperty, StreamingMeanMatchesBatch) {
  Rng rng(17);
  ArmEstimates est(4);
  std::vector<std::vector<double>> samples(4);
  for (int i = 0; i < 500; ++i) {
    const int k = rng.uniform_int(0, 3);
    const double x = rng.uniform();
    est.observe(k, x);
    samples[static_cast<std::size_t>(k)].push_back(x);
  }
  for (int k = 0; k < 4; ++k) {
    const auto& s = samples[static_cast<std::size_t>(k)];
    double batch = 0.0;
    for (double x : s) batch += x;
    if (!s.empty()) batch /= static_cast<double>(s.size());
    EXPECT_NEAR(est.mean(k), batch, 1e-10);
    EXPECT_EQ(est.count(k), static_cast<std::int64_t>(s.size()));
  }
}

TEST(PolicyProperty, ComputeIndicesConsistentWithScalarCalls) {
  ArmEstimates est(6);
  est.observe(0, 0.5);
  est.observe(2, 0.9);
  est.observe(2, 0.7);
  for (const auto& p : all_policies()) {
    std::vector<double> batch;
    p->compute_indices(est, 33, batch);
    ASSERT_EQ(batch.size(), 6u);
    for (int k = 0; k < 6; ++k)
      EXPECT_DOUBLE_EQ(batch[static_cast<std::size_t>(k)],
                       p->index(est, k, 33))
          << p->name();
  }
}

TEST(PolicyProperty, IndexIncreasesWithMean) {
  for (const auto& p : all_policies()) {
    EXPECT_LT(p->index_from(0.2, 7, 0, 100, 10),
              p->index_from(0.8, 7, 0, 100, 10))
        << p->name();
  }
}

TEST(PolicyProperty, RoundOneNeverHasPositiveLogBonus) {
  // At t = 1 every policy's bonus collapses (ln 1 = 0; CAB clips).
  CabIndexPolicy cab;
  LlrIndexPolicy llr(5);
  Ucb1IndexPolicy ucb;
  EXPECT_DOUBLE_EQ(cab.index_from(0.4, 2, 0, 1, 10), 0.4);
  EXPECT_DOUBLE_EQ(llr.index_from(0.4, 2, 0, 1, 10), 0.4);
  EXPECT_DOUBLE_EQ(ucb.index_from(0.4, 2, 0, 1, 10), 0.4);
}

}  // namespace
}  // namespace mhca
