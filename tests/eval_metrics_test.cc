#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "eval/metrics.h"
#include "eval/pair_evaluator.h"
#include "tests/test_common.h"
#include "util/rng.h"

namespace hisrect::eval {
namespace {

TEST(MetricsTest, PerfectClassifier) {
  Confusion c{.tp = 10, .fp = 0, .tn = 20, .fn = 0};
  BinaryMetrics m = ComputeBinaryMetrics(c);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(MetricsTest, KnownConfusion) {
  Confusion c{.tp = 6, .fp = 2, .tn = 10, .fn = 2};
  BinaryMetrics m = ComputeBinaryMetrics(c);
  EXPECT_DOUBLE_EQ(m.accuracy, 16.0 / 20.0);
  EXPECT_DOUBLE_EQ(m.precision, 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(m.recall, 6.0 / 8.0);
  EXPECT_NEAR(m.f1, 0.75, 1e-9);  // precision == recall -> f1 == both.
}

TEST(MetricsTest, DegenerateAllNegativePredictions) {
  Confusion c{.tp = 0, .fp = 0, .tn = 12, .fn = 4};
  BinaryMetrics m = ComputeBinaryMetrics(c);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.75);
}

TEST(MetricsTest, EmptyConfusion) {
  BinaryMetrics m = ComputeBinaryMetrics(Confusion{});
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
}

TEST(MetricsTest, ConfusionAtThreshold) {
  std::vector<double> scores = {0.9, 0.6, 0.4, 0.1};
  std::vector<int> labels = {1, 0, 1, 0};
  Confusion c = ConfusionAtThreshold(scores, labels, 0.5);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
}

TEST(RocTest, PerfectSeparationAucOne) {
  std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  std::vector<int> labels = {1, 1, 0, 0};
  RocCurve roc = ComputeRoc(scores, labels);
  EXPECT_NEAR(roc.auc, 1.0, 1e-9);
}

TEST(RocTest, ReversedScoresAucZero) {
  std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  std::vector<int> labels = {1, 1, 0, 0};
  RocCurve roc = ComputeRoc(scores, labels);
  EXPECT_NEAR(roc.auc, 0.0, 1e-9);
}

TEST(RocTest, RandomScoresAucNearHalf) {
  util::Rng rng(3);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 4000; ++i) {
    scores.push_back(rng.Uniform());
    labels.push_back(rng.Bernoulli(0.3) ? 1 : 0);
  }
  RocCurve roc = ComputeRoc(scores, labels);
  EXPECT_NEAR(roc.auc, 0.5, 0.03);
}

TEST(RocTest, AllTiesGiveHalf) {
  std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  std::vector<int> labels = {1, 0, 1, 0};
  RocCurve roc = ComputeRoc(scores, labels);
  EXPECT_NEAR(roc.auc, 0.5, 1e-9);
}

TEST(RocTest, DegenerateSingleClassIsFlaggedNotFakeZero) {
  std::vector<double> scores = {0.5, 0.7};
  std::vector<int> labels = {1, 1};
  RocCurve roc = ComputeRoc(scores, labels);
  EXPECT_TRUE(roc.degenerate);
  EXPECT_TRUE(std::isnan(roc.auc));
  EXPECT_TRUE(roc.points.empty());

  RocCurve all_negative = ComputeRoc(scores, {0, 0});
  EXPECT_TRUE(all_negative.degenerate);
  EXPECT_TRUE(std::isnan(all_negative.auc));

  RocCurve healthy = ComputeRoc(scores, {0, 1});
  EXPECT_FALSE(healthy.degenerate);
  EXPECT_FALSE(std::isnan(healthy.auc));
}

// Tie-semantics regression: a confusion matrix computed at a reported ROC
// threshold must reproduce that ROC point exactly, including pairs whose
// score ties the threshold (both sides consume ties as `>=`).
TEST(RocTest, ConfusionAtRocThresholdReproducesRocPoint) {
  std::vector<double> scores = {0.9, 0.7, 0.7, 0.7, 0.4, 0.4, 0.1};
  std::vector<int> labels = {1, 1, 0, 1, 0, 1, 0};
  size_t num_pos = 4;
  size_t num_neg = 3;
  RocCurve roc = ComputeRoc(scores, labels);
  ASSERT_FALSE(roc.degenerate);
  ASSERT_GE(roc.points.size(), 2u);
  // Skip the synthetic (0, 0) anchor: its threshold is a placeholder above
  // every score.
  for (size_t i = 1; i < roc.points.size(); ++i) {
    const RocPoint& point = roc.points[i];
    Confusion c = ConfusionAtThreshold(scores, labels, point.threshold);
    EXPECT_DOUBLE_EQ(static_cast<double>(c.fp) / num_neg, point.fpr)
        << "threshold " << point.threshold;
    EXPECT_DOUBLE_EQ(static_cast<double>(c.tp) / num_pos, point.tpr)
        << "threshold " << point.threshold;
  }
}

TEST(RocTest, CurveIsMonotone) {
  util::Rng rng(5);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    int label = rng.Bernoulli(0.4) ? 1 : 0;
    scores.push_back(rng.Normal(label * 1.0, 1.0));
    labels.push_back(label);
  }
  RocCurve roc = ComputeRoc(scores, labels);
  for (size_t i = 1; i < roc.points.size(); ++i) {
    EXPECT_GE(roc.points[i].fpr, roc.points[i - 1].fpr);
    EXPECT_GE(roc.points[i].tpr, roc.points[i - 1].tpr);
  }
  EXPECT_GT(roc.auc, 0.6);  // Separated Gaussians beat chance.
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
}

class TenFoldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 4 positives, 40 negatives; scorer perfectly separates them.
    geo::LatLon center{40.0, -74.0};
    for (int i = 0; i < 4; ++i) {
      split_.profiles.push_back(
          hisrect::testing::MakeProfile(i, i * 10, center, 0));
    }
    for (int i = 0; i < 40; ++i) {
      split_.profiles.push_back(
          hisrect::testing::MakeProfile(100 + i, i * 10, center, 1));
    }
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = i + 1; j < 4; ++j) {
        split_.positive_pairs.push_back({i, j, data::CoLabel::kPositive});
      }
    }
    for (size_t i = 0; i < 4; ++i) {
      for (size_t j = 4; j < 44; ++j) {
        split_.negative_pairs.push_back({i, j, data::CoLabel::kNegative});
      }
    }
  }
  data::DataSplit split_;
};

TEST_F(TenFoldTest, PerfectScorerGetsPerfectMetrics) {
  PairScorer oracle = [](const data::Profile& a, const data::Profile& b) {
    return a.pid == b.pid ? 0.9 : 0.1;
  };
  util::Rng rng(1);
  BinaryMetrics m = EvaluateTenFold(split_, oracle, rng);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST_F(TenFoldTest, ConstantScorerGetsPositiveRateAccuracy) {
  PairScorer constant = [](const data::Profile&, const data::Profile&) {
    return 0.0;
  };
  util::Rng rng(1);
  BinaryMetrics m = EvaluateTenFold(split_, constant, rng);
  // Each fold: 6 positives + 16 negatives; all predicted negative.
  EXPECT_NEAR(m.accuracy, 16.0 / 22.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
}

TEST_F(TenFoldTest, ScoresEachPairExactlyOnce) {
  // ScoreLabeledPairs calls the scorer from pool threads concurrently.
  std::atomic<size_t> calls{0};
  PairScorer counting = [&calls](const data::Profile&, const data::Profile&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return 0.5;
  };
  util::Rng rng(1);
  EvaluateTenFold(split_, counting, rng);
  EXPECT_EQ(calls.load(),
            split_.positive_pairs.size() + split_.negative_pairs.size());
}

TEST_F(TenFoldTest, RocUsesAllPairs) {
  PairScorer oracle = [](const data::Profile& a, const data::Profile& b) {
    return a.pid == b.pid ? 0.9 : 0.1;
  };
  RocCurve roc = EvaluateRoc(split_, oracle);
  EXPECT_NEAR(roc.auc, 1.0, 1e-9);
}

}  // namespace
}  // namespace hisrect::eval
