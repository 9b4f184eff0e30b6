#include <cmath>

#include "gtest/gtest.h"
#include "ml/logreg.h"
#include "ml/naive_bayes.h"
#include "ml/test_util.h"

namespace spa::ml {
namespace {

TEST(SigmoidTest, KnownValuesAndStability) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 0.8807970779778823, 1e-12);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 - 0.8807970779778823, 1e-12);
  // No overflow at extremes.
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(LogisticRegressionTest, SeparableBlobs) {
  const Dataset data = testing::MakeBlobs(300, 4, 5.0, 42);
  LogisticRegression model;
  ASSERT_TRUE(model.Train(data).ok());
  EXPECT_GE(testing::AccuracyOf(model, data), 0.98);
}

TEST(LogisticRegressionTest, ProbabilitiesOrderedByScore) {
  const Dataset data = testing::MakeBlobs(200, 3, 4.0, 7);
  LogisticRegression model;
  ASSERT_TRUE(model.Train(data).ok());
  // Probability is a monotone transform of the decision value.
  const auto r0 = data.x.row(0);
  const auto r1 = data.x.row(1);
  const bool score_order = model.Score(r0) < model.Score(r1);
  const bool prob_order =
      model.PredictProbability(r0) < model.PredictProbability(r1);
  EXPECT_EQ(score_order, prob_order);
}

TEST(LogisticRegressionTest, ProbabilitiesInUnitInterval) {
  const Dataset data = testing::MakeBlobs(200, 3, 4.0, 7);
  LogisticRegression model;
  ASSERT_TRUE(model.Train(data).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    const double p = model.PredictProbability(data.x.row(i));
    ASSERT_GT(p, 0.0);
    ASSERT_LT(p, 1.0);
  }
}

TEST(LogisticRegressionTest, RejectsEmpty) {
  LogisticRegression model;
  Dataset empty;
  EXPECT_FALSE(model.Train(empty).ok());
}

TEST(NaiveBayesTest, LearnsInformativeSparseFeatures) {
  const Dataset data =
      testing::MakeSparseBinary(2000, 50, 5, 0.7, 0.1, 42);
  BernoulliNaiveBayes model;
  ASSERT_TRUE(model.Train(data).ok());
  EXPECT_GE(testing::AccuracyOf(model, data), 0.85);
}

TEST(NaiveBayesTest, RequiresBothClasses) {
  Dataset data;
  data.x.AppendRow(std::vector<SparseEntry>{{0, 1.0}});
  data.y = {1};
  BernoulliNaiveBayes model;
  EXPECT_EQ(model.Train(data).code(), StatusCode::kFailedPrecondition);
}

TEST(NaiveBayesTest, IgnoresUnseenFeaturesAtScoreTime) {
  const Dataset data = testing::MakeSparseBinary(500, 10, 3, 0.8, 0.1, 3);
  BernoulliNaiveBayes model;
  ASSERT_TRUE(model.Train(data).ok());
  SparseVector unseen({{100, 1.0}});  // feature index beyond training
  // Must not crash; returns the prior-based score.
  const double s = model.Score(unseen.view());
  EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace spa::ml
