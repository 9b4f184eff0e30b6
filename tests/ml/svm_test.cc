#include <memory>

#include "gtest/gtest.h"
#include "ml/metrics.h"
#include "ml/svm_linear.h"
#include "ml/test_util.h"

namespace spa::ml {
namespace {

TEST(LinearSvmTest, RejectsEmptyDataset) {
  LinearSvm svm;
  Dataset empty;
  EXPECT_FALSE(svm.Train(empty).ok());
}

TEST(LinearSvmTest, SeparableBlobsPerfectTrainAccuracy) {
  const Dataset data = testing::MakeBlobs(200, 4, 6.0, 42);
  LinearSvm svm;
  ASSERT_TRUE(svm.Train(data).ok());
  EXPECT_GE(testing::AccuracyOf(svm, data), 0.99);
}

TEST(LinearSvmTest, GeneralizesToHeldOut) {
  const Dataset train = testing::MakeBlobs(400, 4, 4.0, 1);
  const Dataset test = testing::MakeBlobs(200, 4, 4.0, 2);
  LinearSvm svm;
  ASSERT_TRUE(svm.Train(train).ok());
  EXPECT_GE(testing::AccuracyOf(svm, test), 0.95);
}

TEST(LinearSvmTest, WeightsPointAcrossTheMargin) {
  // Blob centers at +s/2 on every axis for positives: all weights
  // should be positive.
  const Dataset data = testing::MakeBlobs(300, 3, 5.0, 7);
  LinearSvm svm;
  ASSERT_TRUE(svm.Train(data).ok());
  for (double w : svm.weights()) EXPECT_GT(w, 0.0);
}

TEST(LinearSvmTest, SquaredHingeAlsoSeparates) {
  const Dataset data = testing::MakeBlobs(200, 4, 6.0, 42);
  SvmConfig config;
  config.loss = SvmLoss::kSquaredHinge;
  LinearSvm svm(config);
  ASSERT_TRUE(svm.Train(data).ok());
  EXPECT_GE(testing::AccuracyOf(svm, data), 0.99);
}

TEST(LinearSvmTest, DualVariablesRespectBox) {
  const Dataset data = testing::MakeBlobs(100, 3, 2.0, 9);
  SvmConfig config;
  config.c = 0.5;
  LinearSvm svm(config);
  ASSERT_TRUE(svm.Train(data).ok());
  for (double a : svm.alphas()) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 0.5 + 1e-9);
  }
}

TEST(LinearSvmTest, ConvergesEarlyOnEasyData) {
  const Dataset data = testing::MakeBlobs(100, 2, 8.0, 3);
  SvmConfig config;
  config.max_iterations = 200;
  LinearSvm svm(config);
  ASSERT_TRUE(svm.Train(data).ok());
  EXPECT_LT(svm.iterations_run(), 200);
}

TEST(LinearSvmTest, ClassWeightShiftsDecision) {
  // Imbalanced overlapping data; upweighting positives must increase
  // positive recall.
  Dataset data = testing::MakeBlobs(400, 2, 1.0, 5);
  SvmConfig plain;
  LinearSvm svm_plain(plain);
  ASSERT_TRUE(svm_plain.Train(data).ok());

  SvmConfig weighted = plain;
  weighted.positive_class_weight = 10.0;
  LinearSvm svm_weighted(weighted);
  ASSERT_TRUE(svm_weighted.Train(data).ok());

  const auto scores_plain = svm_plain.ScoreAll(data);
  const auto scores_weighted = svm_weighted.ScoreAll(data);
  const double recall_plain = Confusion(scores_plain, data.y).Recall();
  const double recall_weighted =
      Confusion(scores_weighted, data.y).Recall();
  EXPECT_GE(recall_weighted, recall_plain);
}

TEST(PegasosSvmTest, SeparableBlobs) {
  const Dataset data = testing::MakeBlobs(400, 4, 6.0, 42);
  SvmConfig config;
  config.max_iterations = 30;
  PegasosSvm svm(config);
  ASSERT_TRUE(svm.Train(data).ok());
  EXPECT_GE(testing::AccuracyOf(svm, data), 0.97);
}

TEST(PegasosSvmTest, AgreesWithDcdOnEasyData) {
  const Dataset data = testing::MakeBlobs(300, 4, 5.0, 11);
  LinearSvm dcd;
  PegasosSvm pegasos;
  ASSERT_TRUE(dcd.Train(data).ok());
  ASSERT_TRUE(pegasos.Train(data).ok());
  size_t agree = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const auto row = data.x.row(i);
    if ((dcd.Score(row) >= 0) == (pegasos.Score(row) >= 0)) ++agree;
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(data.size()),
            0.97);
}

TEST(PegasosSvmTest, PartialTrainImprovesOverTime) {
  const Dataset data = testing::MakeBlobs(300, 4, 3.0, 13);
  SvmConfig config;
  config.max_iterations = 1;
  PegasosSvm svm(config);
  ASSERT_TRUE(svm.Train(data).ok());
  // several incremental passes
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(svm.PartialTrain(data).ok());
  }
  const double acc_after = testing::AccuracyOf(svm, data);
  EXPECT_GE(acc_after, 0.95);
}

TEST(PegasosSvmTest, PartialTrainGrowsFeatureSpace) {
  Dataset small = testing::MakeBlobs(50, 2, 5.0, 17);
  PegasosSvm svm;
  ASSERT_TRUE(svm.Train(small).ok());
  Dataset wider = testing::MakeBlobs(50, 6, 5.0, 18);
  ASSERT_TRUE(svm.PartialTrain(wider).ok());
  EXPECT_EQ(svm.weights().size(), 6u);
}

// Property sweep: the DCD SVM must stay accurate across C values on
// separable data (margins change; separation should not).
class SvmCSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmCSweep, SeparableStaysSeparated) {
  const Dataset data = testing::MakeBlobs(200, 3, 6.0, 31);
  SvmConfig config;
  config.c = GetParam();
  LinearSvm svm(config);
  ASSERT_TRUE(svm.Train(data).ok());
  EXPECT_GE(testing::AccuracyOf(svm, data), 0.98) << "C=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CValues, SvmCSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 100.0));

}  // namespace
}  // namespace spa::ml
