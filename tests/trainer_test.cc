// Trainer and experiment-harness semantics.

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/models/factory.h"
#include "src/tensor/autograd.h"
#include "src/tensor/optimizer.h"
#include "src/train/experiment.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

Dataset EasyTask(uint64_t seed = 1) {
  DsbmConfig config;
  config.num_nodes = 150;
  config.num_classes = 3;
  config.avg_out_degree = 5.0;
  config.class_transition = HomophilousTransition(3, 0.85);
  config.feature_dim = 10;
  config.feature_noise = 0.6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed + 100);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.4, 0.3, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

TEST(AccuracyTest, HandComputed) {
  Matrix logits = Matrix::FromRows({{2, 1}, {0, 3}, {5, 4}});
  const std::vector<int64_t> labels = {0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {2}), 0.0);
}

TEST(TrainerTest, EarlyStoppingCutsEpochs) {
  Dataset ds = EasyTask();
  Rng rng(2);
  ModelConfig mc;
  mc.hidden = 16;
  ModelPtr model = std::move(CreateModel("SGC", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 500;
  tc.patience = 5;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  EXPECT_LT(result.epochs_run, 500);
  EXPECT_GE(result.epochs_run, result.best_epoch + 1);
}

TEST(TrainerTest, PatienceZeroDisablesEarlyStopping) {
  Dataset ds = EasyTask();
  Rng rng(3);
  ModelConfig mc;
  mc.hidden = 8;
  ModelPtr model = std::move(CreateModel("SGC", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 25;
  tc.patience = 0;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  EXPECT_EQ(result.epochs_run, 25);
}

TEST(TrainerTest, CurvesRecordedWhenRequested) {
  Dataset ds = EasyTask();
  Rng rng(4);
  ModelConfig mc;
  mc.hidden = 8;
  ModelPtr model = std::move(CreateModel("GCN", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 10;
  tc.patience = 0;
  tc.record_curves = true;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  EXPECT_EQ(result.val_curve.size(), 10u);
  EXPECT_EQ(result.train_loss_curve.size(), 10u);
  // Loss should drop over 10 epochs on this easy task.
  EXPECT_LT(result.train_loss_curve.back(), result.train_loss_curve.front());
}

TEST(TrainerTest, TestAccuracyTakenAtBestValidationEpoch) {
  Dataset ds = EasyTask();
  Rng rng(5);
  ModelConfig mc;
  mc.hidden = 8;
  ModelPtr model = std::move(CreateModel("GCN", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 40;
  tc.patience = 0;
  tc.record_curves = true;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  // best_val_accuracy must equal the max of the recorded curve.
  double max_val = 0.0;
  for (double v : result.val_curve) max_val = std::max(max_val, v);
  EXPECT_DOUBLE_EQ(result.best_val_accuracy, max_val);
}

/// TrainModel's loop with patience 0, evaluating through the tape
/// Forward(false) (the loop perfbench's ReplayTraining runs).
TrainResult TrainWithTapeEval(Model* model, const Dataset& ds,
                              const TrainConfig& config, Rng* rng) {
  Adam optimizer(model->Parameters(), config.learning_rate,
                 config.weight_decay);
  TrainResult result;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    optimizer.ZeroGrad();
    ag::Variable loss = ag::MaskedCrossEntropy(
        model->Forward(/*training=*/true, rng), ds.labels, ds.train_idx);
    ag::Backward(loss);
    optimizer.Step();
    const Matrix eval = model->Forward(/*training=*/false, rng).value();
    const double val_acc = Accuracy(eval, ds.labels, ds.val_idx);
    result.val_curve.push_back(val_acc);
    result.train_loss_curve.push_back(loss.value().At(0, 0));
    if (val_acc > result.best_val_accuracy) {
      result.best_val_accuracy = val_acc;
      result.best_epoch = epoch;
      result.test_accuracy = Accuracy(eval, ds.labels, ds.test_idx);
    }
  }
  return result;
}

TEST(TrainerTest, AdpaNoTapeEvalKeepsTrainingBitwise) {
  // TrainModel evaluates ADPA through the no-tape EvalLogits. It must give
  // the same curves as the tape eval forward, bit for bit: the logits must
  // match, and eval must draw nothing from the RNG that training dropout
  // reads next epoch.
  ModelConfig original;
  ModelConfig gate;
  gate.dp_attention = DpAttention::kGate;
  ModelConfig no_dp_attention;
  no_dp_attention.use_dp_attention = false;
  const Dataset ds = EasyTask();
  for (ModelConfig mc : {original, gate, no_dp_attention}) {
    mc.hidden = 16;
    mc.dropout = 0.5f;
    TrainConfig tc;
    tc.max_epochs = 15;
    tc.patience = 0;
    tc.record_curves = true;
    Rng rng_a(6);
    ModelPtr a = std::move(CreateModel("ADPA", ds, mc, &rng_a)).value();
    const TrainResult trained = TrainModel(a.get(), ds, tc, &rng_a);
    Rng rng_b(6);
    ModelPtr b = std::move(CreateModel("ADPA", ds, mc, &rng_b)).value();
    const TrainResult replayed = TrainWithTapeEval(b.get(), ds, tc, &rng_b);
    EXPECT_EQ(trained.val_curve, replayed.val_curve);
    EXPECT_EQ(trained.train_loss_curve, replayed.train_loss_curve);
    EXPECT_EQ(trained.best_epoch, replayed.best_epoch);
    EXPECT_EQ(trained.test_accuracy, replayed.test_accuracy);
  }
}

TEST(AggregateTest, MeanAndStd) {
  RepeatedResult r = Aggregate({0.8, 0.9, 1.0});
  EXPECT_NEAR(r.mean, 90.0, 1e-9);
  EXPECT_NEAR(r.stddev, 10.0, 1e-9);
  EXPECT_EQ(r.ToString(), "90.0±10.0");
}

TEST(AggregateTest, SingleRunHasZeroStd) {
  RepeatedResult r = Aggregate({0.5});
  EXPECT_NEAR(r.mean, 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.stddev, 0.0);
}

TEST(ExperimentTest, RunRepeatedAggregatesAcrossSeeds) {
  ModelConfig mc;
  mc.hidden = 8;
  TrainConfig tc;
  tc.max_epochs = 30;
  tc.patience = 10;
  Result<RepeatedResult> result = RunRepeated(
      "SGC", [](uint64_t seed) { return Result<Dataset>(EasyTask(seed)); },
      mc, tc, /*runs=*/3, /*undirect_input=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->accuracies.size(), 3u);
  EXPECT_GT(result->mean, 40.0);  // percent
}

TEST(ExperimentTest, PropagatesBuilderFailure) {
  ModelConfig mc;
  TrainConfig tc;
  Result<RepeatedResult> result = RunRepeated(
      "SGC",
      [](uint64_t) {
        return Result<Dataset>(Status::Internal("builder broke"));
      },
      mc, tc, 2, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ExperimentTest, UndirectConventionFollowsModelType) {
  EXPECT_TRUE(ShouldUndirectInput("GCN"));
  EXPECT_TRUE(ShouldUndirectInput("JacobiConv"));
  EXPECT_FALSE(ShouldUndirectInput("MagNet"));
  EXPECT_FALSE(ShouldUndirectInput("ADPA"));
}

}  // namespace
}  // namespace adpa
