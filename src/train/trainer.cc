#include "src/train/trainer.h"

#include <algorithm>
#include <iostream>
#include <utility>

#include "src/core/failpoint.h"
#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/io/checkpoint.h"
#include "src/tensor/autograd.h"
#include "src/tensor/optimizer.h"
#include "src/tensor/tape_analysis.h"

namespace adpa {
namespace {

/// Captures the complete training cursor into a v2 checkpoint and
/// atomically rewrites `config.checkpoint_path`. Everything that influences
/// a future epoch goes in: weights (via MakeCheckpoint), Adam moments and
/// step count, the RNG stream, and the early-stopping bookkeeping.
Status SaveTrainingSnapshot(const Model& model, const Dataset& dataset,
                            const TrainConfig& config,
                            const SnapshotContext& context,
                            const Adam& optimizer, const Rng& rng,
                            int next_epoch, int epochs_since_best,
                            const TrainResult& progress) {
  ADPA_FAILPOINT("trainer.snapshot");
  Checkpoint snapshot = MakeCheckpoint(model, context.model_name, dataset,
                                       context.model_config, config);
  TrainState state;
  state.next_epoch = next_epoch;
  state.epochs_since_best = epochs_since_best;
  state.best_epoch = progress.best_epoch;
  state.best_val_accuracy = progress.best_val_accuracy;
  state.test_accuracy = progress.test_accuracy;
  state.rng = rng.SaveState();
  AdamState adam_state = optimizer.ExportState();
  state.optimizer_step_count = adam_state.step_count;
  state.adam_first_moment = std::move(adam_state.first_moment);
  state.adam_second_moment = std::move(adam_state.second_moment);
  state.val_curve = progress.val_curve;
  state.train_loss_curve = progress.train_loss_curve;
  snapshot.train_state = std::move(state);
  return SaveCheckpoint(snapshot, config.checkpoint_path);
}

}  // namespace

double Accuracy(const Matrix& logits, const std::vector<int64_t>& labels,
                const std::vector<int64_t>& indices) {
  ADPA_CHECK(!indices.empty());
  int64_t correct = 0;
  for (int64_t i : indices) {
    const float* row = logits.Row(i);
    int64_t argmax = 0;
    for (int64_t c = 1; c < logits.cols(); ++c) {
      if (row[c] > row[argmax]) argmax = c;
    }
    correct += argmax == labels[i];
  }
  return static_cast<double>(correct) / static_cast<double>(indices.size());
}

TrainResult TrainModel(Model* model, const Dataset& dataset,
                       const TrainConfig& config, Rng* rng) {
  Result<TrainResult> result =
      TrainModelResumable(model, dataset, config, rng);
  ADPA_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

Result<TrainResult> TrainModelResumable(Model* model, const Dataset& dataset,
                                        const TrainConfig& config, Rng* rng,
                                        const SnapshotContext* context) {
  ADPA_CHECK(model != nullptr);
  ADPA_CHECK(rng != nullptr);
  ADPA_CHECK_OK(dataset.Validate());
  ADPA_CHECK(!dataset.val_idx.empty())
      << "TrainModel needs a validation split for model selection";

  Adam optimizer(model->Parameters(), config.learning_rate,
                 config.weight_decay);
  TrainResult result;
  int epochs_since_best = 0;
  int start_epoch = 0;

  if (!config.resume_from.empty()) {
    Result<Checkpoint> snapshot = TryLoadCheckpoint(config.resume_from);
    ADPA_RETURN_IF_ERROR(snapshot.status());
    if (!snapshot->train_state.has_value()) {
      return Status::InvalidArgument(
          config.resume_from +
          " is a final checkpoint without training state; only periodic "
          "snapshots (--checkpoint_every) can be resumed");
    }
    // Order matters: weights first, then the optimizer moments that pair
    // with them, then the RNG stream — after this block every bit of
    // mutable training state matches the instant the snapshot was taken.
    ADPA_RETURN_IF_ERROR(LoadCheckpointIntoModel(*snapshot, model));
    TrainState& state = *snapshot->train_state;
    AdamState adam_state;
    adam_state.step_count = state.optimizer_step_count;
    adam_state.first_moment = std::move(state.adam_first_moment);
    adam_state.second_moment = std::move(state.adam_second_moment);
    ADPA_RETURN_IF_ERROR(optimizer.RestoreState(std::move(adam_state)));
    // analyze:allow(unchecked-status): Rng::RestoreState is void, name-collides with AdamOptimizer's
    rng->RestoreState(state.rng);
    start_epoch = state.next_epoch;
    epochs_since_best = state.epochs_since_best;
    result.best_val_accuracy = state.best_val_accuracy;
    result.best_epoch = state.best_epoch;
    result.test_accuracy = state.test_accuracy;
    result.epochs_run = start_epoch;
    result.resumed_from_epoch = start_epoch;
    if (config.record_curves) {
      result.val_curve = std::move(state.val_curve);
      result.train_loss_curve = std::move(state.train_loss_curve);
    }
  }

  const bool snapshots_enabled =
      config.checkpoint_every > 0 && !config.checkpoint_path.empty();
  const SnapshotContext default_context;
  const SnapshotContext& snapshot_context =
      context != nullptr ? *context : default_context;

  for (int epoch = start_epoch; epoch < config.max_epochs; ++epoch) {
    ADPA_FAILPOINT("trainer.epoch");
    // Training step.
    optimizer.ZeroGrad();
    ag::Variable logits = model->Forward(/*training=*/true, rng);
    ag::Variable loss =
        ag::MaskedCrossEntropy(logits, dataset.labels, dataset.train_idx);
    if (config.verify_tape && epoch == start_epoch) {
      // One-shot structural audit of the loss graph: op-shape and
      // backward-closure invariants are hard errors; dead (unreachable)
      // parameters are reported so callers can assert on them.
      const ag::TapeReport report =
          ag::AnalyzeTape(loss, model->Parameters());
      ADPA_CHECK(report.ok()) << report.Summary();
      result.dead_parameters =
          static_cast<int64_t>(report.dead_params.size());
    }
    ag::Backward(loss);
    optimizer.Step();
    if (config.check_finite) {
      loss.value().CheckFinite("training loss");
      logits.value().CheckFinite("training logits");
      for (const ag::Variable& p : model->Parameters()) {
        p.value().CheckFinite("parameter after optimizer step");
      }
    }

    // Evaluation pass (no dropout, no tape).
    const Matrix eval_logits = model->EvalLogits(rng);
    const double val_acc =
        Accuracy(eval_logits, dataset.labels, dataset.val_idx);
    if (config.record_curves) {
      result.val_curve.push_back(val_acc);
      result.train_loss_curve.push_back(loss.value().At(0, 0));
    }
    result.epochs_run = epoch + 1;
    bool stop = false;
    if (val_acc > result.best_val_accuracy) {
      result.best_val_accuracy = val_acc;
      result.best_epoch = epoch;
      result.test_accuracy =
          Accuracy(eval_logits, dataset.labels, dataset.test_idx);
      epochs_since_best = 0;
    } else {
      ++epochs_since_best;
      stop = config.patience > 0 && epochs_since_best >= config.patience;
    }

    if (snapshots_enabled && (epoch + 1) % config.checkpoint_every == 0) {
      const Status saved = SaveTrainingSnapshot(
          *model, dataset, config, snapshot_context, optimizer, *rng,
          /*next_epoch=*/epoch + 1, epochs_since_best, result);
      if (!saved.ok()) {
        // A lost snapshot only costs resume granularity; training goes on.
        std::cerr << "warning: training snapshot write failed ("
                  << saved.ToString() << "); continuing without it\n";
      }
    }
    if (stop) break;
  }
  return result;
}

}  // namespace adpa
