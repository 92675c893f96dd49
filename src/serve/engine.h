#pragma once
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/core/thread_annotations.h"
#include "src/data/dataset.h"
#include "src/io/checkpoint.h"
#include "src/models/adpa.h"
#include "src/tensor/matrix.h"

namespace adpa::serve {

/// Options for InferenceSession::Create.
struct EngineOptions {
  /// When non-empty, the Eq. 9 propagation precompute is read from this
  /// sidecar cache file if its content-hash key matches, and (optionally)
  /// written there after a miss. A stale or unreadable cache is a miss,
  /// never an error.
  std::string propagation_cache_path;
  bool write_cache_on_miss = true;
  CheckpointLimits limits;
};

/// Serving handle around one AdpaModel rebuilt from a checkpoint.
///
/// The model owns ADPA's Eq. 9 propagation, its parameter layout and its
/// no-tape eval forward (AdpaModel::EvalAll / EvalRows); the session adds
/// what serving needs on top: checkpoint-vs-dataset validation, the Eq. 9
/// sidecar cache, request index checks and the single-thread pin. Its
/// logits are therefore the training model's
/// `Forward(/*training=*/false, …)` bit for bit — a property serve_test
/// asserts for all four DP-attention variants.
///
/// Because every stage is row-wise over nodes (matmuls contract over
/// feature columns; softmax/attention are per-row), `ForwardRows` on a node
/// subset equals the corresponding rows of `ForwardAll` bit for bit, which
/// is what makes cheap micro-batched point queries possible.
class InferenceSession {
 public:
  /// Validates the checkpoint against `dataset` (DP patterns, content
  /// hash, sizes), cache-loads or replays the K-step DP propagation, and
  /// loads the weights into an AdpaModel (tensor count and every shape are
  /// checked).
  static Result<InferenceSession> Create(const Checkpoint& checkpoint,
                                         const Dataset& dataset,
                                         const EngineOptions& options = {});

  /// Logits for every node (num_nodes x num_classes).
  Matrix ForwardAll() const;

  /// Logits for the given nodes, one row per entry of `nodes` (indices may
  /// repeat). Fails on out-of-range indices. ADPA_HOT: steady-state calls
  /// must stay allocation-free (tools/analyze.py enforces this).
  ADPA_HOT Result<Matrix> ForwardRows(const std::vector<int64_t>& nodes) const;

  /// Argmax classes for the given nodes (ties break to the lowest index).
  ADPA_HOT Result<std::vector<int64_t>> Classify(
      const std::vector<int64_t>& nodes) const;

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_classes() const { return num_classes_; }
  /// True when the Eq. 9 precompute came from the sidecar cache.
  bool used_propagation_cache() const { return used_propagation_cache_; }

  /// True when the sidecar cache existed but was corrupt/truncated and the
  /// session degraded to recompute-and-rewrite (DESIGN.md §10). A missing
  /// file or a key mismatch is an ordinary miss, not degradation.
  bool cache_degraded() const { return cache_degraded_; }

 private:
  InferenceSession() = default;

  std::unique_ptr<const AdpaModel> model_;
  int64_t num_nodes_ = 0;
  int64_t num_classes_ = 0;
  bool used_propagation_cache_ = false;
  bool cache_degraded_ = false;
};

}  // namespace adpa::serve
