#pragma once
#include <string>
#include <vector>

#include "src/graph/patterns.h"
#include "src/models/model.h"
#include "src/tensor/nn.h"

namespace adpa {

class Workspace;

/// ADPA — Adaptive Directed Pattern Aggregation (paper Sec. IV), the core
/// contribution. The model decouples propagation from training:
///
///  1. *DP-guided feature propagation* (Eq. 9, training-free,
///     ComputePropagationBlocks, held as constants): for every directed
///     pattern G_g of order ≤ `config.pattern_order` and every step
///     l = 1..K, compute X_g^(l) = G_g X_g^(l-1), yielding K·k propagated
///     blocks plus the initial residual X^(0).
///  2. *Node-wise DP attention* (Eq. 10): per step l, fuse the k+1 blocks
///     with per-node weights into X̄^(l) ∈ R^{n×h}. Four interchangeable
///     variants (Original / Gate / Recursive / JK — Table VII).
///  3. *Node-wise hop attention* (Eq. 11): per-node softmax over the K
///     fused representations, X* = Σ_l W_hop[:,l] ⊙ X̄^(l).
///  4. MLP classifier on X*.
///
/// Ablation switches: `use_dp_attention = false` replaces step 2's weights
/// with a uniform average; `use_hop_attention = false` replaces step 3 with
/// a uniform average; `initial_residual = false` drops X^(0) from the
/// block list (Eq. 9's over-smoothing guard).
///
/// ADPA accepts both AMDirected and AMUndirected inputs: on a symmetric
/// graph A = Aᵀ and the DP set degenerates gracefully.
class AdpaModel : public Model {
 public:
  AdpaModel(const Dataset& dataset, const ModelConfig& config, Rng* rng);

  /// Restore/serving path: propagate with exactly `patterns` instead of
  /// deriving a set from the dataset. Correlation-selected subsets
  /// (Sec. IV-B) depend on the training labels and split, so a checkpoint's
  /// recorded set cannot be safely re-derived at load time.
  AdpaModel(const Dataset& dataset, const ModelConfig& config,
            std::vector<DirectedPattern> patterns, Rng* rng);

  /// As above, over `blocks` already computed by ComputePropagationBlocks
  /// for the same dataset, config and patterns (e.g. read from the sidecar
  /// cache). The blocks are moved into the model, not copied.
  AdpaModel(const Dataset& dataset, const ModelConfig& config,
            std::vector<DirectedPattern> patterns,
            std::vector<std::vector<Matrix>> blocks, Rng* rng);

  ag::Variable Forward(bool training, Rng* rng) override;
  std::vector<ag::Variable> Parameters() const override;
  std::string name() const override { return "ADPA"; }

  /// The no-tape eval forward over every node; draws nothing from `rng`.
  Matrix EvalLogits(Rng* /*rng*/) override { return EvalAll(); }

  /// Eval logits with no tape: Forward(/*training=*/false, …)'s kernels in
  /// its order, so bitwise equal to its value. Intermediates live in a
  /// thread_local Workspace kept at its high-water mark (no steady-state
  /// allocation).
  Matrix EvalAll() const;

  /// EvalAll's rows for `nodes` (each in [0, n), repeats allowed), bit for
  /// bit: every stage is row-wise over nodes. Serving's ForwardRows path.
  Matrix EvalRows(const std::vector<int64_t>& nodes) const;

  /// Patterns actually used (k of them), for inspection/tests.
  const std::vector<DirectedPattern>& patterns() const { return patterns_; }

 private:
  /// Runs the configured DP attention over the k+1 blocks of one step.
  ag::Variable FuseStep(const std::vector<ag::Variable>& blocks,
                        bool training, Rng* rng);

  /// No-tape Forward and FuseStep over borrowed blocks; `dp_rows` holds the
  /// blocks' nodes' dp_weights rows (read by kOriginal only). EvalFuse
  /// returns a `ws` slot; EvalBlocks copies the logits out.
  Matrix EvalBlocks(const std::vector<std::vector<const Matrix*>>& blocks,
                    const Matrix& dp_rows, Workspace* ws) const;
  Matrix* EvalFuse(const std::vector<const Matrix*>& blocks,
                   const Matrix& dp_rows, Workspace* ws) const;

  ModelConfig config_;
  std::vector<DirectedPattern> patterns_;
  int steps_;  // K
  // propagated_[l][g]: block g of step l (g = 0 is the initial residual).
  std::vector<std::vector<ag::Variable>> propagated_;

  // DP attention parameters (per variant; only the active set is created).
  ag::Variable dp_weights_;              // Original: n x (k+1) logits
  std::vector<nn::Linear> gate_layers_;  // Gate: one f->1 scorer per block
  std::vector<nn::Linear> recursive_layers_;  // Recursive: 2f->1 scorers
  nn::Mlp dp_fuse_;                      // (k+1)f -> h fusion MLP (Eq. 10)
  nn::Linear jk_fuse_;                   // JK variant: (k+1)f -> h linear

  // Hop attention (Eq. 11).
  nn::Linear hop_scorer_;  // K·h -> K
  nn::Mlp classifier_;     // h -> C
};

/// The training-free Eq. 9 precompute: blocks[l] = [X^(0) if
/// initial_residual] ++ [X_g^(l+1) = G_g X_g^(l) for each pattern g], for
/// l = 0..K-1. The one implementation; AdpaModel's constructors and the
/// serving propagation cache both use it.
std::vector<std::vector<Matrix>> ComputePropagationBlocks(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns);

}  // namespace adpa
