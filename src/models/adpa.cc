#include "src/models/adpa.h"

#include <cmath>

#include "src/amud/amud.h"
#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/tensor/workspace.h"

namespace adpa {
namespace {

std::vector<DirectedPattern> ChoosePatterns(const Dataset& dataset,
                                            const ModelConfig& config) {
  const int max_order = std::max(1, config.pattern_order);
  if (config.select_patterns <= 0 || dataset.train_idx.size() < 2) {
    return EnumeratePatterns(max_order);
  }
  // Sec. IV-B: rank DPs by their correlation with the labeled subset and
  // keep the strongest. Falls back to the full enumeration on failure.
  Result<std::vector<DirectedPattern>> selected =
      SelectPatternsByCorrelation(dataset.graph, dataset.labels,
                                  dataset.train_idx, max_order,
                                  config.select_patterns);
  return selected.ok() ? *selected : EnumeratePatterns(max_order);
}

/// Elementwise maps matching the ag::Relu / ag::Sigmoid forwards bit for
/// bit (same expressions, same ApplyFn loop).
void ReluInPlace(Matrix* m) {
  m->ApplyFn([](float v) { return v > 0.0f ? v : 0.0f; });
}
void SigmoidInPlace(Matrix* m) {
  m->ApplyFn([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

/// nn::Linear::Forward without a tape: the same kernels as ag::MatMul then
/// ag::AddBias, writing into a workspace slot instead of a fresh Matrix.
Matrix* EvalLinear(const nn::Linear& layer, const Matrix& x, Workspace* ws) {
  Matrix* out = ws->Acquire(x.rows(), layer.out_features());
  MatMulInto(x, layer.weight().value(), out);
  AddRowBroadcastInPlace(out, layer.bias().value());
  return out;
}

/// nn::Mlp::Forward in eval mode for ADPA's ReLU MLPs: ReLU between layers,
/// dropout is the identity, no activation after the last layer.
Matrix* EvalMlp(const nn::Mlp& mlp, const Matrix& input, Workspace* ws) {
  const std::vector<nn::Linear>& layers = mlp.layers();
  Matrix* h = EvalLinear(layers[0], input, ws);
  for (size_t i = 1; i < layers.size(); ++i) {
    ReluInPlace(h);
    h = EvalLinear(layers[i], *h, ws);
  }
  return h;
}

/// Per-thread eval scratch: a workspace plus reusable view lists, so
/// steady-state eval forwards never allocate. It keeps its high-water
/// capacity for the thread's lifetime.
struct EvalScratch {
  Workspace ws;
  std::vector<std::vector<const Matrix*>> block_views;
  Matrix dp_rows;
  /// View lists for EvalFuse / EvalBlocks. EvalFuse writes only
  /// fuse_views and EvalBlocks only fused_steps, so the lists don't alias.
  std::vector<const Matrix*> fuse_views;
  std::vector<const Matrix*> fused_steps;
};

EvalScratch& Scratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

std::vector<std::vector<Matrix>> ComputePropagationBlocks(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns) {
  // Iterated per-pattern states X_g^(l) = G_g X_g^(l-1), advanced one
  // application per step.
  const int steps = std::max(1, config.propagation_steps);
  const int64_t k = static_cast<int64_t>(patterns.size());
  PatternSet pattern_set(dataset.graph.AdjacencyMatrix(), config.conv_r,
                         config.propagation_self_loops);
  std::vector<Matrix> state(k, dataset.features);
  std::vector<std::vector<Matrix>> blocks(steps);
  for (int l = 0; l < steps; ++l) {
    if (config.initial_residual) blocks[l].push_back(dataset.features);
    pattern_set.ApplyStep(patterns, &state);
    for (int64_t g = 0; g < k; ++g) blocks[l].push_back(state[g]);
  }
  return blocks;
}

AdpaModel::AdpaModel(const Dataset& dataset, const ModelConfig& config,
                     Rng* rng)
    : AdpaModel(dataset, config, ChoosePatterns(dataset, config), rng) {}

AdpaModel::AdpaModel(const Dataset& dataset, const ModelConfig& config,
                     std::vector<DirectedPattern> patterns, Rng* rng)
    : AdpaModel(dataset, config, patterns,
                ComputePropagationBlocks(dataset, config, patterns), rng) {}

AdpaModel::AdpaModel(const Dataset& dataset, const ModelConfig& config,
                     std::vector<DirectedPattern> patterns,
                     std::vector<std::vector<Matrix>> blocks, Rng* rng)
    : config_(config),
      patterns_(std::move(patterns)),
      steps_(std::max(1, config.propagation_steps)) {
  const int64_t f = dataset.feature_dim();
  const int64_t n = dataset.num_nodes();
  const int64_t blocks_per_step = static_cast<int64_t>(patterns_.size()) +
                                  (config_.initial_residual ? 1 : 0);

  // --- Stage 1: the Eq. 9 blocks, held as constants. ---
  ADPA_CHECK_EQ(static_cast<int64_t>(blocks.size()), steps_);
  propagated_.resize(steps_);
  for (int l = 0; l < steps_; ++l) {
    ADPA_CHECK_EQ(static_cast<int64_t>(blocks[l].size()), blocks_per_step);
    for (Matrix& block : blocks[l]) {
      propagated_[l].push_back(ag::Constant(std::move(block)));
    }
  }

  // --- Stage 2 parameters: node-wise DP attention (Eq. 10). ---
  if (config_.use_dp_attention) {
    switch (config_.dp_attention) {
      case DpAttention::kOriginal:
        dp_weights_ = ag::Parameter(Matrix(n, blocks_per_step));
        break;
      case DpAttention::kGate:
        for (int64_t g = 0; g < blocks_per_step; ++g) {
          gate_layers_.emplace_back(f, 1, rng);
        }
        break;
      case DpAttention::kRecursive:
        for (int64_t g = 0; g < blocks_per_step; ++g) {
          recursive_layers_.emplace_back(2 * f, 1, rng);
        }
        break;
      case DpAttention::kJk:
        break;  // fusion layer only
    }
  }
  if (config_.use_dp_attention && config_.dp_attention == DpAttention::kJk) {
    jk_fuse_ = nn::Linear(blocks_per_step * f, config.hidden, rng);
  } else if (config_.dp_attention == DpAttention::kRecursive &&
             config_.use_dp_attention) {
    // Recursive attention accumulates into a single f-wide state.
    jk_fuse_ = nn::Linear(f, config.hidden, rng);
  } else {
    dp_fuse_ = nn::Mlp(blocks_per_step * f, config.hidden, config.hidden,
                       /*num_layers=*/2, rng, config.dropout);
  }

  // --- Stage 3 parameters: node-wise hop attention (Eq. 11). ---
  if (config_.use_hop_attention) {
    hop_scorer_ = nn::Linear(steps_ * config.hidden, steps_, rng);
  }
  classifier_ = nn::Mlp(config.hidden, config.hidden, dataset.num_classes,
                        std::max(1, config.num_layers - 1), rng,
                        config.dropout);
}

ag::Variable AdpaModel::FuseStep(const std::vector<ag::Variable>& blocks,
                                 bool training, Rng* rng) {
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  if (!config_.use_dp_attention) {
    // Ablation: uniform average of blocks, then the fusion MLP on the
    // (replicated) concatenation to keep parameter shapes unchanged.
    ag::Variable mean = blocks[0];
    for (int64_t g = 1; g < num_blocks; ++g) {
      mean = ag::Add(mean, blocks[g]);
    }
    mean = ag::Scale(mean, 1.0f / static_cast<float>(num_blocks));
    std::vector<ag::Variable> replicated(num_blocks, mean);
    return ag::Relu(dp_fuse_.Forward(ag::ConcatCols(replicated), training,
                                     rng));
  }
  switch (config_.dp_attention) {
    case DpAttention::kOriginal: {
      // Eq. (10): learnable per-node, per-block weights, softmax-normalized
      // across blocks, then MLP over the weighted concatenation.
      ag::Variable weights = ag::SoftmaxRows(dp_weights_);
      std::vector<ag::Variable> scaled;
      scaled.reserve(num_blocks);
      for (int64_t g = 0; g < num_blocks; ++g) {
        scaled.push_back(
            ag::ScaleRows(blocks[g], ag::SliceCols(weights, g, g + 1)));
      }
      return ag::Relu(
          dp_fuse_.Forward(ag::ConcatCols(scaled), training, rng));
    }
    case DpAttention::kGate: {
      // Per-block sigmoid gate computed from the block itself.
      std::vector<ag::Variable> scaled;
      scaled.reserve(num_blocks);
      for (int64_t g = 0; g < num_blocks; ++g) {
        ag::Variable gate = ag::Sigmoid(gate_layers_[g].Forward(blocks[g]));
        scaled.push_back(ag::ScaleRows(blocks[g], gate));
      }
      return ag::Relu(
          dp_fuse_.Forward(ag::ConcatCols(scaled), training, rng));
    }
    case DpAttention::kRecursive: {
      // GAMLP-style recursive attention: each block is gated against the
      // running accumulated representation.
      ag::Variable acc = blocks[0];
      for (int64_t g = 1; g < num_blocks; ++g) {
        ag::Variable score = ag::Sigmoid(recursive_layers_[g].Forward(
            ag::ConcatCols({blocks[g], acc})));
        acc = ag::Add(acc, ag::ScaleRows(blocks[g], score));
      }
      return ag::Relu(jk_fuse_.Forward(acc));
    }
    case DpAttention::kJk: {
      // Jumping-knowledge fusion: unweighted concatenation + linear.
      return ag::Relu(jk_fuse_.Forward(ag::ConcatCols(blocks)));
    }
  }
  ADPA_CHECK(false) << "unreachable";
  return blocks[0];
}

ag::Variable AdpaModel::Forward(bool training, Rng* rng) {
  // Stage 2: fuse the k+1 blocks of every step.
  std::vector<ag::Variable> fused;
  fused.reserve(steps_);
  for (int l = 0; l < steps_; ++l) {
    fused.push_back(FuseStep(propagated_[l], training, rng));
  }

  // Stage 3: node-wise hop attention across the K fused representations.
  ag::Variable combined;
  if (config_.use_hop_attention && steps_ > 1) {
    ag::Variable scores =
        ag::SoftmaxRows(hop_scorer_.Forward(ag::ConcatCols(fused)));
    for (int l = 0; l < steps_; ++l) {
      ag::Variable weighted =
          ag::ScaleRows(fused[l], ag::SliceCols(scores, l, l + 1));
      combined = l == 0 ? weighted : ag::Add(combined, weighted);
    }
  } else {
    combined = fused[0];
    for (int l = 1; l < steps_; ++l) combined = ag::Add(combined, fused[l]);
    if (steps_ > 1) {
      combined = ag::Scale(combined, 1.0f / static_cast<float>(steps_));
    }
  }

  combined = ag::Dropout(combined, config_.dropout, training, rng);
  return classifier_.Forward(combined, training, rng);
}

std::vector<ag::Variable> AdpaModel::Parameters() const {
  std::vector<ag::Variable> params;
  if (dp_weights_.defined()) params.push_back(dp_weights_);
  for (const auto& layer : gate_layers_) {
    for (const auto& p : layer.Parameters()) params.push_back(p);
  }
  for (const auto& layer : recursive_layers_) {
    for (const auto& p : layer.Parameters()) params.push_back(p);
  }
  if (dp_fuse_.num_layers() > 0) {
    for (const auto& p : dp_fuse_.Parameters()) params.push_back(p);
  }
  if (jk_fuse_.in_features() > 0) {
    for (const auto& p : jk_fuse_.Parameters()) params.push_back(p);
  }
  if (config_.use_hop_attention && hop_scorer_.in_features() > 0) {
    for (const auto& p : hop_scorer_.Parameters()) params.push_back(p);
  }
  for (const auto& p : classifier_.Parameters()) params.push_back(p);
  return params;
}

Matrix* AdpaModel::EvalFuse(const std::vector<const Matrix*>& blocks,
                            const Matrix& dp_rows, Workspace* ws) const {
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  const int64_t rows = blocks[0]->rows();
  const int64_t cols = blocks[0]->cols();
  Matrix* concat = ws->Acquire(rows, num_blocks * cols);
  std::vector<const Matrix*>& views = Scratch().fuse_views;
  if (!config_.use_dp_attention) {
    Matrix* mean = ws->Acquire(rows, cols);
    *mean = *blocks[0];
    for (int64_t g = 1; g < num_blocks; ++g) mean->AddInPlace(*blocks[g]);
    mean->ScaleInPlace(1.0f / static_cast<float>(num_blocks));
    views.assign(num_blocks, mean);  // analyze:allow(alloc): thread_local capacity reuse
    ConcatColsInto(views, concat);
    Matrix* fused = EvalMlp(dp_fuse_, *concat, ws);
    ReluInPlace(fused);
    return fused;
  }
  switch (config_.dp_attention) {
    case DpAttention::kOriginal: {
      Matrix* weights = ws->Acquire(dp_rows.rows(), dp_rows.cols());
      SoftmaxRowsInto(dp_rows, weights);
      Matrix* column = ws->Acquire(rows, 1);
      views.clear();
      for (int64_t g = 0; g < num_blocks; ++g) {
        SliceColsInto(*weights, g, g + 1, column);
        Matrix* scaled_g = ws->Acquire(rows, cols);
        ScaleRowsInto(*blocks[g], *column, scaled_g);
        views.push_back(scaled_g);  // analyze:allow(alloc): thread_local capacity reuse
      }
      ConcatColsInto(views, concat);
      Matrix* fused = EvalMlp(dp_fuse_, *concat, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kGate: {
      views.clear();
      for (int64_t g = 0; g < num_blocks; ++g) {
        Matrix* gate = EvalLinear(gate_layers_[g], *blocks[g], ws);
        SigmoidInPlace(gate);
        Matrix* scaled_g = ws->Acquire(rows, cols);
        ScaleRowsInto(*blocks[g], *gate, scaled_g);
        views.push_back(scaled_g);  // analyze:allow(alloc): thread_local capacity reuse
      }
      ConcatColsInto(views, concat);
      Matrix* fused = EvalMlp(dp_fuse_, *concat, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kRecursive: {
      Matrix* acc = ws->Acquire(rows, cols);
      *acc = *blocks[0];
      Matrix* pair = ws->Acquire(rows, 2 * cols);
      Matrix* scaled = ws->Acquire(rows, cols);
      for (int64_t g = 1; g < num_blocks; ++g) {
        views.assign({blocks[g], acc});  // analyze:allow(alloc): thread_local capacity reuse
        ConcatColsInto(views, pair);
        Matrix* score = EvalLinear(recursive_layers_[g], *pair, ws);
        SigmoidInPlace(score);
        ScaleRowsInto(*blocks[g], *score, scaled);
        acc->AddInPlace(*scaled);
      }
      Matrix* fused = EvalLinear(jk_fuse_, *acc, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kJk: {
      ConcatColsInto(blocks, concat);
      Matrix* fused = EvalLinear(jk_fuse_, *concat, ws);
      ReluInPlace(fused);
      return fused;
    }
  }
  ADPA_CHECK(false) << "unreachable";
  return concat;
}

Matrix AdpaModel::EvalBlocks(
    const std::vector<std::vector<const Matrix*>>& blocks,
    const Matrix& dp_rows, Workspace* ws) const {
  std::vector<const Matrix*>& fused = Scratch().fused_steps;
  fused.clear();
  for (const auto& step_blocks : blocks) {
    // EvalFuse is called on its own line so that analyze walks into it;
    // a waiver on a call line stops the walk at that callee.
    Matrix* step = EvalFuse(step_blocks, dp_rows, ws);
    fused.push_back(step);  // analyze:allow(alloc): thread_local capacity reuse
  }

  Matrix* combined = nullptr;
  if (config_.use_hop_attention && steps_ > 1) {
    Matrix* hop_concat =
        ws->Acquire(fused[0]->rows(), steps_ * fused[0]->cols());
    ConcatColsInto(fused, hop_concat);
    Matrix* scores = EvalLinear(hop_scorer_, *hop_concat, ws);
    Matrix* weights = ws->Acquire(scores->rows(), scores->cols());
    SoftmaxRowsInto(*scores, weights);
    Matrix* column = ws->Acquire(fused[0]->rows(), 1);
    combined = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    Matrix* weighted = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    for (int l = 0; l < steps_; ++l) {
      SliceColsInto(*weights, l, l + 1, column);
      if (l == 0) {
        ScaleRowsInto(*fused[l], *column, combined);
      } else {
        ScaleRowsInto(*fused[l], *column, weighted);
        combined->AddInPlace(*weighted);
      }
    }
  } else {
    combined = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    *combined = *fused[0];
    for (int l = 1; l < steps_; ++l) combined->AddInPlace(*fused[l]);
    if (steps_ > 1) {
      combined->ScaleInPlace(1.0f / static_cast<float>(steps_));
    }
  }
  // Training applies Dropout here; in eval mode it is the identity. The
  // logits are copied out of the workspace so the caller owns them past the
  // next Reset (batch x classes — the one small copy per forward).
  return *EvalMlp(classifier_, *combined, ws);
}

Matrix AdpaModel::EvalAll() const {
  EvalScratch& scratch = Scratch();
  scratch.ws.Reset();
  scratch.block_views.resize(propagated_.size());
  for (size_t l = 0; l < propagated_.size(); ++l) {
    scratch.block_views[l].clear();
    for (const ag::Variable& block : propagated_[l]) {
      scratch.block_views[l].push_back(&block.value());
    }
  }
  return EvalBlocks(scratch.block_views,
                    dp_weights_.defined() ? dp_weights_.value()
                                          : scratch.dp_rows,
                    &scratch.ws);
}

Matrix AdpaModel::EvalRows(const std::vector<int64_t>& nodes) const {
  EvalScratch& scratch = Scratch();
  scratch.ws.Reset();
  scratch.block_views.resize(propagated_.size());  // analyze:allow(alloc): thread_local capacity reuse
  for (size_t l = 0; l < propagated_.size(); ++l) {
    scratch.block_views[l].clear();
    for (const ag::Variable& block : propagated_[l]) {
      Matrix* gathered = scratch.ws.Acquire(
          static_cast<int64_t>(nodes.size()), block.cols());
      GatherRowsInto(block.value(), nodes, gathered);
      scratch.block_views[l].push_back(gathered);  // analyze:allow(alloc): thread_local capacity reuse
    }
  }
  if (dp_weights_.defined()) {
    GatherRowsInto(dp_weights_.value(), nodes, &scratch.dp_rows);
  }
  return EvalBlocks(scratch.block_views, scratch.dp_rows, &scratch.ws);
}

}  // namespace adpa
