// Dispatch-parity suite for the runtime SIMD kernel levels (DESIGN.md §12).
//
// The determinism contract under test, for every level the host CPU
// supports:
//   1. per-level bitwise thread-count invariance — the same level produces
//      identical bits at 1, 2, and 8 threads for the dense MatMul family,
//      SpMM, and the fused per-hop chain;
//   2. cross-level agreement to relative error — AVX2/AVX-512 differ from
//      portable only by FMA contraction / lane-split rounding, which must
//      stay within tight bounds;
//   3. fused == unfused — MultiplyAxpbyInto is bitwise identical to the
//      Multiply + ScaleInPlace + AddScaledInPlace sequence at every level;
//   4. elementwise kernels (independent one-op-per-element loops) are
//      bitwise identical across ALL levels;
//   5. the full InferenceSession forward obeys 1 and 2 end to end;
//   6. the transposed products are MatMul on a packed operand — bitwise
//      equal to MatMul of the explicit transpose at every level — and the
//      portable level's dense bits are pinned by CRC32.
//
// Plus behavioral tests for the simd:: API surface and the serve-path
// Workspace slot pool.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/hash.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/graph/sparse_matrix.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/serve/engine.h"
#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"
#include "src/tensor/workspace.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

/// Restores the dispatch level and thread count on scope exit so parity
/// tests cannot leak a pinned level into unrelated tests.
class DispatchGuard {
 public:
  DispatchGuard() : level_(simd::ActiveLevel()), threads_(GetNumThreads()) {}
  ~DispatchGuard() {
    simd::SetLevel(level_);
    SetNumThreads(threads_);
  }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  simd::Level level_;
  int threads_;
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

/// Largest elementwise |a-b| / max(1, |a|, |b|) — the cross-level agreement
/// metric (absolute for small magnitudes, relative for large ones).
double MaxRelError(const Matrix& a, const Matrix& b) {
  EXPECT_TRUE(a.SameShape(b));
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    worst = std::max(worst, std::fabs(x - y) / scale);
  }
  return worst;
}

/// Odd shapes on purpose: rows hit the 4-row (portable/AVX2) and 8-row
/// (AVX-512) GEMM tile tails, columns hit the 32-column slab tail and the
/// 8/16-lane vector tails.
constexpr int64_t kN = 67;
constexpr int64_t kK = 45;
constexpr int64_t kM = 53;

SparseMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.Uniform() < density) {
        triplets.push_back({r, c, static_cast<float>(rng.Normal())});
      }
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(SimdTest, LevelNamesRoundTrip) {
  for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2,
                            simd::Level::kAvx512}) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevel(simd::LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  simd::Level parsed = simd::Level::kAvx2;
  EXPECT_FALSE(simd::ParseLevel("bogus", &parsed));
  EXPECT_EQ(parsed, simd::Level::kAvx2);  // left untouched on failure
  EXPECT_FALSE(simd::ParseLevel("", &parsed));
}

TEST(SimdTest, SupportedLevelsStartAtPortableAndAscend) {
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kPortable);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
    EXPECT_TRUE(simd::LevelSupported(levels[i]));
  }
}

TEST(SimdTest, KernelsMatchesActiveLevelTable) {
  DispatchGuard guard;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    EXPECT_EQ(simd::ActiveLevel(), level);
    EXPECT_EQ(&simd::Kernels(), &simd::KernelsFor(level));
  }
}

TEST(SimdTest, DenseMatMulFamilyIsThreadCountInvariantPerLevel) {
  DispatchGuard guard;
  Rng rng(11);
  const Matrix a = Matrix::RandomNormal(kN, kK, &rng);
  const Matrix b = Matrix::RandomNormal(kK, kM, &rng);
  const Matrix at = Matrix::RandomNormal(kK, kN, &rng);
  const Matrix bt = Matrix::RandomNormal(kM, kK, &rng);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    SetNumThreads(1);
    const Matrix mm1 = MatMul(a, b);
    const Matrix sa1 = MatMulSparseA(a, b);
    const Matrix ta1 = MatMulTransposeA(at, b);
    const Matrix tb1 = MatMulTransposeB(a, bt);
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(MatMul(a, b), mm1))
          << simd::LevelName(level) << " MatMul @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(MatMulSparseA(a, b), sa1))
          << simd::LevelName(level) << " MatMulSparseA @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(MatMulTransposeA(at, b), ta1))
          << simd::LevelName(level) << " MatMulTransposeA @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(MatMulTransposeB(a, bt), tb1))
          << simd::LevelName(level) << " MatMulTransposeB @" << threads << "T";
    }
  }
}

TEST(SimdTest, DenseMatMulFamilyAgreesAcrossLevels) {
  DispatchGuard guard;
  Rng rng(12);
  const Matrix a = Matrix::RandomNormal(kN, kK, &rng);
  const Matrix b = Matrix::RandomNormal(kK, kM, &rng);
  const Matrix at = Matrix::RandomNormal(kK, kN, &rng);
  const Matrix bt = Matrix::RandomNormal(kM, kK, &rng);
  simd::SetLevel(simd::Level::kPortable);
  const Matrix mm_ref = MatMul(a, b);
  const Matrix sa_ref = MatMulSparseA(a, b);
  const Matrix ta_ref = MatMulTransposeA(at, b);
  const Matrix tb_ref = MatMulTransposeB(a, bt);
  for (simd::Level level : simd::SupportedLevels()) {
    if (level == simd::Level::kPortable) continue;
    simd::SetLevel(level);
    // The AVX-512 gemm_rows accumulates fixed 128-step float runs into
    // double accumulators (simd.h), so its divergence from portable is a
    // few float ulps — bounded by the run length, not by k. The transposed
    // products run the same kernel on a packed operand, so they share the
    // bound.
    EXPECT_LT(MaxRelError(MatMul(a, b), mm_ref), 1e-5)
        << simd::LevelName(level);
    EXPECT_LT(MaxRelError(MatMulTransposeA(at, b), ta_ref), 1e-5)
        << simd::LevelName(level);
    EXPECT_LT(MaxRelError(MatMulTransposeB(a, bt), tb_ref), 1e-5)
        << simd::LevelName(level);
    // MatMulSparseA accumulates in double at every level, so the only
    // divergence is the final double->float rounding of sums whose
    // contraction order differs: half-ulp-scale wiggle, not 1e-3 drift.
    EXPECT_LT(MaxRelError(MatMulSparseA(a, b), sa_ref), 1e-6)
        << simd::LevelName(level);
  }
}

/// Shapes for the transposed-product tests: 267 output rows hit the 4-row
/// (portable/AVX2) and 8-row (AVX-512) tile tails and span more than two
/// GEMM grains, so 2 and 8 threads really split them; 53 = 32 + 16 + 5
/// output columns hit the AVX-512 32-column, 16-column and scalar paths as
/// well as the portable (32) and AVX2 (12) column-slab tails; and a
/// 150-step contraction crosses the AVX-512 level's 128-step float-run
/// boundary.
constexpr int64_t kRowsT = 267;
constexpr int64_t kInnerT = 150;
constexpr int64_t kColsT = 53;

TEST(SimdTest, TransposedProductsAreMatMulOfTheTransposeBitwise) {
  DispatchGuard guard;
  Rng rng(18);
  const Matrix at = Matrix::RandomNormal(kInnerT, kRowsT, &rng);
  const Matrix b = Matrix::RandomNormal(kInnerT, kColsT, &rng);
  const Matrix a = Matrix::RandomNormal(kRowsT, kInnerT, &rng);
  const Matrix bt = Matrix::RandomNormal(kColsT, kInnerT, &rng);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(MatMulTransposeA(at, b),
                               MatMul(at.Transposed(), b)))
          << simd::LevelName(level) << " MatMulTransposeA @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(MatMulTransposeB(a, bt),
                               MatMul(a, bt.Transposed())))
          << simd::LevelName(level) << " MatMulTransposeB @" << threads << "T";
    }
  }
}

uint32_t Crc(const Matrix& m) {
  return Crc32(m.data(), static_cast<size_t>(m.size()) * sizeof(float));
}

// The portable level is what the serving goldens are recorded at. These
// CRC32s of its dense products on fixed-seed uniform inputs (exact to
// generate on any host) were recorded before the GEMM family was folded
// onto one kernel; they must not move.
TEST(SimdTest, PortableDenseMatMulBitsArePinned) {
  DispatchGuard guard;
  simd::SetLevel(simd::Level::kPortable);
  Rng rng(19);
  const Matrix a = Matrix::RandomUniform(kRowsT, kInnerT, &rng, -1.0f, 1.0f);
  const Matrix b = Matrix::RandomUniform(kInnerT, kColsT, &rng, -1.0f, 1.0f);
  const Matrix at = Matrix::RandomUniform(kInnerT, kRowsT, &rng, -1.0f, 1.0f);
  const Matrix bt = Matrix::RandomUniform(kColsT, kInnerT, &rng, -1.0f, 1.0f);
  EXPECT_EQ(Crc(MatMul(a, b)), 0xfd15b88au);
  EXPECT_EQ(Crc(MatMulTransposeA(at, b)), 0xfb942019u);
  EXPECT_EQ(Crc(MatMulTransposeB(a, bt)), 0xb323cd96u);
}

TEST(SimdTest, SpmmAndFusedChainAreThreadCountInvariantPerLevel) {
  DispatchGuard guard;
  Rng rng(13);
  const SparseMatrix op = RandomSparse(kN, kN, 0.08, 21);
  const Matrix x = Matrix::RandomNormal(kN, kM, &rng);
  const Matrix residual = Matrix::RandomNormal(kN, kM, &rng);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    SetNumThreads(1);
    const Matrix spmm1 = op.Multiply(x);
    Matrix fused1;
    op.MultiplyAxpbyInto(x, residual, 0.3f, 0.7f, &fused1);
    const Matrix scatter1 = op.MultiplyTransposed(x);
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(op.Multiply(x), spmm1))
          << simd::LevelName(level) << " SpMM @" << threads << "T";
      Matrix fused;
      op.MultiplyAxpbyInto(x, residual, 0.3f, 0.7f, &fused);
      EXPECT_TRUE(BitwiseEqual(fused, fused1))
          << simd::LevelName(level) << " fused chain @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(op.MultiplyTransposed(x), scatter1))
          << simd::LevelName(level) << " SpMM^T @" << threads << "T";
    }
  }
}

TEST(SimdTest, FusedChainMatchesUnfusedSequenceBitwisePerLevel) {
  DispatchGuard guard;
  Rng rng(14);
  const SparseMatrix op = RandomSparse(kN, kN, 0.08, 22);
  const Matrix x = Matrix::RandomNormal(kN, kM, &rng);
  const float alpha = 0.15f;
  const float beta = 1.0f - alpha;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    Matrix unfused = op.Multiply(x);
    unfused.ScaleInPlace(beta);
    unfused.AddScaledInPlace(x, alpha);  // residual aliases the input
    Matrix fused;
    op.MultiplyAxpbyInto(x, x, alpha, beta, &fused);
    EXPECT_TRUE(BitwiseEqual(fused, unfused)) << simd::LevelName(level);
  }
}

TEST(SimdTest, SpmmAgreesAcrossLevels) {
  DispatchGuard guard;
  Rng rng(15);
  const SparseMatrix op = RandomSparse(kN, kN, 0.08, 23);
  const Matrix x = Matrix::RandomNormal(kN, kM, &rng);
  simd::SetLevel(simd::Level::kPortable);
  const Matrix ref = op.Multiply(x);
  Matrix fused_ref;
  op.MultiplyAxpbyInto(x, x, 0.2f, 0.8f, &fused_ref);
  for (simd::Level level : simd::SupportedLevels()) {
    if (level == simd::Level::kPortable) continue;
    simd::SetLevel(level);
    // SpMM accumulates in float32 (CSR order) at every level; FMA
    // contraction gives a slightly looser bound than the double-GEMM family.
    EXPECT_LT(MaxRelError(op.Multiply(x), ref), 1e-5) << simd::LevelName(level);
    Matrix fused;
    op.MultiplyAxpbyInto(x, x, 0.2f, 0.8f, &fused);
    EXPECT_LT(MaxRelError(fused, fused_ref), 1e-5) << simd::LevelName(level);
  }
}

TEST(SimdTest, ElementwiseKernelsAreBitwiseIdenticalAcrossLevels) {
  DispatchGuard guard;
  Rng rng(16);
  const Matrix a0 = Matrix::RandomNormal(37, 41, &rng);
  const Matrix b0 = Matrix::RandomNormal(37, 41, &rng);
  std::vector<Matrix> per_level;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    Matrix a = a0;
    a.AddInPlace(b0);
    a.MulInPlace(b0);
    a.SubInPlace(b0);
    a.ScaleInPlace(1.7f);
    a.AddScaledInPlace(b0, -0.3f);
    per_level.push_back(std::move(a));
  }
  for (size_t i = 1; i < per_level.size(); ++i) {
    // One independent op per element at every level — no contraction-order
    // freedom, so the levels must agree bit for bit.
    EXPECT_TRUE(BitwiseEqual(per_level[i], per_level[0]))
        << simd::LevelName(simd::SupportedLevels()[i]);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the full serve-path forward per level.

Dataset TinyDataset(uint64_t seed = 5) {
  DsbmConfig config;
  config.num_nodes = 60;
  config.num_classes = 3;
  config.avg_out_degree = 4.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.feature_dim = 6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

TEST(SimdTest, InferenceSessionForwardObeysDispatchContract) {
  DispatchGuard guard;
  const Dataset dataset = TinyDataset();
  ModelConfig config;
  config.hidden = 16;
  Rng rng(21);
  ModelPtr model = std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  const Checkpoint checkpoint =
      MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());

  Matrix portable_logits;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    // Create per level so the Eq. 9 precompute runs at the level under test.
    serve::InferenceSession session =
        std::move(serve::InferenceSession::Create(checkpoint, dataset).value());
    SetNumThreads(1);
    const Matrix logits1 = session.ForwardAll();
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(session.ForwardAll(), logits1))
          << simd::LevelName(level) << " ForwardAll @" << threads << "T";
    }
    // Subset forwards must match the full forward bit for bit at every
    // level (row-decomposability survives the fused kernels).
    const std::vector<int64_t> nodes = {0, 7, 31, 59};
    const Matrix subset = std::move(session.ForwardRows(nodes).value());
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(std::memcmp(subset.Row(static_cast<int64_t>(i)),
                            logits1.Row(nodes[i]),
                            static_cast<size_t>(logits1.cols()) *
                                sizeof(float)),
                0)
          << simd::LevelName(level) << " ForwardRows row " << i;
    }
    if (level == simd::Level::kPortable) {
      portable_logits = logits1;
    } else {
      EXPECT_LT(MaxRelError(logits1, portable_logits), 1e-4)
          << simd::LevelName(level) << " diverged from portable";
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace slot pool (src/tensor/workspace.h) — the serve hot path relies
// on these invariants for its allocation-free forward.

TEST(WorkspaceTest, AcquireReturnsZeroedSlotOfRequestedShape) {
  Workspace ws;
  Matrix* slot = ws.Acquire(3, 4);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->rows(), 3);
  EXPECT_EQ(slot->cols(), 4);
  for (int64_t i = 0; i < slot->size(); ++i) EXPECT_EQ(slot->data()[i], 0.0f);
}

TEST(WorkspaceTest, ResetReusesSlotsWithStableAddressesAndZeroedContents) {
  Workspace ws;
  Matrix* first = ws.Acquire(5, 7);
  Matrix* second = ws.Acquire(2, 2);
  first->Row(0)[0] = 42.0f;
  EXPECT_EQ(ws.slots(), 2);

  ws.Reset();
  Matrix* reused = ws.Acquire(5, 7);
  EXPECT_EQ(reused, first);  // slot identity is stable across Reset
  EXPECT_EQ(reused->Row(0)[0], 0.0f);  // re-acquire re-zeroes
  EXPECT_EQ(ws.Acquire(2, 2), second);
  EXPECT_EQ(ws.slots(), 2);  // no new slots were created

  // A different shape on re-acquire is fine: the slot resizes in place.
  ws.Reset();
  Matrix* reshaped = ws.Acquire(1, 9);
  EXPECT_EQ(reshaped, first);
  EXPECT_EQ(reshaped->rows(), 1);
  EXPECT_EQ(reshaped->cols(), 9);
}

TEST(WorkspaceTest, MatrixResizeReshapesAndZeroes) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.Resize(3, 2);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

}  // namespace
}  // namespace adpa
