// Tests for the CSR SparseMatrix: construction invariants, kernels vs dense
// references, and the normalization family.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/graph/sparse_matrix.h"

namespace adpa {
namespace {

SparseMatrix RandomSparse(int64_t rows, int64_t cols, int64_t nnz,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int64_t i = 0; i < nnz; ++i) {
    triplets.push_back({rng.UniformInt(rows), rng.UniformInt(cols),
                        static_cast<float>(rng.Normal())});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(SparseMatrixTest, FromTripletsCoalescesDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 1, 1.0f}, {0, 1, 2.5f}, {1, 0, 1.0f}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.5f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(SparseMatrixTest, CsrInvariants) {
  SparseMatrix m = RandomSparse(20, 30, 100, 1);
  const auto& row_ptr = m.row_ptr();
  ASSERT_EQ(row_ptr.size(), 21u);
  EXPECT_EQ(row_ptr[0], 0);
  EXPECT_EQ(row_ptr[20], m.nnz());
  for (int64_t r = 0; r < 20; ++r) {
    EXPECT_LE(row_ptr[r], row_ptr[r + 1]);
    for (int64_t p = row_ptr[r] + 1; p < row_ptr[r + 1]; ++p) {
      EXPECT_LT(m.col_idx()[p - 1], m.col_idx()[p]);  // strictly ascending
    }
  }
}

TEST(SparseMatrixTest, IdentityMultiplyIsNoop) {
  Rng rng(2);
  Matrix x = Matrix::RandomNormal(6, 3, &rng);
  EXPECT_TRUE(AllClose(SparseMatrix::Identity(6).Multiply(x), x));
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  SparseMatrix a = RandomSparse(8, 10, 30, 3);
  Rng rng(4);
  Matrix x = Matrix::RandomNormal(10, 5, &rng);
  EXPECT_TRUE(AllClose(a.Multiply(x), MatMul(a.ToDense(), x), 1e-4f));
}

TEST(SparseMatrixTest, MultiplyTransposedMatchesDense) {
  SparseMatrix a = RandomSparse(8, 10, 30, 5);
  Rng rng(6);
  Matrix x = Matrix::RandomNormal(8, 4, &rng);
  EXPECT_TRUE(AllClose(a.MultiplyTransposed(x),
                       MatMul(a.ToDense().Transposed(), x), 1e-4f));
}

TEST(SparseMatrixTest, TransposedMatchesDense) {
  SparseMatrix a = RandomSparse(7, 9, 25, 7);
  EXPECT_TRUE(AllClose(a.Transposed().ToDense(), a.ToDense().Transposed()));
}

TEST(SparseMatrixTest, MultiplySparseMatchesDense) {
  SparseMatrix a = RandomSparse(6, 8, 20, 8);
  SparseMatrix b = RandomSparse(8, 5, 20, 9);
  EXPECT_TRUE(AllClose(a.MultiplySparse(b).ToDense(),
                       MatMul(a.ToDense(), b.ToDense()), 1e-4f));
}

TEST(SparseMatrixTest, MultiplySparseRowCapKeepsStrongestEntries) {
  // Dense row product, capped to 2 entries per row.
  SparseMatrix a = SparseMatrix::FromTriplets(1, 3, {{0, 0, 1.0f},
                                                     {0, 1, 1.0f},
                                                     {0, 2, 1.0f}});
  SparseMatrix b = SparseMatrix::FromTriplets(
      3, 3,
      {{0, 0, 5.0f}, {1, 1, 0.1f}, {2, 2, -3.0f}});
  SparseMatrix capped = a.MultiplySparse(b, /*max_row_nnz=*/2);
  EXPECT_EQ(capped.nnz(), 2);
  EXPECT_FLOAT_EQ(capped.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(capped.At(0, 2), -3.0f);
  EXPECT_FLOAT_EQ(capped.At(0, 1), 0.0f);  // weakest entry dropped
}

TEST(SparseMatrixTest, ForEachProductRowStreamsTheStoredProductRows) {
  // 600 rows span three row blocks; the cap cuts most rows.
  const SparseMatrix a = RandomSparse(600, 80, 3000, 21);
  const SparseMatrix b = RandomSparse(80, 70, 1500, 22);
  const SparseMatrix product = a.MultiplySparse(b, /*max_row_nnz=*/12);
  std::vector<uint8_t> mask(600, 1);
  for (int64_t r = 0; r < 600; r += 3) mask[r] = 0;
  // Each row is owned by one block, so per-row slots need no lock.
  std::vector<int> visits(600, 0);
  std::vector<std::vector<std::pair<int64_t, float>>> rows(600);
  std::vector<int64_t> blocks(600, -1);
  a.ForEachProductRow(b, /*max_row_nnz=*/12, mask,
                      [&](int64_t block, int64_t row,
                          const std::vector<int64_t>& cols,
                          const std::vector<float>& values) {
                        ++visits[row];
                        blocks[row] = block;
                        for (size_t i = 0; i < cols.size(); ++i) {
                          rows[row].emplace_back(cols[i], values[i]);
                        }
                      });
  for (int64_t r = 0; r < 600; ++r) {
    ASSERT_EQ(visits[r], mask[r]) << "row " << r;
    if (mask[r] == 0) continue;
    EXPECT_EQ(blocks[r], r / SparseMatrix::kProductRowBlock);
    std::sort(rows[r].begin(), rows[r].end());
    std::vector<std::pair<int64_t, float>> stored;
    for (int64_t p = product.row_ptr()[r]; p < product.row_ptr()[r + 1]; ++p) {
      stored.emplace_back(product.col_idx()[p], product.values()[p]);
    }
    EXPECT_EQ(rows[r], stored) << "row " << r;
  }
}

TEST(SparseMatrixTest, AddSparseMatchesDense) {
  SparseMatrix a = RandomSparse(6, 6, 15, 10);
  SparseMatrix b = RandomSparse(6, 6, 15, 11);
  EXPECT_TRUE(AllClose(a.AddSparse(b).ToDense(),
                       Add(a.ToDense(), b.ToDense()), 1e-5f));
}

TEST(SparseMatrixTest, BinarizedSetsValuesToOne) {
  SparseMatrix a = SparseMatrix::FromTriplets(2, 2,
                                              {{0, 0, 3.5f}, {1, 1, -2.0f}});
  SparseMatrix b = a.Binarized();
  EXPECT_FLOAT_EQ(b.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b.At(1, 1), 1.0f);
}

TEST(SparseMatrixTest, RowAndColSums) {
  SparseMatrix a = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 2, 4.0f}});
  const auto rows = a.RowSums();
  EXPECT_FLOAT_EQ(rows[0], 3.0f);
  EXPECT_FLOAT_EQ(rows[1], 4.0f);
  const auto cols = a.ColSums();
  EXPECT_FLOAT_EQ(cols[0], 1.0f);
  EXPECT_FLOAT_EQ(cols[1], 0.0f);
  EXPECT_FLOAT_EQ(cols[2], 6.0f);
}

TEST(SparseMatrixTest, AddSelfLoops) {
  SparseMatrix a = SparseMatrix::FromTriplets(3, 3,
                                              {{0, 1, 1.0f}, {1, 1, 2.0f}});
  SparseMatrix with_loops = AddSelfLoops(a);
  EXPECT_FLOAT_EQ(with_loops.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(with_loops.At(1, 1), 3.0f);  // added to existing diagonal
  EXPECT_FLOAT_EQ(with_loops.At(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(with_loops.At(0, 1), 1.0f);
}

TEST(NormalizeTest, RowNormalizationIsRowStochastic) {
  SparseMatrix a = RandomSparse(10, 10, 40, 12).Binarized();
  SparseMatrix norm = NormalizeRow(a);
  const auto sums = norm.RowSums();
  for (int64_t r = 0; r < 10; ++r) {
    if (a.RowSums()[r] > 0) {
      EXPECT_NEAR(sums[r], 1.0f, 1e-5f);
    }
  }
}

TEST(NormalizeTest, SymmetricNormalizationMatchesClosedForm) {
  // Path graph 0-1-2 (symmetric), no self loops.
  SparseMatrix a = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
  SparseMatrix norm = NormalizeSymmetric(a);
  // Entry (0,1) = 1/sqrt(d0*d1) = 1/sqrt(1*2).
  EXPECT_NEAR(norm.At(0, 1), 1.0f / std::sqrt(2.0f), 1e-5f);
  EXPECT_NEAR(norm.At(1, 0), 1.0f / std::sqrt(2.0f), 1e-5f);
}

TEST(NormalizeTest, ConvolutionFamilyEndpoints) {
  SparseMatrix a = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 0, 1.0f}});
  // r = 0: D_row⁻¹ A (row-stochastic).
  SparseMatrix rw = NormalizeConvolution(a, 0.0);
  EXPECT_NEAR(rw.At(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(rw.At(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(rw.At(1, 0), 1.0f, 1e-6f);
  // r = 1: A D_col⁻¹ (column-stochastic).
  SparseMatrix rev = NormalizeConvolution(a, 1.0);
  const auto col_sums = rev.ColSums();
  EXPECT_NEAR(col_sums[0], 1.0f, 1e-5f);
  EXPECT_NEAR(col_sums[1], 1.0f, 1e-5f);
}

TEST(NormalizeTest, ZeroDegreeRowsSurvive) {
  SparseMatrix a = SparseMatrix::FromTriplets(3, 3, {{0, 1, 1.0f}});
  SparseMatrix norm = NormalizeSymmetric(a);  // rows 1, 2 are empty
  EXPECT_EQ(norm.nnz(), 1);
  EXPECT_FALSE(std::isnan(norm.At(0, 1)));
}

// Property sweep: Multiply and MultiplyTransposed agree with the dense
// reference across shapes and densities.
class SparseKernelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SparseKernelSweep, KernelsMatchDense) {
  const auto [n, m, nnz] = GetParam();
  SparseMatrix a = RandomSparse(n, m, nnz, n * 131 + m);
  Rng rng(99);
  Matrix x = Matrix::RandomNormal(m, 3, &rng);
  Matrix y = Matrix::RandomNormal(n, 3, &rng);
  EXPECT_TRUE(AllClose(a.Multiply(x), MatMul(a.ToDense(), x), 1e-4f));
  EXPECT_TRUE(AllClose(a.MultiplyTransposed(y),
                       MatMul(a.ToDense().Transposed(), y), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SparseKernelSweep,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(5, 5, 2),
                                           std::make_tuple(10, 20, 50),
                                           std::make_tuple(20, 10, 150),
                                           std::make_tuple(32, 32, 32)));

TEST(SparseCsrTest, FromCsrAcceptsWellFormedInput) {
  // 2x3: row 0 = {(0,1), (2,3)}, row 1 = {(1,5)}.
  SparseMatrix m = SparseMatrix::FromCsr(2, 3, {0, 2, 3}, {0, 2, 1},
                                         {1.0f, 3.0f, 5.0f});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_FLOAT_EQ(m.At(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 5.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 0.0f);
  m.CheckInvariants();  // explicit sweep must also pass
}

// Malformed-CSR coverage: every well-formedness clause must be enforced by
// an ADPA_CHECK in FromCsr / CheckInvariants.
class SparseCsrDeathTest : public ::testing::Test {
 protected:
  SparseCsrDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(SparseCsrDeathTest, BadRowPointersAbort) {
  // Wrong length.
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 1}, {0}, {1.0f}),
               "Check failed");
  // Does not start at zero.
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {1, 1, 1}, {}, {}),
               "Check failed");
  // Not monotone (front/back are consistent, so this isolates the check).
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 3, 2}, {0, 1}, {1.0f, 1.0f}),
               "row_ptr not monotone");
  // Last entry disagrees with nnz.
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 1, 3}, {0, 1}, {1.0f, 1.0f}),
               "Check failed");
}

TEST_F(SparseCsrDeathTest, OutOfRangeColumnIndicesAbort) {
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 2, {0, 1}, {2}, {1.0f}),
               "column out of range");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 2, {0, 1}, {-1}, {1.0f}),
               "negative column");
}

TEST_F(SparseCsrDeathTest, UnsortedOrDuplicateColumnsAbort) {
  EXPECT_DEATH(
      SparseMatrix::FromCsr(1, 3, {0, 2}, {2, 0}, {1.0f, 1.0f}),
      "columns not strictly increasing");
  EXPECT_DEATH(
      SparseMatrix::FromCsr(1, 3, {0, 2}, {1, 1}, {1.0f, 1.0f}),
      "columns not strictly increasing");
}

TEST(SparseCsrStatusTest, TryFromCsrReportsInsteadOfAborting) {
  // The Status-returning path used by untrusted-input consumers (fuzz
  // targets, future file readers): same validation as FromCsr, but every
  // violation comes back as InvalidArgument instead of a process abort.
  Result<SparseMatrix> ok =
      SparseMatrix::TryFromCsr(2, 3, {0, 2, 3}, {0, 2, 1},
                               {1.0f, 2.0f, 3.0f});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->nnz(), 3);

  const auto expect_invalid = [](Result<SparseMatrix> r,
                                 const std::string& substring) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(substring), std::string::npos)
        << r.status().ToString();
  };
  expect_invalid(SparseMatrix::TryFromCsr(-1, 3, {0}, {}, {}),
                 "negative dimensions");
  expect_invalid(SparseMatrix::TryFromCsr(2, 3, {0, 1}, {0}, {1.0f}),
                 "row_ptr length");
  expect_invalid(SparseMatrix::TryFromCsr(1, 3, {1, 1}, {}, {}),
                 "does not start at 0");
  expect_invalid(SparseMatrix::TryFromCsr(1, 3, {0, 2}, {0, 1}, {1.0f}),
                 "length mismatch");
  expect_invalid(SparseMatrix::TryFromCsr(1, 3, {0, 2}, {0}, {1.0f}),
                 "does not end at nnz");
  expect_invalid(SparseMatrix::TryFromCsr(3, 3, {0, 2, 1, 3}, {0, 1, 2},
                                          {1.0f, 1.0f, 1.0f}),
                 "not monotone");
  expect_invalid(SparseMatrix::TryFromCsr(1, 3, {0, 1}, {3}, {1.0f}),
                 "column out of range");
  expect_invalid(SparseMatrix::TryFromCsr(1, 3, {0, 2}, {1, 1},
                                          {1.0f, 1.0f}),
                 "not strictly increasing");
}

TEST_F(SparseCsrDeathTest, FromTripletsRejectsOutOfRangeEntries) {
  EXPECT_DEATH(SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0f}}),
               "Check failed");
  EXPECT_DEATH(SparseMatrix::FromTriplets(2, 2, {{0, -1, 1.0f}}),
               "Check failed");
}

TEST_F(SparseCsrDeathTest, KernelShapeMismatchesAbort) {
  SparseMatrix a = SparseMatrix::FromCsr(2, 3, {0, 1, 1}, {0}, {1.0f});
  EXPECT_DEATH(a.Multiply(Matrix(2, 4)), "Check failed");
  EXPECT_DEATH(a.MultiplyTransposed(Matrix(3, 4)), "Check failed");
  EXPECT_DEATH(a.MultiplySparse(SparseMatrix::Identity(2)), "Check failed");
  EXPECT_DEATH(a.AddSparse(SparseMatrix::Identity(3)), "Check failed");
}

}  // namespace
}  // namespace adpa
