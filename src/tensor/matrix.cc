#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/tensor/simd.h"

namespace adpa {

Matrix::Matrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
}

Matrix::Matrix(int64_t rows, int64_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix out(static_cast<int64_t>(rows.size()),
             static_cast<int64_t>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    ADPA_CHECK_EQ(rows[r].size(), rows[0].size());
    std::copy(rows[r].begin(), rows[r].end(), out.Row(r));
  }
  return out;
}

Matrix Matrix::RandomNormal(int64_t rows, int64_t cols, Rng* rng, float mean,
                            float stddev) {
  Matrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Matrix Matrix::RandomUniform(int64_t rows, int64_t cols, Rng* rng, float lo,
                             float hi) {
  Matrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return out;
}

Matrix Matrix::Identity(int64_t n) {
  Matrix out(n, n);
  for (int64_t i = 0; i < n; ++i) out.At(i, i) = 1.0f;
  return out;
}

void Matrix::CheckFinite(const char* context) const {
  const float* values = data_.data();
  for (int64_t i = 0; i < size(); ++i) {
    ADPA_CHECK(std::isfinite(values[i]))
        << context << ": non-finite value " << values[i] << " at ("
        << i / cols_ << ", " << i % cols_ << ") of " << rows_ << "x" << cols_;
  }
}

float& Matrix::CheckedAt(int64_t r, int64_t c) {
  ADPA_CHECK_GE(r, 0);
  ADPA_CHECK_LT(r, rows_);
  ADPA_CHECK_GE(c, 0);
  ADPA_CHECK_LT(c, cols_);
  return At(r, c);
}

void Matrix::Fill(float value) {
  float* values = data_.data();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    std::fill(values + begin, values + end, value);
  });
}

void Matrix::Resize(int64_t rows, int64_t cols) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  // assign() reuses existing capacity; growth beyond the high-water mark is
  // the only case that allocates.
  data_.assign(static_cast<size_t>(rows * cols), 0.0f);  // analyze:allow(alloc): capacity reuse
}

void Matrix::AddInPlace(const Matrix& other) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.add(dst + begin, src + begin, end - begin);
  });
}

void Matrix::SubInPlace(const Matrix& other) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.sub(dst + begin, src + begin, end - begin);
  });
}

void Matrix::MulInPlace(const Matrix& other) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.mul(dst + begin, src + begin, end - begin);
  });
}

void Matrix::ScaleInPlace(float factor) {
  float* values = data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.scale(values + begin, factor, end - begin);
  });
}

void Matrix::AddScaledInPlace(const Matrix& other, float factor) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.axpy(dst + begin, src + begin, factor, end - begin);
  });
}

void Matrix::Apply(const std::function<float(float)>& fn) {
  ApplyFn([&fn](float value) { return fn(value); });
}

float Matrix::SumAll() const {
  double total = 0.0;
  for (float value : data_) total += value;
  return static_cast<float>(total);
}

float Matrix::MaxAll() const {
  ADPA_CHECK_GT(size(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

float Matrix::FrobeniusNorm() const {
  double total = 0.0;
  for (float value : data_) total += static_cast<double>(value) * value;
  return static_cast<float>(std::sqrt(total));
}

Matrix Matrix::SliceRows(int64_t begin, int64_t end) const {
  ADPA_CHECK_GE(begin, 0);
  ADPA_CHECK_LE(begin, end);
  ADPA_CHECK_LE(end, rows_);
  Matrix out(end - begin, cols_);
  std::copy(Row(begin), Row(begin) + (end - begin) * cols_, out.data());
  return out;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream out;
  out << "Matrix(" << rows_ << "x" << cols_ << ")\n";
  const int64_t show_rows = std::min<int64_t>(rows_, max_rows);
  const int64_t show_cols = std::min<int64_t>(cols_, max_cols);
  for (int64_t r = 0; r < show_rows; ++r) {
    out << " [";
    for (int64_t c = 0; c < show_cols; ++c) {
      if (c > 0) out << ", ";
      out << At(r, c);
    }
    if (show_cols < cols_) out << ", ...";
    out << "]\n";
  }
  if (show_rows < rows_) out << " ...\n";
  return out.str();
}

namespace {

// Writes aᵀ (a.cols x a.rows, row-major) to `out`. Partitioned over output
// rows; each is written by exactly one thread. Within a chunk, blocks of
// kBlock output rows read each source row once as one contiguous run
// instead of striding down a column per output row.
void TransposeTo(const Matrix& a, float* out) {
  constexpr int64_t kBlock = 16;
  const int64_t rows = a.rows();
  ParallelFor(0, a.cols(), kBlock, [&](int64_t begin, int64_t end) {
    for (int64_t c0 = begin; c0 < end; c0 += kBlock) {
      const int64_t c1 = std::min(c0 + kBlock, end);
      for (int64_t r = 0; r < rows; ++r) {
        const float* src = a.Row(r);
        for (int64_t c = c0; c < c1; ++c) out[c * rows + r] = src[c];
      }
    }
  });
}

// The one dense GEMM driver: output rows of a*b (a: n x k, b: k x m, out:
// n x m, all row-major) partitioned over threads, one gemm_rows call per
// chunk. Every level's gemm_rows computes each output element as the same
// chain whichever micro-kernel path (full tile or row tail) covers its row,
// so any row partition — and any thread count — produces bitwise-identical
// results. The grain keeps ~kMinCostPerChunk FLOPs per chunk (2*k*m per
// row).
void GemmInto(const float* a, const float* b, int64_t n, int64_t k, int64_t m,
              float* out) {
  if (n == 0 || k == 0 || m == 0) return;
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, n, GrainForCost(2 * k * m),
              [&](int64_t row_begin, int64_t row_end) {
                kernels.gemm_rows(a, b, row_begin, row_end, k, m, out);
              });
}

// Packs srcᵀ into the calling thread's panel and returns it: the
// transposed operand of MatMulTransposeA/B. Packing is an O(n*k) copy
// against the O(n*k*m) product, and the capacity persists, so steady-state
// backward passes neither allocate nor re-zero the panel.
const float* PackTransposed(const Matrix& src) {
  thread_local std::vector<float> panel;
  panel.resize(src.size());  // analyze:allow(alloc): thread_local panel capacity reuse
  TransposeTo(src, panel.data());
  return panel.data();
}

}  // namespace

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  TransposeTo(*this, out.data());
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  ADPA_CHECK_EQ(a.cols(), b.rows());
  ADPA_CHECK(out != &a && out != &b);
  out->Resize(a.rows(), b.cols());
  GemmInto(a.data(), b.data(), a.rows(), a.cols(), b.cols(), out->data());
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

Matrix MatMulSparseA(const Matrix& a, const Matrix& b) {
  ADPA_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return out;
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, n, GrainForCost(2 * k * m),
              [&](int64_t row_begin, int64_t row_end) {
    std::vector<double> acc(m);
    for (int64_t i = row_begin; i < row_end; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      const float* a_row = a.Row(i);
      for (int64_t p = 0; p < k; ++p) {
        const float a_ip = a_row[p];
        if (a_ip == 0.0f) continue;  // a zero term adds exactly nothing
        kernels.axpy_wide(a_ip, b.Row(p), m, acc.data());
      }
      float* out_row = out.Row(i);
      for (int64_t j = 0; j < m; ++j) {
        out_row[j] = static_cast<float>(acc[j]);
      }
    }
  });
  return out;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  ADPA_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  GemmInto(PackTransposed(a), b.data(), a.cols(), a.rows(), b.cols(),
           out.data());
  return out;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  ADPA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  GemmInto(a.data(), PackTransposed(b), a.rows(), a.cols(), b.rows(),
           out.data());
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.AddInPlace(b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.SubInPlace(b);
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.MulInPlace(b);
  return out;
}

Matrix Scale(const Matrix& a, float factor) {
  Matrix out = a;
  out.ScaleInPlace(factor);
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  return ConcatCols(std::vector<Matrix>{a, b});
}

Matrix ConcatCols(const std::vector<Matrix>& parts) {
  std::vector<const Matrix*> views;
  views.reserve(parts.size());
  for (const Matrix& part : parts) views.push_back(&part);
  Matrix out;
  ConcatColsInto(views, &out);
  return out;
}

void ConcatColsInto(const std::vector<const Matrix*>& parts, Matrix* out) {
  ADPA_CHECK(!parts.empty());
  const int64_t rows = parts[0]->rows();
  int64_t total_cols = 0;
  for (const Matrix* part : parts) {
    ADPA_CHECK(part != out);
    ADPA_CHECK_EQ(part->rows(), rows);
    total_cols += part->cols();
  }
  out->Resize(rows, total_cols);
  const simd::KernelTable& kernels = simd::Kernels();
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out->Row(r);
    for (const Matrix* part : parts) {
      kernels.copy(dst, part->Row(r), part->cols());
      dst += part->cols();
    }
  }
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  Matrix out = a;
  AddRowBroadcastInPlace(&out, row);
  return out;
}

void AddRowBroadcastInPlace(Matrix* a, const Matrix& row) {
  ADPA_CHECK_EQ(row.rows(), 1);
  ADPA_CHECK_EQ(row.cols(), a->cols());
  const simd::KernelTable& kernels = simd::Kernels();
  for (int64_t r = 0; r < a->rows(); ++r) {
    kernels.add(a->Row(r), row.data(), a->cols());
  }
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out;
  SoftmaxRowsInto(a, &out);
  return out;
}

void SoftmaxRowsInto(const Matrix& a, Matrix* out) {
  ADPA_CHECK(out != &a);
  out->Resize(a.rows(), a.cols());
  // exp dominates: ~16 scalar-op-equivalents per element.
  ParallelFor(0, a.rows(), GrainForCost(16 * a.cols()),
              [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      const float* in_row = a.Row(r);
      float* out_row = out->Row(r);
      float max_value = in_row[0];
      for (int64_t c = 1; c < a.cols(); ++c)
        max_value = std::max(max_value, in_row[c]);
      double total = 0.0;
      for (int64_t c = 0; c < a.cols(); ++c) {
        out_row[c] = std::exp(in_row[c] - max_value);
        total += out_row[c];
      }
      const float inv = static_cast<float>(1.0 / total);
      for (int64_t c = 0; c < a.cols(); ++c) out_row[c] *= inv;
    }
  });
}

Matrix ScaleRows(const Matrix& a, const Matrix& scales) {
  Matrix out;
  ScaleRowsInto(a, scales, &out);
  return out;
}

void ScaleRowsInto(const Matrix& a, const Matrix& scales, Matrix* out) {
  ADPA_CHECK_EQ(scales.cols(), 1);
  ADPA_CHECK_EQ(scales.rows(), a.rows());
  ADPA_CHECK(out != &a && out != &scales);
  out->Resize(a.rows(), a.cols());
  const simd::KernelTable& kernels = simd::Kernels();
  for (int64_t r = 0; r < a.rows(); ++r) {
    kernels.scale_to(out->Row(r), a.Row(r), scales.At(r, 0), a.cols());
  }
}

Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end) {
  Matrix out;
  SliceColsInto(a, begin, end, &out);
  return out;
}

void SliceColsInto(const Matrix& a, int64_t begin, int64_t end, Matrix* out) {
  ADPA_CHECK_GE(begin, 0);
  ADPA_CHECK_LE(begin, end);
  ADPA_CHECK_LE(end, a.cols());
  ADPA_CHECK(out != &a);
  out->Resize(a.rows(), end - begin);
  const simd::KernelTable& kernels = simd::Kernels();
  for (int64_t r = 0; r < a.rows(); ++r) {
    kernels.copy(out->Row(r), a.Row(r) + begin, end - begin);
  }
}

Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& rows) {
  Matrix out;
  GatherRowsInto(a, rows, &out);
  return out;
}

void GatherRowsInto(const Matrix& a, const std::vector<int64_t>& rows,
                    Matrix* out) {
  ADPA_CHECK(out != &a);
  out->Resize(static_cast<int64_t>(rows.size()), a.cols());
  const simd::KernelTable& kernels = simd::Kernels();
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    ADPA_CHECK_GE(r, 0);
    ADPA_CHECK_LT(r, a.rows());
    kernels.copy(out->Row(static_cast<int64_t>(i)), a.Row(r), a.cols());
  }
}

bool AllClose(const Matrix& a, const Matrix& b, float tolerance) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace adpa
