#include "src/graph/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace adpa {

SparseMatrix SparseMatrix::FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
  for (const Triplet& t : triplets) {
    ADPA_CHECK_GE(t.row, 0);
    ADPA_CHECK_LT(t.row, rows);
    ADPA_CHECK_GE(t.col, 0);
    ADPA_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SparseMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.assign(rows + 1, 0);
  out.col_idx_.reserve(triplets.size());
  out.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    out.col_idx_.push_back(static_cast<int32_t>(triplets[i].col));
    out.values_.push_back(static_cast<float>(sum));
    out.row_ptr_[triplets[i].row + 1]++;
    i = j;
  }
  for (int64_t r = 0; r < rows; ++r) out.row_ptr_[r + 1] += out.row_ptr_[r];
  out.DebugCheckInvariants();
  return out;
}

Status SparseMatrix::ValidateCsr(int64_t rows, int64_t cols,
                                 const std::vector<int64_t>& row_ptr,
                                 const std::vector<int32_t>& col_idx,
                                 const std::vector<float>& values) {
  auto fail = [](const std::string& what) {
    return Status::InvalidArgument("malformed CSR: " + what);
  };
  if (rows < 0 || cols < 0) return fail("negative dimensions");
  // size_t comparison avoids rows + 1 overflow on hostile dimensions.
  if (row_ptr.empty() ||
      row_ptr.size() - 1 != static_cast<uint64_t>(rows)) {
    return fail("row_ptr length " + std::to_string(row_ptr.size()) +
                " for " + std::to_string(rows) + " rows");
  }
  if (col_idx.size() != values.size()) {
    return fail("col_idx/values length mismatch");
  }
  const int64_t nnz = static_cast<int64_t>(values.size());
  if (row_ptr.front() != 0) return fail("row_ptr does not start at 0");
  if (row_ptr.back() != nnz) {
    return fail("row_ptr does not end at nnz = " + std::to_string(nnz));
  }
  // Row pointers are validated in full before any entry is dereferenced:
  // front == 0, back == nnz, and monotonicity together bound every
  // row_ptr[r] into [0, nnz], so the per-row sweep below cannot read out
  // of range even on hostile input.
  for (int64_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      return fail("row_ptr not monotone at row " + std::to_string(r));
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      if (col_idx[p] < 0) {
        return fail("negative column in row " + std::to_string(r));
      }
      if (col_idx[p] >= cols) {
        return fail("column out of range in row " + std::to_string(r));
      }
      if (p != row_ptr[r] && col_idx[p - 1] >= col_idx[p]) {
        return fail("columns not strictly increasing in row " +
                    std::to_string(r));
      }
    }
  }
  return Status::OK();
}

Result<SparseMatrix> SparseMatrix::TryFromCsr(int64_t rows, int64_t cols,
                                              std::vector<int64_t> row_ptr,
                                              std::vector<int32_t> col_idx,
                                              std::vector<float> values) {
  ADPA_RETURN_IF_ERROR(ValidateCsr(rows, cols, row_ptr, col_idx, values));
  SparseMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.values_ = std::move(values);
  return out;
}

SparseMatrix SparseMatrix::FromCsr(int64_t rows, int64_t cols,
                                   std::vector<int64_t> row_ptr,
                                   std::vector<int32_t> col_idx,
                                   std::vector<float> values) {
  Result<SparseMatrix> out = TryFromCsr(rows, cols, std::move(row_ptr),
                                        std::move(col_idx), std::move(values));
  ADPA_CHECK(out.ok()) << out.status().message();
  return std::move(out).value();
}

void SparseMatrix::CheckInvariants() const {
  Status st = ValidateCsr(rows_, cols_, row_ptr_, col_idx_, values_);
  ADPA_CHECK(st.ok()) << st.message();
}

SparseMatrix SparseMatrix::Identity(int64_t n) {
  std::vector<Triplet> triplets;
  triplets.reserve(n);
  for (int64_t i = 0; i < n; ++i) triplets.push_back({i, i, 1.0f});
  return FromTriplets(n, n, std::move(triplets));
}

float SparseMatrix::At(int64_t r, int64_t c) const {
  ADPA_CHECK_GE(r, 0);
  ADPA_CHECK_LT(r, rows_);
  const auto begin = col_idx_.begin() + row_ptr_[r];
  const auto end = col_idx_.begin() + row_ptr_[r + 1];
  const auto it = std::lower_bound(begin, end, static_cast<int32_t>(c));
  if (it == end || *it != c) return 0.0f;
  return values_[it - col_idx_.begin()];
}

namespace {

// Grain for row-partitioned SpMM kernels: ~2 * avg_row_nnz * f scalar ops
// per row. Depends only on the operand shapes, so the chunk layout — and
// with it the determinism contract — is a pure function of the problem.
int64_t SpmmRowGrain(int64_t rows, int64_t nnz, int64_t f) {
  const int64_t avg_nnz = rows > 0 ? std::max<int64_t>(1, nnz / rows) : 1;
  return GrainForCost(2 * avg_nnz * f);
}

}  // namespace

void SparseMatrix::MultiplyInto(const Matrix& dense, Matrix* out) const {
  ADPA_CHECK_EQ(cols_, dense.rows());
  ADPA_CHECK(out != &dense);
  DebugCheckInvariants();
  out->Resize(rows_, dense.cols());
  const int64_t f = dense.cols();
  if (rows_ == 0 || f == 0) return;
  const simd::KernelTable& kernels = simd::Kernels();
  const int64_t* row_ptr = row_ptr_.data();
  const int32_t* col_idx = col_idx_.data();
  const float* values = values_.data();
  const float* in = dense.data();
  float* out_data = out->data();
  // Each output row depends only on its own CSR row, so partitioning rows
  // over threads keeps the per-row accumulation order (and every bit of
  // the result) identical to the serial kernel.
  ParallelFor(0, rows_, SpmmRowGrain(rows_, nnz(), f),
              [&](int64_t row_begin, int64_t row_end) {
                kernels.spmm_rows(row_ptr, col_idx, values, in, f, row_begin,
                                  row_end, out_data);
              });
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  Matrix out;
  MultiplyInto(dense, &out);
  return out;
}

void SparseMatrix::MultiplyAxpbyInto(const Matrix& dense,
                                     const Matrix& residual, float alpha,
                                     float beta, Matrix* out) const {
  ADPA_CHECK_EQ(cols_, dense.rows());
  ADPA_CHECK_EQ(residual.rows(), rows_);
  ADPA_CHECK_EQ(residual.cols(), dense.cols());
  ADPA_CHECK(out != &dense && out != &residual);
  DebugCheckInvariants();
  out->Resize(rows_, dense.cols());
  const int64_t f = dense.cols();
  if (rows_ == 0 || f == 0) return;
  const simd::KernelTable& kernels = simd::Kernels();
  const int64_t* row_ptr = row_ptr_.data();
  const int32_t* col_idx = col_idx_.data();
  const float* values = values_.data();
  const float* in = dense.data();
  const float* res = residual.data();
  float* out_data = out->data();
  ParallelFor(0, rows_, SpmmRowGrain(rows_, nnz(), f),
              [&](int64_t row_begin, int64_t row_end) {
                kernels.spmm_axpby_rows(row_ptr, col_idx, values, in, res,
                                        alpha, beta, f, row_begin, row_end,
                                        out_data);
              });
}

Matrix SparseMatrix::MultiplyTransposed(const Matrix& dense) const {
  ADPA_CHECK_EQ(rows_, dense.rows());
  DebugCheckInvariants();
  Matrix out(cols_, dense.cols());
  const int64_t f = dense.cols();
  // The serial kernel scatters row r into out[col_idx]; a parallel scatter
  // would race. Instead each thread owns a contiguous range of *output*
  // rows and gathers: for every input row, binary-search (columns are
  // sorted within a row) the sub-range of nonzeros that lands in the owned
  // output range. Input rows are visited in increasing r exactly like the
  // serial scatter, so per-element accumulation order — and the result —
  // is bitwise identical for any thread count.
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, cols_, SpmmRowGrain(cols_, nnz(), f),
              [&](int64_t out_begin, int64_t out_end) {
    for (int64_t r = 0; r < rows_; ++r) {
      const float* in_row = dense.Row(r);
      const auto row_begin = col_idx_.begin() + row_ptr_[r];
      const auto row_end = col_idx_.begin() + row_ptr_[r + 1];
      const auto first = std::lower_bound(row_begin, row_end,
                                          static_cast<int32_t>(out_begin));
      for (auto it = first; it != row_end && *it < out_end; ++it) {
        const float w = values_[it - col_idx_.begin()];
        kernels.axpy(out.Row(*it), in_row, w, f);
      }
    }
  });
  return out;
}

SparseMatrix SparseMatrix::Transposed() const {
  std::vector<Triplet> triplets;
  triplets.reserve(nnz());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      triplets.push_back({col_idx_[p], r, values_[p]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(triplets));
}

SparseMatrix SparseMatrix::MultiplySparse(const SparseMatrix& other,
                                          int64_t max_row_nnz) const {
  // Each fixed row block collects its own triplets; FromTriplets re-sorts
  // by (row, col), so the result is identical for any thread count.
  const int64_t num_blocks = (rows_ + kProductRowBlock - 1) / kProductRowBlock;
  std::vector<std::vector<Triplet>> block_triplets(num_blocks);
  ForEachProductRow(other, max_row_nnz, /*row_mask=*/{},
                    [&](int64_t block, int64_t row,
                        const std::vector<int64_t>& cols,
                        const std::vector<float>& values) {
                      std::vector<Triplet>& triplets = block_triplets[block];
                      for (size_t i = 0; i < cols.size(); ++i) {
                        triplets.push_back({row, cols[i], values[i]});
                      }
                    });
  size_t total = 0;
  for (const std::vector<Triplet>& block : block_triplets) {
    total += block.size();
  }
  std::vector<Triplet> triplets;
  triplets.reserve(total);
  for (std::vector<Triplet>& block : block_triplets) {
    triplets.insert(triplets.end(), block.begin(), block.end());
  }
  return FromTriplets(rows_, other.cols_, std::move(triplets));
}

void SparseMatrix::ForEachProductRow(const SparseMatrix& other,
                                     int64_t max_row_nnz,
                                     const std::vector<uint8_t>& row_mask,
                                     const ProductRowSink& sink) const {
  ADPA_CHECK_EQ(cols_, other.rows_);
  ADPA_CHECK(row_mask.empty() ||
             static_cast<int64_t>(row_mask.size()) == rows_);
  const int64_t num_blocks = (rows_ + kProductRowBlock - 1) / kProductRowBlock;
  ParallelFor(0, num_blocks, 1, [&](int64_t block_begin, int64_t block_end) {
    // Gustavson's algorithm with a dense accumulator per row.
    std::vector<float> accumulator(other.cols_, 0.0f);
    std::vector<int64_t> touched;
    std::vector<float> values;
    for (int64_t blk = block_begin; blk < block_end; ++blk) {
      const int64_t r_first = blk * kProductRowBlock;
      const int64_t r_last = std::min(r_first + kProductRowBlock, rows_);
      for (int64_t r = r_first; r < r_last; ++r) {
        if (!row_mask.empty() && row_mask[r] == 0) continue;
        touched.clear();
        for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
          const int64_t mid = col_idx_[p];
          const float w = values_[p];
          for (int64_t q = other.row_ptr_[mid]; q < other.row_ptr_[mid + 1];
               ++q) {
            const int64_t c = other.col_idx_[q];
            if (accumulator[c] == 0.0f) touched.push_back(c);
            accumulator[c] += w * other.values_[q];
          }
        }
        if (max_row_nnz > 0 &&
            static_cast<int64_t>(touched.size()) > max_row_nnz) {
          // Density guard: keep only the strongest entries of this row.
          std::nth_element(touched.begin(), touched.begin() + max_row_nnz,
                           touched.end(), [&](int64_t a, int64_t b) {
                             return std::fabs(accumulator[a]) >
                                    std::fabs(accumulator[b]);
                           });
          for (size_t i = max_row_nnz; i < touched.size(); ++i) {
            accumulator[touched[i]] = 0.0f;
          }
          touched.resize(max_row_nnz);
        }
        // Store the nonzero entries, each column once (one that cancelled
        // to zero and was touched again is listed twice), and reset the
        // accumulator for the next row.
        size_t kept = 0;
        values.clear();
        for (int64_t c : touched) {
          if (accumulator[c] != 0.0f) {
            touched[kept++] = c;
            values.push_back(accumulator[c]);
            accumulator[c] = 0.0f;
          }
        }
        touched.resize(kept);
        sink(blk, r, touched, values);
      }
    }
  });
}

SparseMatrix SparseMatrix::AddSparse(const SparseMatrix& other) const {
  ADPA_CHECK_EQ(rows_, other.rows_);
  ADPA_CHECK_EQ(cols_, other.cols_);
  std::vector<Triplet> triplets;
  triplets.reserve(nnz() + other.nnz());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      triplets.push_back({r, col_idx_[p], values_[p]});
    }
    for (int64_t p = other.row_ptr_[r]; p < other.row_ptr_[r + 1]; ++p) {
      triplets.push_back({r, other.col_idx_[p], other.values_[p]});
    }
  }
  return FromTriplets(rows_, cols_, std::move(triplets));
}

void SparseMatrix::ScaleInPlace(float factor) {
  for (float& value : values_) value *= factor;
}

SparseMatrix SparseMatrix::Binarized() const {
  SparseMatrix out = *this;
  for (float& value : out.values_) value = value != 0.0f ? 1.0f : 0.0f;
  return out;
}

std::vector<float> SparseMatrix::RowSums() const {
  std::vector<float> sums(rows_, 0.0f);
  for (int64_t r = 0; r < rows_; ++r) {
    double acc = 0.0;  // double accumulator, single final round to float
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      acc += values_[p];
    }
    sums[r] = static_cast<float>(acc);
  }
  return sums;
}

std::vector<float> SparseMatrix::ColSums() const {
  std::vector<double> acc(cols_, 0.0);
  for (size_t p = 0; p < values_.size(); ++p) acc[col_idx_[p]] += values_[p];
  std::vector<float> sums(cols_);
  for (int64_t c = 0; c < cols_; ++c) sums[c] = static_cast<float>(acc[c]);
  return sums;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      out.At(r, col_idx_[p]) = values_[p];
    }
  }
  return out;
}

std::string SparseMatrix::ToString(int max_entries) const {
  std::ostringstream out;
  out << "SparseMatrix(" << rows_ << "x" << cols_ << ", nnz=" << nnz() << ")";
  int shown = 0;
  for (int64_t r = 0; r < rows_ && shown < max_entries; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1] && shown < max_entries;
         ++p, ++shown) {
      out << " (" << r << "," << col_idx_[p] << ")=" << values_[p];
    }
  }
  return out.str();
}

SparseMatrix NormalizeConvolution(const SparseMatrix& a, double r) {
  ADPA_CHECK_GE(r, 0.0);
  ADPA_CHECK_LE(r, 1.0);
  const std::vector<float> row_deg = a.RowSums();
  const std::vector<float> col_deg = a.ColSums();
  std::vector<Triplet> triplets;
  triplets.reserve(a.nnz());
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double left =
        row_deg[i] > 0.0f ? std::pow(static_cast<double>(row_deg[i]), r - 1.0)
                          : 1.0;
    for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const int64_t j = col_idx[p];
      const double right =
          col_deg[j] > 0.0f ? std::pow(static_cast<double>(col_deg[j]), -r)
                            : 1.0;
      triplets.push_back(
          {i, j, static_cast<float>(left * right * values[p])});
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets));
}

SparseMatrix NormalizeRow(const SparseMatrix& a) {
  return NormalizeConvolution(a, 0.0);
}

SparseMatrix NormalizeSymmetric(const SparseMatrix& a) {
  return NormalizeConvolution(a, 0.5);
}

SparseMatrix AddSelfLoops(const SparseMatrix& a, float weight) {
  ADPA_CHECK_EQ(a.rows(), a.cols());
  std::vector<Triplet> triplets;
  triplets.reserve(a.nnz() + a.rows());
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      triplets.push_back({r, col_idx[p], values[p]});
    }
    triplets.push_back({r, r, weight});
  }
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets));
}

}  // namespace adpa
