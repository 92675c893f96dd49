// Portable (plain C++) kernel level. These are the historical matrix.cc and
// sparse_matrix.cc inner loops, moved behind the dispatch table unchanged:
// the `portable` level is the reference implementation every wider level is
// parity-tested against, and the only level used when ADPA_SIMD_LEVEL=portable
// or the CPU lacks AVX2.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/tensor/simd_kernels.h"

namespace adpa::simd::detail {
namespace {

// Register tile of the blocked GEMM micro-kernel: kGemmMr output rows by
// kGemmNr output columns of double accumulators (4x32 doubles = 1 KiB,
// within the AVX register budget after spilling the hot lanes).
constexpr int64_t kGemmMr = 4;
constexpr int64_t kGemmNr = 32;

// Feature-dimension block of the CSR SpMM kernels: the output row slice and
// the gathered dense-row slices stay L1-resident while a row panel reuses
// its neighbours. Blocking changes only the traversal, never the per-element
// accumulation order, so results are bitwise identical to the unblocked
// sweep.
constexpr int64_t kSpmmColBlock = 1024;

// Per-thread packing buffer for the B column slab; capacity persists across
// calls so steady-state GEMMs do not allocate.
std::vector<double>& SlabScratch() {
  thread_local std::vector<double> slab;
  return slab;
}

}  // namespace

// Computes output rows [i_begin, i_end) of a*b. Iterates column slabs of
// kGemmNr, packing each slab into a zero-padded k x kGemmNr double buffer
// (stays L2-resident across the row panels), then runs the register-tiled
// micro-kernel, widening each `a` element as it is broadcast. Every output
// element is the sequential-k double dot product of its row and column,
// independent of the [i_begin, i_end) partition — so any chunking of rows
// over threads produces bitwise-identical results.
void GemmRowsPortable(const float* a, const float* b, int64_t i_begin,
                      int64_t i_end, int64_t k, int64_t m, float* out) {
  std::vector<double>& slab_buf = SlabScratch();
  slab_buf.resize(k * kGemmNr);  // analyze:allow(alloc): thread_local slab capacity reuse
  double* slab = slab_buf.data();
  const int64_t num_slabs = (m + kGemmNr - 1) / kGemmNr;
  for (int64_t s = 0; s < num_slabs; ++s) {
    const int64_t j0 = s * kGemmNr;
    const int64_t width = std::min<int64_t>(kGemmNr, m - j0);
    for (int64_t p = 0; p < k; ++p) {
      const float* b_row = b + p * m + j0;
      double* dst = slab + p * kGemmNr;
      int64_t l = 0;
      for (; l < width; ++l) dst[l] = b_row[l];
      for (; l < kGemmNr; ++l) dst[l] = 0.0;  // padded lanes are discarded
    }
    int64_t i0 = i_begin;
    for (; i0 + kGemmMr <= i_end; i0 += kGemmMr) {
      double c[kGemmMr][kGemmNr] = {};
      const float* a0 = a + (i0 + 0) * k;
      const float* a1 = a + (i0 + 1) * k;
      const float* a2 = a + (i0 + 2) * k;
      const float* a3 = a + (i0 + 3) * k;
      for (int64_t p = 0; p < k; ++p) {
        const double* b_row = slab + p * kGemmNr;
        const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        for (int64_t l = 0; l < kGemmNr; ++l) {
          const double bv = b_row[l];
          c[0][l] += av0 * bv;
          c[1][l] += av1 * bv;
          c[2][l] += av2 * bv;
          c[3][l] += av3 * bv;
        }
      }
      for (int64_t r = 0; r < kGemmMr; ++r) {
        float* out_row = out + (i0 + r) * m + j0;
        for (int64_t l = 0; l < width; ++l) {
          out_row[l] = static_cast<float>(c[r][l]);
        }
      }
    }
    // Row tail (< kGemmMr rows): single-row micro-kernel. Per element this
    // is the same sequential-k FMA chain as the 4-row kernel, so a row
    // lands on the same bits whichever path computes it.
    for (; i0 < i_end; ++i0) {
      double c1[kGemmNr] = {};
      const float* a_row = a + i0 * k;
      for (int64_t p = 0; p < k; ++p) {
        const double av = a_row[p];
        const double* b_row = slab + p * kGemmNr;
        for (int64_t l = 0; l < kGemmNr; ++l) c1[l] += av * b_row[l];
      }
      float* out_row = out + i0 * m + j0;
      for (int64_t l = 0; l < width; ++l) {
        out_row[l] = static_cast<float>(c1[l]);
      }
    }
  }
}

void AxpyWidePortable(double w, const float* x, int64_t m, double* acc) {
  for (int64_t j = 0; j < m; ++j) acc[j] += w * x[j];
}

void SpmmRowsPortable(const int64_t* row_ptr, const int32_t* col_idx,
                      const float* values, const float* dense, int64_t cols,
                      int64_t row_begin, int64_t row_end, float* out) {
  for (int64_t c0 = 0; c0 < cols; c0 += kSpmmColBlock) {
    const int64_t width = std::min<int64_t>(kSpmmColBlock, cols - c0);
    for (int64_t r = row_begin; r < row_end; ++r) {
      float* out_row = out + r * cols + c0;
      std::fill(out_row, out_row + width, 0.0f);
      for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        const float w = values[p];
        const float* in_row = dense + int64_t{col_idx[p]} * cols + c0;
        for (int64_t c = 0; c < width; ++c) out_row[c] += w * in_row[c];
      }
    }
  }
}

void SpmmAxpbyRowsPortable(const int64_t* row_ptr, const int32_t* col_idx,
                           const float* values, const float* dense,
                           const float* residual, float alpha, float beta,
                           int64_t cols, int64_t row_begin, int64_t row_end,
                           float* out) {
  for (int64_t c0 = 0; c0 < cols; c0 += kSpmmColBlock) {
    const int64_t width = std::min<int64_t>(kSpmmColBlock, cols - c0);
    for (int64_t r = row_begin; r < row_end; ++r) {
      float* out_row = out + r * cols + c0;
      std::fill(out_row, out_row + width, 0.0f);
      for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        const float w = values[p];
        const float* in_row = dense + int64_t{col_idx[p]} * cols + c0;
        for (int64_t c = 0; c < width; ++c) out_row[c] += w * in_row[c];
      }
      // Finalize through the very same scale/axpy kernels the unfused
      // ScaleInPlace + AddScaledInPlace sequence dispatches to, so fused ==
      // unfused holds bit for bit by construction. (An open-coded
      // "equivalent" loop is not enough: -ffp-contract lets the compiler
      // contract the mul+add of each loop differently.)
      ScalePortable(out_row, beta, width);
      AxpyPortable(out_row, residual + r * cols + c0, alpha, width);
    }
  }
}

void AddPortable(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void SubPortable(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void MulPortable(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void ScalePortable(float* dst, float factor, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= factor;
}

void AxpyPortable(float* dst, const float* src, float factor, int64_t n) {
  // Explicit single-rounding FMA: with -ffp-contract=fast and an FMA
  // target this is the contraction GCC already performed on the historical
  // `dst[i] += factor * src[i]` loop, so the bits are unchanged there —
  // and a build without -mfma (ADPA_NATIVE_ARCH=OFF) now produces the
  // same bits instead of a two-rounding mul+add, which is what keeps the
  // elementwise kernels bitwise identical across dispatch levels in every
  // build flavor. On FMA-less CPUs libm provides a correctly rounded
  // software fmaf (slower, still exact).
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = __builtin_fmaf(factor, src[i], dst[i]);
  }
}

void ScaleToPortable(float* dst, const float* src, float factor, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = factor * src[i];
}

void CopyPortable(float* dst, const float* src, int64_t n) {
  std::copy(src, src + n, dst);
}

const KernelTable kPortableTable = {
    GemmRowsPortable, AxpyWidePortable, SpmmRowsPortable,
    SpmmAxpbyRowsPortable,
    AddPortable,      SubPortable,      MulPortable,
    ScalePortable,    AxpyPortable,     ScaleToPortable,
    CopyPortable,
};

}  // namespace adpa::simd::detail
