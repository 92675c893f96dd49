#pragma once
#include <cstdint>

#include "src/core/thread_annotations.h"
#include "src/tensor/simd.h"

/// Internal: per-level kernel tables and the portable entry points the
/// higher levels reuse for ops where wider lanes add nothing (plain
/// copies). Only simd.cc and the kernels_*.cc implementation files include
/// this; everything else goes through simd::Kernels().

namespace adpa::simd::detail {

extern const KernelTable kPortableTable;
extern const KernelTable kAvx2Table;
extern const KernelTable kAvx512Table;

// Portable implementations (kernels_portable.cc). These are the historical
// matrix.cc / sparse_matrix.cc inner loops, moved verbatim; the portable
// table is built from exactly these, so the `portable` level behaves as the
// pre-dispatch kernels did.
ADPA_HOT void GemmRowsPortable(const float* a, const float* b, int64_t i_begin,
                               int64_t i_end, int64_t k, int64_t m, float* out);
ADPA_HOT void AxpyWidePortable(double w, const float* x, int64_t m, double* acc);
ADPA_HOT void SpmmRowsPortable(const int64_t* row_ptr, const int32_t* col_idx,
                      const float* values, const float* dense, int64_t cols,
                      int64_t row_begin, int64_t row_end, float* out);
ADPA_HOT void SpmmAxpbyRowsPortable(const int64_t* row_ptr, const int32_t* col_idx,
                           const float* values, const float* dense,
                           const float* residual, float alpha, float beta,
                           int64_t cols, int64_t row_begin, int64_t row_end,
                           float* out);
ADPA_HOT void AddPortable(float* dst, const float* src, int64_t n);
ADPA_HOT void SubPortable(float* dst, const float* src, int64_t n);
ADPA_HOT void MulPortable(float* dst, const float* src, int64_t n);
ADPA_HOT void ScalePortable(float* dst, float factor, int64_t n);
ADPA_HOT void AxpyPortable(float* dst, const float* src, float factor, int64_t n);
ADPA_HOT void ScaleToPortable(float* dst, const float* src, float factor, int64_t n);
ADPA_HOT void CopyPortable(float* dst, const float* src, int64_t n);

}  // namespace adpa::simd::detail
