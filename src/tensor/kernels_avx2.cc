// AVX2 + FMA kernel level (256-bit lanes). Compiled with -mavx2 -mfma
// regardless of the global architecture flags; runtime dispatch
// (simd::ActiveLevel) guarantees these functions only execute on CPUs that
// support them.
//
// Precision discipline: the dense GEMM keeps the double-accumulator
// contract by widening each `a` element as it is broadcast and each packed
// `b` slab element (both exact) and accumulating every output element in
// one sequential-k chain of double FMAs. The order is a fixed function of
// shapes, so results at this level are bitwise identical for any thread
// count, and since a float*float product is exact in double, FMA
// contraction cannot separate them from the portable level's chain either.

#include <cstdint>

#include "src/core/thread_annotations.h"
#include "src/tensor/simd_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

// GCC expands the float<->double conversion intrinsics through
// _mm512_undefined_pd()/_mm256_undefined_ps(), whose self-initialized
// placeholder trips -Wmaybe-uninitialized (or plain -Wuninitialized,
// depending on what the optimizer can prove) at every inlined call site
// even though the masked builtin overwrites all lanes (GCC PR105593).
// Silence the false positive for this kernel TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#include <algorithm>
#include <vector>

namespace adpa::simd::detail {
namespace {

// Register tile: 4 output rows x 12 output columns = 12 ymm double
// accumulators, plus 3 slab lanes and 1 broadcast — exactly the 16-register
// AVX2 budget.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 12;

std::vector<double>& SlabScratch() {
  thread_local std::vector<double> slab;
  return slab;
}

// Packs b[:, j0:j0+width) into a zero-padded k x kNr double slab.
void PackSlab(const float* b, int64_t k, int64_t m, int64_t j0, int64_t width,
              double* slab) {
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * m + j0;
    double* dst = slab + p * kNr;
    int64_t l = 0;
    for (; l < width; ++l) dst[l] = b_row[l];
    for (; l < kNr; ++l) dst[l] = 0.0;
  }
}

// Stores one row of kNr double accumulators to float output (width lanes).
inline void StoreRow(const __m256d acc0, const __m256d acc1,
                     const __m256d acc2, int64_t width, float* out_row) {
  if (width == kNr) {
    _mm_storeu_ps(out_row + 0, _mm256_cvtpd_ps(acc0));
    _mm_storeu_ps(out_row + 4, _mm256_cvtpd_ps(acc1));
    _mm_storeu_ps(out_row + 8, _mm256_cvtpd_ps(acc2));
    return;
  }
  double tmp[kNr];
  _mm256_storeu_pd(tmp + 0, acc0);
  _mm256_storeu_pd(tmp + 4, acc1);
  _mm256_storeu_pd(tmp + 8, acc2);
  for (int64_t l = 0; l < width; ++l) {
    out_row[l] = static_cast<float>(tmp[l]);
  }
}

ADPA_HOT void GemmRowsAvx2(const float* a, const float* b, int64_t i_begin,
                           int64_t i_end, int64_t k, int64_t m, float* out) {
  std::vector<double>& slab_buf = SlabScratch();
  slab_buf.resize(k * kNr);  // analyze:allow(alloc): thread_local slab capacity reuse
  double* slab = slab_buf.data();
  const int64_t num_slabs = (m + kNr - 1) / kNr;
  for (int64_t s = 0; s < num_slabs; ++s) {
    const int64_t j0 = s * kNr;
    const int64_t width = std::min<int64_t>(kNr, m - j0);
    PackSlab(b, k, m, j0, width, slab);
    int64_t i0 = i_begin;
    for (; i0 + kMr <= i_end; i0 += kMr) {
      __m256d acc[kMr][3];
      for (int64_t r = 0; r < kMr; ++r) {
        acc[r][0] = _mm256_setzero_pd();
        acc[r][1] = _mm256_setzero_pd();
        acc[r][2] = _mm256_setzero_pd();
      }
      const float* a0 = a + (i0 + 0) * k;
      const float* a1 = a + (i0 + 1) * k;
      const float* a2 = a + (i0 + 2) * k;
      const float* a3 = a + (i0 + 3) * k;
      for (int64_t p = 0; p < k; ++p) {
        const double* b_row = slab + p * kNr;
        const __m256d bv0 = _mm256_loadu_pd(b_row + 0);
        const __m256d bv1 = _mm256_loadu_pd(b_row + 4);
        const __m256d bv2 = _mm256_loadu_pd(b_row + 8);
        const __m256d av0 = _mm256_set1_pd(a0[p]);
        acc[0][0] = _mm256_fmadd_pd(av0, bv0, acc[0][0]);
        acc[0][1] = _mm256_fmadd_pd(av0, bv1, acc[0][1]);
        acc[0][2] = _mm256_fmadd_pd(av0, bv2, acc[0][2]);
        const __m256d av1 = _mm256_set1_pd(a1[p]);
        acc[1][0] = _mm256_fmadd_pd(av1, bv0, acc[1][0]);
        acc[1][1] = _mm256_fmadd_pd(av1, bv1, acc[1][1]);
        acc[1][2] = _mm256_fmadd_pd(av1, bv2, acc[1][2]);
        const __m256d av2 = _mm256_set1_pd(a2[p]);
        acc[2][0] = _mm256_fmadd_pd(av2, bv0, acc[2][0]);
        acc[2][1] = _mm256_fmadd_pd(av2, bv1, acc[2][1]);
        acc[2][2] = _mm256_fmadd_pd(av2, bv2, acc[2][2]);
        const __m256d av3 = _mm256_set1_pd(a3[p]);
        acc[3][0] = _mm256_fmadd_pd(av3, bv0, acc[3][0]);
        acc[3][1] = _mm256_fmadd_pd(av3, bv1, acc[3][1]);
        acc[3][2] = _mm256_fmadd_pd(av3, bv2, acc[3][2]);
      }
      for (int64_t r = 0; r < kMr; ++r) {
        StoreRow(acc[r][0], acc[r][1], acc[r][2], width,
                 out + (i0 + r) * m + j0);
      }
    }
    // Row tail: single-row micro-kernel; per element the same sequential-k
    // FMA chain, so a row lands on the same bits whichever path computes it.
    for (; i0 < i_end; ++i0) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      const float* a_row = a + i0 * k;
      for (int64_t p = 0; p < k; ++p) {
        const double* b_row = slab + p * kNr;
        const __m256d av = _mm256_set1_pd(a_row[p]);
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 0), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 4), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 8), acc2);
      }
      StoreRow(acc0, acc1, acc2, width, out + i0 * m + j0);
    }
  }
}

ADPA_HOT void AxpyWideAvx2(double w, const float* x, int64_t m, double* acc) {
  const __m256d wv = _mm256_set1_pd(w);
  int64_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + j));
    const __m256d av = _mm256_loadu_pd(acc + j);
    _mm256_storeu_pd(acc + j, _mm256_fmadd_pd(wv, xv, av));
  }
  for (; j < m; ++j) acc[j] += w * x[j];
}

// dst[c] += w * src[c], float32 FMA lanes; each element independent.
inline void AxpyRowF32(float* dst, const float* src, float w, int64_t n) {
  const __m256 wv = _mm256_set1_ps(w);
  int64_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m256 sv = _mm256_loadu_ps(src + c);
    const __m256 dv = _mm256_loadu_ps(dst + c);
    _mm256_storeu_ps(dst + c, _mm256_fmadd_ps(wv, sv, dv));
  }
  // Explicit fmaf keeps the tail a single rounding — the same arithmetic
  // as the fmadd lanes above — independent of contraction heuristics.
  for (; c < n; ++c) dst[c] = __builtin_fmaf(w, src[c], dst[c]);
}

constexpr int64_t kSpmmColBlock = 1024;

ADPA_HOT void SpmmRowsAvx2(const int64_t* row_ptr, const int32_t* col_idx,
                  const float* values, const float* dense, int64_t cols,
                  int64_t row_begin, int64_t row_end, float* out) {
  for (int64_t c0 = 0; c0 < cols; c0 += kSpmmColBlock) {
    const int64_t width = std::min<int64_t>(kSpmmColBlock, cols - c0);
    for (int64_t r = row_begin; r < row_end; ++r) {
      float* out_row = out + r * cols + c0;
      std::fill(out_row, out_row + width, 0.0f);
      for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        AxpyRowF32(out_row, dense + int64_t{col_idx[p]} * cols + c0,
                   values[p], width);
      }
    }
  }
}

void ScaleAvx2(float* dst, float factor, int64_t n);

ADPA_HOT void SpmmAxpbyRowsAvx2(const int64_t* row_ptr, const int32_t* col_idx,
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
        AxpyRowF32(out_row, dense + int64_t{col_idx[p]} * cols + c0,
                   values[p], width);
      }
      // Finalize through the very same scale/axpy kernels the unfused
      // ScaleInPlace + AddScaledInPlace sequence dispatches to, so fused ==
      // unfused holds bit for bit by construction. (An open-coded
      // "equivalent" loop is not enough: -ffp-contract lets the compiler
      // contract the scalar tails of each loop differently.)
      ScaleAvx2(out_row, beta, width);
      AxpyRowF32(out_row, residual + r * cols + c0, alpha, width);
    }
  }
}

ADPA_HOT void AddAvx2(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

ADPA_HOT void SubAvx2(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

ADPA_HOT void MulAvx2(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

ADPA_HOT void ScaleAvx2(float* dst, float factor, int64_t n) {
  const __m256 fv = _mm256_set1_ps(factor);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), fv));
  }
  for (; i < n; ++i) dst[i] *= factor;
}

ADPA_HOT void AxpyAvx2(float* dst, const float* src, float factor, int64_t n) {
  AxpyRowF32(dst, src, factor, n);
}

ADPA_HOT void ScaleToAvx2(float* dst, const float* src, float factor, int64_t n) {
  const __m256 fv = _mm256_set1_ps(factor);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(src + i), fv));
  }
  for (; i < n; ++i) dst[i] = factor * src[i];
}

}  // namespace

const KernelTable kAvx2Table = {
    GemmRowsAvx2, AxpyWideAvx2, SpmmRowsAvx2, SpmmAxpbyRowsAvx2,
    AddAvx2,      SubAvx2,      MulAvx2,      ScaleAvx2,
    AxpyAvx2,     ScaleToAvx2,  CopyPortable,  // a copy is a copy at every level
};

}  // namespace adpa::simd::detail

#else  // !x86-64: the AVX2 level is never CPU-supported; alias portable.

namespace adpa::simd::detail {
const KernelTable kAvx2Table = {
    GemmRowsPortable, AxpyWidePortable, SpmmRowsPortable,
    SpmmAxpbyRowsPortable,
    AddPortable,      SubPortable,      MulPortable,
    ScalePortable,    AxpyPortable,     ScaleToPortable,
    CopyPortable,
};
}  // namespace adpa::simd::detail

#endif
