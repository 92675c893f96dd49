// AVX-512F kernel level (512-bit lanes). Compiled with -mavx512f (plus the
// AVX2/FMA baseline) regardless of the global architecture flags; runtime
// dispatch guarantees these functions only execute on AVX-512 CPUs.
//
// Dense GEMM precision discipline at this level: fixed kKChunk-step runs of
// the contraction accumulate in 16-wide float32 FMAs (twice the double FMA
// throughput), and each completed run is folded into per-element double
// accumulators — the unbounded-k direction still accumulates in double, so
// rounding error stays bounded by the fixed run length instead of growing
// with k. The per-element order is a pure function of shapes (bitwise
// thread-count invariant within the level; rel-error vs. the other levels).

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

// GEMM register tile: 8 output rows x 32 output columns = 16 zmm float
// accumulators, plus 2 b-row lanes and 1 broadcast — within the 32-register
// AVX-512 budget. The per-element double accumulators live in a small
// stack buffer touched only once per kKChunk contraction steps.
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 32;

// Fixed float-accumulation run length. Every output element accumulates
// products p in [c*kKChunk, (c+1)*kKChunk) in float32 (single-rounding FMA
// per step), then folds the run into its double accumulator. The constant
// is part of the level's determinism contract: the chunk boundaries depend
// on k alone, never on the row/thread partition.
constexpr int64_t kKChunk = 128;

// dacc[0..15] += double(facc lane) for one 16-float accumulator. The lane
// split is float->double widening (exact) plus a double add: per element
// this is indistinguishable from a scalar `dacc += (double)facc`.
inline void SpillChunk(__m512 facc, double* dacc) {
  const __m256 lo = _mm512_castps512_ps256(facc);
  const __m256 hi =
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(facc, facc, 0xEE));
  _mm512_storeu_pd(dacc + 0, _mm512_add_pd(_mm512_loadu_pd(dacc + 0),
                                           _mm512_cvtps_pd(lo)));
  _mm512_storeu_pd(dacc + 8, _mm512_add_pd(_mm512_loadu_pd(dacc + 8),
                                           _mm512_cvtps_pd(hi)));
}

// Full 8x32 register tile: rows [i0, i0+8), columns [j0, j0+32).
void Tile8x32(const float* a, const float* b, int64_t i0, int64_t j0,
              int64_t k, int64_t m, float* out) {
  alignas(64) double dacc[kMr * kNr] = {};
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    __m512 f[kMr][2];
    for (int r = 0; r < kMr; ++r) {
      f[r][0] = _mm512_setzero_ps();
      f[r][1] = _mm512_setzero_ps();
    }
    for (int64_t p = p0; p < p_end; ++p) {
      const float* b_row = b + p * m + j0;
      const __m512 b0 = _mm512_loadu_ps(b_row);
      const __m512 b1 = _mm512_loadu_ps(b_row + 16);
      for (int r = 0; r < kMr; ++r) {
        const __m512 av = _mm512_set1_ps(a[(i0 + r) * k + p]);
        f[r][0] = _mm512_fmadd_ps(av, b0, f[r][0]);
        f[r][1] = _mm512_fmadd_ps(av, b1, f[r][1]);
      }
    }
    for (int r = 0; r < kMr; ++r) {
      SpillChunk(f[r][0], dacc + r * kNr);
      SpillChunk(f[r][1], dacc + r * kNr + 16);
    }
  }
  for (int r = 0; r < kMr; ++r) {
    float* out_row = out + (i0 + r) * m + j0;
    const double* acc_row = dacc + r * kNr;
    for (int v = 0; v < 4; ++v) {
      _mm256_storeu_ps(out_row + 8 * v,
                       _mm512_cvtpd_ps(_mm512_loadu_pd(acc_row + 8 * v)));
    }
  }
}

// Single-row variant over a 32-column block: the row-tail path. Per output
// element this is the exact chunk/FMA chain of Tile8x32, so any row
// partition of the panel produces identical bits.
void Tile1x32(const float* a_row, const float* b, int64_t j0, int64_t k,
              int64_t m, float* out_row) {
  alignas(64) double dacc[kNr] = {};
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    __m512 f0 = _mm512_setzero_ps();
    __m512 f1 = _mm512_setzero_ps();
    for (int64_t p = p0; p < p_end; ++p) {
      const float* b_row = b + p * m + j0;
      const __m512 av = _mm512_set1_ps(a_row[p]);
      f0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(b_row), f0);
      f1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(b_row + 16), f1);
    }
    SpillChunk(f0, dacc);
    SpillChunk(f1, dacc + 16);
  }
  for (int v = 0; v < 4; ++v) {
    _mm256_storeu_ps(out_row + 8 * v,
                     _mm512_cvtpd_ps(_mm512_loadu_pd(dacc + 8 * v)));
  }
}

// Single-row variant over a 16-column block (column tail >= 16).
void Tile1x16(const float* a_row, const float* b, int64_t j0, int64_t k,
              int64_t m, float* out_row) {
  alignas(64) double dacc[16] = {};
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    __m512 f0 = _mm512_setzero_ps();
    for (int64_t p = p0; p < p_end; ++p) {
      f0 = _mm512_fmadd_ps(_mm512_set1_ps(a_row[p]),
                           _mm512_loadu_ps(b + p * m + j0), f0);
    }
    SpillChunk(f0, dacc);
  }
  for (int v = 0; v < 2; ++v) {
    _mm256_storeu_ps(out_row + 8 * v,
                     _mm512_cvtpd_ps(_mm512_loadu_pd(dacc + 8 * v)));
  }
}

// Scalar column tail (< 16 columns). __builtin_fmaf is the single-rounding
// scalar twin of a vector _mm512_fmadd_ps lane, so this produces the same
// bits as the vector paths would for the same element.
float ScalarChunkedDot(const float* a_row, const float* b, int64_t j,
                       int64_t k, int64_t m) {
  double dacc = 0.0;
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    float run = 0.0f;
    for (int64_t p = p0; p < p_end; ++p) {
      run = __builtin_fmaf(a_row[p], b[p * m + j], run);
    }
    dacc += static_cast<double>(run);
  }
  return static_cast<float>(dacc);
}

ADPA_HOT void GemmRowsAvx512(const float* a, const float* b, int64_t i_begin,
                             int64_t i_end, int64_t k, int64_t m, float* out) {
  int64_t j0 = 0;
  for (; j0 + kNr <= m; j0 += kNr) {
    int64_t i0 = i_begin;
    for (; i0 + kMr <= i_end; i0 += kMr) {
      Tile8x32(a, b, i0, j0, k, m, out);
    }
    for (; i0 < i_end; ++i0) {
      Tile1x32(a + i0 * k, b, j0, k, m, out + i0 * m + j0);
    }
  }
  if (j0 + 16 <= m) {
    for (int64_t i0 = i_begin; i0 < i_end; ++i0) {
      Tile1x16(a + i0 * k, b, j0, k, m, out + i0 * m + j0);
    }
    j0 += 16;
  }
  if (j0 < m) {
    for (int64_t i0 = i_begin; i0 < i_end; ++i0) {
      const float* a_row = a + i0 * k;
      float* out_row = out + i0 * m;
      for (int64_t j = j0; j < m; ++j) {
        out_row[j] = ScalarChunkedDot(a_row, b, j, k, m);
      }
    }
  }
}

ADPA_HOT void AxpyWideAvx512(double w, const float* x, int64_t m, double* acc) {
  const __m512d wv = _mm512_set1_pd(w);
  int64_t j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m512d xv = _mm512_cvtps_pd(_mm256_loadu_ps(x + j));
    const __m512d av = _mm512_loadu_pd(acc + j);
    _mm512_storeu_pd(acc + j, _mm512_fmadd_pd(wv, xv, av));
  }
  for (; j < m; ++j) acc[j] += w * x[j];
}

inline void AxpyRowF32(float* dst, const float* src, float w, int64_t n) {
  const __m512 wv = _mm512_set1_ps(w);
  int64_t c = 0;
  for (; c + 16 <= n; c += 16) {
    const __m512 sv = _mm512_loadu_ps(src + c);
    const __m512 dv = _mm512_loadu_ps(dst + c);
    _mm512_storeu_ps(dst + c, _mm512_fmadd_ps(wv, sv, dv));
  }
  // Explicit fmaf keeps the tail a single rounding — the same arithmetic
  // as the fmadd lanes above — independent of contraction heuristics.
  for (; c < n; ++c) dst[c] = __builtin_fmaf(w, src[c], dst[c]);
}

constexpr int64_t kSpmmColBlock = 1024;

ADPA_HOT void SpmmRowsAvx512(const int64_t* row_ptr, const int32_t* col_idx,
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

void ScaleAvx512(float* dst, float factor, int64_t n);

ADPA_HOT void SpmmAxpbyRowsAvx512(const int64_t* row_ptr, const int32_t* col_idx,
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
      ScaleAvx512(out_row, beta, width);
      AxpyRowF32(out_row, residual + r * cols + c0, alpha, width);
    }
  }
}

ADPA_HOT void AddAvx512(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

ADPA_HOT void SubAvx512(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_sub_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

ADPA_HOT void MulAvx512(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_mul_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

ADPA_HOT void ScaleAvx512(float* dst, float factor, int64_t n) {
  const __m512 fv = _mm512_set1_ps(factor);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_loadu_ps(dst + i), fv));
  }
  for (; i < n; ++i) dst[i] *= factor;
}

ADPA_HOT void AxpyAvx512(float* dst, const float* src, float factor, int64_t n) {
  AxpyRowF32(dst, src, factor, n);
}

ADPA_HOT void ScaleToAvx512(float* dst, const float* src, float factor, int64_t n) {
  const __m512 fv = _mm512_set1_ps(factor);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_loadu_ps(src + i), fv));
  }
  for (; i < n; ++i) dst[i] = factor * src[i];
}

}  // namespace

const KernelTable kAvx512Table = {
    GemmRowsAvx512, AxpyWideAvx512, SpmmRowsAvx512,
    SpmmAxpbyRowsAvx512,
    AddAvx512,      SubAvx512,  MulAvx512,
    ScaleAvx512,    AxpyAvx512, ScaleToAvx512,
    CopyPortable,
};

}  // namespace adpa::simd::detail

#else  // !x86-64: the AVX-512 level is never CPU-supported; alias portable.

namespace adpa::simd::detail {
const KernelTable kAvx512Table = {
    GemmRowsPortable, AxpyWidePortable, SpmmRowsPortable,
    SpmmAxpbyRowsPortable,
    AddPortable,      SubPortable,      MulPortable,
    ScalePortable,    AxpyPortable,     ScaleToPortable,
    CopyPortable,
};
}  // namespace adpa::simd::detail

#endif
