#pragma once
#include <cstdint>
#include <string>
#include <vector>

namespace adpa::simd {

/// Instruction-set level of the kernel implementations behind the dense and
/// sparse tensor ops (DESIGN.md §12). Levels are ordered: a higher level is
/// preferred when the CPU supports it.
///
/// Determinism contract per level: every kernel fixes its per-output-element
/// accumulation order as a function of shapes only, so results at one level
/// are bitwise identical run-to-run and for any thread count. Levels may
/// differ from each other in the low bits (FMA contraction, lane-widened
/// accumulator splitting); cross-level agreement is verified by the
/// rel-error parity suite (tests/simd_test.cc), not bit equality.
enum class Level {
  kPortable = 0,  ///< Plain C++ loops (the pre-dispatch kernels, unchanged).
  kAvx2 = 1,      ///< AVX2 + FMA, 256-bit lanes.
  kAvx512 = 2,    ///< AVX-512F, 512-bit lanes.
};

/// Lowercase level name ("portable", "avx2", "avx512").
const char* LevelName(Level level);

/// Parses a level name as produced by LevelName. Returns false (and leaves
/// `*out` untouched) on an unknown name.
bool ParseLevel(const std::string& name, Level* out);

/// True when the running CPU can execute kernels of the given level.
/// kPortable is always supported.
bool LevelSupported(Level level);

/// All levels the running CPU supports, in ascending order (kPortable
/// first). Never empty.
std::vector<Level> SupportedLevels();

/// The level kernels currently dispatch to. Resolved once on first use:
/// the ADPA_SIMD_LEVEL environment variable if set (aborts on an unknown or
/// unsupported value — an explicit request must not degrade silently),
/// otherwise the highest supported level.
Level ActiveLevel();

/// Overrides the dispatch level (tests sweep every supported level on one
/// machine; the CLI exposes --simd_level). Aborts if the CPU does not
/// support `level`. Not thread-safe against concurrently running kernels —
/// call between kernel invocations, like SetNumThreads.
void SetLevel(Level level);

/// Function-pointer table of the level-specialized inner kernels. The
/// public tensor ops (adpa::MatMul family, SparseMatrix::Multiply, the
/// elementwise Matrix updates) keep their signatures and route their inner
/// loops through this table; every row/panel primitive here writes only to
/// the output range it is handed, so the ParallelFor partitioning done by
/// the callers preserves the thread-count-invariance contract unchanged.
struct KernelTable {
  /// Dense GEMM panel: computes output rows [i_begin, i_end) of a*b, where
  /// `a` is row-major n x k float, `b` row-major k x m float and `out`
  /// row-major n x m, fully overwritten in the row range. The one dense
  /// kernel behind MatMul, MatMulTransposeA and MatMulTransposeB (the
  /// transposed products pack their transposed operand first). Levels that
  /// accumulate in double widen `a` themselves; float->double is exact, so
  /// where the widening happens never changes the bits.
  ///
  /// Accumulation discipline: the portable and AVX2 levels accumulate each
  /// output element in one double chain over the full contraction. The
  /// AVX-512 level accumulates fixed 128-step runs in float32 FMAs and
  /// folds each completed run into a double accumulator — the unbounded-k
  /// direction still accumulates in double, at twice the FMA throughput.
  /// Either way the order is a pure function of shapes, so every level is
  /// bitwise thread-count invariant; levels differ only to rel-error.
  void (*gemm_rows)(const float* a, const float* b, int64_t i_begin,
                    int64_t i_end, int64_t k, int64_t m, float* out);

  /// acc[j] += double(w) * x[j] for j in [0, m): the widened-accumulator
  /// inner axpy of MatMulSparseA.
  void (*axpy_wide)(double w, const float* x, int64_t m, double* acc);

  /// CSR SpMM over output rows [row_begin, row_end): overwrites
  /// out[r] = sum_p values[p] * dense[col_idx[p]] for each row. float32
  /// accumulation in CSR order (matching the historical kernel), blocked
  /// over the feature dimension so the gathered dense rows stay cache
  /// resident.
  void (*spmm_rows)(const int64_t* row_ptr, const int32_t* col_idx,
                    const float* values, const float* dense, int64_t cols,
                    int64_t row_begin, int64_t row_end, float* out);

  /// Fused per-hop chain over output rows [row_begin, row_end):
  ///   out[r] = beta * (A * dense)[r] + alpha * residual[r]
  /// in a single pass (SpMM -> scale -> residual add without materializing
  /// the intermediate). `residual` may alias `dense`; it must not alias
  /// `out`. Matches the unfused Multiply+ScaleInPlace+AddScaledInPlace
  /// sequence operation-for-operation.
  void (*spmm_axpby_rows)(const int64_t* row_ptr, const int32_t* col_idx,
                          const float* values, const float* dense,
                          const float* residual, float alpha, float beta,
                          int64_t cols, int64_t row_begin, int64_t row_end,
                          float* out);

  /// Elementwise span kernels (each element independent).
  void (*add)(float* dst, const float* src, int64_t n);        // dst += src
  void (*sub)(float* dst, const float* src, int64_t n);        // dst -= src
  void (*mul)(float* dst, const float* src, int64_t n);        // dst *= src
  void (*scale)(float* dst, float factor, int64_t n);          // dst *= f
  void (*axpy)(float* dst, const float* src, float factor,
               int64_t n);                                     // dst += f*src
  void (*scale_to)(float* dst, const float* src, float factor,
                   int64_t n);                                 // dst = f*src
  void (*copy)(float* dst, const float* src, int64_t n);       // dst = src
};

/// The kernel table for ActiveLevel().
const KernelTable& Kernels();

/// The kernel table for a specific level (aborts if unsupported). The
/// parity suite uses this to compare levels side by side.
const KernelTable& KernelsFor(Level level);

}  // namespace adpa::simd
