#pragma once
/// \file kernels_simd.hpp
/// Runtime-dispatched SIMD microkernels for the dense inner loops of the
/// nn stack (DESIGN.md §13): register-blocked GEMM, AᵀB and CSR SpMM row
/// panels, axpy, and the executor's elementwise ops (relu, add, bias-add,
/// row scaling, ...).
///
/// NS_HOT(every kernel here is a dense inner loop under runtime ISA dispatch)
///
/// Dispatch contract: every kernel returns `bool`. `true` means the SIMD
/// tier handled the call; `false` means the caller must run its own scalar
/// loop — which stays in the calling TU, unchanged, as the source of truth
/// for semantics. Call sites therefore read
///
///     if (!simd::axpy(y, x, a, n)) {
///       for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
///     }
///
/// and disabling SIMD (NS_SIMD=OFF at configure time, an unsupported CPU at
/// process start, or `set_enabled(false)` at run time) reproduces today's
/// scalar results bit for bit by construction.
///
/// Bitwise equality between the tiers is part of the contract, not a hope:
///  - Vectorization only runs *independent output elements* (the j lanes of
///    a GEMM row, several rows of a register block) side by side; the
///    per-element reduction over k stays in ascending order, so no float
///    addition is reassociated.
///  - The scalar loops' zero skip (`if (a == 0.0f) continue;`) becomes the
///    branch-free `madd_nz`, which leaves the accumulator bitwise unchanged
///    where the A entry is ±0 and propagates NaN entries.
///  - Fused multiply-add is used if and only if the translation unit is
///    compiled with FMA available (`__FMA__`), which is exactly when the
///    compiler contracts the scalar loops' `y += a*x` to an fma as well.
///    One build never mixes contraction modes across tiers.
///  - Kernels with a genuinely different reduction shape (the
///    double-accumulated dot products of `matmul_a_bt_into`, libm-bound
///    sigmoid/tanh) are deliberately *not* given SIMD paths.
///
/// The hot entry points are header-inline so the `enabled()` test is a load
/// and a predictable branch at the call site; the vector bodies carry
/// `__attribute__((target(...)))` and are selected per process by CPU
/// detection (`__builtin_cpu_supports`), so the build stays runnable on
/// machines older than the build host even with -march=native off.
///
/// This header must stay self-contained with NS_SIMD undefined (the
/// archcheck header gate compiles it with no project defines): everything
/// vector-specific sits behind NS_SIMD && architecture guards, and the
/// scalar-only build exports the same API with every kernel returning
/// false.

#include <cstddef>
#include <cstdint>

#if defined(NS_SIMD) && NS_SIMD
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_SIMD_X86 1
#include <immintrin.h>
#if defined(__FMA__)
#include <cmath>
#endif
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace ns::nn::simd {

namespace detail {
/// Process-wide tier switch: initialized by kernels_simd.cpp to
/// `available()` (static init; a kernel called before that sees false and
/// falls back to scalar — never wrong, briefly slower). Flipped only by
/// `set_enabled`, which tests and benches call with no kernels in flight.
extern bool g_enabled;
}  // namespace detail

/// True when the build carries vector bodies (NS_SIMD=ON on x86-64/aarch64
/// with a GNU-compatible compiler).
bool compiled_in();

/// `compiled_in()` and the executing CPU supports the compiled tier
/// (AVX2 — plus FMA, and AVX-512F/VL, when the build uses them — on x86;
/// always on aarch64).
bool available();

/// Runtime toggle for tests and benches: `on && available()` becomes the
/// new state. Not thread-safe against in-flight kernels.
void set_enabled(bool on);

/// Tier the *next* kernel call will take: "avx2", "neon", or "scalar".
const char* tier();

/// True when kernels will take the vector path right now.
inline bool enabled() { return detail::g_enabled; }

// --- vector bodies ---------------------------------------------------------

#if defined(NS_SIMD_X86)

// One contraction mode per build (see file comment): with __FMA__ the
// vector bodies fuse exactly like the compiler fuses the scalar loops;
// without it both tiers round the multiply and the add separately. The
// zero-skip form is fixed per build the same way: with __AVX512VL__ (which
// implies __FMA__) madd_nz skips zero lanes under a compare mask, otherwise
// it neutralizes them with exact bit masks.
#if defined(__AVX512VL__) && defined(__FMA__)
#define NS_SIMD_MASKED 1
#define NS_SIMD_TARGET "avx2,fma,avx512f,avx512vl"
#elif defined(__FMA__)
#define NS_SIMD_TARGET "avx2,fma"
#else
#define NS_SIMD_TARGET "avx2"
#endif

namespace detail {

__attribute__((target(NS_SIMD_TARGET))) inline __m256 madd(__m256 a, __m256 b,
                                                           __m256 acc) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, acc);
#else
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
#endif
}

inline float madd1(float a, float b, float acc) {
#if defined(__FMA__)
  return std::fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

__attribute__((target(NS_SIMD_TARGET))) inline void axpy_vec(
    float* y, const float* x, float a, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     madd(va, _mm256_loadu_ps(x + j), _mm256_loadu_ps(y + j)));
  }
  for (; j < n; ++j) y[j] = madd1(a, x[j], y[j]);
}

/// acc + a·b in the lanes where a != ±0, and acc unchanged where a == ±0:
/// the scalar loops' `if (a == 0.0f) continue;` without the branch (a zero
/// A entry contributes nothing, not even the NaN of 0·inf). A NaN lane of a
/// compares unequal to zero and propagates, as in the scalar loop.
__attribute__((target(NS_SIMD_TARGET))) inline __m256 madd_nz(__m256 a,
                                                              __m256 b,
                                                              __m256 acc) {
#if defined(NS_SIMD_MASKED)
  const __mmask8 live =
      _mm256_cmp_ps_mask(a, _mm256_setzero_ps(), _CMP_NEQ_UQ);
  return _mm256_mask3_fmadd_ps(a, b, acc, live);
#else
  // Zero lanes become (-0)·(+0) = -0 exactly, and acc + (-0) == acc for
  // every acc, -0 and NaN included (+0 there would turn an acc of -0
  // into +0). The constant -0 is also the comparand (-0 == +0), which
  // saves one of AVX2's 16 registers in a 3×32 block.
  const __m256 neg0 = _mm256_set1_ps(-0.0f);
  const __m256 zero = _mm256_cmp_ps(a, neg0, _CMP_EQ_OQ);
  return madd(_mm256_or_ps(a, _mm256_and_ps(zero, neg0)),
              _mm256_andnot_ps(zero, b), acc);
#endif
}

inline float madd1_nz(float a, float b, float acc) {
  return a == 0.0f ? acc : madd1(a, b, acc);
}

/// Rows [i, i+R) of C = A·B over a strided A (element (i, k) at
/// a[i·a_row + k·a_k], k < kdim), so one body serves A·B and Aᵀ·B. R rows
/// × 32 columns of accumulators (12 ymm at R = 3) stay in registers across
/// the whole k loop, and each B load feeds R independent FMA chains. Every
/// output element still sums its k terms in ascending order; rows and
/// columns only run side by side.
template <std::size_t R>
__attribute__((target(NS_SIMD_TARGET))) inline void gemm_block(
    const float* a, std::size_t a_row, std::size_t a_k, std::size_t kdim,
    const float* b, std::size_t bcols, float* c, std::size_t i) {
  std::size_t j = 0;
  for (; j + 32 <= bcols; j += 32) {
    __m256 acc[R][4];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_ps();
    }
    for (std::size_t k = 0; k < kdim; ++k) {
      const float* bp = b + k * bcols + j;
      for (std::size_t r = 0; r < R; ++r) {
        const __m256 va = _mm256_set1_ps(a[(i + r) * a_row + k * a_k]);
        for (std::size_t q = 0; q < 4; ++q) {
          acc[r][q] = madd_nz(va, _mm256_loadu_ps(bp + 8 * q), acc[r][q]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < 4; ++q) {
        _mm256_storeu_ps(c + (i + r) * bcols + j + 8 * q, acc[r][q]);
      }
    }
  }
  for (; j + 8 <= bcols; j += 8) {
    __m256 acc[R];
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
    for (std::size_t k = 0; k < kdim; ++k) {
      const __m256 vb = _mm256_loadu_ps(b + k * bcols + j);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = madd_nz(_mm256_set1_ps(a[(i + r) * a_row + k * a_k]), vb,
                         acc[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + (i + r) * bcols + j, acc[r]);
    }
  }
  for (; j < bcols; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < kdim; ++k) {
        acc = madd1_nz(a[(i + r) * a_row + k * a_k], b[k * bcols + j], acc);
      }
      c[(i + r) * bcols + j] = acc;
    }
  }
}

__attribute__((target(NS_SIMD_TARGET))) inline void gemm_rows_vec(
    const float* a, std::size_t acols, const float* b, std::size_t bcols,
    float* c, std::size_t r0, std::size_t r1) {
  std::size_t i = r0;
  // A single output column (the attention's Q̃·(K̃ᵀ·1), an MLP's logit
  // layer): 8 rows share a vector, each lane gathering its own A row's
  // k-th entry against one broadcast B entry.
  if (bcols == 1 && acols <= (std::size_t{1} << 27)) {
    const __m256i idx =
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(static_cast<int>(acols)));
    for (; i + 8 <= r1; i += 8) {
      const float* ap = a + i * acols;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t k = 0; k < acols; ++k) {
        acc = madd_nz(_mm256_i32gather_ps(ap + k, idx, 4),
                      _mm256_set1_ps(b[k]), acc);
      }
      _mm256_storeu_ps(c + i, acc);
    }
  }
  for (; i + 3 <= r1; i += 3) gemm_block<3>(a, acols, 1, acols, b, bcols, c, i);
  if (r1 - i == 2) gemm_block<2>(a, acols, 1, acols, b, bcols, c, i);
  if (r1 - i == 1) gemm_block<1>(a, acols, 1, acols, b, bcols, c, i);
}

/// Rows [r0, r1) of Y = S·X for S in CSR form: each output row's columns
/// accumulate in registers over the row's edges in CSR order, starting
/// from +0 like the scalar loop's cleared row. No zero skip: the scalar
/// SpMM multiplies every stored weight.
__attribute__((target(NS_SIMD_TARGET))) inline void spmm_rows_vec(
    const std::size_t* row_ptr, const std::uint32_t* col, const float* val,
    const float* x, std::size_t xcols, float* y, std::size_t r0,
    std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t e0 = row_ptr[r], e1 = row_ptr[r + 1];
    float* yrow = y + r * xcols;
    std::size_t j = 0;
    for (; j + 32 <= xcols; j += 32) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t e = e0; e < e1; ++e) {
        const __m256 vw = _mm256_set1_ps(val[e]);
        const float* xp = x + col[e] * xcols + j;
        acc0 = madd(vw, _mm256_loadu_ps(xp + 0), acc0);
        acc1 = madd(vw, _mm256_loadu_ps(xp + 8), acc1);
        acc2 = madd(vw, _mm256_loadu_ps(xp + 16), acc2);
        acc3 = madd(vw, _mm256_loadu_ps(xp + 24), acc3);
      }
      _mm256_storeu_ps(yrow + j + 0, acc0);
      _mm256_storeu_ps(yrow + j + 8, acc1);
      _mm256_storeu_ps(yrow + j + 16, acc2);
      _mm256_storeu_ps(yrow + j + 24, acc3);
    }
    for (; j + 8 <= xcols; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t e = e0; e < e1; ++e) {
        acc = madd(_mm256_set1_ps(val[e]),
                   _mm256_loadu_ps(x + col[e] * xcols + j), acc);
      }
      _mm256_storeu_ps(yrow + j, acc);
    }
    for (; j < xcols; ++j) {
      float acc = 0.0f;
      for (std::size_t e = e0; e < e1; ++e) {
        acc = madd1(val[e], x[col[e] * xcols + j], acc);
      }
      yrow[j] = acc;
    }
  }
}

/// Rows [i, i + 8V) of the column c = Aᵀ·b: V vectors of 8 output rows,
/// each a contiguous slice of one A row against one broadcast b entry.
template <std::size_t V>
__attribute__((target(NS_SIMD_TARGET))) inline void gemv_t_block(
    const float* a, std::size_t arows, std::size_t acols, const float* b,
    float* c, std::size_t i) {
  __m256 acc[V];
  for (std::size_t v = 0; v < V; ++v) acc[v] = _mm256_setzero_ps();
  for (std::size_t k = 0; k < arows; ++k) {
    const __m256 vb = _mm256_set1_ps(b[k]);
    for (std::size_t v = 0; v < V; ++v) {
      acc[v] = madd_nz(_mm256_loadu_ps(a + k * acols + i + 8 * v), vb, acc[v]);
    }
  }
  for (std::size_t v = 0; v < V; ++v) _mm256_storeu_ps(c + i + 8 * v, acc[v]);
}

/// Rows [r0, r1) of C = Aᵀ·B (A is arows×acols, B is arows×bcols; output
/// row i is column i of A), with gemm_rows' zero skip on A and k (the A
/// row) ascending per output element: 2-row blocks of gemm_block, except
/// at bcols = 1 (the attention's K̃ᵀ·1), where output rows share vectors.
__attribute__((target(NS_SIMD_TARGET))) inline void gemm_at_b_vec(
    const float* a, std::size_t arows, std::size_t acols, const float* b,
    std::size_t bcols, float* c, std::size_t r0, std::size_t r1) {
  std::size_t i = r0;
  if (bcols == 1) {
    for (; i + 32 <= r1; i += 32) gemv_t_block<4>(a, arows, acols, b, c, i);
    for (; i + 8 <= r1; i += 8) gemv_t_block<1>(a, arows, acols, b, c, i);
  }
  for (; i + 2 <= r1; i += 2) gemm_block<2>(a, 1, acols, arows, b, bcols, c, i);
  if (i < r1) gemm_block<1>(a, 1, acols, arows, b, bcols, c, i);
}

__attribute__((target(NS_SIMD_TARGET))) inline void relu_vec(float* y,
                                                             const float* x,
                                                             std::size_t n) {
  // andnot(x < 0, x): keeps -0 and NaN exactly like the scalar
  // `x < 0 ? 0 : x` (both comparisons are false for -0 and NaN).
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + j, _mm256_andnot_ps(neg, v));
  }
  for (; j < n; ++j) y[j] = x[j] < 0.0f ? 0.0f : x[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void add_vec(float* y,
                                                            const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     _mm256_add_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] + b[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void sub_vec(float* y,
                                                            const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     _mm256_sub_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] - b[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void mul_vec(float* y,
                                                            const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     _mm256_mul_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] * b[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void scale_vec(float* y,
                                                              const float* x,
                                                              float s,
                                                              std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] * s;
}

__attribute__((target(NS_SIMD_TARGET))) inline void add_scalar_vec(
    float* y, const float* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] + s;
}

}  // namespace detail

#elif defined(NS_SIMD_NEON)

namespace detail {

// aarch64 GCC/Clang contract `y += a*x` to fma by default, matching vfmaq.
inline float32x4_t madd(float32x4_t a, float32x4_t b, float32x4_t acc) {
  return vfmaq_f32(acc, a, b);
}

inline float madd1(float a, float b, float acc) {
  return __builtin_fmaf(a, b, acc);
}

inline void axpy_vec(float* y, const float* x, float a, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, madd(va, vld1q_f32(x + j), vld1q_f32(y + j)));
  }
  for (; j < n; ++j) y[j] = madd1(a, x[j], y[j]);
}

inline void gemm_rows_vec(const float* a, std::size_t acols, const float* b,
                          std::size_t bcols, float* c, std::size_t r0,
                          std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * acols;
    float* crow = c + i * bcols;
    std::size_t j = 0;
    for (; j + 16 <= bcols; j += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        const float32x4_t va = vdupq_n_f32(aik);
        const float* bp = b + k * bcols + j;
        acc0 = madd(va, vld1q_f32(bp + 0), acc0);
        acc1 = madd(va, vld1q_f32(bp + 4), acc1);
        acc2 = madd(va, vld1q_f32(bp + 8), acc2);
        acc3 = madd(va, vld1q_f32(bp + 12), acc3);
      }
      vst1q_f32(crow + j + 0, acc0);
      vst1q_f32(crow + j + 4, acc1);
      vst1q_f32(crow + j + 8, acc2);
      vst1q_f32(crow + j + 12, acc3);
    }
    for (; j + 4 <= bcols; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        acc = madd(vdupq_n_f32(aik), vld1q_f32(b + k * bcols + j), acc);
      }
      vst1q_f32(crow + j, acc);
    }
    for (; j < bcols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        acc = madd1(aik, b[k * bcols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

// SpMM and AᵀB on NEON: the per-edge / per-k axpy over cleared rows that
// the call sites ran before these kernels existed.
inline void spmm_rows_vec(const std::size_t* row_ptr, const std::uint32_t* col,
                          const float* val, const float* x, std::size_t xcols,
                          float* y, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    float* yrow = y + r * xcols;
    for (std::size_t j = 0; j < xcols; ++j) yrow[j] = 0.0f;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      axpy_vec(yrow, x + col[e] * xcols, val[e], xcols);
    }
  }
}

inline void gemm_at_b_vec(const float* a, std::size_t arows, std::size_t acols,
                          const float* b, std::size_t bcols, float* c,
                          std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    float* crow = c + i * bcols;
    for (std::size_t j = 0; j < bcols; ++j) crow[j] = 0.0f;
    for (std::size_t k = 0; k < arows; ++k) {
      const float aki = a[k * acols + i];
      if (aki == 0.0f) continue;
      axpy_vec(crow, b + k * bcols, aki, bcols);
    }
  }
}

inline void relu_vec(float* y, const float* x, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t v = vld1q_f32(x + j);
    const uint32x4_t neg = vcltq_f32(v, zero);
    vst1q_f32(y + j, vbslq_f32(neg, zero, v));
  }
  for (; j < n; ++j) y[j] = x[j] < 0.0f ? 0.0f : x[j];
}

inline void add_vec(float* y, const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vaddq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] + b[j];
}

inline void sub_vec(float* y, const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] - b[j];
}

inline void mul_vec(float* y, const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vmulq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] * b[j];
}

inline void scale_vec(float* y, const float* x, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vmulq_f32(vld1q_f32(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] * s;
}

inline void add_scalar_vec(float* y, const float* x, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vaddq_f32(vld1q_f32(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] + s;
}

}  // namespace detail

#endif  // NS_SIMD_X86 / NS_SIMD_NEON

// --- dispatching entry points ----------------------------------------------
// Each returns false (leaving all outputs untouched) when the vector tier
// is off; the caller then runs its scalar loop.

#if defined(NS_SIMD_X86) || defined(NS_SIMD_NEON)

/// y[j] += a * x[j] for j in [0, n).
inline bool axpy(float* y, const float* x, float a, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::axpy_vec(y, x, a, n);
  return true;
}

/// Rows [r0, r1) of C = A·B (all row-major, contiguous; A is ·×acols, B is
/// acols×bcols). Overwrites the C rows; k ascends per element exactly like
/// the scalar kernel, including its skip of zero A entries.
inline bool gemm_rows(const float* a, std::size_t acols, const float* b,
                      std::size_t bcols, float* c, std::size_t r0,
                      std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::gemm_rows_vec(a, acols, b, bcols, c, r0, r1);
  return true;
}

/// Rows [r0, r1) of Y = S·X for a CSR S (row_ptr/col/val) and a row-major
/// X with xcols columns. Overwrites the Y rows; each element accumulates
/// its row's edges in CSR order from +0, like the scalar SpMM.
inline bool spmm_rows(const std::size_t* row_ptr, const std::uint32_t* col,
                      const float* val, const float* x, std::size_t xcols,
                      float* y, std::size_t r0, std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::spmm_rows_vec(row_ptr, col, val, x, xcols, y, r0, r1);
  return true;
}

/// Rows [r0, r1) of C = Aᵀ·B (A is arows×acols, B is arows×bcols, C is
/// acols×bcols). Overwrites the C rows; k ascends per element like the
/// scalar kernel, including its skip of zero A entries.
inline bool gemm_at_b(const float* a, std::size_t arows, std::size_t acols,
                      const float* b, std::size_t bcols, float* c,
                      std::size_t r0, std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::gemm_at_b_vec(a, arows, acols, b, bcols, c, r0, r1);
  return true;
}

inline bool relu(float* y, const float* x, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::relu_vec(y, x, n);
  return true;
}

inline bool add(float* y, const float* a, const float* b, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::add_vec(y, a, b, n);
  return true;
}

inline bool sub(float* y, const float* a, const float* b, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::sub_vec(y, a, b, n);
  return true;
}

/// Elementwise product (Hadamard).
inline bool hadamard(float* y, const float* a, const float* b, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::mul_vec(y, a, b, n);
  return true;
}

inline bool scale(float* y, const float* x, float s, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::scale_vec(y, x, s, n);
  return true;
}

inline bool add_scalar(float* y, const float* x, float s, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::add_scalar_vec(y, x, s, n);
  return true;
}

/// Y = X + 1·bias (bias is one row of `cols` floats): the kAddRowBroadcast
/// kernel.
inline bool bias_add(float* y, const float* x, const float* bias,
                     std::size_t rows, std::size_t cols) {
  if (!detail::g_enabled) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    detail::add_vec(y + r * cols, x + r * cols, bias, cols);
  }
  return true;
}

/// Y[r][c] = X[r][c] * s[r] (s is an rows×1 column): the kRowMul kernel.
inline bool row_scale(float* y, const float* x, const float* s,
                      std::size_t rows, std::size_t cols) {
  if (!detail::g_enabled) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    detail::scale_vec(y + r * cols, x + r * cols, s[r], cols);
  }
  return true;
}

#else  // scalar-only build: same API, every kernel defers to the caller

inline bool axpy(float*, const float*, float, std::size_t) { return false; }
inline bool gemm_rows(const float*, std::size_t, const float*, std::size_t,
                      float*, std::size_t, std::size_t) {
  return false;
}
inline bool spmm_rows(const std::size_t*, const std::uint32_t*, const float*,
                      const float*, std::size_t, float*, std::size_t,
                      std::size_t) {
  return false;
}
inline bool gemm_at_b(const float*, std::size_t, std::size_t, const float*,
                      std::size_t, float*, std::size_t, std::size_t) {
  return false;
}
inline bool relu(float*, const float*, std::size_t) { return false; }
inline bool add(float*, const float*, const float*, std::size_t) {
  return false;
}
inline bool sub(float*, const float*, const float*, std::size_t) {
  return false;
}
inline bool hadamard(float*, const float*, const float*, std::size_t) {
  return false;
}
inline bool scale(float*, const float*, float, std::size_t) { return false; }
inline bool add_scalar(float*, const float*, float, std::size_t) {
  return false;
}
inline bool bias_add(float*, const float*, const float*, std::size_t,
                     std::size_t) {
  return false;
}
inline bool row_scale(float*, const float*, const float*, std::size_t,
                      std::size_t) {
  return false;
}

#endif

}  // namespace ns::nn::simd
