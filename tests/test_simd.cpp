/// \file test_simd.cpp
/// Scalar-vs-SIMD bitwise equality, kernel by kernel (DESIGN.md §13). Each
/// test drives a dispatch entry point twice — vector tier on, then off with
/// the caller's scalar fallback loop — over ragged sizes that cover the
/// full vector width, the partial tail, and the scalar-only remainder, and
/// requires the float bits to match exactly. The scalar loops here are
/// copies of the production call sites' fallbacks, compiled in the same
/// translation-unit flags, so the comparison exercises the real contract:
/// one contraction mode per build, no reassociation across lanes.
///
/// On machines without the compiled tier (or in an NS_SIMD=OFF build) every
/// dispatch call returns false and the suite degenerates to checking that.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nn/kernels_simd.hpp"

namespace ns::nn::simd {
namespace {

std::uint32_t bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Sizes straddling every dispatch boundary of the widest kernel (the
/// 32-wide AVX2 GEMM panel, the 8-wide loop, the scalar tail) and the
/// 4-wide NEON equivalents.
const std::size_t kSizes[] = {1, 3, 7, 8, 9, 15, 16, 31, 32, 33, 40, 100};

/// Deterministic mixed-sign data with exact zeros sprinkled in (the GEMM
/// and axpy call sites skip zero multipliers; the kernels must too).
std::vector<float> random_data(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (rng() % 7 == 0) ? 0.0f : dist(rng);
  }
  return v;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(true); }

  /// True when the vector tier actually runs on this machine; otherwise
  /// each test only asserts the scalar-handoff behaviour.
  static bool vector_tier() { return available(); }
};

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what,
                          std::size_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << what << " n=" << n << " element " << i << ": " << a[i]
        << " vs " << b[i];
  }
}

TEST_F(SimdKernelsTest, DispatchReportsTierConsistently) {
  EXPECT_EQ(available(), compiled_in() && available());
  EXPECT_NE(tier(), nullptr);
  if (!vector_tier()) {
    EXPECT_EQ(std::string(tier()), "scalar");
    float y[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    const float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    EXPECT_FALSE(axpy(y, x, 2.0f, 4));
    EXPECT_EQ(bits(y[0]), bits(0.0f));  // a refused kernel writes nothing
  }
  set_enabled(false);
  EXPECT_FALSE(enabled());
  float y[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  const float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_FALSE(axpy(y, x, 2.0f, 4));
  set_enabled(true);
  EXPECT_EQ(enabled(), available());
}

TEST_F(SimdKernelsTest, AxpyMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    const std::vector<float> x = random_data(n, 11u + n);
    std::vector<float> y_simd = random_data(n, 23u + n);
    std::vector<float> y_ref = y_simd;
    const float a = 1.37f;

    set_enabled(true);
    ASSERT_TRUE(axpy(y_simd.data(), x.data(), a, n));
    set_enabled(false);
    ASSERT_FALSE(axpy(y_ref.data(), x.data(), a, n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] += a * x[j];

    expect_bitwise_equal(y_simd, y_ref, "axpy", n);
  }
}

/// B/X widths for the GEMM, AᵀB and SpMM sweeps: every kSizes boundary plus
/// two full 32-wide register panels.
std::vector<std::size_t> panel_widths() {
  std::vector<std::size_t> w(std::begin(kSizes), std::end(kSizes));
  w.push_back(64);
  return w;
}

/// K extents of the sweeps: a single term, a short odd run, and the
/// hidden width with and without a tail.
const std::size_t kDepths[] = {1, 5, 32, 33};

const float kNaN = std::numeric_limits<float>::quiet_NaN();
const float kInf = std::numeric_limits<float>::infinity();
// (-kTiny)·kTiny is exactly -1e-60: an fma from +0 rounds it to -0, so the
// accumulator underflows to -0 (the unfused product rounds to -0 and +0 + -0
// is +0, so only FMA builds reach it).
constexpr float kTiny = 1e-30f;

/// The term whose B row is poisoned: 2, or the last one in shorter sums.
std::size_t poison_term(std::size_t kdim) { return kdim > 2 ? 2 : kdim - 1; }

/// Test data for C = A·B with A given as an element accessor: column k of
/// A against row k of B. `seed_zero_skip_cases` plants, through `set_a`
/// (output row i, term k), the zero-skip contract's edge cases:
///  - output row 1 all ±0, which must give +0;
///  - term `kPoison` ±0 in every row, against a B row of ±inf and NaN;
///  - a lone -0 in output row 3;
///  - NaN at term kdim-1 of output row 4 (against a finite B row), which
///    must propagate;
///  - output row 5 = kTiny·(-kTiny) at term 0 followed by only ±0 terms:
///    an accumulator of -0 that the zero terms must leave at -0.
/// Rows and terms beyond the shape are simply not planted.
template <typename SetA>
void seed_zero_skip_cases(std::size_t rows, std::size_t kdim, float* b,
                          std::size_t bcols, const SetA& set_a) {
  const std::size_t kPoison = poison_term(kdim);
  const float kPoisonValues[] = {kInf, -kInf, kNaN};
  for (std::size_t i = 0; i < rows; ++i) {
    set_a(i, kPoison, (i % 2 == 0) ? 0.0f : -0.0f);
  }
  for (std::size_t j = 0; j < bcols; ++j) {
    b[kPoison * bcols + j] = kPoisonValues[j % 3];
  }
  if (rows > 1) {
    for (std::size_t k = 0; k < kdim; ++k) set_a(1, k, (k % 2) ? 0.0f : -0.0f);
  }
  if (rows > 3 && kdim > 4) set_a(3, 4, -0.0f);
  if (rows > 4 && kdim > 1 && kdim - 1 != kPoison) set_a(4, kdim - 1, kNaN);
  if (rows > 5 && kPoison != 0) {
    set_a(5, 0, -kTiny);
    for (std::size_t j = 0; j < bcols; ++j) b[j] = kTiny;
    for (std::size_t k = 1; k < kdim; ++k) set_a(5, k, (k % 2) ? 0.0f : -0.0f);
  }
}

/// Checks the planted cases of seed_zero_skip_cases on the vector result.
void expect_zero_skip_cases(const std::vector<float>& c, std::size_t rows,
                            std::size_t kdim, std::size_t bcols,
                            const char* what) {
  const std::size_t kPoison = poison_term(kdim);
  for (std::size_t idx = 0; idx < c.size(); ++idx) {
    const std::size_t i = idx / bcols;
    if (rows > 1 && i == 1) {
      EXPECT_EQ(bits(c[idx]), bits(0.0f))
          << what << ": an all-zero A row must give +0.0f at " << idx;
    } else if (rows > 4 && i == 4 && kdim > 1 && kdim - 1 != kPoison) {
      EXPECT_TRUE(std::isnan(c[idx]))
          << what << ": a NaN A entry must propagate at " << idx;
    } else if (rows > 5 && i == 5 && kPoison != 0) {
#if defined(__FMA__) || defined(__aarch64__)
      EXPECT_EQ(bits(c[idx]), bits(-0.0f))
          << what << ": zero A entries changed a -0 accumulator at " << idx;
#endif
    } else {
      EXPECT_TRUE(std::isfinite(c[idx]))
          << what << ": poisoned B row leaked through a zero A entry at "
          << idx;
    }
  }
}

TEST_F(SimdKernelsTest, GemmRowsMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  // Zero-skip contract: a zero A entry (either sign) contributes nothing,
  // not even the inf/NaN its B row would turn into NaN under 0 * x. Rows
  // 1..7 cover the 3-row register block and both of its tails; 8, 9 and 17
  // the 8-row vectors of the single-column (bcols = 1) path and its tail.
  const std::size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17};
  for (const std::size_t bcols : panel_widths()) {
    for (const std::size_t acols : kDepths) {
      for (const std::size_t rows : kRows) {
        const std::uint32_t seed =
            static_cast<std::uint32_t>(7 + bcols * 131 + acols * 17 + rows);
        std::vector<float> a = random_data(rows * acols, seed);
        std::vector<float> b = random_data(acols * bcols, seed + 1);
        seed_zero_skip_cases(rows, acols, b.data(), bcols,
                             [&](std::size_t i, std::size_t k, float v) {
                               a[i * acols + k] = v;
                             });
        std::vector<float> c_simd(rows * bcols, -1.0f);
        std::vector<float> c_ref(rows * bcols, -1.0f);

        set_enabled(true);
        ASSERT_TRUE(gemm_rows(a.data(), acols, b.data(), bcols,
                              c_simd.data(), 0, rows));
        set_enabled(false);
        ASSERT_FALSE(gemm_rows(a.data(), acols, b.data(), bcols,
                               c_ref.data(), 0, rows));
        // The production fallback (matmul_into's scalar loop, zero-skip and
        // all) over rows it first clears.
        for (std::size_t i = 0; i < rows; ++i) {
          float* crow = c_ref.data() + i * bcols;
          for (std::size_t j = 0; j < bcols; ++j) crow[j] = 0.0f;
          for (std::size_t k = 0; k < acols; ++k) {
            const float aik = a[i * acols + k];
            if (aik == 0.0f) continue;
            const float* brow = b.data() + k * bcols;
            for (std::size_t j = 0; j < bcols; ++j) crow[j] += aik * brow[j];
          }
        }

        SCOPED_TRACE("rows=" + std::to_string(rows) +
                     " acols=" + std::to_string(acols));
        expect_bitwise_equal(c_simd, c_ref, "gemm_rows", bcols);
        expect_zero_skip_cases(c_simd, rows, acols, bcols, "gemm_rows");
      }
    }
  }
}

TEST_F(SimdKernelsTest, GemmAtBMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  // C = AᵀB: output row i is column i of A. Output rows cover the 2-row
  // block and its tail, and at bcols = 1 the 8-row vectors, the 32-row
  // block and the scalar remainder.
  const std::size_t kOutRows[] = {1, 2, 3, 5, 7, 8, 9, 17, 32, 40};
  for (const std::size_t bcols : panel_widths()) {
    for (const std::size_t arows : kDepths) {
      for (const std::size_t acols : kOutRows) {
        const std::uint32_t seed =
            static_cast<std::uint32_t>(5 + bcols * 131 + arows * 17 + acols);
        std::vector<float> a = random_data(arows * acols, seed);
        std::vector<float> b = random_data(arows * bcols, seed + 1);
        seed_zero_skip_cases(acols, arows, b.data(), bcols,
                             [&](std::size_t i, std::size_t k, float v) {
                               a[k * acols + i] = v;
                             });
        std::vector<float> c_simd(acols * bcols, -1.0f);
        std::vector<float> c_ref(acols * bcols, -1.0f);

        set_enabled(true);
        ASSERT_TRUE(gemm_at_b(a.data(), arows, acols, b.data(), bcols,
                              c_simd.data(), 0, acols));
        set_enabled(false);
        ASSERT_FALSE(gemm_at_b(a.data(), arows, acols, b.data(), bcols,
                               c_ref.data(), 0, acols));
        // matmul_at_b_into's scalar fallback.
        for (std::size_t i = 0; i < acols; ++i) {
          float* crow = c_ref.data() + i * bcols;
          for (std::size_t j = 0; j < bcols; ++j) crow[j] = 0.0f;
          for (std::size_t k = 0; k < arows; ++k) {
            const float aki = a[k * acols + i];
            if (aki == 0.0f) continue;
            const float* brow = b.data() + k * bcols;
            for (std::size_t j = 0; j < bcols; ++j) crow[j] += aki * brow[j];
          }
        }

        SCOPED_TRACE("arows=" + std::to_string(arows) +
                     " acols=" + std::to_string(acols));
        expect_bitwise_equal(c_simd, c_ref, "gemm_at_b", bcols);
        expect_zero_skip_cases(c_simd, acols, arows, bcols, "gemm_at_b");
      }
    }
  }
}

TEST_F(SimdKernelsTest, SpmmRowsMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  // Y = S·X over a random CSR S with empty rows, repeated columns and zero
  // weights. SpMM has no zero skip: a zero weight against the ±inf row of
  // X gives NaN in both tiers.
  constexpr std::size_t kXRows = 9, kInfRow = 4;
  for (const std::size_t xcols : panel_widths()) {
    for (const std::size_t rows : {1, 2, 3, 7, 40}) {
      std::mt19937 rng(static_cast<std::uint32_t>(xcols * 31 + rows));
      std::vector<std::size_t> row_ptr(rows + 1, 0);
      std::vector<std::uint32_t> col;
      std::vector<float> val;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t degree = rng() % 6;  // 0: an empty row
        for (std::size_t e = 0; e < degree; ++e) {
          col.push_back(static_cast<std::uint32_t>(rng() % kXRows));
          val.push_back(rng() % 5 == 0 ? 0.0f
                                       : static_cast<float>(rng() % 200) / 50.0f -
                                             2.0f);
        }
        row_ptr[r + 1] = col.size();
      }
      std::vector<float> x = random_data(kXRows * xcols, 61u + xcols);
      for (std::size_t j = 0; j < xcols; ++j) {
        x[kInfRow * xcols + j] = (j % 2) ? kInf : -kInf;
      }
      std::vector<float> y_simd(rows * xcols, -1.0f);
      std::vector<float> y_ref(rows * xcols, -1.0f);

      set_enabled(true);
      ASSERT_TRUE(spmm_rows(row_ptr.data(), col.data(), val.data(), x.data(),
                            xcols, y_simd.data(), 0, rows));
      set_enabled(false);
      ASSERT_FALSE(spmm_rows(row_ptr.data(), col.data(), val.data(), x.data(),
                             xcols, y_ref.data(), 0, rows));
      // SparseMatrix::multiply_into's scalar fallback.
      for (std::size_t r = 0; r < rows; ++r) {
        float* yrow = y_ref.data() + r * xcols;
        for (std::size_t j = 0; j < xcols; ++j) yrow[j] = 0.0f;
        for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
          const float w = val[e];
          const float* xrow = x.data() + col[e] * xcols;
          for (std::size_t j = 0; j < xcols; ++j) yrow[j] += w * xrow[j];
        }
      }

      SCOPED_TRACE("rows=" + std::to_string(rows));
      expect_bitwise_equal(y_simd, y_ref, "spmm_rows", xcols);
      for (std::size_t r = 0; r < rows; ++r) {
        if (row_ptr[r] != row_ptr[r + 1]) continue;
        for (std::size_t j = 0; j < xcols; ++j) {
          EXPECT_EQ(bits(y_simd[r * xcols + j]), bits(0.0f))
              << "an empty CSR row must give +0.0f";
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, ReluMatchesScalarIncludingNegativeZero) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    std::vector<float> x = random_data(n, 43u + n);
    x[0] = -0.0f;  // sign-of-zero must round-trip exactly like the scalar op
    if (n > 1) x[n / 2] = 0.0f;
    std::vector<float> y_simd(n, -5.0f), y_ref(n, -5.0f);

    set_enabled(true);
    ASSERT_TRUE(relu(y_simd.data(), x.data(), n));
    set_enabled(false);
    ASSERT_FALSE(relu(y_ref.data(), x.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = x[j] < 0.0f ? 0.0f : x[j];

    expect_bitwise_equal(y_simd, y_ref, "relu", n);
  }
}

TEST_F(SimdKernelsTest, ElementwiseBinariesMatchScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    const std::vector<float> a = random_data(n, 51u + n);
    const std::vector<float> b = random_data(n, 67u + n);
    std::vector<float> y_simd(n), y_ref(n);

    set_enabled(true);
    ASSERT_TRUE(add(y_simd.data(), a.data(), b.data(), n));
    set_enabled(false);
    ASSERT_FALSE(add(y_ref.data(), a.data(), b.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = a[j] + b[j];
    expect_bitwise_equal(y_simd, y_ref, "add", n);

    set_enabled(true);
    ASSERT_TRUE(sub(y_simd.data(), a.data(), b.data(), n));
    set_enabled(false);
    ASSERT_FALSE(sub(y_ref.data(), a.data(), b.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = a[j] - b[j];
    expect_bitwise_equal(y_simd, y_ref, "sub", n);

    set_enabled(true);
    ASSERT_TRUE(hadamard(y_simd.data(), a.data(), b.data(), n));
    set_enabled(false);
    ASSERT_FALSE(hadamard(y_ref.data(), a.data(), b.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = a[j] * b[j];
    expect_bitwise_equal(y_simd, y_ref, "hadamard", n);
  }
}

TEST_F(SimdKernelsTest, ScalarBroadcastsMatchScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    const std::vector<float> x = random_data(n, 71u + n);
    std::vector<float> y_simd(n), y_ref(n);
    const float s = -0.731f;

    set_enabled(true);
    ASSERT_TRUE(scale(y_simd.data(), x.data(), s, n));
    set_enabled(false);
    ASSERT_FALSE(scale(y_ref.data(), x.data(), s, n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = x[j] * s;
    expect_bitwise_equal(y_simd, y_ref, "scale", n);

    set_enabled(true);
    ASSERT_TRUE(add_scalar(y_simd.data(), x.data(), s, n));
    set_enabled(false);
    ASSERT_FALSE(add_scalar(y_ref.data(), x.data(), s, n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = x[j] + s;
    expect_bitwise_equal(y_simd, y_ref, "add_scalar", n);
  }
}

TEST_F(SimdKernelsTest, RowKernelsMatchScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t cols : kSizes) {
    const std::size_t rows = 4;
    const std::vector<float> x = random_data(rows * cols, 83u + cols);
    const std::vector<float> b = random_data(cols, 97u + cols);
    const std::vector<float> s = random_data(rows, 103u + cols);
    std::vector<float> y_simd(rows * cols), y_ref(rows * cols);

    set_enabled(true);
    ASSERT_TRUE(bias_add(y_simd.data(), x.data(), b.data(), rows, cols));
    set_enabled(false);
    ASSERT_FALSE(bias_add(y_ref.data(), x.data(), b.data(), rows, cols));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        y_ref[r * cols + c] = x[r * cols + c] + b[c];
      }
    }
    expect_bitwise_equal(y_simd, y_ref, "bias_add", cols);

    set_enabled(true);
    ASSERT_TRUE(row_scale(y_simd.data(), x.data(), s.data(), rows, cols));
    set_enabled(false);
    ASSERT_FALSE(row_scale(y_ref.data(), x.data(), s.data(), rows, cols));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        y_ref[r * cols + c] = x[r * cols + c] * s[r];
      }
    }
    expect_bitwise_equal(y_simd, y_ref, "row_scale", cols);
  }
}

}  // namespace
}  // namespace ns::nn::simd
