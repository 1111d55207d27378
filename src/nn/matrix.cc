#include "nn/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

// Header-only metrics core: no link dependency on hisrect_obs.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

Matrix::Matrix(size_t rows, size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(size_t rows, size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  CHECK_EQ(rows_ * cols_, data_.size());
}

Matrix Matrix::RowVector(std::vector<float> values) {
  size_t n = values.size();
  return Matrix(1, n, std::move(values));
}

float& Matrix::At(size_t row, size_t col) {
  CHECK_LT(row, rows_);
  CHECK_LT(col, cols_);
  return data_[row * cols_ + col];
}

float Matrix::At(size_t row, size_t col) const {
  CHECK_LT(row, rows_);
  CHECK_LT(col, cols_);
  return data_[row * cols_ + col];
}

void Matrix::Fill(float value) {
  for (float& x : data_) x = value;
}

void Matrix::AddInPlace(const Matrix& other) {
  CHECK_EQ(rows_, other.rows_);
  CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, float scale) {
  CHECK_EQ(rows_, other.rows_);
  CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

float Matrix::Norm() const {
  double total = 0.0;
  for (float x : data_) total += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(total));
}

// The three GEMM variants below are cache-blocked over the shared (k)
// dimension and unrolled four-wide on the dense AXPY/dot kernels. Every
// output element still accumulates its k-terms in ascending-k order with a
// single accumulator, so results are bitwise identical to the scalar triple
// loop they replace — blocking only reorders *which* element is advanced
// next, never the summation within an element. The former `== 0.0f`
// early-outs are gone: on the dense activations and gradients that flow
// through here the branch mispredicts far more than it saves.
//
// The AVX2 paths (compiled under HISRECT_NATIVE_ARCH, dispatched at runtime)
// keep the same promise: they vectorize across *output columns* only, so
// each element's accumulator sits in one lane and advances in the same
// ascending-k order, and they use separate mul/add (never FMA) to match the
// scalar rounding. The build compiles everything with -ffp-contract=off
// (top-level CMakeLists) so the compiler cannot fuse the scalar side either.
namespace {

std::atomic<bool> g_force_scalar{false};

bool CpuHasAvx2() {
#if defined(__AVX2__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

inline bool UseAvx2() {
  return CpuHasAvx2() && !g_force_scalar.load(std::memory_order_relaxed);
}

/// k-rows of the streamed operand kept hot in L1/L2 across the row loop
/// (64 rows x 64 float cols = 16 KiB at this library's typical widths).
constexpr size_t kBlockK = 64;

#if defined(__AVX2__)
/// Axpy4 vectorized across output columns: lane j holds out_row[j]'s single
/// accumulator and applies the four k-terms in ascending order, exactly as
/// the scalar loop does per element.
inline void Axpy4Avx2(float* out_row, size_t n, const float* ak,
                      const float* b0, const float* b1, const float* b2,
                      const float* b3) {
  const __m256 a0 = _mm256_set1_ps(ak[0]);
  const __m256 a1 = _mm256_set1_ps(ak[1]);
  const __m256 a2 = _mm256_set1_ps(ak[2]);
  const __m256 a3 = _mm256_set1_ps(ak[3]);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(out_row + j);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(a0, _mm256_loadu_ps(b0 + j)));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(a1, _mm256_loadu_ps(b1 + j)));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(a2, _mm256_loadu_ps(b2 + j)));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(a3, _mm256_loadu_ps(b3 + j)));
    _mm256_storeu_ps(out_row + j, acc);
  }
  for (; j < n; ++j) {
    float acc = out_row[j];
    acc += ak[0] * b0[j];
    acc += ak[1] * b1[j];
    acc += ak[2] * b2[j];
    acc += ak[3] * b3[j];
    out_row[j] = acc;
  }
}

/// Eight dot products at once for the transposed-B kernel, one output
/// column per lane: lane l accumulates a_row[k] * b_(j+l)[k] in ascending k
/// with a single accumulator, mirroring the scalar tile per element. The
/// b loads are strided (set_ps), which still wins on the row-dot shape.
inline void DotTile8Avx2(const float* a_row, const float* b_base, size_t depth,
                         float* out) {
  __m256 acc = _mm256_setzero_ps();
  for (size_t k = 0; k < depth; ++k) {
    const __m256 av = _mm256_set1_ps(a_row[k]);
    const __m256 bv = _mm256_set_ps(
        b_base[7 * depth + k], b_base[6 * depth + k], b_base[5 * depth + k],
        b_base[4 * depth + k], b_base[3 * depth + k], b_base[2 * depth + k],
        b_base[depth + k], b_base[k]);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
  }
  _mm256_storeu_ps(out, acc);
}
#endif  // defined(__AVX2__)

/// out_row[0..n) += sum of ak[u] * b_rows[u][0..n) for u in [0, 4): one pass
/// over the output row applies four k-terms, quartering the store traffic.
inline void Axpy4(float* out_row, size_t n, const float* ak,
                  const float* b0, const float* b1, const float* b2,
                  const float* b3) {
#if defined(__AVX2__)
  if (UseAvx2()) {
    Axpy4Avx2(out_row, n, ak, b0, b1, b2, b3);
    return;
  }
#endif
  for (size_t j = 0; j < n; ++j) {
    float acc = out_row[j];
    acc += ak[0] * b0[j];
    acc += ak[1] * b1[j];
    acc += ak[2] * b2[j];
    acc += ak[3] * b3[j];
    out_row[j] = acc;
  }
}

/// out_row[0..n) += a * b[0..n): the k-remainder term of the blocked loops.
inline void Axpy1(float* out_row, size_t n, float a, const float* b) {
#if defined(__AVX2__)
  if (UseAvx2()) {
    const __m256 av = _mm256_set1_ps(a);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(out_row + j);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_loadu_ps(b + j)));
      _mm256_storeu_ps(out_row + j, acc);
    }
    for (; j < n; ++j) out_row[j] += a * b[j];
    return;
  }
#endif
  for (size_t j = 0; j < n; ++j) out_row[j] += a * b[j];
}

}  // namespace

bool MatMulHasAvx2() { return CpuHasAvx2(); }

bool SetMatMulForceScalar(bool force) { return g_force_scalar.exchange(force); }

namespace {

// One striped relaxed add per dispatch; dwarfed by the output allocation.
inline void CountMatMulCall() {
  static obs::Counter* calls =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.matmul.calls");
  calls->Increment();
}

// Kernel bodies behind the public entry points. MatMulAccumulate /
// MatMulTransposedAAccumulate accumulate into `out` and expect it
// pre-zeroed; the transposed-B kernel assigns every output element outright.
void MatMulAccumulate(const float* a, size_t a_rows, size_t a_cols,
                      const float* b, size_t b_cols, float* out) {
  const size_t n = b_cols;
  const size_t depth = a_cols;
  for (size_t kb = 0; kb < depth; kb += kBlockK) {
    const size_t kend = std::min(depth, kb + kBlockK);
    for (size_t i = 0; i < a_rows; ++i) {
      const float* a_row = a + i * depth;
      float* out_row = out + i * n;
      size_t k = kb;
      for (; k + 4 <= kend; k += 4) {
        float ak[4] = {a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]};
        const float* b_row = b + k * n;
        Axpy4(out_row, n, ak, b_row, b_row + n, b_row + 2 * n, b_row + 3 * n);
      }
      for (; k < kend; ++k) {
        const float* b_row = b + k * n;
        Axpy1(out_row, n, a_row[k], b_row);
      }
    }
  }
}

void MatMulTransposedBAssign(const float* a, size_t a_rows, size_t a_cols,
                             const float* b, size_t b_rows, float* out) {
  const size_t depth = a_cols;
  const size_t out_cols = b_rows;
  for (size_t i = 0; i < a_rows; ++i) {
    const float* a_row = a + i * depth;
    float* out_row = out + i * out_cols;
    size_t j = 0;
#if defined(__AVX2__)
    if (UseAvx2()) {
      for (; j + 8 <= out_cols; j += 8) {
        DotTile8Avx2(a_row, b + j * depth, depth, out_row + j);
      }
    }
#endif
    // Register tile: four dot products share one streaming pass of a_row.
    for (; j + 4 <= out_cols; j += 4) {
      const float* b0 = b + j * depth;
      const float* b1 = b0 + depth;
      const float* b2 = b1 + depth;
      const float* b3 = b2 + depth;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (size_t k = 0; k < depth; ++k) {
        const float aik = a_row[k];
        acc0 += aik * b0[k];
        acc1 += aik * b1[k];
        acc2 += aik * b2[k];
        acc3 += aik * b3[k];
      }
      out_row[j] = acc0;
      out_row[j + 1] = acc1;
      out_row[j + 2] = acc2;
      out_row[j + 3] = acc3;
    }
    for (; j < out_cols; ++j) {
      const float* b_row = b + j * depth;
      float acc = 0.0f;
      for (size_t k = 0; k < depth; ++k) acc += a_row[k] * b_row[k];
      out_row[j] = acc;
    }
  }
}

void MatMulTransposedAAccumulate(const float* a, size_t a_rows, size_t a_cols,
                                 const float* b, size_t b_cols, float* out) {
  const size_t n = b_cols;
  const size_t depth = a_rows;
  const size_t out_rows = a_cols;
  for (size_t kb = 0; kb < depth; kb += kBlockK) {
    const size_t kend = std::min(depth, kb + kBlockK);
    for (size_t i = 0; i < out_rows; ++i) {
      float* out_row = out + i * n;
      size_t k = kb;
      for (; k + 4 <= kend; k += 4) {
        const float* a_col = a + k * out_rows + i;
        float ak[4] = {a_col[0], a_col[out_rows], a_col[2 * out_rows],
                       a_col[3 * out_rows]};
        const float* b_row = b + k * n;
        Axpy4(out_row, n, ak, b_row, b_row + n, b_row + 2 * n, b_row + 3 * n);
      }
      for (; k < kend; ++k) {
        const float aki = a[k * out_rows + i];
        Axpy1(out_row, n, aki, b + k * n);
      }
    }
  }
}

}  // namespace

Matrix MatMulValues(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  MatMulInto(a.data(), a.rows(), a.cols(), b.data(), b.cols(), out.data());
  return out;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  CountMatMulCall();
  CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  MatMulTransposedBAssign(a.data(), a.rows(), a.cols(), b.data(), b.rows(),
                          out.data());
  return out;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  CountMatMulCall();
  CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());  // ctor zero-fills; kernel accumulates
  MatMulTransposedAAccumulate(a.data(), a.rows(), a.cols(), b.data(), b.cols(),
                              out.data());
  return out;
}

void MatMulInto(const float* a, size_t a_rows, size_t a_cols, const float* b,
                size_t b_cols, float* out) {
  CountMatMulCall();
  std::fill(out, out + a_rows * b_cols, 0.0f);
  MatMulAccumulate(a, a_rows, a_cols, b, b_cols, out);
}

}  // namespace hisrect::nn
