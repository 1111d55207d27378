#ifndef HISRECT_NN_MATRIX_H_
#define HISRECT_NN_MATRIX_H_

#include <cstddef>
#include <vector>

namespace hisrect::nn {

/// Dense row-major float matrix — the numeric workhorse under the autograd
/// tape. Row vectors (1 x n) represent feature/embedding vectors; a T x n
/// matrix represents a length-T sequence of n-dim vectors.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-filled. (A separate overload: zero-initializing is a memset,
  /// filling with a run-time value is a store loop.)
  Matrix(size_t rows, size_t cols);
  Matrix(size_t rows, size_t cols, float fill);
  Matrix(size_t rows, size_t cols, std::vector<float> data);

  static Matrix RowVector(std::vector<float> values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t row, size_t col);
  float At(size_t row, size_t col) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& values() const { return data_; }

  void Fill(float value);

  /// this += other (same shape required).
  void AddInPlace(const Matrix& other);
  /// this += scale * other (same shape required).
  void AddScaled(const Matrix& other, float scale);

  /// Frobenius norm.
  float Norm() const;

  /// Element-wise equality (exact).
  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

/// True when the AVX2 kernels are compiled in (HISRECT_NATIVE_ARCH on an
/// AVX2 machine) and the running CPU reports AVX2 support; otherwise every
/// matmul takes the scalar blocked path.
bool MatMulHasAvx2();

/// Test hook: force the scalar blocked kernels even when AVX2 is available,
/// returning the previous setting. The two paths are bitwise equal — the
/// golden tests flip this to prove it.
bool SetMatMulForceScalar(bool force);

/// out = a * b. Shapes: (r x k) * (k x c) -> (r x c).
Matrix MatMulValues(const Matrix& a, const Matrix& b);

/// out = a * b^T. Shapes: (r x k) * (c x k) -> (r x c).
Matrix MatMulTransposedB(const Matrix& a, const Matrix& b);

/// out = a^T * b. Shapes: (k x r) * (k x c) -> (r x c).
Matrix MatMulTransposedA(const Matrix& a, const Matrix& b);

/// Raw-pointer GEMM over the same blocked/AVX2 kernel as MatMulValues: the
/// kMatMul and fused-linear registry kernels (graph_ir.cc) call it on
/// Matrix storage and on plan arena slices alike. `out` must not alias a or
/// b. out = a * b, a is (a_rows x a_cols), b is (a_cols x b_cols).
/// Overwrites.
void MatMulInto(const float* a, size_t a_rows, size_t a_cols, const float* b,
                size_t b_cols, float* out);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_MATRIX_H_
