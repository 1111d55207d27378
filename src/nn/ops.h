#ifndef HISRECT_NN_OPS_H_
#define HISRECT_NN_OPS_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace hisrect::nn {

// All ops are pure graph builders: they compute the forward value eagerly and
// register a backward closure on the returned tensor. Every op with a plan op
// kind (graph_ir.h) computes its value with that kind's registry kernel and
// CHECK-fails, naming the op, on operand shapes its shape function rejects
// (shape errors are programming errors, not runtime conditions); while a
// GraphRecorder is active it also records itself.

/// (r x k) * (k x c) -> (r x c).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Element-wise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Element-wise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Element-wise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// x + row for every row of x. Shapes: (T x n) + (1 x n) -> (T x n).
Tensor AddBroadcastRow(const Tensor& x, const Tensor& row);

/// x * row element-wise per row. Shapes: (T x n) * (1 x n) -> (T x n).
Tensor MulBroadcastRow(const Tensor& x, const Tensor& row);

/// s * x for a compile-time-known constant s (no gradient w.r.t. s).
Tensor Scale(const Tensor& x, float s);

/// max(0, x) element-wise.
Tensor Relu(const Tensor& x);

/// tanh(x) element-wise.
Tensor Tanh(const Tensor& x);

/// 1 / (1 + exp(-x)) element-wise.
Tensor Sigmoid(const Tensor& x);

/// |x| element-wise (subgradient 0 at 0).
Tensor Abs(const Tensor& x);

/// Horizontal concatenation: (r x n) ++ (r x m) -> (r x (n + m)).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Column slice: keeps columns [start, start + count).
Tensor SliceCols(const Tensor& x, size_t start, size_t count);

/// Row slice: keeps rows [start, start + count).
Tensor SliceRows(const Tensor& x, size_t start, size_t count);

/// Stacks T row vectors (each 1 x n) into a (T x n) matrix.
Tensor RowStack(const std::vector<Tensor>& rows);

/// Column-wise mean over rows: (T x n) -> (1 x n).
Tensor MeanRows(const Tensor& x);

/// Sum of all elements -> (1 x 1).
Tensor SumAll(const Tensor& x);

/// Mean of all elements -> (1 x 1).
Tensor MeanAll(const Tensor& x);

/// Row vector scaled to unit L2 norm (identity for a zero vector).
/// Input must be (1 x n).
Tensor L2NormalizeRow(const Tensor& x);

/// Inner product of two (1 x n) row vectors -> (1 x 1).
Tensor Dot(const Tensor& a, const Tensor& b);

/// ||a - b||^2 for two same-shape tensors -> (1 x 1).
Tensor SquaredL2Diff(const Tensor& a, const Tensor& b);

/// Softmax cross-entropy of a (1 x C) logit row against class `target`;
/// returns the (1 x 1) loss. Numerically stabilized (max subtraction).
/// Training-only: CHECK-fails while a GraphRecorder is active.
Tensor SoftmaxCrossEntropy(const Tensor& logits, size_t target);

/// Binary cross-entropy of a (1 x 1) logit against label in {0, 1};
/// returns the (1 x 1) loss. Numerically stabilized. Training-only:
/// CHECK-fails while a GraphRecorder is active.
Tensor SigmoidBinaryCrossEntropy(const Tensor& logit, float label);

/// Inverted dropout: at training time zeroes each element with probability
/// `drop_rate` and scales survivors by 1 / keep; identity at inference
/// (and then recordable, as it records nothing). Training mode CHECK-fails
/// while a GraphRecorder is active.
Tensor Dropout(const Tensor& x, float drop_rate, util::Rng& rng,
               bool training);

/// Same-padded 1-D convolution of a (1 x n) row with a (1 x k) kernel
/// (k odd). Zero padding; output is (1 x n).
Tensor Conv1dSame(const Tensor& x, const Tensor& kernel);

/// Forward-only helpers (no graph):

/// Softmax of a (1 x C) row, numerically stabilized.
Matrix SoftmaxValues(const Matrix& logits);

/// Scalar sigmoid. Inline: the kSigmoid kernel calls it per element.
inline float SigmoidValue(float x) {
  if (x >= 0.0f) {
    float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  float e = std::exp(x);
  return e / (1.0f + e);
}

/// 1 / sqrt(||v||^2 + 1e-6) for v of length n, with a double accumulator:
/// the smoothed norm L2NormalizeRow divides by (it bounds the backward
/// amplification for near-zero inputs instead of exploding).
float InverseSmoothedNorm(const float* v, size_t n);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_OPS_H_
