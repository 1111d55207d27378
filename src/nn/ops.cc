#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/graph_recorder.h"
#include "util/logging.h"

namespace hisrect::nn {

// Every inference op calls RecordOp/RecordOpMany after building its node: a
// no-op (one thread-local load) unless a GraphRecorder is active on this
// thread, in which case the op appends itself to the plan being recorded.
// Training-only ops (losses, training-mode dropout) CHECK-fail instead. The
// plan kernels in graph_ir.cc mirror the arithmetic here expression-for-
// expression — any change to an op body must be mirrored there, and the
// bitwise tape-vs-plan tests will catch a drift.

namespace {

using Node = Tensor::Node;

void AccumulateInto(Node& parent, const Matrix& delta) {
  if (!parent.requires_grad) return;
  parent.EnsureGrad();
  parent.grad.AddInPlace(delta);
}

// Training-only ops: no plan op kind exists for them, so recording one
// would silently bake its value into the plan as a constant.
void CheckNotRecording(const char* op) {
  CHECK(GraphRecorder::Active() == nullptr)
      << op << " is training-only and cannot be recorded into a plan";
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Matrix out = MatMulValues(a.value(), b.value());
  Tensor t = Tensor::MakeOp(std::move(out), {a, b}, [](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    if (pa.requires_grad) {
      AccumulateInto(pa, MatMulTransposedB(self.grad, pb.value));
    }
    if (pb.requires_grad) {
      AccumulateInto(pb, MatMulTransposedA(pa.value, self.grad));
    }
  });
  RecordOp(OpKind::kMatMul, t, {&a, &b});
  return t;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Matrix out = a.value();
  out.AddInPlace(b.value());
  Tensor t = Tensor::MakeOp(std::move(out), {a, b}, [](Node& self) {
    AccumulateInto(*self.parents[0], self.grad);
    AccumulateInto(*self.parents[1], self.grad);
  });
  RecordOp(OpKind::kAdd, t, {&a, &b});
  return t;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Matrix out = a.value();
  out.AddScaled(b.value(), -1.0f);
  Tensor t = Tensor::MakeOp(std::move(out), {a, b}, [](Node& self) {
    AccumulateInto(*self.parents[0], self.grad);
    Node& pb = *self.parents[1];
    if (pb.requires_grad) {
      pb.EnsureGrad();
      pb.grad.AddScaled(self.grad, -1.0f);
    }
  });
  RecordOp(OpKind::kSub, t, {&a, &b});
  return t;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), a.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = av.data()[i] * bv.data()[i];
  Tensor t = Tensor::MakeOp(std::move(out), {a, b}, [](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    if (pa.requires_grad) {
      Matrix delta(self.grad.rows(), self.grad.cols());
      for (size_t i = 0; i < delta.size(); ++i) {
        delta.data()[i] = self.grad.data()[i] * pb.value.data()[i];
      }
      AccumulateInto(pa, delta);
    }
    if (pb.requires_grad) {
      Matrix delta(self.grad.rows(), self.grad.cols());
      for (size_t i = 0; i < delta.size(); ++i) {
        delta.data()[i] = self.grad.data()[i] * pa.value.data()[i];
      }
      AccumulateInto(pb, delta);
    }
  });
  RecordOp(OpKind::kMul, t, {&a, &b});
  return t;
}

Tensor AddBroadcastRow(const Tensor& x, const Tensor& row) {
  CHECK_EQ(row.rows(), 1u);
  CHECK_EQ(x.cols(), row.cols());
  Matrix out = x.value();
  const float* r = row.value().data();
  for (size_t i = 0; i < out.rows(); ++i) {
    float* out_row = out.data() + i * out.cols();
    for (size_t j = 0; j < out.cols(); ++j) out_row[j] += r[j];
  }
  Tensor t = Tensor::MakeOp(std::move(out), {x, row}, [](Node& self) {
    AccumulateInto(*self.parents[0], self.grad);
    Node& prow = *self.parents[1];
    if (prow.requires_grad) {
      prow.EnsureGrad();
      for (size_t i = 0; i < self.grad.rows(); ++i) {
        const float* g_row = self.grad.data() + i * self.grad.cols();
        for (size_t j = 0; j < self.grad.cols(); ++j) {
          prow.grad.data()[j] += g_row[j];
        }
      }
    }
  });
  RecordOp(OpKind::kAddBroadcastRow, t, {&x, &row});
  return t;
}

Tensor MulBroadcastRow(const Tensor& x, const Tensor& row) {
  CHECK_EQ(row.rows(), 1u);
  CHECK_EQ(x.cols(), row.cols());
  Matrix out = x.value();
  const float* r = row.value().data();
  for (size_t i = 0; i < out.rows(); ++i) {
    float* out_row = out.data() + i * out.cols();
    for (size_t j = 0; j < out.cols(); ++j) out_row[j] *= r[j];
  }
  Tensor t = Tensor::MakeOp(std::move(out), {x, row}, [](Node& self) {
    Node& px = *self.parents[0];
    Node& prow = *self.parents[1];
    size_t cols = self.grad.cols();
    if (px.requires_grad) {
      Matrix delta(self.grad.rows(), cols);
      const float* r = prow.value.data();
      for (size_t i = 0; i < delta.rows(); ++i) {
        const float* g_row = self.grad.data() + i * cols;
        float* d_row = delta.data() + i * cols;
        for (size_t j = 0; j < cols; ++j) d_row[j] = g_row[j] * r[j];
      }
      AccumulateInto(px, delta);
    }
    if (prow.requires_grad) {
      prow.EnsureGrad();
      for (size_t i = 0; i < self.grad.rows(); ++i) {
        const float* g_row = self.grad.data() + i * cols;
        const float* x_row = px.value.data() + i * cols;
        for (size_t j = 0; j < cols; ++j) {
          prow.grad.data()[j] += g_row[j] * x_row[j];
        }
      }
    }
  });
  RecordOp(OpKind::kMulBroadcastRow, t, {&x, &row});
  return t;
}

Tensor Scale(const Tensor& x, float s) {
  Matrix out = x.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= s;
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [s](Node& self) {
    Node& px = *self.parents[0];
    if (px.requires_grad) {
      px.EnsureGrad();
      px.grad.AddScaled(self.grad, s);
    }
  });
  RecordOp(OpKind::kScale, t, {&x}, s);
  return t;
}

Tensor Relu(const Tensor& x) {
  Matrix out = x.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = std::max(0.0f, out.data()[i]);
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      delta.data()[i] = px.value.data()[i] > 0.0f ? self.grad.data()[i] : 0.0f;
    }
    AccumulateInto(px, delta);
  });
  RecordOp(OpKind::kRelu, t, {&x});
  return t;
}

Tensor Tanh(const Tensor& x) {
  Matrix out = x.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      float y = self.value.data()[i];
      delta.data()[i] = self.grad.data()[i] * (1.0f - y * y);
    }
    AccumulateInto(px, delta);
  });
  RecordOp(OpKind::kTanh, t, {&x});
  return t;
}

Tensor Sigmoid(const Tensor& x) {
  Matrix out = x.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = SigmoidValue(out.data()[i]);
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      float y = self.value.data()[i];
      delta.data()[i] = self.grad.data()[i] * y * (1.0f - y);
    }
    AccumulateInto(px, delta);
  });
  RecordOp(OpKind::kSigmoid, t, {&x});
  return t;
}

Tensor Abs(const Tensor& x) {
  Matrix out = x.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = std::fabs(out.data()[i]);
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      float v = px.value.data()[i];
      float sign = v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f);
      delta.data()[i] = self.grad.data()[i] * sign;
    }
    AccumulateInto(px, delta);
  });
  RecordOp(OpKind::kAbs, t, {&x});
  return t;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), b.rows());
  size_t rows = a.rows();
  size_t na = a.cols();
  size_t nb = b.cols();
  Matrix out(rows, na + nb);
  for (size_t i = 0; i < rows; ++i) {
    const float* a_row = a.value().data() + i * na;
    const float* b_row = b.value().data() + i * nb;
    float* out_row = out.data() + i * (na + nb);
    std::copy(a_row, a_row + na, out_row);
    std::copy(b_row, b_row + nb, out_row + na);
  }
  Tensor t = Tensor::MakeOp(std::move(out), {a, b}, [na, nb](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    size_t rows = self.grad.rows();
    if (pa.requires_grad) {
      pa.EnsureGrad();
      for (size_t i = 0; i < rows; ++i) {
        const float* g_row = self.grad.data() + i * (na + nb);
        float* pa_row = pa.grad.data() + i * na;
        for (size_t j = 0; j < na; ++j) pa_row[j] += g_row[j];
      }
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      for (size_t i = 0; i < rows; ++i) {
        const float* g_row = self.grad.data() + i * (na + nb) + na;
        float* pb_row = pb.grad.data() + i * nb;
        for (size_t j = 0; j < nb; ++j) pb_row[j] += g_row[j];
      }
    }
  });
  RecordOp(OpKind::kConcatCols, t, {&a, &b});
  return t;
}

Tensor SliceCols(const Tensor& x, size_t start, size_t count) {
  CHECK_LE(start + count, x.cols());
  size_t rows = x.rows();
  size_t cols = x.cols();
  Matrix out(rows, count);
  for (size_t i = 0; i < rows; ++i) {
    const float* src = x.value().data() + i * cols + start;
    std::copy(src, src + count, out.data() + i * count);
  }
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [start, count](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    px.EnsureGrad();
    size_t cols = px.value.cols();
    for (size_t i = 0; i < self.grad.rows(); ++i) {
      const float* g_row = self.grad.data() + i * count;
      float* p_row = px.grad.data() + i * cols + start;
      for (size_t j = 0; j < count; ++j) p_row[j] += g_row[j];
    }
  });
  RecordOp(OpKind::kSliceCols, t, {&x}, 0.0f, static_cast<int64_t>(start),
           static_cast<int64_t>(count));
  return t;
}

Tensor SliceRows(const Tensor& x, size_t start, size_t count) {
  CHECK_LE(start + count, x.rows());
  size_t cols = x.cols();
  Matrix out(count, cols);
  std::copy(x.value().data() + start * cols,
            x.value().data() + (start + count) * cols, out.data());
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [start, count](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    px.EnsureGrad();
    size_t cols = px.value.cols();
    for (size_t i = 0; i < count; ++i) {
      const float* g_row = self.grad.data() + i * cols;
      float* p_row = px.grad.data() + (start + i) * cols;
      for (size_t j = 0; j < cols; ++j) p_row[j] += g_row[j];
    }
  });
  RecordOp(OpKind::kSliceRows, t, {&x}, 0.0f, static_cast<int64_t>(start),
           static_cast<int64_t>(count));
  return t;
}

Tensor RowStack(const std::vector<Tensor>& rows) {
  CHECK(!rows.empty());
  size_t cols = rows[0].cols();
  Matrix out(rows.size(), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    CHECK_EQ(rows[i].rows(), 1u);
    CHECK_EQ(rows[i].cols(), cols);
    std::copy(rows[i].value().data(), rows[i].value().data() + cols,
              out.data() + i * cols);
  }
  Tensor t = Tensor::MakeOp(std::move(out), rows, [](Node& self) {
    size_t cols = self.grad.cols();
    for (size_t i = 0; i < self.parents.size(); ++i) {
      Node& parent = *self.parents[i];
      if (!parent.requires_grad) continue;
      parent.EnsureGrad();
      const float* g_row = self.grad.data() + i * cols;
      for (size_t j = 0; j < cols; ++j) parent.grad.data()[j] += g_row[j];
    }
  });
  RecordOpMany(OpKind::kRowStack, t, rows);
  return t;
}

Tensor MeanRows(const Tensor& x) {
  size_t rows = x.rows();
  size_t cols = x.cols();
  Matrix out(1, cols);
  std::vector<double> sums(cols, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    const float* row = x.value().data() + i * cols;
    for (size_t j = 0; j < cols; ++j) sums[j] += row[j];
  }
  double inv_d = 1.0 / static_cast<double>(rows);
  for (size_t j = 0; j < cols; ++j) {
    out.data()[j] = static_cast<float>(sums[j] * inv_d);
  }
  float inv = 1.0f / static_cast<float>(rows);
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [inv](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    px.EnsureGrad();
    size_t cols = self.grad.cols();
    for (size_t i = 0; i < px.grad.rows(); ++i) {
      float* p_row = px.grad.data() + i * cols;
      for (size_t j = 0; j < cols; ++j) {
        p_row[j] += self.grad.data()[j] * inv;
      }
    }
  });
  RecordOp(OpKind::kMeanRows, t, {&x});
  return t;
}

Tensor SumAll(const Tensor& x) {
  double total = 0.0;
  for (size_t i = 0; i < x.value().size(); ++i) total += x.value().data()[i];
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(total);
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    px.EnsureGrad();
    float g = self.grad.At(0, 0);
    for (size_t i = 0; i < px.grad.size(); ++i) px.grad.data()[i] += g;
  });
  RecordOp(OpKind::kSumAll, t, {&x});
  return t;
}

Tensor MeanAll(const Tensor& x) {
  size_t n = x.value().size();
  CHECK_GT(n, 0u);
  return Scale(SumAll(x), 1.0f / static_cast<float>(n));
}

Tensor L2NormalizeRow(const Tensor& x) {
  CHECK_EQ(x.rows(), 1u);
  const Matrix& v = x.value();
  // Smoothed norm: sqrt(||x||^2 + eps) bounds the backward amplification
  // (1/norm) for near-zero inputs instead of exploding.
  constexpr float kEps = 1e-6f;
  double norm_sq = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    norm_sq += static_cast<double>(v.data()[i]) * v.data()[i];
  }
  float norm = static_cast<float>(std::sqrt(norm_sq + kEps));
  Matrix out = v;
  float inv = 1.0f / norm;
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= inv;
  Tensor t = Tensor::MakeOp(std::move(out), {x}, [inv](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    // y = x / norm; dL/dx = (g - y * <g, y>) / norm (with the smoothed norm
    // the <g, y> projection is approximate near zero, which is fine).
    size_t n = self.grad.size();
    double dot = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dot += static_cast<double>(self.grad.data()[i]) * self.value.data()[i];
    }
    float dot_f = static_cast<float>(dot);
    Matrix delta(1, n);
    for (size_t i = 0; i < n; ++i) {
      delta.data()[i] =
          (self.grad.data()[i] - self.value.data()[i] * dot_f) * inv;
    }
    AccumulateInto(px, delta);
  });
  RecordOp(OpKind::kL2NormalizeRow, t, {&x});
  return t;
}

Tensor Dot(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), 1u);
  CHECK_EQ(b.rows(), 1u);
  CHECK_EQ(a.cols(), b.cols());
  double acc = 0.0;
  for (size_t i = 0; i < a.cols(); ++i) {
    acc += static_cast<double>(a.value().data()[i]) * b.value().data()[i];
  }
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(acc);
  Tensor t = Tensor::MakeOp(std::move(out), {a, b}, [](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    float g = self.grad.At(0, 0);
    if (pa.requires_grad) {
      pa.EnsureGrad();
      pa.grad.AddScaled(pb.value, g);
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      pb.grad.AddScaled(pa.value, g);
    }
  });
  RecordOp(OpKind::kDot, t, {&a, &b});
  return t;
}

Tensor SquaredL2Diff(const Tensor& a, const Tensor& b) {
  Tensor diff = Sub(a, b);
  return SumAll(Mul(diff, diff));
}

Tensor SoftmaxCrossEntropy(const Tensor& logits, size_t target) {
  CheckNotRecording("SoftmaxCrossEntropy");
  CHECK_EQ(logits.rows(), 1u);
  CHECK_LT(target, logits.cols());
  Matrix probs = SoftmaxValues(logits.value());
  float p_target = std::max(probs.At(0, target), 1e-12f);
  Matrix out(1, 1);
  out.At(0, 0) = -std::log(p_target);
  return Tensor::MakeOp(std::move(out), {logits},
                        [probs = std::move(probs), target](Node& self) {
                          Node& px = *self.parents[0];
                          if (!px.requires_grad) return;
                          px.EnsureGrad();
                          float g = self.grad.At(0, 0);
                          for (size_t j = 0; j < probs.cols(); ++j) {
                            float indicator = (j == target) ? 1.0f : 0.0f;
                            px.grad.data()[j] +=
                                g * (probs.data()[j] - indicator);
                          }
                        });
}

Tensor SigmoidBinaryCrossEntropy(const Tensor& logit, float label) {
  CheckNotRecording("SigmoidBinaryCrossEntropy");
  CHECK_EQ(logit.rows(), 1u);
  CHECK_EQ(logit.cols(), 1u);
  float z = logit.value().At(0, 0);
  // Stable: max(z,0) - z*y + log(1 + exp(-|z|)).
  float loss =
      std::max(z, 0.0f) - z * label + std::log1p(std::exp(-std::fabs(z)));
  Matrix out(1, 1);
  out.At(0, 0) = loss;
  float p = SigmoidValue(z);
  return Tensor::MakeOp(std::move(out), {logit}, [p, label](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    px.EnsureGrad();
    px.grad.At(0, 0) += self.grad.At(0, 0) * (p - label);
  });
}

Tensor Dropout(const Tensor& x, float drop_rate, util::Rng& rng,
               bool training) {
  CHECK_GE(drop_rate, 0.0f);
  CHECK_LT(drop_rate, 1.0f);
  if (!training || drop_rate == 0.0f) return x;
  CheckNotRecording("Dropout (training mode)");
  float keep = 1.0f - drop_rate;
  float inv_keep = 1.0f / keep;
  Matrix mask(x.rows(), x.cols());
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng.Bernoulli(keep) ? inv_keep : 0.0f;
  }
  Matrix out = x.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= mask.data()[i];
  return Tensor::MakeOp(std::move(out), {x},
                        [mask = std::move(mask)](Node& self) {
                          Node& px = *self.parents[0];
                          if (!px.requires_grad) return;
                          Matrix delta(self.grad.rows(), self.grad.cols());
                          for (size_t i = 0; i < delta.size(); ++i) {
                            delta.data()[i] =
                                self.grad.data()[i] * mask.data()[i];
                          }
                          AccumulateInto(px, delta);
                        });
}

Tensor Conv1dSame(const Tensor& x, const Tensor& kernel) {
  CHECK_EQ(x.rows(), 1u);
  CHECK_EQ(kernel.rows(), 1u);
  size_t n = x.cols();
  size_t k = kernel.cols();
  CHECK_EQ(k % 2, 1u) << "kernel width must be odd";
  size_t half = k / 2;
  Matrix out(1, n);
  const float* xv = x.value().data();
  const float* kv = kernel.value().data();
  for (size_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (size_t d = 0; d < k; ++d) {
      int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                    static_cast<int64_t>(half);
      if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
      acc += kv[d] * xv[idx];
    }
    out.data()[j] = acc;
  }
  Tensor t = Tensor::MakeOp(std::move(out), {x, kernel}, [n, k, half](Node& self) {
    Node& px = *self.parents[0];
    Node& pk = *self.parents[1];
    const float* g = self.grad.data();
    if (px.requires_grad) {
      px.EnsureGrad();
      const float* kv = pk.value.data();
      for (size_t j = 0; j < n; ++j) {
        for (size_t d = 0; d < k; ++d) {
          int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                        static_cast<int64_t>(half);
          if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
          px.grad.data()[idx] += g[j] * kv[d];
        }
      }
    }
    if (pk.requires_grad) {
      pk.EnsureGrad();
      const float* xv = px.value.data();
      for (size_t j = 0; j < n; ++j) {
        for (size_t d = 0; d < k; ++d) {
          int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                        static_cast<int64_t>(half);
          if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
          pk.grad.data()[d] += g[j] * xv[idx];
        }
      }
    }
  });
  RecordOp(OpKind::kConv1dSame, t, {&x, &kernel});
  return t;
}

Matrix SoftmaxValues(const Matrix& logits) {
  CHECK_EQ(logits.rows(), 1u);
  Matrix probs = logits;
  float max_logit = probs.data()[0];
  for (size_t i = 1; i < probs.size(); ++i) {
    max_logit = std::max(max_logit, probs.data()[i]);
  }
  double total = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    probs.data()[i] = std::exp(probs.data()[i] - max_logit);
    total += probs.data()[i];
  }
  float inv = static_cast<float>(1.0 / total);
  for (size_t i = 0; i < probs.size(); ++i) probs.data()[i] *= inv;
  return probs;
}

float SigmoidValue(float x) {
  if (x >= 0.0f) {
    float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  float e = std::exp(x);
  return e / (1.0f + e);
}

}  // namespace hisrect::nn
