#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "nn/graph_ir.h"
#include "nn/graph_recorder.h"
#include "util/logging.h"

namespace hisrect::nn {

// A recordable op is its backward closure plus one Apply call: the forward
// value comes from the op kind's registry kernel (graph_ir.h), the same
// kernel a plan replay runs, so eager and planned values agree bitwise by
// construction. Training-only ops (losses, training-mode dropout) compute
// here and CHECK-fail under an active GraphRecorder.

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

std::string ShapesOf(const std::vector<Tensor>& parents) {
  std::string shapes;
  for (const Tensor& p : parents) {
    shapes += shapes.empty() ? "" : ", ";
    shapes += std::to_string(p.rows()) + "x" + std::to_string(p.cols());
  }
  return "[" + shapes + "]";
}

// Operand slots that live on the stack; only a longer RowStack spills.
constexpr size_t kInlineOperands = 4;

// The one forward path of every recordable op: infer the output shape
// through the registry (CHECK-failing with the op's name), allocate it, run
// the registry kernel on the parents' values, build the tape node, and
// append the op to the active GraphRecorder, if any.
Tensor Apply(OpKind kind, std::vector<Tensor> parents,
             std::function<void(Node&)> backward, float fattr = 0.0f,
             int64_t iattr0 = 0, int64_t iattr1 = 0) {
  const OpSchema& schema = GetOpSchema(kind);
  Operand inline_in[kInlineOperands];
  std::vector<Operand> spilled;
  Operand* in = inline_in;
  if (parents.size() > kInlineOperands) {
    spilled.resize(parents.size());
    in = spilled.data();
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    const Matrix& v = parents[i].value();
    in[i] = {v.data(), v.rows(), v.cols()};
  }
  KernelArgs args;
  args.in = in;
  args.num_in = parents.size();
  args.fattr = fattr;
  args.iattr0 = iattr0;
  args.iattr1 = iattr1;
  const std::optional<Dims> dims = schema.infer_shape(args);
  CHECK(dims.has_value()) << schema.name << ": invalid operand shapes "
                          << ShapesOf(parents);
  Matrix out(dims->rows, dims->cols);
  args.out = out.data();
  args.out_dims = *dims;
  schema.forward(args);
  Tensor t = Tensor::MakeOp(std::move(out), std::move(parents),
                            std::move(backward));
  if (GraphRecorder* recorder = GraphRecorder::Active()) {
    recorder->OnOp(kind, t, fattr, iattr0, iattr1);
  }
  return t;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return Apply(OpKind::kMatMul, {a, b}, [](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    if (pa.requires_grad) {
      AccumulateInto(pa, MatMulTransposedB(self.grad, pb.value));
    }
    if (pb.requires_grad) {
      AccumulateInto(pb, MatMulTransposedA(pa.value, self.grad));
    }
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return Apply(OpKind::kAdd, {a, b}, [](Node& self) {
    AccumulateInto(*self.parents[0], self.grad);
    AccumulateInto(*self.parents[1], self.grad);
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Apply(OpKind::kSub, {a, b}, [](Node& self) {
    AccumulateInto(*self.parents[0], self.grad);
    Node& pb = *self.parents[1];
    if (pb.requires_grad) {
      pb.EnsureGrad();
      pb.grad.AddScaled(self.grad, -1.0f);
    }
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Apply(OpKind::kMul, {a, b}, [](Node& self) {
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
}

Tensor AddBroadcastRow(const Tensor& x, const Tensor& row) {
  return Apply(OpKind::kAddBroadcastRow, {x, row}, [](Node& self) {
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
}

Tensor MulBroadcastRow(const Tensor& x, const Tensor& row) {
  return Apply(OpKind::kMulBroadcastRow, {x, row}, [](Node& self) {
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
}

Tensor Scale(const Tensor& x, float s) {
  return Apply(
      OpKind::kScale, {x},
      [s](Node& self) {
        Node& px = *self.parents[0];
        if (px.requires_grad) {
          px.EnsureGrad();
          px.grad.AddScaled(self.grad, s);
        }
      },
      s);
}

Tensor Relu(const Tensor& x) {
  return Apply(OpKind::kRelu, {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      delta.data()[i] = px.value.data()[i] > 0.0f ? self.grad.data()[i] : 0.0f;
    }
    AccumulateInto(px, delta);
  });
}

Tensor Tanh(const Tensor& x) {
  return Apply(OpKind::kTanh, {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      float y = self.value.data()[i];
      delta.data()[i] = self.grad.data()[i] * (1.0f - y * y);
    }
    AccumulateInto(px, delta);
  });
}

Tensor Sigmoid(const Tensor& x) {
  return Apply(OpKind::kSigmoid, {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    Matrix delta(self.grad.rows(), self.grad.cols());
    for (size_t i = 0; i < delta.size(); ++i) {
      float y = self.value.data()[i];
      delta.data()[i] = self.grad.data()[i] * y * (1.0f - y);
    }
    AccumulateInto(px, delta);
  });
}

Tensor Abs(const Tensor& x) {
  return Apply(OpKind::kAbs, {x}, [](Node& self) {
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
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  const size_t na = a.cols();
  const size_t nb = b.cols();
  return Apply(OpKind::kConcatCols, {a, b}, [na, nb](Node& self) {
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
}

Tensor SliceCols(const Tensor& x, size_t start, size_t count) {
  return Apply(
      OpKind::kSliceCols, {x},
      [start, count](Node& self) {
        Node& px = *self.parents[0];
        if (!px.requires_grad) return;
        px.EnsureGrad();
        size_t cols = px.value.cols();
        for (size_t i = 0; i < self.grad.rows(); ++i) {
          const float* g_row = self.grad.data() + i * count;
          float* p_row = px.grad.data() + i * cols + start;
          for (size_t j = 0; j < count; ++j) p_row[j] += g_row[j];
        }
      },
      0.0f, static_cast<int64_t>(start), static_cast<int64_t>(count));
}

Tensor SliceRows(const Tensor& x, size_t start, size_t count) {
  return Apply(
      OpKind::kSliceRows, {x},
      [start, count](Node& self) {
        Node& px = *self.parents[0];
        if (!px.requires_grad) return;
        px.EnsureGrad();
        size_t cols = px.value.cols();
        for (size_t i = 0; i < count; ++i) {
          const float* g_row = self.grad.data() + i * cols;
          float* p_row = px.grad.data() + (start + i) * cols;
          for (size_t j = 0; j < cols; ++j) p_row[j] += g_row[j];
        }
      },
      0.0f, static_cast<int64_t>(start), static_cast<int64_t>(count));
}

Tensor RowStack(const std::vector<Tensor>& rows) {
  return Apply(OpKind::kRowStack, rows, [](Node& self) {
    size_t cols = self.grad.cols();
    for (size_t i = 0; i < self.parents.size(); ++i) {
      Node& parent = *self.parents[i];
      if (!parent.requires_grad) continue;
      parent.EnsureGrad();
      const float* g_row = self.grad.data() + i * cols;
      for (size_t j = 0; j < cols; ++j) parent.grad.data()[j] += g_row[j];
    }
  });
}

Tensor MeanRows(const Tensor& x) {
  const float inv = 1.0f / static_cast<float>(x.rows());
  return Apply(OpKind::kMeanRows, {x}, [inv](Node& self) {
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
}

Tensor SumAll(const Tensor& x) {
  return Apply(OpKind::kSumAll, {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    px.EnsureGrad();
    float g = self.grad.At(0, 0);
    for (size_t i = 0; i < px.grad.size(); ++i) px.grad.data()[i] += g;
  });
}

Tensor MeanAll(const Tensor& x) {
  size_t n = x.value().size();
  CHECK_GT(n, 0u);
  return Scale(SumAll(x), 1.0f / static_cast<float>(n));
}

Tensor L2NormalizeRow(const Tensor& x) {
  return Apply(OpKind::kL2NormalizeRow, {x}, [](Node& self) {
    Node& px = *self.parents[0];
    if (!px.requires_grad) return;
    // y = x / norm; dL/dx = (g - y * <g, y>) / norm (with the smoothed norm
    // the <g, y> projection is approximate near zero, which is fine).
    const float inv = InverseSmoothedNorm(px.value.data(), px.value.size());
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
}

Tensor Dot(const Tensor& a, const Tensor& b) {
  return Apply(OpKind::kDot, {a, b}, [](Node& self) {
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
  const size_t n = x.cols();
  const size_t k = kernel.cols();
  const size_t half = k / 2;
  return Apply(OpKind::kConv1dSame, {x, kernel}, [n, k, half](Node& self) {
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

float InverseSmoothedNorm(const float* v, size_t n) {
  constexpr float kEps = 1e-6f;
  double norm_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    norm_sq += static_cast<double>(v[i]) * v[i];
  }
  float norm = static_cast<float>(std::sqrt(norm_sq + kEps));
  return 1.0f / norm;
}

}  // namespace hisrect::nn
