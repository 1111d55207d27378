#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "nn/graph_ir.h"
#include "nn/graph_recorder.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace hisrect::nn {
namespace {

Tensor RandomParameter(size_t rows, size_t cols, util::Rng& rng,
                       double scale = 0.8) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal(0.0, scale));
  }
  return Tensor::FromMatrix(std::move(m), /*requires_grad=*/true);
}

/// Checks d(loss)/d(param) against central finite differences for every
/// element of `param`. `loss_fn` must rebuild the graph from scratch.
void CheckGradient(Tensor param, const std::function<Tensor()>& loss_fn,
                   float tolerance = 2e-2f) {
  Tensor loss = loss_fn();
  ASSERT_EQ(loss.rows(), 1u);
  ASSERT_EQ(loss.cols(), 1u);
  param.ZeroGrad();
  loss.Backward();
  Matrix analytic = param.grad();

  Matrix& values = param.mutable_value();
  for (size_t i = 0; i < values.size(); ++i) {
    float original = values.data()[i];
    const float eps = 1e-2f;
    values.data()[i] = original + eps;
    float up = loss_fn().value().At(0, 0);
    values.data()[i] = original - eps;
    float down = loss_fn().value().At(0, 0);
    values.data()[i] = original;
    float numeric = (up - down) / (2.0f * eps);
    float divergence = std::fabs(numeric - analytic.data()[i]);
    float magnitude = std::max(1.0f, std::fabs(numeric));
    EXPECT_LE(divergence / magnitude, tolerance)
        << "element " << i << ": numeric=" << numeric
        << " analytic=" << analytic.data()[i];
  }
}

TEST(TensorTest, LeafProperties) {
  Tensor t = Tensor::RowVector({1.0f, 2.0f}, true);
  EXPECT_TRUE(t.defined());
  EXPECT_TRUE(t.requires_grad());
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.grad().At(0, 0), 0.0f);
}

TEST(TensorTest, NullHandle) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, ConstantsProduceNoGradients) {
  Tensor a = Tensor::RowVector({1.0f, 2.0f});  // No grad.
  Tensor loss = SumAll(Mul(a, a));
  EXPECT_FALSE(loss.requires_grad());
  loss.Backward();  // No-op, must not crash.
}

TEST(TensorTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::RowVector({2.0f}, true);
  for (int pass = 1; pass <= 3; ++pass) {
    Tensor loss = SumAll(Mul(a, a));  // d/da = 2a = 4.
    loss.Backward();
    EXPECT_FLOAT_EQ(a.grad().At(0, 0), 4.0f * pass);
  }
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 0.0f);
}

TEST(TensorTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(a*a) + sum(a*3): d/da = 2a + 3.
  Tensor a = Tensor::RowVector({5.0f}, true);
  Tensor threes = Tensor::RowVector({3.0f});
  Tensor loss = Add(SumAll(Mul(a, a)), SumAll(Mul(a, threes)));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 13.0f);
}

TEST(TensorTest, SharedParameterAcrossTwoUses) {
  // loss = sum((a W) + (b W)) accumulates into W from both terms.
  util::Rng rng(3);
  Tensor w = RandomParameter(2, 2, rng);
  Tensor a = Tensor::RowVector({1.0f, 0.0f});
  Tensor b = Tensor::RowVector({0.0f, 1.0f});
  CheckGradient(w, [&] {
    return Add(SumAll(MatMul(a, w)), SumAll(Tanh(MatMul(b, w))));
  });
}

struct OpCase {
  std::string name;
  // Builds a scalar loss from the parameter.
  std::function<Tensor(const Tensor&)> loss;
  size_t rows = 2;
  size_t cols = 3;
};

class OpGradientTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradientTest, MatchesFiniteDifferences) {
  util::Rng rng(11);
  const OpCase& c = GetParam();
  Tensor param = RandomParameter(c.rows, c.cols, rng);
  CheckGradient(param, [&] { return c.loss(param); });
}

std::vector<OpCase> OpCases() {
  util::Rng rng(99);
  Tensor other = RandomParameter(2, 3, rng);
  other.node()->requires_grad = false;
  Tensor row = Tensor::RowVector({0.3f, -0.7f, 1.1f});
  std::vector<OpCase> cases;
  cases.push_back({"Add", [=](const Tensor& x) { return SumAll(Add(x, other)); }});
  cases.push_back({"Sub", [=](const Tensor& x) { return SumAll(Sub(other, x)); }});
  cases.push_back({"Mul", [=](const Tensor& x) { return SumAll(Mul(x, other)); }});
  cases.push_back({"Scale", [](const Tensor& x) { return SumAll(Scale(x, -2.5f)); }});
  cases.push_back({"Relu", [](const Tensor& x) { return SumAll(Relu(x)); }});
  cases.push_back({"Tanh", [](const Tensor& x) { return SumAll(Tanh(x)); }});
  cases.push_back({"Sigmoid", [](const Tensor& x) { return SumAll(Sigmoid(x)); }});
  cases.push_back({"Abs", [](const Tensor& x) { return SumAll(Abs(x)); }});
  cases.push_back(
      {"AddBroadcastRow", [=](const Tensor& x) { return SumAll(Tanh(AddBroadcastRow(x, row))); }});
  cases.push_back(
      {"MulBroadcastRow", [=](const Tensor& x) { return SumAll(MulBroadcastRow(x, row)); }});
  cases.push_back(
      {"ConcatCols", [=](const Tensor& x) { return SumAll(Tanh(ConcatCols(x, other))); }});
  cases.push_back(
      {"SliceCols", [](const Tensor& x) { return SumAll(SliceCols(x, 1, 2)); }});
  cases.push_back(
      {"SliceRows", [](const Tensor& x) { return SumAll(SliceRows(x, 0, 1)); }});
  cases.push_back({"MeanRows", [](const Tensor& x) { return SumAll(MeanRows(x)); }});
  cases.push_back({"MeanAll", [](const Tensor& x) { return MeanAll(Tanh(x)); }});
  cases.push_back(
      {"SquaredL2Diff", [=](const Tensor& x) { return SquaredL2Diff(x, other); }});
  // Row-vector-only ops.
  cases.push_back({"L2NormalizeRow",
                   [](const Tensor& x) {
                     Tensor target = Tensor::RowVector({1.0f, 0.0f, 0.0f});
                     return SquaredL2Diff(L2NormalizeRow(x), target);
                   },
                   1, 3});
  cases.push_back({"Dot",
                   [=](const Tensor& x) { return Dot(x, row); },
                   1, 3});
  cases.push_back({"SoftmaxCrossEntropy",
                   [](const Tensor& x) { return SoftmaxCrossEntropy(x, 1); },
                   1, 3});
  cases.push_back({"SigmoidBCE_pos",
                   [](const Tensor& x) {
                     return SigmoidBinaryCrossEntropy(SumAll(x), 1.0f);
                   },
                   1, 1});
  cases.push_back({"SigmoidBCE_neg",
                   [](const Tensor& x) {
                     return SigmoidBinaryCrossEntropy(SumAll(x), 0.0f);
                   },
                   1, 1});
  cases.push_back({"Conv1dSame_input",
                   [](const Tensor& x) {
                     Tensor kernel = Tensor::RowVector({0.5f, -1.0f, 0.25f});
                     return SumAll(Conv1dSame(x, kernel));
                   },
                   1, 6});
  cases.push_back({"MatMul",
                   [=](const Tensor& x) {
                     util::Rng r(7);
                     static Tensor w = RandomParameter(3, 2, r);
                     return SumAll(MatMul(x, w));
                   },
                   2, 3});
  cases.push_back({"RowStack",
                   [](const Tensor& x) {
                     std::vector<Tensor> rows = {x, x};
                     return SumAll(Tanh(RowStack(rows)));
                   },
                   1, 3});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradientTest, ::testing::ValuesIn(OpCases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return info.param.name;
                         });

TEST(OpsTest, SoftmaxValuesSumToOne) {
  Matrix logits(1, 4, {1.0f, 2.0f, 3.0f, 4.0f});
  Matrix probs = SoftmaxValues(logits);
  float sum = 0.0f;
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_GT(probs.data()[i], 0.0f);
    sum += probs.data()[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(probs.At(0, 3), probs.At(0, 0));
}

TEST(OpsTest, SoftmaxStableForHugeLogits) {
  Matrix logits(1, 2, {1000.0f, 999.0f});
  Matrix probs = SoftmaxValues(logits);
  EXPECT_FALSE(std::isnan(probs.At(0, 0)));
  EXPECT_GT(probs.At(0, 0), probs.At(0, 1));
}

TEST(OpsTest, SigmoidValueSymmetry) {
  EXPECT_FLOAT_EQ(SigmoidValue(0.0f), 0.5f);
  EXPECT_NEAR(SigmoidValue(3.0f) + SigmoidValue(-3.0f), 1.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(SigmoidValue(-1000.0f)));
  EXPECT_FALSE(std::isnan(SigmoidValue(1000.0f)));
}

TEST(OpsTest, SigmoidBceMatchesDefinition) {
  Tensor logit = Tensor::RowVector({0.7f});
  float p = SigmoidValue(0.7f);
  EXPECT_NEAR(SigmoidBinaryCrossEntropy(logit, 1.0f).value().At(0, 0),
              -std::log(p), 1e-5f);
  EXPECT_NEAR(SigmoidBinaryCrossEntropy(logit, 0.0f).value().At(0, 0),
              -std::log(1.0f - p), 1e-5f);
}

TEST(OpsTest, DropoutIdentityAtInference) {
  util::Rng rng(1);
  Tensor x = Tensor::RowVector({1.0f, 2.0f, 3.0f});
  Tensor y = Dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_TRUE(x == y);  // Same node: identity pass-through.
}

TEST(OpsTest, DropoutPreservesMeanAtTraining) {
  util::Rng rng(1);
  Tensor x = Tensor::FromMatrix(Matrix(1, 4000, 1.0f));
  Tensor y = Dropout(x, 0.3f, rng, /*training=*/true);
  double sum = 0.0;
  size_t zeros = 0;
  for (size_t i = 0; i < y.value().size(); ++i) {
    sum += y.value().data()[i];
    zeros += (y.value().data()[i] == 0.0f);
  }
  EXPECT_NEAR(sum / 4000.0, 1.0, 0.05);  // Inverted dropout keeps the scale.
  EXPECT_NEAR(static_cast<double>(zeros) / 4000.0, 0.3, 0.04);
}

TEST(OpsTest, Conv1dSameShapeAndValues) {
  Tensor x = Tensor::RowVector({1.0f, 2.0f, 3.0f, 4.0f});
  Tensor k = Tensor::RowVector({1.0f, 0.0f, -1.0f});
  Tensor y = Conv1dSame(x, k);
  ASSERT_EQ(y.cols(), 4u);
  // Zero padding: y[0] = 0*1 + 1*0 + 2*(-1) = -2.
  EXPECT_FLOAT_EQ(y.value().At(0, 0), -2.0f);
  // Interior: y[1] = 1*1 + 2*0 + 3*(-1) = -2.
  EXPECT_FLOAT_EQ(y.value().At(0, 1), -2.0f);
  // Tail: y[3] = 3*1 + 4*0 + 0*(-1) = 3.
  EXPECT_FLOAT_EQ(y.value().At(0, 3), 3.0f);
}

TEST(OpsTest, L2NormalizeProducesUnitNorm) {
  Tensor x = Tensor::RowVector({3.0f, 4.0f});
  Tensor y = L2NormalizeRow(x);
  EXPECT_NEAR(y.value().Norm(), 1.0f, 1e-3f);
}

TEST(OpsTest, L2NormalizeHandlesZeroVector) {
  Tensor x = Tensor::RowVector({0.0f, 0.0f}, true);
  Tensor loss = SumAll(L2NormalizeRow(x));
  EXPECT_FALSE(std::isnan(loss.value().At(0, 0)));
  loss.Backward();
  EXPECT_FALSE(std::isnan(x.grad().At(0, 0)));
}

// ---------------------------------------------------------------------------
// Forward values against hand-computed expectations, one case per
// recordable op kind. The tape and plan replay share one registry kernel,
// so the plan goldens compare that kernel with itself; this table is the
// independent reference. Each case also records itself to prove it
// exercises the op kind it names. The fused kinds keep their reference in
// fusion_test (the unfused composition).
// ---------------------------------------------------------------------------

struct ForwardCase {
  OpKind kind;
  std::function<Tensor()> run;
  size_t rows;
  size_t cols;
  std::vector<float> expected;
};

Tensor M(size_t rows, size_t cols, std::vector<float> values) {
  return Tensor::FromMatrix(Matrix(rows, cols, std::move(values)));
}

Tensor Row(std::vector<float> values) {
  return Tensor::RowVector(std::move(values));
}

std::vector<ForwardCase> ForwardCases() {
  return {
      {OpKind::kMatMul,
       [] {
         return MatMul(M(2, 2, {1, 2, 3, 4}), M(2, 3, {5, 6, 7, 8, 9, 10}));
       },
       2, 3, {21, 24, 27, 47, 54, 61}},
      {OpKind::kAdd, [] { return Add(Row({1, 2, 3}), Row({0.5f, -1, 4})); },
       1, 3, {1.5f, 1, 7}},
      {OpKind::kSub, [] { return Sub(Row({1, 2, 3}), Row({0.5f, -1, 4})); },
       1, 3, {0.5f, 3, -1}},
      {OpKind::kMul, [] { return Mul(Row({1, 2, 3}), Row({0.5f, -1, 4})); },
       1, 3, {0.5f, -2, 12}},
      {OpKind::kAddBroadcastRow,
       [] { return AddBroadcastRow(M(2, 2, {1, 2, 3, 4}), Row({10, 20})); },
       2, 2, {11, 22, 13, 24}},
      {OpKind::kMulBroadcastRow,
       [] { return MulBroadcastRow(M(2, 2, {1, 2, 3, 4}), Row({10, -1})); },
       2, 2, {10, -2, 30, -4}},
      {OpKind::kScale, [] { return Scale(Row({1, -2, 3}), 0.5f); }, 1, 3,
       {0.5f, -1, 1.5f}},
      {OpKind::kRelu, [] { return Relu(Row({-1, 0, 2})); }, 1, 3, {0, 0, 2}},
      // tanh(1) = 0.76159416, sigmoid(2) = 0.88079708.
      {OpKind::kTanh, [] { return Tanh(Row({0, 1, -1})); }, 1, 3,
       {0, 0.76159416f, -0.76159416f}},
      {OpKind::kSigmoid, [] { return Sigmoid(Row({0, 2, -2})); }, 1, 3,
       {0.5f, 0.88079708f, 0.11920292f}},
      {OpKind::kAbs, [] { return Abs(Row({-1.5f, 0, 2})); }, 1, 3,
       {1.5f, 0, 2}},
      {OpKind::kConcatCols,
       [] { return ConcatCols(M(2, 1, {1, 2}), M(2, 2, {3, 4, 5, 6})); }, 2,
       3, {1, 3, 4, 2, 5, 6}},
      {OpKind::kSliceCols,
       [] { return SliceCols(M(2, 4, {1, 2, 3, 4, 5, 6, 7, 8}), 1, 2); }, 2,
       2, {2, 3, 6, 7}},
      {OpKind::kSliceRows,
       [] { return SliceRows(M(3, 2, {1, 2, 3, 4, 5, 6}), 1, 2); }, 2, 2,
       {3, 4, 5, 6}},
      {OpKind::kRowStack,
       [] { return RowStack({Row({1, 2}), Row({3, 4}), Row({5, 6})}); }, 3, 2,
       {1, 2, 3, 4, 5, 6}},
      {OpKind::kMeanRows, [] { return MeanRows(M(2, 2, {1, 2, 3, 6})); }, 1,
       2, {2, 4}},
      {OpKind::kSumAll, [] { return SumAll(M(2, 2, {1, 2, 3, 4})); }, 1, 1,
       {10}},
      // Smoothed norm sqrt(25 + 1e-6) differs from 5 by 1e-7.
      {OpKind::kL2NormalizeRow, [] { return L2NormalizeRow(Row({3, 4})); }, 1,
       2, {0.6f, 0.8f}},
      {OpKind::kDot, [] { return Dot(Row({1, 2, 3}), Row({4, 5, 6})); }, 1, 1,
       {32}},
      // y[j] = x[j-1] + 2 x[j] + 3 x[j+1], zero padded.
      {OpKind::kConv1dSame,
       [] { return Conv1dSame(Row({1, 2, 3, 4}), Row({1, 2, 3})); }, 1, 4,
       {8, 14, 20, 11}},
  };
}

TEST(OpsTest, ForwardMatchesHandComputedValues) {
  std::set<OpKind> covered;
  for (const ForwardCase& c : ForwardCases()) {
    const char* name = GetOpSchema(c.kind).name;
    GraphRecorder recorder;
    Tensor y = c.run();
    std::shared_ptr<const Graph> plan = recorder.Finish(y);
    ASSERT_FALSE(plan->instrs.empty()) << name;
    EXPECT_EQ(plan->instrs.back().kind, c.kind) << name;
    covered.insert(c.kind);
    ASSERT_EQ(y.rows(), c.rows) << name;
    ASSERT_EQ(y.cols(), c.cols) << name;
    for (size_t i = 0; i < c.expected.size(); ++i) {
      const float e = c.expected[i];
      EXPECT_NEAR(y.value().data()[i], e, 1e-6f * std::max(1.0f, std::fabs(e)))
          << name << " element " << i;
    }
  }
  for (uint8_t k = 0; k <= static_cast<uint8_t>(OpKind::kConv1dSame); ++k) {
    EXPECT_TRUE(covered.count(static_cast<OpKind>(k)))
        << GetOpSchema(static_cast<OpKind>(k)).name << " has no forward case";
  }
}

// ---------------------------------------------------------------------------
// Shape rejection: each eager op CHECK-fails, naming itself, on operand
// shapes its registry shape function rejects.
// ---------------------------------------------------------------------------

TEST(OpsDeathTest, RejectsInvalidShapes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Tensor r2 = Row({1, 2});
  const Tensor r3 = Row({1, 2, 3});
  const Tensor m22 = M(2, 2, {1, 2, 3, 4});
  const Tensor m23 = M(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor m14 = Row({1, 2, 3, 4});
  EXPECT_DEATH(MatMul(m23, m23), "MatMul: invalid operand shapes");
  EXPECT_DEATH(Add(r2, r3), "Add: invalid operand shapes");
  EXPECT_DEATH(Sub(m22, r2), "Sub: invalid operand shapes");
  EXPECT_DEATH(Mul(r3, M(3, 1, {1, 2, 3})), "Mul: invalid operand shapes");
  EXPECT_DEATH(AddBroadcastRow(m22, m22),
               "AddBroadcastRow: invalid operand shapes");
  EXPECT_DEATH(MulBroadcastRow(m23, r2),
               "MulBroadcastRow: invalid operand shapes");
  EXPECT_DEATH(Dot(m22, m22), "Dot: invalid operand shapes");
  EXPECT_DEATH(Dot(r2, r3), "Dot: invalid operand shapes");
  EXPECT_DEATH(SliceCols(m14, 3, 2), "SliceCols: invalid operand shapes");
  EXPECT_DEATH(SliceRows(m22, 1, 2), "SliceRows: invalid operand shapes");
  // Starts of 2^32 and beyond must not wrap into range.
  EXPECT_DEATH(SliceCols(m14, size_t{1} << 32, 0),
               "SliceCols: invalid operand shapes");
  EXPECT_DEATH(SliceRows(m22, size_t{1} << 32, 1),
               "SliceRows: invalid operand shapes");
  EXPECT_DEATH(SliceCols(m14, 1, SIZE_MAX),
               "SliceCols: invalid operand shapes");
  EXPECT_DEATH(RowStack({}), "RowStack: invalid operand shapes");
  EXPECT_DEATH(RowStack({r2, m22}), "RowStack: invalid operand shapes");
  EXPECT_DEATH(Conv1dSame(m14, r2), "Conv1dSame: invalid operand shapes");
  EXPECT_DEATH(L2NormalizeRow(m22), "L2NormalizeRow: invalid operand shapes");
}

TEST(OpsTest, EmptyShapesAreValid) {
  // Zero-extent shapes, 0x0 included, are results, not shape failures.
  EXPECT_EQ(SliceCols(M(2, 3, {1, 2, 3, 4, 5, 6}), 3, 0).cols(), 0u);
  EXPECT_EQ(SliceRows(M(2, 3, {1, 2, 3, 4, 5, 6}), 0, 0).rows(), 0u);
  Tensor none = MatMul(M(0, 2, {}), M(2, 0, {}));
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_EQ(none.cols(), 0u);
  Tensor empty = MatMul(M(2, 0, {}), M(0, 3, {}));
  ASSERT_EQ(empty.rows(), 2u);
  ASSERT_EQ(empty.cols(), 3u);
  for (size_t i = 0; i < empty.value().size(); ++i) {
    EXPECT_EQ(empty.value().data()[i], 0.0f);
  }
}

}  // namespace
}  // namespace hisrect::nn
