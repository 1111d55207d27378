// Graph-level equivalence harness for the GraphOptimizer fusion pass
// (nn/graph_optimizer.h, DESIGN.md §12). The contract under test: a fused
// fp32 inference plan computes bitwise-identical outputs to both the
// unfused plan and the eval-mode eager tape — at any thread count — while
// strictly removing instructions. Per-pattern golden tests pin each
// rewrite (Linear+ReLU, Linear+Tanh, bare MatMul+bias, LSTM-gate dual
// linear); the randomized sweep drives seeded MLP shapes through
// record -> fuse -> plan -> execute against the eager reference; the
// negative tests pin the legality analysis on near-miss graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/graph_ir.h"
#include "nn/graph_optimizer.h"
#include "nn/graph_recorder.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/plan_executor.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "tests/test_common.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hisrect {
namespace {

using nn::Tensor;
using testing::ExpectBitwiseEqual;

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-0.8, 0.8));
  }
  return m;
}

size_t CountKind(const nn::Graph& graph, nn::OpKind kind) {
  size_t count = 0;
  for (const nn::Instr& ins : graph.instrs) {
    if (ins.kind == kind) ++count;
  }
  return count;
}

// Replays `plan` on the given inputs and returns a copy of its output.
nn::Matrix Replay(const nn::Graph& plan,
                  const std::vector<const nn::Matrix*>& inputs) {
  nn::PlanRun run;
  run.inputs.Reset();
  for (const nn::Matrix* input : inputs) run.inputs.AddDirect(input->data());
  nn::PlanExecutor::Forward(plan, run);
  const nn::BufferDesc& out = plan.buffers[plan.output_buffer];
  nn::Matrix result(out.rows, out.cols);
  const float* data = nn::PlanExecutor::OutputData(plan, run);
  std::copy(data, data + out.size(), result.data());
  return result;
}

enum class Act { kNone, kRelu, kTanh };

Tensor ApplyAct(Tensor h, Act act) {
  switch (act) {
    case Act::kNone:
      return h;
    case Act::kRelu:
      return nn::Relu(h);
    case Act::kTanh:
      return nn::Tanh(h);
  }
  return h;
}

// A stack of Linear(+activation) layers — the shape every fusion candidate
// in the real model (featurizer MLP, judge head) reduces to.
struct Mlp {
  std::vector<Tensor> weights;
  std::vector<Tensor> biases;
  std::vector<Act> acts;
};

Mlp MakeMlp(const std::vector<size_t>& dims, const std::vector<Act>& acts,
            util::Rng& rng) {
  Mlp net;
  net.acts = acts;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    net.weights.push_back(Tensor::FromMatrix(
        RandomMatrix(dims[l], dims[l + 1], rng), /*requires_grad=*/true));
    net.biases.push_back(Tensor::FromMatrix(RandomMatrix(1, dims[l + 1], rng),
                                            /*requires_grad=*/true));
  }
  return net;
}

Tensor MlpForward(Mlp& net, const Tensor& x) {
  nn::RecordPlanInput(x);
  Tensor h = x;
  for (size_t l = 0; l < net.weights.size(); ++l) {
    h = ApplyAct(nn::AddBroadcastRow(nn::MatMul(h, net.weights[l]),
                                     net.biases[l]),
                 net.acts[l]);
  }
  return h;
}

std::shared_ptr<const nn::Graph> RecordMlpPlan(Mlp& net,
                                               const nn::Matrix& xv) {
  nn::GraphRecorder recorder;
  Tensor x = Tensor::FromMatrix(xv);
  return recorder.Finish(MlpForward(net, x));
}

// ---------------------------------------------------------------------------
// Golden per-pattern tests: one layer, one rewrite, checked bitwise.
// ---------------------------------------------------------------------------

void CheckSingleLayerPattern(Act act, nn::OpKind fused_kind) {
  util::Rng rng(101 + static_cast<int>(act));
  Mlp net = MakeMlp({5, 7}, {act}, rng);
  nn::Matrix xv = RandomMatrix(2, 5, rng);
  const nn::Matrix eager = MlpForward(net, Tensor::FromMatrix(xv)).value();

  auto unfused = RecordMlpPlan(net, xv);
  nn::FusionStats stats;
  auto fused = nn::FuseGraph(*unfused, &stats);
  EXPECT_EQ(stats.total(), 1);
  EXPECT_EQ(CountKind(*fused, fused_kind), 1u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 0u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kAddBroadcastRow), 0u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kRelu), 0u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kTanh), 0u);
  EXPECT_LT(fused->instrs.size(), unfused->instrs.size());

  ExpectBitwiseEqual(eager, Replay(*unfused, {&xv}), "unfused");
  ExpectBitwiseEqual(eager, Replay(*fused, {&xv}), "fused");
}

TEST(FusionGoldenTest, LinearReluFusesBitwise) {
  CheckSingleLayerPattern(Act::kRelu, nn::OpKind::kFusedLinearRelu);
}

TEST(FusionGoldenTest, LinearTanhFusesBitwise) {
  CheckSingleLayerPattern(Act::kTanh, nn::OpKind::kFusedLinearTanh);
}

TEST(FusionGoldenTest, BareMatMulBiasFusesBitwise) {
  CheckSingleLayerPattern(Act::kNone, nn::OpKind::kFusedLinear);
}

// Judge-head shape: two towers through the SAME weights, concatenated, then
// a small head. Every layer must fuse (parameter sharing is per-buffer, not
// per-parameter) and stay bitwise.
TEST(FusionGoldenTest, TwoTowerJudgeShapeFusesBitwise) {
  util::Rng rng(2024);
  Tensor w = Tensor::FromMatrix(RandomMatrix(6, 4, rng), true);
  Tensor b = Tensor::FromMatrix(RandomMatrix(1, 4, rng), true);
  Tensor wh = Tensor::FromMatrix(RandomMatrix(8, 3, rng), true);
  Tensor bh = Tensor::FromMatrix(RandomMatrix(1, 3, rng), true);
  nn::Matrix av = RandomMatrix(1, 6, rng);
  nn::Matrix bv = RandomMatrix(1, 6, rng);

  auto forward = [&](const Tensor& xa, const Tensor& xb) {
    nn::RecordPlanInput(xa);
    nn::RecordPlanInput(xb);
    Tensor ta = nn::Tanh(nn::AddBroadcastRow(nn::MatMul(xa, w), b));
    Tensor tb = nn::Tanh(nn::AddBroadcastRow(nn::MatMul(xb, w), b));
    return nn::Relu(
        nn::AddBroadcastRow(nn::MatMul(nn::ConcatCols(ta, tb), wh), bh));
  };

  const nn::Matrix eager =
      forward(Tensor::FromMatrix(av), Tensor::FromMatrix(bv)).value();

  nn::GraphRecorder recorder;
  auto plan =
      recorder.Finish(forward(Tensor::FromMatrix(av), Tensor::FromMatrix(bv)));
  nn::FusionStats stats;
  auto fused = nn::FuseGraph(*plan, &stats);
  EXPECT_EQ(stats.fused_linear_tanh, 2);
  EXPECT_EQ(stats.fused_linear_relu, 1);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 0u);
  ExpectBitwiseEqual(eager, Replay(*fused, {&av, &bv}), "two-tower");
}

// LSTM-gate preactivation x@W + h@U + b — four adjacent instrs — collapses
// into one kFusedDualLinear and stays bitwise, with the MatMuls recorded in
// either order, and whether U is a parameter or a per-run input (the kernel
// reads every operand through the executor, so any buffer kind fuses).
TEST(FusionGoldenTest, DualLinearGateFusesBitwiseInEval) {
  util::Rng rng(311);
  Tensor w = Tensor::FromMatrix(RandomMatrix(6, 8, rng), true);
  Tensor u = Tensor::FromMatrix(RandomMatrix(4, 8, rng), true);
  Tensor b = Tensor::FromMatrix(RandomMatrix(1, 8, rng), true);
  nn::Matrix xv = RandomMatrix(2, 6, rng);
  nn::Matrix hv = RandomMatrix(2, 4, rng);
  nn::Matrix uv = RandomMatrix(4, 8, rng);

  for (bool u_is_input : {false, true}) {
    for (bool h_first : {false, true}) {
      auto forward = [&](const Tensor& x, const Tensor& h) {
        nn::RecordPlanInput(x);
        nn::RecordPlanInput(h);
        Tensor uu = u;
        if (u_is_input) {
          uu = Tensor::FromMatrix(uv);
          nn::RecordPlanInput(uu);
        }
        Tensor xw, hu;
        if (h_first) {
          hu = nn::MatMul(h, uu);
          xw = nn::MatMul(x, w);
        } else {
          xw = nn::MatMul(x, w);
          hu = nn::MatMul(h, uu);
        }
        // The preactivation itself is part of the output, so an epilogue
        // that reassociated the sum could not hide behind tanh rounding.
        Tensor pre = nn::AddBroadcastRow(nn::Add(xw, hu), b);
        return nn::ConcatCols(pre, nn::Tanh(pre));
      };
      const std::string what =
          std::string(h_first ? "h@U first" : "x@W first") +
          (u_is_input ? ", U input" : ", U parameter");

      const nn::Matrix eager =
          forward(Tensor::FromMatrix(xv), Tensor::FromMatrix(hv)).value();

      nn::GraphRecorder recorder;
      auto plan = recorder.Finish(
          forward(Tensor::FromMatrix(xv), Tensor::FromMatrix(hv)));
      nn::FusionStats stats;
      auto fused = nn::FuseGraph(*plan, &stats);
      EXPECT_EQ(stats.fused_dual_linear, 1) << what;
      EXPECT_EQ(stats.total(), 1) << what;
      EXPECT_EQ(CountKind(*fused, nn::OpKind::kFusedDualLinear), 1u) << what;
      EXPECT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 0u) << what;
      EXPECT_EQ(CountKind(*fused, nn::OpKind::kAdd), 0u) << what;
      EXPECT_EQ(CountKind(*fused, nn::OpKind::kAddBroadcastRow), 0u) << what;
      std::vector<const nn::Matrix*> inputs = {&xv, &hv};
      if (u_is_input) inputs.push_back(&uv);
      ExpectBitwiseEqual(eager, Replay(*fused, inputs), what);
    }
  }
}

// ---------------------------------------------------------------------------
// Negative tests: near-miss patterns the legality analysis must reject.
// ---------------------------------------------------------------------------

// The linear output feeds two consumers, so the activation cannot be folded
// (the intermediate must stay materialized) — but the MatMul+bias pair
// still fuses, and the result stays bitwise.
TEST(FusionNegativeTest, SharedLinearOutputKeepsActivationUnfused) {
  util::Rng rng(7);
  Tensor w = Tensor::FromMatrix(RandomMatrix(4, 5, rng), true);
  Tensor b = Tensor::FromMatrix(RandomMatrix(1, 5, rng), true);
  nn::Matrix xv = RandomMatrix(1, 4, rng);

  auto forward = [&](const Tensor& x) {
    nn::RecordPlanInput(x);
    Tensor lin = nn::AddBroadcastRow(nn::MatMul(x, w), b);
    return nn::Add(nn::Relu(lin), lin);  // lin consumed twice
  };

  const nn::Matrix eager = forward(Tensor::FromMatrix(xv)).value();

  nn::GraphRecorder recorder;
  auto plan = recorder.Finish(forward(Tensor::FromMatrix(xv)));
  nn::FusionStats stats;
  auto fused = nn::FuseGraph(*plan, &stats);
  EXPECT_EQ(stats.fused_linear, 1);
  EXPECT_EQ(stats.fused_linear_relu, 0);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kFusedLinear), 1u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kRelu), 1u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 0u);
  ExpectBitwiseEqual(eager, Replay(*fused, {&xv}), "shared-lin");
}

// The MatMul output itself has a second consumer: folding it into the bias
// add would erase a value the graph still needs, so nothing may fuse.
TEST(FusionNegativeTest, SharedMatMulOutputDoesNotFuse) {
  util::Rng rng(8);
  Tensor w = Tensor::FromMatrix(RandomMatrix(4, 5, rng), true);
  Tensor b = Tensor::FromMatrix(RandomMatrix(1, 5, rng), true);
  nn::Matrix xv = RandomMatrix(1, 4, rng);

  nn::GraphRecorder recorder;
  Tensor x = Tensor::FromMatrix(xv);
  nn::RecordPlanInput(x);
  Tensor mm = nn::MatMul(x, w);
  Tensor lin = nn::AddBroadcastRow(mm, b);
  auto plan = recorder.Finish(nn::Add(lin, mm));

  nn::FusionStats stats;
  auto fused = nn::FuseGraph(*plan, &stats);
  EXPECT_EQ(stats.total(), 0);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kFusedLinear), 0u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 1u);
  EXPECT_EQ(fused->instrs.size(), plan->instrs.size());
}

// MatMul straight into an activation — no broadcast bias add between them —
// is not a Linear and must be left alone.
TEST(FusionNegativeTest, MatMulWithoutBiasDoesNotFuse) {
  util::Rng rng(9);
  Tensor w = Tensor::FromMatrix(RandomMatrix(4, 5, rng), true);
  nn::Matrix xv = RandomMatrix(1, 4, rng);

  nn::GraphRecorder recorder;
  Tensor x = Tensor::FromMatrix(xv);
  nn::RecordPlanInput(x);
  auto plan = recorder.Finish(nn::Relu(nn::MatMul(x, w)));

  nn::FusionStats stats;
  auto fused = nn::FuseGraph(*plan, &stats);
  EXPECT_EQ(stats.total(), 0);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 1u);
  EXPECT_EQ(CountKind(*fused, nn::OpKind::kRelu), 1u);
}

// ---------------------------------------------------------------------------
// Randomized graph-equivalence sweep: seeded shapes, fused vs eager, at
// 1/2/4 global-pool threads.
// ---------------------------------------------------------------------------

class FusionSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::SetGlobalNumThreads(1); }
};

TEST_F(FusionSweepTest, RandomizedMlpsBitwiseMatchEagerAcrossThreads) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed * 7919);
    const size_t depth = 1 + rng.UniformInt(static_cast<uint64_t>(3));
    const size_t rows = 1 + rng.UniformInt(static_cast<uint64_t>(3));
    std::vector<size_t> dims;
    dims.push_back(1 + rng.UniformInt(static_cast<uint64_t>(12)));
    std::vector<Act> acts;
    for (size_t l = 0; l < depth; ++l) {
      dims.push_back(1 + rng.UniformInt(static_cast<uint64_t>(12)));
      acts.push_back(
          static_cast<Act>(rng.UniformInt(static_cast<uint64_t>(3))));
    }
    Mlp net = MakeMlp(dims, acts, rng);
    nn::Matrix xv = RandomMatrix(rows, dims[0], rng);

    util::ThreadPool::SetGlobalNumThreads(1);
    const nn::Matrix eager = MlpForward(net, Tensor::FromMatrix(xv)).value();

    nn::FusionStats stats;
    auto fused = nn::FuseGraph(*RecordMlpPlan(net, xv), &stats);
    // Every layer is an adjacent single-consumer chain: all of them fuse.
    ASSERT_EQ(stats.total(), static_cast<int>(depth)) << "seed " << seed;
    ASSERT_EQ(CountKind(*fused, nn::OpKind::kMatMul), 0u) << "seed " << seed;

    for (size_t threads : {1u, 2u, 4u}) {
      util::ThreadPool::SetGlobalNumThreads(threads);
      ExpectBitwiseEqual(eager, Replay(*fused, {&xv}),
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
    }
  }
}

// Fusion is a deterministic rewrite: same input graph, same output program.
TEST(FusionDeterminismTest, RewriteIsDeterministic) {
  util::Rng rng(55);
  Mlp net = MakeMlp({6, 9, 4}, {Act::kRelu, Act::kTanh}, rng);
  nn::Matrix xv = RandomMatrix(2, 6, rng);
  auto plan = RecordMlpPlan(net, xv);
  auto a = nn::FuseGraph(*plan);
  auto b = nn::FuseGraph(*plan);
  ASSERT_EQ(a->instrs.size(), b->instrs.size());
  ASSERT_EQ(a->buffers.size(), b->buffers.size());
  EXPECT_EQ(a->arena_floats, b->arena_floats);
  for (size_t i = 0; i < a->instrs.size(); ++i) {
    EXPECT_EQ(a->instrs[i].kind, b->instrs[i].kind) << "instr " << i;
    EXPECT_EQ(a->instrs[i].in, b->instrs[i].in) << "instr " << i;
    EXPECT_EQ(a->instrs[i].out, b->instrs[i].out) << "instr " << i;
  }
  for (size_t i = 0; i < a->buffers.size(); ++i) {
    EXPECT_EQ(a->buffers[i].offset, b->buffers[i].offset) << "buffer " << i;
  }
}

// Fused replays keep the zero-steady-state-allocation property.
TEST(FusionSteadyStateTest, FusedReplayAllocatesNoTensors) {
  util::Rng rng(66);
  Mlp net = MakeMlp({6, 9, 4}, {Act::kRelu, Act::kTanh}, rng);
  nn::Matrix xv = RandomMatrix(2, 6, rng);
  auto fused = nn::FuseGraph(*RecordMlpPlan(net, xv));

  nn::PlanRun run;
  run.inputs.Reset();
  run.inputs.AddDirect(xv.data());
  nn::PlanExecutor::Forward(*fused, run);
  const size_t arena_capacity = run.arena.size();

  obs::Counter* allocs =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.tensor_allocs");
  const int64_t before = allocs->Value();
  for (int step = 0; step < 20; ++step) {
    run.inputs.Reset();
    run.inputs.AddDirect(xv.data());
    nn::PlanExecutor::Forward(*fused, run);
  }
  EXPECT_EQ(allocs->Value(), before) << "fused replay must not allocate";
  EXPECT_EQ(run.arena.size(), arena_capacity) << "arena must not regrow";
}

}  // namespace
}  // namespace hisrect
