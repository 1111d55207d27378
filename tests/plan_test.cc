// Recorded inference plans (nn/graph_recorder.h, nn/plan_executor.h,
// DESIGN.md §11): eval-mode recording, bitwise replay against the eager
// tape, memory-planner safety, zero steady-state allocations, and the
// CHECK that keeps training-only tape ops out of recordings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
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

namespace hisrect {
namespace {

using nn::Tensor;
using testing::ExpectBitwiseEqual;

// ---------------------------------------------------------------------------
// A small eval-mode net that records every recorder-emitted op kind, with
// diamond sharing (h2 feeds several consumers), a same-node Mul
// (SquaredL2Diff), and the four chain shapes FuseGraph rewrites: a shared
// MatMul+bias (h1, three consumers), Linear+ReLU, Linear+Tanh and the
// LSTM-gate dual linear.
// ---------------------------------------------------------------------------

struct TestNet {
  Tensor w1;     // 6x8
  Tensor b1;     // 1x8
  Tensor w2;     // 8x4
  Tensor kconv;  // 1x3
  Tensor vecp;   // 1x8
  Tensor w3;     // 8x5
  Tensor b3;     // 1x5
  Tensor w4;     // 5x8
  Tensor b4;     // 1x8
  Tensor wx;     // 6x8
  Tensor wh;     // 8x8
  Tensor bg;     // 1x8

  std::vector<Tensor*> Params() {
    return {&w1, &b1, &w2, &kconv, &vecp, &w3, &b3, &w4, &b4, &wx, &wh, &bg};
  }
};

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
  }
  return m;
}

TestNet MakeNet(uint64_t seed) {
  util::Rng rng(seed);
  auto param = [&](size_t rows, size_t cols) {
    return Tensor::FromMatrix(RandomMatrix(rows, cols, rng),
                              /*requires_grad=*/true);
  };
  TestNet net;
  net.w1 = param(6, 8);
  net.b1 = param(1, 8);
  net.w2 = param(8, 4);
  net.kconv = param(1, 3);
  net.vecp = param(1, 8);
  net.w3 = param(8, 5);
  net.b3 = param(1, 5);
  net.w4 = param(5, 8);
  net.b4 = param(1, 8);
  net.wx = param(6, 8);
  net.wh = param(8, 8);
  net.bg = param(1, 8);
  return net;
}

// Inputs: declared (and bound at replay) in the order x, weight. `weight`
// is a 1x1 non-grad tensor declared as an input, so it stays symbolic
// instead of getting baked into the plan's constant pool. Eval mode
// throughout: Dropout is the identity and records nothing.
Tensor Forward(TestNet& net, const Tensor& x, const Tensor& weight) {
  nn::RecordPlanInput(x);
  nn::RecordPlanInput(weight);

  util::Rng unused(0);
  Tensor h1 = nn::AddBroadcastRow(nn::MatMul(x, net.w1), net.b1);  // 1x8
  Tensor h2 = nn::Tanh(h1);
  Tensor r = nn::Relu(h1);
  Tensor s = nn::Sigmoid(h1);
  Tensor m = nn::Mul(r, s);
  Tensor ab = nn::Abs(nn::Sub(h2, m));
  Tensor c = nn::ConcatCols(m, ab);                       // 1x16
  Tensor sc = nn::SliceCols(c, 4, 8);                     // 1x8
  Tensor st = nn::RowStack({h2, sc});                     // 2x8
  Tensor mb = nn::MulBroadcastRow(st, net.vecp);          // 2x8
  Tensor ad = nn::Add(nn::MeanRows(mb), nn::SliceRows(st, 1, 1));  // 1x8
  Tensor dp = nn::Dropout(ad, 0.25f, unused, /*training=*/false);
  Tensor nz = nn::L2NormalizeRow(dp);
  Tensor cv = nn::Conv1dSame(nz, net.kconv);              // 1x8
  Tensor dt = nn::Dot(cv, h2);                            // 1x1
  Tensor logits = nn::MatMul(nz, net.w2);                 // 1x4
  Tensor sq = nn::SquaredL2Diff(cv, h2);
  Tensor extras = nn::Add(nn::SumAll(mb), nn::MeanAll(st));
  Tensor w = nn::Mul(dt, weight);
  // Fusable chains: Linear+ReLU, Linear+Tanh, then the gate preactivation
  // x@Wx + t@Wh + bg.
  Tensor lr = nn::Relu(nn::AddBroadcastRow(nn::MatMul(cv, net.w3), net.b3));
  Tensor lt = nn::Tanh(nn::AddBroadcastRow(nn::MatMul(lr, net.w4), net.b4));
  Tensor gate_pre = nn::AddBroadcastRow(
      nn::Add(nn::MatMul(x, net.wx), nn::MatMul(lt, net.wh)), net.bg);
  Tensor gate = nn::Sigmoid(gate_pre);
  Tensor tail = nn::ConcatCols(nn::Add(w, nn::Add(sq, extras)), logits);
  // The fused chains' outputs are part of the result, so a kernel error
  // cannot be rounded away downstream. Scaling by 0.5 is exact.
  Tensor chains = nn::ConcatCols(nn::ConcatCols(lr, lt), gate_pre);
  return nn::Scale(nn::ConcatCols(nn::ConcatCols(tail, gate), chains),
                   0.5f);  // 1x34
}

nn::Matrix Scalar(float value) {
  nn::Matrix m(1, 1);
  m.At(0, 0) = value;
  return m;
}

// Both inputs are caller-owned and must outlive the execution.
void BindInputs(nn::PlanRun& run, const nn::Matrix& x,
                const nn::Matrix& weight) {
  run.inputs.Reset();
  run.inputs.AddDirect(x.data());
  run.inputs.AddDirect(weight.data());
}

nn::Matrix Eager(TestNet& net, const nn::Matrix& xv, float weight) {
  return Forward(net, Tensor::FromMatrix(xv),
                 Tensor::FromMatrix(Scalar(weight)))
      .value();
}

std::shared_ptr<const nn::Graph> RecordPlan(TestNet& net, const nn::Matrix& xv,
                                            float weight) {
  nn::GraphRecorder recorder;
  return recorder.Finish(Forward(net, Tensor::FromMatrix(xv),
                                 Tensor::FromMatrix(Scalar(weight))));
}

nn::Matrix OutputOf(const nn::Graph& plan, const nn::PlanRun& run) {
  const nn::BufferDesc& out = plan.buffers[plan.output_buffer];
  nn::Matrix result(out.rows, out.cols);
  const float* data = nn::PlanExecutor::OutputData(plan, run);
  std::copy(data, data + out.size(), result.data());
  return result;
}

nn::Matrix Replay(const nn::Graph& plan, const nn::Matrix& xv, float weight) {
  nn::PlanRun run;
  const nn::Matrix wv = Scalar(weight);
  BindInputs(run, xv, wv);
  nn::PlanExecutor::Forward(plan, run);
  return OutputOf(plan, run);
}

std::set<nn::OpKind> KindsOf(const nn::Graph& plan) {
  std::set<nn::OpKind> kinds;
  for (const nn::Instr& ins : plan.instrs) kinds.insert(ins.kind);
  return kinds;
}

int64_t TensorAllocs() {
  return obs::MetricsRegistry::Global()
      .GetCounter("hisrect.nn.tensor_allocs")
      ->Value();
}

// ---------------------------------------------------------------------------
// Goldens. Each records in eval mode, replays, checks the replay bitwise
// against its reference, and returns the op kinds it covered.
// ---------------------------------------------------------------------------

// Unfused and fused fp32 plans of TestNet against the eval-mode eager tape.
std::set<nn::OpKind> Fp32Golden() {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  const float weight = 2.5f;
  const nn::Matrix eager = Eager(net, xv, weight);

  auto plan = RecordPlan(net, xv, weight);
  ExpectBitwiseEqual(eager, Replay(*plan, xv, weight), "unfused plan");

  nn::FusionStats stats;
  auto fused = nn::FuseGraph(*plan, &stats);
  EXPECT_GT(stats.fused_linear, 0);
  EXPECT_GT(stats.fused_linear_relu, 0);
  EXPECT_GT(stats.fused_linear_tanh, 0);
  EXPECT_GT(stats.fused_dual_linear, 0);
  ExpectBitwiseEqual(eager, Replay(*fused, xv, weight), "fused plan");

  std::set<nn::OpKind> kinds = KindsOf(*plan);
  for (nn::OpKind kind : KindsOf(*fused)) kinds.insert(kind);
  return kinds;
}

TEST(PlanRegistryTest, EveryOpKindIsRegistered) {
  const std::set<nn::OpKind> covered = Fp32Golden();
  for (uint8_t k = 0; k < static_cast<uint8_t>(nn::OpKind::kNumOpKinds); ++k) {
    const nn::OpKind kind = static_cast<nn::OpKind>(k);
    const nn::OpSchema& schema = nn::GetOpSchema(kind);
    EXPECT_STRNE(schema.name, "?") << "kind " << static_cast<int>(k);
    EXPECT_NE(schema.forward, nullptr) << schema.name;
    EXPECT_NE(schema.infer_shape, nullptr) << schema.name;
    // Arity is part of shape inference: no kind accepts zero operands.
    EXPECT_FALSE(schema.infer_shape(nn::KernelArgs{}).has_value())
        << schema.name;
    EXPECT_TRUE(covered.count(kind))
        << schema.name << " has no eval-mode plan golden";
  }
}

// ---------------------------------------------------------------------------
// Training-only tape ops have no op kind: under an active recorder they
// CHECK-fail instead of being baked into the plan as constants.
// ---------------------------------------------------------------------------

TEST(PlanRecorderDeathTest, TrainingOnlyOpsCheckFailWhileRecording) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  util::Rng rng(3);
  Tensor x = Tensor::FromMatrix(RandomMatrix(1, 4, rng), true);
  EXPECT_DEATH(
      {
        nn::GraphRecorder recorder;
        util::Rng dropout_rng(1);
        nn::Dropout(x, 0.5f, dropout_rng, /*training=*/true);
      },
      "Dropout.*training-only");
  EXPECT_DEATH(
      {
        nn::GraphRecorder recorder;
        nn::SoftmaxCrossEntropy(x, 1);
      },
      "SoftmaxCrossEntropy is training-only");
  EXPECT_DEATH(
      {
        nn::GraphRecorder recorder;
        nn::SigmoidBinaryCrossEntropy(nn::SumAll(x), 1.0f);
      },
      "SigmoidBinaryCrossEntropy is training-only");
}

TEST(PlanRecorderTest, TrainingOnlyOpsRunWhenNotRecording) {
  util::Rng rng(3);
  Tensor x = Tensor::FromMatrix(RandomMatrix(1, 4, rng), true);
  util::Rng dropout_rng(1);
  EXPECT_EQ(nn::Dropout(x, 0.5f, dropout_rng, true).cols(), 4u);
  EXPECT_EQ(nn::SoftmaxCrossEntropy(x, 1).cols(), 1u);
  EXPECT_EQ(nn::SigmoidBinaryCrossEntropy(nn::SumAll(x), 1.0f).cols(), 1u);
  // Eval-mode dropout is the identity and records nothing.
  nn::GraphRecorder recorder;
  Tensor y = nn::Relu(x);
  EXPECT_EQ(nn::Dropout(y, 0.5f, dropout_rng, false).node(), y.node());
  EXPECT_EQ(recorder.Finish(y)->instrs.size(), 1u);
}

// ---------------------------------------------------------------------------
// Replay semantics and the memory planner.
// ---------------------------------------------------------------------------

TEST(PlanTest, ReplayWithReboundInputsMatchesFreshEager) {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 2.5f);
  ASSERT_EQ(plan->params.size(), net.Params().size());
  ASSERT_EQ(plan->num_inputs, 2u);
  ASSERT_GT(plan->arena_floats, 0u);

  // New input values: the single recorded plan must track them.
  nn::Matrix xv2 = RandomMatrix(1, 6, data_rng);
  ExpectBitwiseEqual(Eager(net, xv2, -0.75f), Replay(*plan, xv2, -0.75f),
                     "rebound inputs");

  // The arena high-water gauge reflects at least this plan.
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetGauge("hisrect.nn.arena_bytes")
                ->Value(),
            static_cast<int64_t>(plan->arena_floats * sizeof(float)));
}

TEST(PlanTest, EvalPlanTracksParameterUpdates) {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 1.0f);

  // An optimizer-style in-place parameter update must be visible to the next
  // replay (param buffers resolve through the live Node, not a snapshot).
  for (Tensor* p : net.Params()) {
    nn::Matrix& v = p->mutable_value();
    for (size_t i = 0; i < v.size(); ++i) v.data()[i] += 0.01f;
  }
  ExpectBitwiseEqual(Eager(net, xv, 1.0f), Replay(*plan, xv, 1.0f),
                     "after update");
}

TEST(PlanTest, RecordingIsDeterministic) {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);

  auto a = RecordPlan(net, xv, 2.5f);
  auto b = RecordPlan(net, xv, 2.5f);

  ASSERT_EQ(a->instrs.size(), b->instrs.size());
  ASSERT_EQ(a->buffers.size(), b->buffers.size());
  EXPECT_EQ(a->arena_floats, b->arena_floats);
  for (size_t i = 0; i < a->buffers.size(); ++i) {
    EXPECT_EQ(a->buffers[i].kind, b->buffers[i].kind) << "buffer " << i;
    EXPECT_EQ(a->buffers[i].offset, b->buffers[i].offset) << "buffer " << i;
    EXPECT_EQ(a->buffers[i].rows, b->buffers[i].rows) << "buffer " << i;
    EXPECT_EQ(a->buffers[i].cols, b->buffers[i].cols) << "buffer " << i;
  }
  for (size_t i = 0; i < a->instrs.size(); ++i) {
    EXPECT_EQ(a->instrs[i].kind, b->instrs[i].kind) << "instr " << i;
    EXPECT_EQ(a->instrs[i].out, b->instrs[i].out) << "instr " << i;
    EXPECT_EQ(a->instrs[i].in, b->instrs[i].in) << "instr " << i;
  }
}

TEST(PlanTest, LiveBuffersNeverShareArenaStorage) {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto unfused = RecordPlan(net, xv, 2.5f);

  constexpr size_t kAlignFloats = 16;  // mirror of the planner's alignment
  auto aligned = [](size_t floats) {
    return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  };
  auto arena_planned = [](const nn::BufferDesc& d) {
    return d.kind == nn::BufferDesc::Kind::kArena ||
           d.kind == nn::BufferDesc::Kind::kAux;
  };

  // The fused plan adds aux workspaces (dual-linear) to the layout.
  for (const auto& plan : {unfused, nn::FuseGraph(*unfused)}) {
    ASSERT_EQ(plan->live.size(), plan->buffers.size());
    size_t checked_pairs = 0;
    for (size_t i = 0; i < plan->buffers.size(); ++i) {
      if (!arena_planned(plan->buffers[i]) || plan->live[i].first < 0) {
        continue;
      }
      for (size_t j = i + 1; j < plan->buffers.size(); ++j) {
        if (!arena_planned(plan->buffers[j]) || plan->live[j].first < 0) {
          continue;
        }
        bool overlap_live = plan->live[i].first <= plan->live[j].second &&
                            plan->live[j].first <= plan->live[i].second;
        if (!overlap_live) continue;
        size_t ai = plan->buffers[i].offset;
        size_t bi = ai + aligned(plan->buffers[i].size());
        size_t aj = plan->buffers[j].offset;
        size_t bj = aj + aligned(plan->buffers[j].size());
        EXPECT_TRUE(bi <= aj || bj <= ai)
            << "buffers " << i << " and " << j
            << " are live together but share arena storage: [" << ai << ","
            << bi << ") vs [" << aj << "," << bj << ")";
        ++checked_pairs;
      }
    }
    EXPECT_GT(checked_pairs, 0u);
  }

  // The copy-shaped ops (slice/concat) additionally must never read and
  // write overlapping storage within one instr.
  size_t checked_copies = 0;
  for (const nn::Instr& ins : unfused->instrs) {
    if (ins.kind != nn::OpKind::kSliceCols &&
        ins.kind != nn::OpKind::kSliceRows &&
        ins.kind != nn::OpKind::kConcatCols) {
      continue;
    }
    size_t ao = unfused->buffers[ins.out].offset;
    size_t bo = ao + aligned(unfused->buffers[ins.out].size());
    for (int32_t in : ins.in) {
      if (!arena_planned(unfused->buffers[in])) continue;
      size_t ai = unfused->buffers[in].offset;
      size_t bi = ai + aligned(unfused->buffers[in].size());
      EXPECT_TRUE(bo <= ai || bi <= ao) << "slice/concat aliases its operand";
      ++checked_copies;
    }
  }
  EXPECT_GT(checked_copies, 0u);
}

TEST(PlanTest, SteadyStateReplayAllocatesNoTensors) {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 2.5f);

  // Warmup: sizes the arena (the one allowed allocation).
  const nn::Matrix wv = Scalar(2.5f);
  nn::PlanRun run;
  BindInputs(run, xv, wv);
  nn::PlanExecutor::Forward(*plan, run);
  const size_t arena_capacity = run.arena.size();

  int64_t allocs_before = TensorAllocs();
  for (int step = 0; step < 20; ++step) {
    BindInputs(run, xv, wv);
    nn::PlanExecutor::Forward(*plan, run);
  }
  EXPECT_EQ(TensorAllocs(), allocs_before)
      << "plan replay must not build tape nodes";
  EXPECT_EQ(run.arena.size(), arena_capacity) << "arena must not regrow";

  // Sanity: the counter does move on the eager path.
  Eager(net, xv, 2.5f);
  EXPECT_GT(TensorAllocs(), allocs_before);
}

TEST(PlanTest, PlanCacheCountsHits) {
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 2.5f);

  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.nn.plan_cache_hits");
  nn::PlanCache cache;
  int64_t before = hits->Value();
  EXPECT_EQ(cache.Get(99), nullptr);
  EXPECT_EQ(hits->Value(), before);  // misses do not count
  cache.Put(99, plan);
  EXPECT_EQ(cache.Get(99), plan);
  EXPECT_EQ(hits->Value(), before + 1);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace hisrect
