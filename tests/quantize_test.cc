// Int8 quantized serving path (nn/graph_optimizer.h, DESIGN.md §12).
// Quantization is deliberately NOT bitwise — these tests pin what it does
// promise instead: per-element outputs within an analytic round-off bound
// of fp32, byte-identical quantized programs regardless of thread count,
// and end-to-end served judgement quality (AUC) within 0.5% absolute of
// the fp32 model on the same pairs — with the degenerate-ROC guard making
// sure the AUC comparison is real.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hisrect_model.h"
#include "eval/metrics.h"
#include "eval/pair_evaluator.h"
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
using testing::TinyDataset;
using testing::TinyTextModel;

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng,
                        double amplitude) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-amplitude, amplitude));
  }
  return m;
}

enum class Act { kNone, kRelu, kTanh };

// Records a fused eval-mode single-layer graph out = act(x @ W + b).
std::shared_ptr<const nn::Graph> RecordFusedLinear(Tensor& w, Tensor& b,
                                                   const nn::Matrix& xv,
                                                   Act act) {
  nn::GraphRecorder recorder;
  Tensor x = Tensor::FromMatrix(xv);
  nn::RecordPlanInput(x);
  Tensor h = nn::AddBroadcastRow(nn::MatMul(x, w), b);
  if (act == Act::kRelu) h = nn::Relu(h);
  if (act == Act::kTanh) h = nn::Tanh(h);
  return nn::FuseGraph(*recorder.Finish(h));
}

void BindAndForward(const nn::Graph& graph, nn::PlanRun& run,
                    const nn::Matrix& xv) {
  run.inputs.Reset();
  run.inputs.AddDirect(xv.data());
  nn::PlanExecutor::Forward(graph, run);
}

// Calibrates the fused graph on `calib` inputs and returns the quantized
// rebuild.
std::shared_ptr<const nn::Graph> CalibrateAndQuantize(
    std::shared_ptr<const nn::Graph> fused,
    const std::vector<nn::Matrix>& calib) {
  nn::Calibrator calibrator(std::move(fused),
                            static_cast<int>(calib.size()));
  nn::PlanRun run;
  for (const nn::Matrix& xv : calib) {
    run.inputs.Reset();
    run.inputs.AddDirect(xv.data());
    calibrator.Observe(run);
  }
  EXPECT_TRUE(calibrator.Ready());
  return calibrator.Quantize();
}

// ---------------------------------------------------------------------------
// Round-trip error bound. With symmetric rounding, x = sx*qx + ex with
// |ex| <= sx/2 (inputs within the calibrated range never clamp) and
// W_tj = sw_j*qw_tj + ew with |ew| <= sw_j/2, so per output element
//   |y_fp32 - y_int8| <= sum_t (|ex||W_tj| + |sx*qx||ew|)
//                     <= k*(sx/2 * max|W_col_j| + sw_j/2 * (max|x| + sx/2)).
// ReLU and tanh are 1-Lipschitz, so the bound survives the activation.
// ---------------------------------------------------------------------------

TEST(QuantErrorBoundTest, QuantizedLinearWithinAnalyticBound) {
  for (Act act : {Act::kNone, Act::kRelu, Act::kTanh}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed * 31 + static_cast<int>(act));
      const size_t k = 3 + rng.UniformInt(static_cast<uint64_t>(10));
      const size_t m = 2 + rng.UniformInt(static_cast<uint64_t>(8));
      const size_t rows = 1 + rng.UniformInt(static_cast<uint64_t>(3));
      Tensor w = Tensor::FromMatrix(RandomMatrix(k, m, rng, 1.0), true);
      Tensor b = Tensor::FromMatrix(RandomMatrix(1, m, rng, 0.5), true);

      std::vector<nn::Matrix> calib;
      for (int s = 0; s < 4; ++s) {
        calib.push_back(RandomMatrix(rows, k, rng, 2.0));
      }
      // Evaluate on a calibration member: guaranteed inside the observed
      // range, so activation quantization never clamps.
      const nn::Matrix& xv = calib.back();

      auto fused = RecordFusedLinear(w, b, xv, act);
      auto quantized = CalibrateAndQuantize(fused, calib);
      ASSERT_EQ(quantized->quant_linears.size(), 1u);
      ASSERT_EQ(quantized->qscales.size(), m);

      nn::PlanRun fp32_run, int8_run;
      BindAndForward(*fused, fp32_run, xv);
      BindAndForward(*quantized, int8_run, xv);
      const float* fp32_out = nn::PlanExecutor::OutputData(*fused, fp32_run);
      const float* int8_out =
          nn::PlanExecutor::OutputData(*quantized, int8_run);

      const float sx = quantized->quant_linears[0].in_scale;
      float max_x = 0.0f;
      for (size_t i = 0; i < xv.size(); ++i) {
        max_x = std::max(max_x, std::fabs(xv.data()[i]));
      }
      size_t mismatched = 0;
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < m; ++j) {
          const float sw = quantized->qscales[j];
          float max_w = 0.0f;
          for (size_t t = 0; t < k; ++t) {
            max_w = std::max(max_w, std::fabs(w.value().At(t, j)));
          }
          const float bound = static_cast<float>(k) *
                                  (0.5f * sx * max_w +
                                   0.5f * sw * (max_x + 0.5f * sx)) *
                                  1.01f +
                              1e-5f;
          const float diff =
              std::fabs(fp32_out[r * m + j] - int8_out[r * m + j]);
          EXPECT_LE(diff, bound)
              << "act " << static_cast<int>(act) << " seed " << seed
              << " element (" << r << "," << j << ")";
          if (fp32_out[r * m + j] != int8_out[r * m + j]) ++mismatched;
        }
      }
      // Quantization must actually be lossy somewhere, or the bound above
      // is vacuously comparing identical paths.
      EXPECT_GT(mismatched, 0u)
          << "act " << static_cast<int>(act) << " seed " << seed;
      w.ZeroGrad();
      b.ZeroGrad();
    }
  }
}

// Dual-linear (LSTM-gate) site: one kQuantDualLinear instr carrying two
// baked weight matrices and two calibrated activation scales (x then h).
// The same analytic bound applies per operand; the dual output error is at
// most their sum, and tanh is 1-Lipschitz.
TEST(QuantErrorBoundTest, QuantizedDualLinearWithinAnalyticBound) {
  util::Rng rng(913);
  const size_t k1 = 7, k2 = 5, m = 8, rows = 2;
  Tensor w = Tensor::FromMatrix(RandomMatrix(k1, m, rng, 1.0), true);
  Tensor u = Tensor::FromMatrix(RandomMatrix(k2, m, rng, 1.0), true);
  Tensor b = Tensor::FromMatrix(RandomMatrix(1, m, rng, 0.5), true);

  auto record = [&](const nn::Matrix& xv, const nn::Matrix& hv) {
    nn::GraphRecorder recorder;
    Tensor x = Tensor::FromMatrix(xv);
    Tensor h = Tensor::FromMatrix(hv);
    nn::RecordPlanInput(x);
    nn::RecordPlanInput(h);
    Tensor pre =
        nn::AddBroadcastRow(nn::Add(nn::MatMul(x, w), nn::MatMul(h, u)), b);
    return nn::FuseGraph(*recorder.Finish(nn::Tanh(pre)));
  };

  // Distinct x / h amplitudes so the two calibrated scales must differ.
  std::vector<nn::Matrix> calib_x, calib_h;
  for (int s = 0; s < 4; ++s) {
    calib_x.push_back(RandomMatrix(rows, k1, rng, 2.0));
    calib_h.push_back(RandomMatrix(rows, k2, rng, 0.7));
  }
  auto fused = record(calib_x[0], calib_h[0]);
  size_t dual_count = 0;
  for (const nn::Instr& ins : fused->instrs) {
    if (ins.kind == nn::OpKind::kFusedDualLinear) ++dual_count;
  }
  ASSERT_EQ(dual_count, 1u);

  nn::Calibrator calibrator(fused, 4);
  nn::PlanRun calib_run;
  for (int s = 0; s < 4; ++s) {
    calib_run.inputs.Reset();
    calib_run.inputs.AddDirect(calib_x[s].data());
    calib_run.inputs.AddDirect(calib_h[s].data());
    calibrator.Observe(calib_run);
  }
  ASSERT_TRUE(calibrator.Ready());
  auto quantized = calibrator.Quantize();
  ASSERT_EQ(quantized->quant_linears.size(), 2u);
  ASSERT_EQ(quantized->qscales.size(), 2 * m);
  const float sx = quantized->quant_linears[0].in_scale;
  const float sh = quantized->quant_linears[1].in_scale;
  EXPECT_NE(sx, sh) << "x and h must calibrate independently";

  // Evaluate on a calibration member: inside the observed range, no clamp.
  const nn::Matrix& xv = calib_x.back();
  const nn::Matrix& hv = calib_h.back();
  nn::PlanRun fp32_run, int8_run;
  fp32_run.inputs.Reset();
  fp32_run.inputs.AddDirect(xv.data());
  fp32_run.inputs.AddDirect(hv.data());
  nn::PlanExecutor::Forward(*fused, fp32_run);
  int8_run.inputs.Reset();
  int8_run.inputs.AddDirect(xv.data());
  int8_run.inputs.AddDirect(hv.data());
  nn::PlanExecutor::Forward(*quantized, int8_run);
  const float* fp32_out = nn::PlanExecutor::OutputData(*fused, fp32_run);
  const float* int8_out = nn::PlanExecutor::OutputData(*quantized, int8_run);

  float max_x = 0.0f, max_h = 0.0f;
  for (size_t i = 0; i < xv.size(); ++i) {
    max_x = std::max(max_x, std::fabs(xv.data()[i]));
  }
  for (size_t i = 0; i < hv.size(); ++i) {
    max_h = std::max(max_h, std::fabs(hv.data()[i]));
  }
  size_t mismatched = 0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < m; ++j) {
      const float sw = quantized->qscales[j];
      const float su = quantized->qscales[m + j];
      float max_wj = 0.0f, max_uj = 0.0f;
      for (size_t t = 0; t < k1; ++t) {
        max_wj = std::max(max_wj, std::fabs(w.value().At(t, j)));
      }
      for (size_t t = 0; t < k2; ++t) {
        max_uj = std::max(max_uj, std::fabs(u.value().At(t, j)));
      }
      const float bound =
          (static_cast<float>(k1) *
               (0.5f * sx * max_wj + 0.5f * sw * (max_x + 0.5f * sx)) +
           static_cast<float>(k2) *
               (0.5f * sh * max_uj + 0.5f * su * (max_h + 0.5f * sh))) *
              1.01f +
          1e-5f;
      const float diff = std::fabs(fp32_out[r * m + j] - int8_out[r * m + j]);
      EXPECT_LE(diff, bound) << "element (" << r << "," << j << ")";
      if (fp32_out[r * m + j] != int8_out[r * m + j]) ++mismatched;
    }
  }
  EXPECT_GT(mismatched, 0u);
  w.ZeroGrad();
  u.ZeroGrad();
  b.ZeroGrad();
}

// ---------------------------------------------------------------------------
// Determinism: the quantized program — baked weights, scales, calibrated
// input scale — is a pure function of (graph, calibration stream). Thread
// count must not leak into it.
// ---------------------------------------------------------------------------

class QuantDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::SetGlobalNumThreads(1); }
};

TEST_F(QuantDeterminismTest, ScalesAndWeightsByteIdenticalAcrossThreads) {
  util::Rng data_rng(77);
  Tensor w = Tensor::FromMatrix(RandomMatrix(9, 6, data_rng, 1.0), true);
  Tensor b = Tensor::FromMatrix(RandomMatrix(1, 6, data_rng, 0.5), true);
  std::vector<nn::Matrix> calib;
  for (int s = 0; s < 5; ++s) {
    calib.push_back(RandomMatrix(2, 9, data_rng, 2.0));
  }

  std::shared_ptr<const nn::Graph> reference;
  for (size_t threads : {1u, 2u, 4u, 1u}) {  // Trailing 1: repeat check.
    util::ThreadPool::SetGlobalNumThreads(threads);
    auto fused = RecordFusedLinear(w, b, calib[0], Act::kRelu);
    auto quantized = CalibrateAndQuantize(fused, calib);
    if (reference == nullptr) {
      reference = quantized;
      ASSERT_FALSE(reference->qweights.empty());
      ASSERT_FALSE(reference->qscales.empty());
      continue;
    }
    ASSERT_EQ(quantized->qweights.size(), reference->qweights.size());
    EXPECT_EQ(std::memcmp(quantized->qweights.data(),
                          reference->qweights.data(),
                          reference->qweights.size()),
              0)
        << "qweights differ at threads=" << threads;
    ASSERT_EQ(quantized->qscales.size(), reference->qscales.size());
    EXPECT_EQ(std::memcmp(quantized->qscales.data(),
                          reference->qscales.data(),
                          reference->qscales.size() * sizeof(float)),
              0)
        << "qscales differ at threads=" << threads;
    ASSERT_EQ(quantized->quant_linears.size(),
              reference->quant_linears.size());
    for (size_t i = 0; i < reference->quant_linears.size(); ++i) {
      ExpectBitwiseEqual(quantized->quant_linears[i].in_scale,
                         reference->quant_linears[i].in_scale,
                         "in_scale at threads=" + std::to_string(threads));
    }
    // And the executed int8 outputs are bitwise-reproducible too.
    nn::PlanRun run_a, run_b;
    BindAndForward(*reference, run_a, calib[1]);
    BindAndForward(*quantized, run_b, calib[1]);
    const float* out_a = nn::PlanExecutor::OutputData(*reference, run_a);
    const float* out_b = nn::PlanExecutor::OutputData(*quantized, run_b);
    EXPECT_EQ(std::memcmp(out_a, out_b, 2 * 6 * sizeof(float)), 0)
        << "int8 outputs differ at threads=" << threads;
  }
  w.ZeroGrad();
  b.ZeroGrad();
}

// ---------------------------------------------------------------------------
// End-to-end: an int8 serving model loaded from an fp32 checkpoint keeps
// AUC on the held-out test pairs within 0.5% absolute of the fp32 model.
// ---------------------------------------------------------------------------

TEST(QuantEndToEndTest, Int8ServedAucWithinHalfPercentOfFp32) {
  data::Dataset dataset = TinyDataset();
  core::TextModel text_model = TinyTextModel(dataset);

  core::HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.ssl.steps = 300;
  config.ssl.batch_size = 4;
  config.judge_trainer.steps = 400;
  config.judge_trainer.batch_size = 4;

  core::HisRectModel fp32(config);
  fp32.Fit(dataset, text_model);
  const std::string path = ::testing::TempDir() + "quantize_e2e_model.bin";
  ASSERT_TRUE(fp32.Save(path).ok());

  auto scorer_for = [&](const core::HisRectModel& model) {
    return [&model](const data::Profile& a, const data::Profile& b) {
      return model.ScorePair(a, b);
    };
  };
  // The tiny city's test split has too few labeled pairs for a meaningful
  // AUC; score the train split's labeled pairs instead — this compares the
  // two numeric paths on identical inputs, not generalization.
  const data::DataSplit& split = dataset.train;
  const eval::ScoredPairs fp32_scored =
      eval::ScoreLabeledPairs(split, scorer_for(fp32));
  ASSERT_GT(fp32_scored.scores.size(), 10u);
  const eval::RocCurve fp32_roc =
      eval::ComputeRoc(fp32_scored.scores, fp32_scored.labels);
  // Degenerate-ROC guard: a one-class split would make the AUC comparison
  // meaningless; fail loudly instead of comparing NaNs.
  ASSERT_FALSE(fp32_roc.degenerate);

  core::HisRectModelConfig int8_config = config;
  int8_config.plan.enabled = true;
  int8_config.plan.quantize = true;  // Implies fuse for the scoring plans.
  int8_config.plan.calibration_samples = 4;
  core::HisRectModel int8_model(int8_config);
  int8_model.InitializeForLoad(dataset, text_model);
  ASSERT_TRUE(int8_model.Load(path).ok());

  obs::Counter* quantized_plans = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.nn.quantized_plans");
  const int64_t plans_before = quantized_plans->Value();

  // Warmup passes calibrate and quantize the pair shapes (each shape needs
  // calibration_samples observations); the final pass measures int8 steady
  // state.
  for (int pass = 0; pass < 4; ++pass) {
    (void)eval::ScoreLabeledPairs(split, scorer_for(int8_model));
  }
  const eval::ScoredPairs int8_scored =
      eval::ScoreLabeledPairs(split, scorer_for(int8_model));
  EXPECT_GT(quantized_plans->Value(), plans_before)
      << "no plan was ever quantized — the int8 path did not run";

  const eval::RocCurve int8_roc =
      eval::ComputeRoc(int8_scored.scores, int8_scored.labels);
  ASSERT_FALSE(int8_roc.degenerate);
  EXPECT_LE(std::fabs(int8_roc.auc - fp32_roc.auc), 0.005)
      << "fp32 AUC " << fp32_roc.auc << " vs int8 AUC " << int8_roc.auc;

  // Sanity that the two paths weren't secretly identical: at least one
  // served score must differ (int8 is not bitwise).
  ASSERT_EQ(int8_scored.scores.size(), fp32_scored.scores.size());
  size_t differing = 0;
  for (size_t i = 0; i < int8_scored.scores.size(); ++i) {
    if (int8_scored.scores[i] != fp32_scored.scores[i]) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

}  // namespace
}  // namespace hisrect
