// §6.4.4 micro-benchmarks (google-benchmark): per-profile feature
// construction, per-pair co-location judgement, POI inference and raw
// profile encoding. The paper claims each completes within ~1 ms, enabling
// online use.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "baselines/hisrect_approach.h"
#include "bench/bench_common.h"
#include "core/hisrect_model.h"

namespace hisrect::bench {
namespace {

/// One trained model shared by all benchmarks (training excluded from
/// timing). Also saves a checkpoint so the plan-variant benchmarks below
/// can rebuild the same weights under different PlanOptions.
struct SharedModel {
  BenchDataset data;
  core::HisRectModelConfig config;
  std::unique_ptr<baselines::HisRectApproach> approach;
  std::string checkpoint;

  SharedModel() {
    BenchEnv env = BenchEnv::FromEnv();
    env.ssl_steps = 1500;  // Quality irrelevant for latency measurements.
    env.judge_steps = 1000;
    data = MakeBenchDataset(data::NycLikeConfig({.users = 0.3}), env.seed);
    config = baselines::BaseModelConfig(env.Budget());
    approach =
        std::make_unique<baselines::HisRectApproach>("HisRect", config);
    approach->Fit(data.dataset, data.text_model);
    checkpoint = (std::filesystem::temp_directory_path() /
                  "hisrect_micro_inference_model.bin")
                     .string();
    if (!approach->model()->Save(checkpoint).ok()) {
      std::fprintf(stderr, "micro_inference: checkpoint save failed\n");
      std::exit(1);
    }
  }
};

SharedModel& Model() {
  static SharedModel* model = new SharedModel();
  return *model;
}

/// Same weights as Model(), scored through the recorded-plan path with the
/// given rewrite pass. Setup scores the labeled test pairs once so their
/// per-shape plans are recorded before timing starts.
std::unique_ptr<core::HisRectModel> MakePlanVariant(bool fuse) {
  SharedModel& shared = Model();
  core::HisRectModelConfig config = shared.config;
  config.plan.enabled = true;
  config.plan.fuse = fuse;
  auto model = std::make_unique<core::HisRectModel>(config);
  model->InitializeForLoad(shared.data.dataset, shared.data.text_model);
  if (!model->Load(shared.checkpoint).ok()) {
    std::fprintf(stderr, "micro_inference: checkpoint load failed\n");
    std::exit(1);
  }
  const core::HisRectModel* m = model.get();
  eval::PairScorer scorer = [m](const data::Profile& a,
                                const data::Profile& b) {
    return m->ScorePair(a, b);
  };
  (void)eval::ScoreLabeledPairs(shared.data.dataset.test, scorer);
  return model;
}

core::HisRectModel& PlanModel() {
  static auto* model = MakePlanVariant(false).release();
  return *model;
}

core::HisRectModel& PlanFuseModel() {
  static auto* model = MakePlanVariant(true).release();
  return *model;
}

void BM_ProfileEncode(benchmark::State& state) {
  SharedModel& shared = Model();
  const auto& profiles = shared.data.dataset.test.profiles;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shared.approach->model()->Encode(profiles[i % profiles.size()]));
    ++i;
  }
}
BENCHMARK(BM_ProfileEncode);

void BM_FeatureConstruction(benchmark::State& state) {
  SharedModel& shared = Model();
  const auto& profiles = shared.data.dataset.test.profiles;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shared.approach->model()->Feature(profiles[i % profiles.size()]));
    ++i;
  }
}
BENCHMARK(BM_FeatureConstruction);

void BM_CoLocationJudgement(benchmark::State& state) {
  SharedModel& shared = Model();
  const auto& profiles = shared.data.dataset.test.profiles;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shared.approach->Score(
        profiles[i % profiles.size()], profiles[(i + 7) % profiles.size()]));
    ++i;
  }
}
BENCHMARK(BM_CoLocationJudgement);

// Judgement through the recorded-plan executor, one benchmark per rewrite
// tier: plain recorded plan and + op fusion. Same pair stream as
// BM_CoLocationJudgement, so the three series are directly comparable; the
// variants' bitwise and zero-allocation gates live in bench_serving /
// run_benches.sh, where they share one checkpoint and interleaved timing.
void JudgementThroughModel(benchmark::State& state,
                           const core::HisRectModel& model) {
  const auto& profiles = Model().data.dataset.test.profiles;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ScorePair(
        profiles[i % profiles.size()], profiles[(i + 7) % profiles.size()]));
    ++i;
  }
}

void BM_CoLocationJudgementPlan(benchmark::State& state) {
  JudgementThroughModel(state, PlanModel());
}
BENCHMARK(BM_CoLocationJudgementPlan);

void BM_CoLocationJudgementPlanFuse(benchmark::State& state) {
  JudgementThroughModel(state, PlanFuseModel());
}
BENCHMARK(BM_CoLocationJudgementPlanFuse);

void BM_PoiInferenceTop5(benchmark::State& state) {
  SharedModel& shared = Model();
  const auto& profiles = shared.data.dataset.test.profiles;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shared.approach->InferTopKPois(profiles[i % profiles.size()], 5));
    ++i;
  }
}
BENCHMARK(BM_PoiInferenceTop5);

// Batched variant of the judgement benchmark: scores every labeled test
// pair through eval::ScoreLabeledPairs, which fans the batch out over the
// global thread pool. items/sec here is the pairs/sec throughput figure; run
// with HISRECT_NUM_THREADS=1 vs N to see the parallel-layer speedup.
void BM_BatchedPairScoring(benchmark::State& state) {
  SharedModel& shared = Model();
  const data::DataSplit& split = shared.data.dataset.test;
  eval::PairScorer scorer = ScoreOf(*shared.approach);
  size_t pairs_per_batch =
      split.positive_pairs.size() + split.negative_pairs.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::ScoreLabeledPairs(split, scorer));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() *
                                               pairs_per_batch));
}
BENCHMARK(BM_BatchedPairScoring)->Unit(benchmark::kMillisecond);

void BM_VisitFeaturizerOnly(benchmark::State& state) {
  SharedModel& shared = Model();
  core::VisitFeaturizer featurizer(&shared.data.dataset.pois);
  const auto& profiles = shared.data.dataset.test.profiles;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        featurizer.Featurize(profiles[i % profiles.size()]));
    ++i;
  }
}
BENCHMARK(BM_VisitFeaturizerOnly);

}  // namespace
}  // namespace hisrect::bench
