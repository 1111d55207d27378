// The parallel contract of the SSL pipeline as an executable spec:
// BuildAffinityPairs, ProfileEncoder::EncodeAll and a short SSL training run
// must produce byte-identical outputs at 1, 2 and 4 global-pool threads.
// The two pipeline passes additionally promise invariance to their shard
// count (ascending-shard concatenation / pre-sized slots reproduce the
// serial order exactly), so those are swept too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/affinity.h"
#include "core/featurizer.h"
#include "core/heads.h"
#include "core/hisrect_model.h"
#include "core/profile_encoder.h"
#include "core/ssl_trainer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tests/test_common.h"
#include "util/atomic_file.h"
#include "util/thread_pool.h"

namespace hisrect::core {
namespace {

using hisrect::testing::ExpectBitwiseEqual;
using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = TinyDataset();
    text_model_ = TinyTextModel(dataset_);
  }

  void TearDown() override { util::ThreadPool::SetGlobalNumThreads(1); }

  data::Dataset dataset_;
  TextModel text_model_;
};

TEST_F(DeterminismTest, AffinityPairsByteIdenticalAcrossThreadsAndShards) {
  util::ThreadPool::SetGlobalNumThreads(1);
  AffinityOptions serial;
  serial.num_shards = 1;
  const std::vector<WeightedPair> reference =
      BuildAffinityPairs(dataset_.train, dataset_.pois, serial);
  // The tiny city must exercise all three entry kinds or the sweep proves
  // nothing.
  ASSERT_FALSE(reference.empty());
  bool has_unlabeled = false;
  for (const WeightedPair& pair : reference) {
    if (!pair.labeled) has_unlabeled = true;
  }
  ASSERT_TRUE(has_unlabeled);

  for (size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    for (size_t num_shards : {0u, 1u, 2u, 3u, 4u, 7u}) {
      AffinityOptions options;
      options.num_shards = num_shards;
      std::vector<WeightedPair> pairs =
          BuildAffinityPairs(dataset_.train, dataset_.pois, options);
      ExpectBitwiseEqual(pairs, reference,
                         "affinity pairs at threads=" +
                             std::to_string(threads) +
                             " shards=" + std::to_string(num_shards));
    }
  }
}

TEST_F(DeterminismTest, EncodeAllByteIdenticalAcrossThreadsAndShards) {
  util::ThreadPool::SetGlobalNumThreads(1);
  const std::vector<EncodedProfile> reference =
      ProfileEncoder(&dataset_.pois, &text_model_)
          .EncodeAll(dataset_.train.profiles, /*num_shards=*/1);
  ASSERT_FALSE(reference.empty());

  for (size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    for (size_t num_shards : {0u, 2u, 5u}) {
      // A fresh encoder per run: every result must be recomputed under the
      // sweep's thread/shard geometry, not replayed from a warm cache.
      ProfileEncoder encoder(&dataset_.pois, &text_model_);
      std::vector<EncodedProfile> encoded =
          encoder.EncodeAll(dataset_.train.profiles, num_shards);
      ExpectBitwiseEqual(encoded, reference,
                         "encoded profiles at threads=" +
                             std::to_string(threads) +
                             " shards=" + std::to_string(num_shards));
    }
  }
}

TEST_F(DeterminismTest, SslEpochByteIdenticalAcrossThreadCounts) {
  ProfileEncoder encoder(&dataset_.pois, &text_model_);
  const std::vector<EncodedProfile> encoded =
      encoder.EncodeAll(dataset_.train.profiles);

  struct Run {
    double final_poi_loss = 0.0;
    double final_unsup_loss = 0.0;
    std::vector<nn::Matrix> featurizer_params;
    std::vector<nn::Matrix> classifier_params;
    std::vector<nn::Matrix> embedder_params;
  };
  auto snapshot = [](const nn::Module& module) {
    std::vector<nn::Matrix> out;
    for (const nn::NamedParameter& param : module.Parameters()) {
      out.push_back(param.tensor.value());
    }
    return out;
  };

  std::vector<Run> runs;
  for (size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    util::Rng init_rng(1);
    FeaturizerConfig config;
    config.hidden_dim = 6;
    config.feature_dim = 12;
    HisRectFeaturizer featurizer(config, dataset_.pois.size(),
                                 text_model_.embeddings.get(), init_rng);
    PoiClassifier classifier(12, dataset_.pois.size(), 2, init_rng, 0.1f);
    Embedder embedder(12, 6, 2, init_rng, 0.1f);

    SslTrainerOptions options;
    options.steps = 30;
    options.batch_size = 8;
    options.num_shards = 4;  // Fixed: part of the math, unlike threads.
    SslTrainer trainer(&featurizer, &classifier, &embedder, options);
    util::Rng rng(3);
    SslTrainStats stats =
        trainer.Train(encoded, dataset_.train, dataset_.pois, rng);
    runs.push_back(Run{stats.final_poi_loss, stats.final_unsup_loss,
                       snapshot(featurizer), snapshot(classifier),
                       snapshot(embedder)});
  }

  for (size_t i = 1; i < runs.size(); ++i) {
    ExpectBitwiseEqual(runs[i].final_poi_loss, runs[0].final_poi_loss,
                       "final poi loss");
    ExpectBitwiseEqual(runs[i].final_unsup_loss, runs[0].final_unsup_loss,
                       "final unsup loss");
    ExpectBitwiseEqual(runs[i].featurizer_params, runs[0].featurizer_params,
                       "featurizer params");
    ExpectBitwiseEqual(runs[i].classifier_params, runs[0].classifier_params,
                       "classifier params");
    ExpectBitwiseEqual(runs[i].embedder_params, runs[0].embedder_params,
                       "embedder params");
  }
}

// Telemetry is a pure observer: spans, metric counters and per-epoch JSONL
// records read losses and parameters but draw no RNG values and reorder no
// work, so a fully instrumented run must be bitwise-identical to a dark one.
TEST_F(DeterminismTest, SslRunByteIdenticalWithTelemetryOnAndOff) {
  ProfileEncoder encoder(&dataset_.pois, &text_model_);
  const std::vector<EncodedProfile> encoded =
      encoder.EncodeAll(dataset_.train.profiles);

  struct Run {
    double final_poi_loss = 0.0;
    double final_unsup_loss = 0.0;
    std::vector<nn::Matrix> featurizer_params;
    std::vector<nn::Matrix> classifier_params;
    std::vector<nn::Matrix> embedder_params;
  };
  auto snapshot = [](const nn::Module& module) {
    std::vector<nn::Matrix> out;
    for (const nn::NamedParameter& param : module.Parameters()) {
      out.push_back(param.tensor.value());
    }
    return out;
  };
  auto train_once = [&]() {
    util::Rng init_rng(1);
    FeaturizerConfig config;
    config.hidden_dim = 6;
    config.feature_dim = 12;
    HisRectFeaturizer featurizer(config, dataset_.pois.size(),
                                 text_model_.embeddings.get(), init_rng);
    PoiClassifier classifier(12, dataset_.pois.size(), 2, init_rng, 0.1f);
    Embedder embedder(12, 6, 2, init_rng, 0.1f);

    SslTrainerOptions options;
    options.steps = 30;
    options.batch_size = 8;
    options.num_shards = 4;
    SslTrainer trainer(&featurizer, &classifier, &embedder, options);
    util::Rng rng(3);
    SslTrainStats stats =
        trainer.Train(encoded, dataset_.train, dataset_.pois, rng);
    return Run{stats.final_poi_loss, stats.final_unsup_loss,
               snapshot(featurizer), snapshot(classifier),
               snapshot(embedder)};
  };

  const Run dark = train_once();

  const std::string out_dir = ::testing::TempDir();
  obs::TraceRecorder::Start();
  obs::TelemetrySink::Open(out_dir + "determinism_telemetry.jsonl");
  const Run instrumented = train_once();
  // The instrumentation must actually have observed the run, or this test
  // compares two dark runs and proves nothing.
  EXPECT_GT(obs::TelemetrySink::EmittedRecords(), 0u);
  EXPECT_GT(obs::TraceRecorder::EventCount(), 0u);
  EXPECT_EQ(obs::TraceRecorder::DroppedEvents(), 0u);
  obs::TraceRecorder::Stop();
  ASSERT_TRUE(obs::TraceRecorder::WriteChromeTrace(
                  out_dir + "determinism_trace.json")
                  .ok());
  ASSERT_TRUE(obs::TelemetrySink::Close().ok());

  ExpectBitwiseEqual(instrumented.final_poi_loss, dark.final_poi_loss,
                     "final poi loss with telemetry on");
  ExpectBitwiseEqual(instrumented.final_unsup_loss, dark.final_unsup_loss,
                     "final unsup loss with telemetry on");
  ExpectBitwiseEqual(instrumented.featurizer_params, dark.featurizer_params,
                     "featurizer params with telemetry on");
  ExpectBitwiseEqual(instrumented.classifier_params, dark.classifier_params,
                     "classifier params with telemetry on");
  ExpectBitwiseEqual(instrumented.embedder_params, dark.embedder_params,
                     "embedder params with telemetry on");
}

// ---------------------------------------------------------------------------
// Training always runs the eager tape; HisRectModelConfig::plan selects the
// scoring path only. A full fit (both phases, 2 gradient shards) must save
// byte-identical parameters at any thread count and whatever the plan
// options, and plan / fused-plan scoring of that fit must be
// bitwise-identical to eager scoring.

HisRectModelConfig SmallFitConfig() {
  HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.embed_dim = 6;
  config.judge_embed_dim = 6;
  config.ssl.steps = 20;
  config.ssl.batch_size = 8;
  config.ssl.num_shards = 2;
  config.judge_trainer.steps = 20;
  config.judge_trainer.batch_size = 8;
  config.judge_trainer.num_shards = 2;
  return config;
}

TEST_F(DeterminismTest, FitByteIdenticalAcrossThreadsAndPlannedScoringMatches) {
  const std::string dir = ::testing::TempDir();
  const std::vector<data::Profile>& profiles = dataset_.train.profiles;
  ASSERT_GE(profiles.size(), 3u);
  auto score_pairs = [&](const HisRectModel& model) {
    std::vector<double> scores;
    for (size_t i = 0; i + 1 < std::min<size_t>(profiles.size(), 4); ++i) {
      scores.push_back(model.ScorePair(profiles[i], profiles[i + 1]));
    }
    return scores;
  };
  auto fit_and_save = [&](const HisRectModelConfig& config,
                          const std::string& name, std::string* bytes) {
    auto model = std::make_unique<HisRectModel>(config);
    model->Fit(dataset_, text_model_);
    const std::string path = dir + name;
    EXPECT_TRUE(model->Save(path).ok());
    EXPECT_TRUE(util::ReadFileToString(path, bytes).ok());
    return model;
  };

  util::ThreadPool::SetGlobalNumThreads(1);
  std::string reference_bytes;
  auto reference =
      fit_and_save(SmallFitConfig(), "fit_sweep_reference.bin",
                   &reference_bytes);
  const std::vector<double> reference_scores = score_pairs(*reference);

  for (size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    HisRectModelConfig config = SmallFitConfig();
    config.plan.enabled = true;
    config.plan.fuse = threads != 2;  // plain plans at 2 threads, else fused
    std::string bytes;
    auto planned = fit_and_save(
        config, "fit_sweep_" + std::to_string(threads) + ".bin", &bytes);
    EXPECT_EQ(bytes, reference_bytes)
        << "fit params differ from the 1-thread reference at threads="
        << threads;
    const std::vector<double> planned_scores = score_pairs(*planned);
    ASSERT_EQ(planned_scores.size(), reference_scores.size());
    for (size_t i = 0; i < planned_scores.size(); ++i) {
      ExpectBitwiseEqual(planned_scores[i], reference_scores[i],
                         "planned score " + std::to_string(i) +
                             " at threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace hisrect::core
