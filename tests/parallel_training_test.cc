// Determinism contract of the data-parallel trainers: with a fixed shard
// count, training results are bitwise identical no matter how many threads
// the global pool actually has (the shard partition, per-sample RNG streams
// and the shard-order gradient reduction are all thread-count independent).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/heads.h"
#include "core/judge_trainer.h"
#include "core/profile_encoder.h"
#include "core/ssl_trainer.h"
#include "tests/test_common.h"
#include "util/thread_pool.h"

namespace hisrect::core {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

class ParallelTrainingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = TinyDataset();
    text_model_ = TinyTextModel(dataset_);
    ProfileEncoder encoder(&dataset_.pois, &text_model_);
    encoded_ = encoder.EncodeAll(dataset_.train.profiles);
  }

  /// Fresh modules from a fixed init seed, so every run starts bitwise
  /// identical.
  struct Modules {
    std::unique_ptr<HisRectFeaturizer> featurizer;
    std::unique_ptr<PoiClassifier> classifier;
    std::unique_ptr<Embedder> embedder;
    std::unique_ptr<JudgeHead> judge;
  };
  Modules MakeModules() {
    util::Rng rng(1);
    FeaturizerConfig config;
    config.hidden_dim = 6;
    config.feature_dim = 12;
    Modules m;
    m.featurizer = std::make_unique<HisRectFeaturizer>(
        config, dataset_.pois.size(), text_model_.embeddings.get(), rng);
    m.classifier =
        std::make_unique<PoiClassifier>(12, dataset_.pois.size(), 2, rng, 0.1f);
    m.embedder = std::make_unique<Embedder>(12, 6, 2, rng, 0.1f);
    m.judge = std::make_unique<JudgeHead>(12, 6, 2, 3, rng, 0.1f);
    return m;
  }

  static std::vector<nn::Matrix> Snapshot(const nn::Module& module) {
    std::vector<nn::Matrix> out;
    for (const nn::NamedParameter& param : module.Parameters()) {
      out.push_back(param.tensor.value());
    }
    return out;
  }

  static void ExpectSameSnapshot(const std::vector<nn::Matrix>& a,
                                 const std::vector<nn::Matrix>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i] == b[i]) << "parameter " << i << " diverged";
    }
  }

  /// Final losses and parameters of one training run.
  struct Run {
    std::vector<double> losses;
    std::vector<std::vector<nn::Matrix>> params;
  };

  Run TrainJudge(size_t threads, size_t num_shards, bool train_featurizer) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    Modules m = MakeModules();
    JudgeTrainerOptions options;
    options.steps = 40;
    options.batch_size = 8;
    options.num_shards = num_shards;
    options.train_featurizer = train_featurizer;
    JudgeTrainer trainer(m.featurizer.get(), m.judge.get(), options);
    util::Rng rng(5);
    JudgeTrainStats stats = trainer.Train(encoded_, dataset_.train, rng);
    return Run{{stats.final_loss},
               {Snapshot(*m.judge), Snapshot(*m.featurizer)}};
  }

  Run TrainSsl(size_t threads, size_t num_shards) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    Modules m = MakeModules();
    SslTrainerOptions options;
    options.steps = 40;
    options.batch_size = 8;
    options.num_shards = num_shards;
    SslTrainer trainer(m.featurizer.get(), m.classifier.get(),
                       m.embedder.get(), options);
    util::Rng rng(3);
    SslTrainStats stats =
        trainer.Train(encoded_, dataset_.train, dataset_.pois, rng);
    return Run{{stats.final_poi_loss, stats.final_unsup_loss},
               {Snapshot(*m.featurizer), Snapshot(*m.classifier),
                Snapshot(*m.embedder)}};
  }

  static void ExpectSameRun(const Run& a, const Run& b,
                            const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(a.losses, b.losses);
    ASSERT_EQ(a.params.size(), b.params.size());
    for (size_t i = 0; i < a.params.size(); ++i) {
      ExpectSameSnapshot(a.params[i], b.params[i]);
    }
  }

  void TearDown() override { util::ThreadPool::SetGlobalNumThreads(1); }

  data::Dataset dataset_;
  TextModel text_model_;
  std::vector<EncodedProfile> encoded_;
};

TEST_F(ParallelTrainingFixture, JudgeTrainerBitwiseStableAcrossThreadCounts) {
  for (bool train_featurizer : {false, true}) {
    for (size_t num_shards : {1u, 3u, 4u}) {
      const Run reference = TrainJudge(1, num_shards, train_featurizer);
      for (size_t threads : {2u, 4u}) {
        ExpectSameRun(TrainJudge(threads, num_shards, train_featurizer),
                      reference,
                      "train_featurizer=" + std::to_string(train_featurizer) +
                          " shards=" + std::to_string(num_shards) +
                          " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(ParallelTrainingFixture, SslTrainerBitwiseStableAcrossThreadCounts) {
  for (size_t num_shards : {1u, 3u, 4u}) {
    const Run reference = TrainSsl(1, num_shards);
    for (size_t threads : {2u, 4u}) {
      ExpectSameRun(TrainSsl(threads, num_shards), reference,
                    "shards=" + std::to_string(num_shards) +
                        " threads=" + std::to_string(threads));
    }
  }
}

// num_shards 0 and 1 both mean one replica: the same trajectory, bit for bit.
TEST_F(ParallelTrainingFixture, ZeroAndOneShardTrainIdentically) {
  for (size_t threads : {1u, 4u}) {
    for (bool train_featurizer : {false, true}) {
      ExpectSameRun(TrainJudge(threads, 0, train_featurizer),
                    TrainJudge(threads, 1, train_featurizer),
                    "judge train_featurizer=" +
                        std::to_string(train_featurizer) +
                        " threads=" + std::to_string(threads));
    }
    ExpectSameRun(TrainSsl(threads, 0), TrainSsl(threads, 1),
                  "ssl threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelTrainingFixture, ParallelJudgeTrainingStillLearns) {
  util::ThreadPool::SetGlobalNumThreads(2);
  Modules m = MakeModules();
  JudgeTrainerOptions options;
  options.steps = 300;
  options.batch_size = 8;
  options.num_shards = 4;
  JudgeTrainer trainer(m.featurizer.get(), m.judge.get(), options);
  util::Rng rng(5);
  JudgeTrainStats stats = trainer.Train(encoded_, dataset_.train, rng);
  // The sharded path must actually optimize, not just run: the tail loss
  // ends below the ln(2) ~ 0.693 chance level.
  EXPECT_GT(stats.final_loss, 0.0);
  EXPECT_LT(stats.final_loss, 0.69);
}

}  // namespace
}  // namespace hisrect::core
