// End-to-end fault-tolerance tests driven by the deterministic fail-point
// registry: trainers are killed mid-run, checkpoint commits crash in the
// rename window, the newest checkpoint is bit-flipped, gradients are
// poisoned with NaN — and in every recoverable case the resumed run must
// finish bitwise-identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/heads.h"
#include "core/hisrect_model.h"
#include "core/judge_trainer.h"
#include "core/profile_encoder.h"
#include "core/ssl_trainer.h"
#include "obs/metrics.h"
#include "tests/test_common.h"
#include "util/atomic_file.h"
#include "util/checkpoint_container.h"
#include "util/fail_point.h"
#include "util/status.h"

namespace hisrect::core {
namespace {

using hisrect::testing::ExpectBitwiseEqual;
using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

std::vector<nn::Matrix> ParameterValues(
    const std::vector<nn::NamedParameter>& params) {
  std::vector<nn::Matrix> values;
  values.reserve(params.size());
  for (const nn::NamedParameter& p : params) {
    values.push_back(p.tensor.value());
  }
  return values;
}

/// One independently-initialized copy of every module a trainer touches.
/// Fresh instances are bitwise-identical (same init RNG seed), emulating a
/// new process that re-runs the same program after a crash.
struct Modules {
  explicit Modules(const data::Dataset& dataset, const TextModel& text_model) {
    util::Rng rng(1);
    FeaturizerConfig config;
    config.hidden_dim = 6;
    config.feature_dim = 12;
    featurizer = std::make_unique<HisRectFeaturizer>(
        config, dataset.pois.size(), text_model.embeddings.get(), rng);
    classifier = std::make_unique<PoiClassifier>(12, dataset.pois.size(), 2,
                                                 rng, 0.1f);
    embedder = std::make_unique<Embedder>(12, 6, 2, rng, 0.1f);
    judge = std::make_unique<JudgeHead>(12, 6, 2, 3, rng, 0.1f);
  }

  std::vector<nn::Matrix> JudgeParams() const {
    std::vector<nn::NamedParameter> params;
    judge->CollectParameters("judge", params);
    return ParameterValues(params);
  }
  std::vector<nn::Matrix> SslParams() const {
    std::vector<nn::NamedParameter> params;
    featurizer->CollectParameters("featurizer", params);
    classifier->CollectParameters("classifier", params);
    embedder->CollectParameters("embedder", params);
    return ParameterValues(params);
  }

  std::unique_ptr<HisRectFeaturizer> featurizer;
  std::unique_ptr<PoiClassifier> classifier;
  std::unique_ptr<Embedder> embedder;
  std::unique_ptr<JudgeHead> judge;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new TextModel(TinyTextModel(*dataset_));
    encoder_ = new ProfileEncoder(&dataset_->pois, text_model_);
    encoded_ = new std::vector<EncodedProfile>(
        encoder_->EncodeAll(dataset_->train.profiles));
  }
  static void TearDownTestSuite() {
    delete encoded_;
    delete encoder_;
    delete text_model_;
    delete dataset_;
    encoded_ = nullptr;
    encoder_ = nullptr;
    text_model_ = nullptr;
    dataset_ = nullptr;
  }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "fault_injection_test/" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    util::FailPoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  JudgeTrainerOptions JudgeOptions(size_t num_shards) const {
    JudgeTrainerOptions options;
    options.steps = 60;
    options.batch_size = 4;
    options.num_shards = num_shards;
    return options;
  }
  SslTrainerOptions SslOptions() const {
    SslTrainerOptions options;
    options.steps = 60;
    options.batch_size = 4;
    return options;
  }

  /// The judge-parameter values after an uninterrupted reference run.
  std::vector<nn::Matrix> JudgeReference(const JudgeTrainerOptions& options) {
    Modules modules(*dataset_, *text_model_);
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::Status status = trainer.Train(*encoded_, dataset_->train, rng,
                                        &stats);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stats.rollbacks, 0u);
    return modules.JudgeParams();
  }

  static data::Dataset* dataset_;
  static TextModel* text_model_;
  static ProfileEncoder* encoder_;
  static std::vector<EncodedProfile>* encoded_;
  std::string dir_;
};

data::Dataset* FaultInjectionTest::dataset_ = nullptr;
TextModel* FaultInjectionTest::text_model_ = nullptr;
ProfileEncoder* FaultInjectionTest::encoder_ = nullptr;
std::vector<EncodedProfile>* FaultInjectionTest::encoded_ = nullptr;

// ---------------------------------------------------------------------------
// Kill-and-resume: bitwise-identical to an uninterrupted run

void ExpectJudgeResumeBitwise(const JudgeTrainerOptions& base,
                              const std::vector<nn::Matrix>& reference,
                              const data::Dataset& dataset,
                              const TextModel& text_model,
                              const std::vector<EncodedProfile>& encoded,
                              const std::string& dir) {
  JudgeTrainerOptions options = base;
  options.checkpoint.dir = dir;
  options.checkpoint.every = 10;

  {  // "Process 1": killed after step 25 (last checkpoint: step 20).
    Modules modules(dataset, text_model);
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::FailPoint::Arm("trainer.abort", 25);
    util::Status status = trainer.Train(encoded, dataset.train, rng, &stats);
    ASSERT_EQ(status.code(), util::StatusCode::kInternal)
        << status.ToString();
  }
  util::FailPoint::DisarmAll();

  {  // "Process 2": fresh modules, resume from the directory, run to the end.
    Modules modules(dataset, text_model);
    options.checkpoint.resume = true;
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::Status status = trainer.Train(encoded, dataset.train, rng, &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectBitwiseEqual(modules.JudgeParams(), reference,
                       "judge params after resume");
  }
}

TEST_F(FaultInjectionTest, JudgeKillAndResumeBitwiseOneShard) {
  JudgeTrainerOptions options = JudgeOptions(1);
  std::vector<nn::Matrix> reference = JudgeReference(options);
  ExpectJudgeResumeBitwise(options, reference, *dataset_, *text_model_,
                           *encoded_, dir_);
}

TEST_F(FaultInjectionTest, JudgeKillAndResumeBitwiseSharded) {
  JudgeTrainerOptions options = JudgeOptions(2);
  std::vector<nn::Matrix> reference = JudgeReference(options);
  ExpectJudgeResumeBitwise(options, reference, *dataset_, *text_model_,
                           *encoded_, dir_);
}

TEST_F(FaultInjectionTest, JudgeCrashDuringCheckpointSaveThenResume) {
  JudgeTrainerOptions options = JudgeOptions(1);
  std::vector<nn::Matrix> reference = JudgeReference(options);
  options.checkpoint.dir = dir_;
  options.checkpoint.every = 10;

  {  // The 2nd checkpoint commit (step 20) dies in the rename window.
    Modules modules(*dataset_, *text_model_);
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::FailPoint::Arm("atomic_file.crash_before_rename", 2);
    util::Status status = trainer.Train(*encoded_, dataset_->train, rng,
                                        &stats);
    ASSERT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
  }
  util::FailPoint::DisarmAll();
  // The crash left a stray judge-00000020.ckpt.tmp; only step 10 committed.
  EXPECT_TRUE(
      std::filesystem::exists(CheckpointPath(dir_, "judge", 10)));
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointPath(dir_, "judge", 20)));

  {  // Resume ignores the temp file, restores step 10, finishes bitwise.
    Modules modules(*dataset_, *text_model_);
    options.checkpoint.resume = true;
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::Status status = trainer.Train(*encoded_, dataset_->train, rng,
                                        &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectBitwiseEqual(modules.JudgeParams(), reference,
                       "judge params after mid-save crash");
  }
}

TEST_F(FaultInjectionTest, JudgeResumeSkipsCorruptedNewestCheckpoint) {
  JudgeTrainerOptions options = JudgeOptions(1);
  std::vector<nn::Matrix> reference = JudgeReference(options);
  options.checkpoint.dir = dir_;
  options.checkpoint.every = 10;

  {
    Modules modules(*dataset_, *text_model_);
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::FailPoint::Arm("trainer.abort", 25);
    ASSERT_FALSE(
        trainer.Train(*encoded_, dataset_->train, rng, &stats).ok());
  }
  util::FailPoint::DisarmAll();

  // Silent media corruption: flip one bit in the newest checkpoint.
  const std::string newest = CheckpointPath(dir_, "judge", 20);
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(newest, &bytes).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  ASSERT_TRUE(util::WriteFileAtomic(newest, bytes).ok());

  {  // Resume skips step 20 (crc mismatch), restores step 10, still bitwise.
    Modules modules(*dataset_, *text_model_);
    options.checkpoint.resume = true;
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    util::Status status = trainer.Train(*encoded_, dataset_->train, rng,
                                        &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectBitwiseEqual(modules.JudgeParams(), reference,
                       "judge params after corrupted-newest fallback");
  }
}

TEST_F(FaultInjectionTest, SslKillAndResumeBitwise) {
  SslTrainerOptions options = SslOptions();
  std::vector<nn::Matrix> reference;
  {
    Modules modules(*dataset_, *text_model_);
    SslTrainer trainer(modules.featurizer.get(), modules.classifier.get(),
                       modules.embedder.get(), options);
    util::Rng rng(3);
    SslTrainStats stats;
    util::Status status = trainer.Train(*encoded_, dataset_->train,
                                        dataset_->pois, rng, &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    reference = modules.SslParams();
  }

  options.checkpoint.dir = dir_;
  options.checkpoint.every = 10;
  {
    Modules modules(*dataset_, *text_model_);
    SslTrainer trainer(modules.featurizer.get(), modules.classifier.get(),
                       modules.embedder.get(), options);
    util::Rng rng(3);
    SslTrainStats stats;
    util::FailPoint::Arm("trainer.abort", 35);
    ASSERT_FALSE(trainer
                     .Train(*encoded_, dataset_->train, dataset_->pois, rng,
                            &stats)
                     .ok());
  }
  util::FailPoint::DisarmAll();

  {
    Modules modules(*dataset_, *text_model_);
    options.checkpoint.resume = true;
    SslTrainer trainer(modules.featurizer.get(), modules.classifier.get(),
                       modules.embedder.get(), options);
    util::Rng rng(3);
    SslTrainStats stats;
    util::Status status = trainer.Train(*encoded_, dataset_->train,
                                        dataset_->pois, rng, &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stats.poi_steps + stats.pair_steps, options.steps);
    ExpectBitwiseEqual(modules.SslParams(), reference,
                       "ssl params after resume");
  }
}

// ---------------------------------------------------------------------------
// Fail-point observability

TEST_F(FaultInjectionTest, FiredFailPointIncrementsMetricCounter) {
  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.failpoint.test.metric_probe.hits");
  const uint64_t before = hits->Value();

  util::FailPoint::Arm("test.metric_probe", 2);
  // First evaluation: below the threshold, the point does not fire and the
  // counter must not move — it counts injected faults, not evaluations.
  EXPECT_FALSE(util::FailPoint::ShouldFail("test.metric_probe"));
  EXPECT_EQ(hits->Value(), before);
  // Second evaluation fires (and self-disarms): exactly one increment.
  EXPECT_TRUE(util::FailPoint::ShouldFail("test.metric_probe"));
  EXPECT_EQ(hits->Value(), before + 1);
  // Disarmed now: further evaluations neither fire nor count.
  EXPECT_FALSE(util::FailPoint::ShouldFail("test.metric_probe"));
  EXPECT_EQ(hits->Value(), before + 1);
}

// ---------------------------------------------------------------------------
// Divergence guard

TEST_F(FaultInjectionTest, NanGradientRollsBackAndRecovers) {
  JudgeTrainerOptions options = JudgeOptions(1);
  Modules modules(*dataset_, *text_model_);
  JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(), options);
  util::Rng rng(5);
  JudgeTrainStats stats;
  util::FailPoint::Arm("trainer.nan_grad", 10);
  util::Status status = trainer.Train(*encoded_, dataset_->train, rng,
                                      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
  EXPECT_GT(stats.final_loss, 0.0);
}

TEST_F(FaultInjectionTest, ExhaustedRollbackBudgetSurfacesError) {
  JudgeTrainerOptions options = JudgeOptions(1);
  options.guard.max_rollbacks = 0;
  Modules modules(*dataset_, *text_model_);
  JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(), options);
  util::Rng rng(5);
  JudgeTrainStats stats;
  util::FailPoint::Arm("trainer.nan_grad", 5);
  util::Status status = trainer.Train(*encoded_, dataset_->train, rng,
                                      &stats);
  ASSERT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("exhausted"), std::string::npos);
}

TEST_F(FaultInjectionTest, SslNanGradientRollsBackAndRecovers) {
  SslTrainerOptions options = SslOptions();
  Modules modules(*dataset_, *text_model_);
  SslTrainer trainer(modules.featurizer.get(), modules.classifier.get(),
                     modules.embedder.get(), options);
  util::Rng rng(3);
  SslTrainStats stats;
  util::FailPoint::Arm("trainer.nan_grad", 15);
  util::Status status = trainer.Train(*encoded_, dataset_->train,
                                      dataset_->pois, rng, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.poi_steps + stats.pair_steps, options.steps);
}

// ---------------------------------------------------------------------------
// Explicit SaveCheckpoint / ResumeFromCheckpoint API

TEST_F(FaultInjectionTest, ExplicitSaveAndResumeFastForwards) {
  JudgeTrainerOptions options = JudgeOptions(1);
  const std::string path = dir_ + "/manual.ckpt";
  std::vector<nn::Matrix> reference;
  double reference_loss = 0.0;
  {
    Modules modules(*dataset_, *text_model_);
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    ASSERT_TRUE(trainer.Train(*encoded_, dataset_->train, rng, &stats).ok());
    reference = modules.JudgeParams();
    reference_loss = stats.final_loss;
    util::Status status = trainer.SaveCheckpoint(path);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  // A fresh trainer restores the completed run: Train fast-forwards (the
  // restored step equals the step budget) and reports identical state.
  Modules modules(*dataset_, *text_model_);
  JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(), options);
  util::Status status = trainer.ResumeFromCheckpoint(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  util::Rng rng(5);
  JudgeTrainStats stats;
  status = trainer.Train(*encoded_, dataset_->train, rng, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectBitwiseEqual(modules.JudgeParams(), reference,
                     "judge params after explicit resume");
  ExpectBitwiseEqual(stats.final_loss, reference_loss, "restored final loss");
}

TEST_F(FaultInjectionTest, SaveCheckpointBeforeTrainFailsCleanly) {
  Modules modules(*dataset_, *text_model_);
  JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                       JudgeOptions(1));
  EXPECT_EQ(trainer.SaveCheckpoint(dir_ + "/early.ckpt").code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, ResumeFromCheckpointRejectsGarbageUpFront) {
  const std::string path = dir_ + "/garbage.ckpt";
  ASSERT_TRUE(util::WriteFileAtomic(path, "not a checkpoint").ok());
  Modules modules(*dataset_, *text_model_);
  JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                       JudgeOptions(1));
  EXPECT_FALSE(trainer.ResumeFromCheckpoint(path).ok());
  EXPECT_FALSE(
      trainer.ResumeFromCheckpoint(dir_ + "/missing.ckpt").ok());
}

// The two-phase judge featurizes only the profiles a labeled pair can draw,
// so a checkpoint whose pool names any other profile is rejected instead of
// feeding the judge a feature that was never computed.
TEST_F(FaultInjectionTest, JudgeResumeRejectsPoolEntryOutsideLabeledPairs) {
  const data::DataSplit& split = dataset_->train;
  std::vector<bool> drawable(split.profiles.size(), false);
  for (const std::vector<data::Pair>* pairs :
       {&split.positive_pairs, &split.negative_pairs}) {
    for (const data::Pair& pair : *pairs) {
      drawable[pair.i] = true;
      drawable[pair.j] = true;
    }
  }
  uint64_t outside = 0;
  while (outside < drawable.size() && drawable[outside]) ++outside;
  ASSERT_LT(outside, drawable.size()) << "every profile is in a labeled pair";

  JudgeTrainerOptions options = JudgeOptions(1);
  const std::string path = dir_ + "/tampered.ckpt";
  {
    Modules modules(*dataset_, *text_model_);
    JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(),
                         options);
    util::Rng rng(5);
    JudgeTrainStats stats;
    ASSERT_TRUE(trainer.Train(*encoded_, split, rng, &stats).ok());
    ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());
  }
  // Rewrite the first pool entry's first profile (after the u64 cursor and
  // u64 size) and re-encode with valid checksums.
  util::Result<util::CheckpointReader> reader =
      util::CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  util::CheckpointWriter writer;
  for (const std::string& name : reader.value().section_names()) {
    std::string payload(reader.value().Section(name).value());
    if (name == "pool") {
      ASSERT_GE(payload.size(), 3 * sizeof(uint64_t));
      std::memcpy(&payload[2 * sizeof(uint64_t)], &outside, sizeof(outside));
    }
    writer.AddSection(name, std::move(payload));
  }
  ASSERT_TRUE(writer.WriteFile(path).ok());

  Modules modules(*dataset_, *text_model_);
  JudgeTrainer trainer(modules.featurizer.get(), modules.judge.get(), options);
  ASSERT_TRUE(trainer.ResumeFromCheckpoint(path).ok());
  util::Rng rng(5);
  JudgeTrainStats stats;
  util::Status status = trainer.Train(*encoded_, split, rng, &stats);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Whole-pipeline resume across the SSL -> judge phase boundary

TEST_F(FaultInjectionTest, ModelCrossPhaseInterruptAndResumeBitwise) {
  HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.ssl.steps = 40;
  config.ssl.batch_size = 4;
  config.judge_trainer.steps = 30;
  config.judge_trainer.batch_size = 4;
  CheckpointOptions checkpoint;
  checkpoint.dir = dir_;
  checkpoint.every = 10;
  config.ssl.checkpoint = checkpoint;
  config.judge_trainer.checkpoint = checkpoint;

  const std::string reference_path = dir_ + "/reference.bin";
  {
    HisRectModel model(config);
    util::Status status = model.TryFit(*dataset_, *text_model_);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(model.Save(reference_path).ok());
  }

  // Wipe the checkpoints the reference run wrote so the interrupted run
  // starts from scratch in the same directory.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".ckpt") {
      std::filesystem::remove(entry.path());
    }
  }

  {  // Killed inside the judge phase: 40 SSL evaluations + 10 judge steps.
    HisRectModel model(config);
    util::FailPoint::Arm("trainer.abort", 50);
    util::Status status = model.TryFit(*dataset_, *text_model_);
    ASSERT_EQ(status.code(), util::StatusCode::kInternal)
        << status.ToString();
  }
  util::FailPoint::DisarmAll();

  {  // "New process": resume finishes both phases; the saved model bytes
     // must match the uninterrupted reference exactly.
    HisRectModelConfig resume_config = config;
    resume_config.ssl.checkpoint.resume = true;
    resume_config.judge_trainer.checkpoint.resume = true;
    HisRectModel model(resume_config);
    util::Status status = model.TryFit(*dataset_, *text_model_);
    ASSERT_TRUE(status.ok()) << status.ToString();
    const std::string resumed_path = dir_ + "/resumed.bin";
    ASSERT_TRUE(model.Save(resumed_path).ok());

    std::string reference_bytes;
    std::string resumed_bytes;
    ASSERT_TRUE(
        util::ReadFileToString(reference_path, &reference_bytes).ok());
    ASSERT_TRUE(util::ReadFileToString(resumed_path, &resumed_bytes).ok());
    EXPECT_EQ(resumed_bytes, reference_bytes)
        << "resumed model file differs from uninterrupted reference";
  }
}

}  // namespace
}  // namespace hisrect::core
