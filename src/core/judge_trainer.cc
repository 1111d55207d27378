#include "core/judge_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "core/shard_step.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/fail_point.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hisrect::core {

namespace {

/// Discriminates trainer checkpoints inside the shared HRCT2 "meta" section.
constexpr uint32_t kJudgeCheckpointKind = 1;

struct LabeledPair {
  size_t i;
  size_t j;
  float label;
};

/// One data-parallel replica of the trained modules.
struct JudgeWorker {
  std::unique_ptr<JudgeHead> judge;
  std::unique_ptr<HisRectFeaturizer> featurizer;  // Only when trained.
};

}  // namespace

JudgeTrainer::JudgeTrainer(HisRectFeaturizer* featurizer, JudgeHead* judge,
                           const JudgeTrainerOptions& options)
    : featurizer_(featurizer), judge_(judge), options_(options) {
  CHECK(featurizer_ != nullptr);
  CHECK(judge_ != nullptr);
  CHECK_GT(options_.batch_size, 0u);
}

JudgeTrainStats JudgeTrainer::Train(const std::vector<EncodedProfile>& encoded,
                                    const data::DataSplit& split,
                                    util::Rng& rng) {
  JudgeTrainStats stats;
  util::Status status = Train(encoded, split, rng, &stats);
  CHECK(status.ok()) << status.ToString();
  return stats;
}

util::Status JudgeTrainer::Train(const std::vector<EncodedProfile>& encoded,
                                 const data::DataSplit& split, util::Rng& rng,
                                 JudgeTrainStats* stats) {
  HISRECT_TRACE_SPAN("judge.train");
  CHECK_EQ(encoded.size(), split.profiles.size());
  CHECK(!split.positive_pairs.empty() || !split.negative_pairs.empty())
      << "judge training requires labeled pairs";
  *stats = JudgeTrainStats{};

  std::vector<nn::NamedParameter> params;
  judge_->CollectParameters("judge", params);
  if (options_.train_featurizer) {
    featurizer_->CollectParameters("featurizer", params);
  }
  nn::Adam optimizer(params, options_.adam);

  // Profiles a batch can draw: both ends of every labeled pair.
  std::vector<bool> drawable(encoded.size(), false);
  for (const std::vector<data::Pair>* pairs :
       {&split.positive_pairs, &split.negative_pairs}) {
    for (const data::Pair& pair : *pairs) {
      drawable[pair.i] = true;
      drawable[pair.j] = true;
    }
  }

  // Per-epoch pool: all positives + subsampled negatives.
  std::vector<LabeledPair> pool;
  size_t cursor = 0;
  auto refill_pool = [&] {
    pool.clear();
    for (const data::Pair& pair : split.positive_pairs) {
      pool.push_back(LabeledPair{pair.i, pair.j, 1.0f});
    }
    if (!split.negative_pairs.empty()) {
      size_t keep = static_cast<size_t>(
          static_cast<double>(split.negative_pairs.size()) *
          options_.negative_keep_fraction);
      keep = std::max<size_t>(keep, 1);
      for (size_t index :
           rng.SampleIndices(split.negative_pairs.size(), keep)) {
        const data::Pair& pair = split.negative_pairs[index];
        pool.push_back(LabeledPair{pair.i, pair.j, 0.0f});
      }
    }
    rng.Shuffle(pool);
    cursor = 0;
  };
  refill_pool();
  CHECK(!pool.empty());
  auto next_pair = [&]() -> LabeledPair {
    if (cursor >= pool.size()) refill_pool();
    return pool[cursor++];
  };

  const size_t num_shards =
      std::min(std::max<size_t>(options_.num_shards, 1), options_.batch_size);
  const size_t batch_size = options_.batch_size;
  const float inv_batch = 1.0f / static_cast<float>(batch_size);

  // Run-state counters; everything a checkpoint captures lives in `params`,
  // `optimizer`, `rng`, `pool`/`cursor`, and these.
  size_t step = 0;
  size_t tail_begin = options_.steps - options_.steps / 10;
  double tail_loss = 0.0;
  uint64_t tail_count = 0;
  auto record = [&](size_t at_step, double loss_value) {
    if (at_step >= tail_begin) {
      tail_loss += loss_value;
      ++tail_count;
    }
  };

  // The full run state as an HRCT2 container. Restoring it and continuing
  // replays the exact uninterrupted trajectory: all stochastic decisions
  // consume `rng` on this thread in a fixed order, and the pool section
  // carries the in-flight epoch.
  auto encode_state = [&]() -> std::string {
    util::CheckpointWriter writer;
    std::string meta;
    util::AppendPod<uint32_t>(meta, kJudgeCheckpointKind);
    util::AppendPod<uint8_t>(meta, options_.train_featurizer ? 1 : 0);
    util::AppendPod<uint64_t>(meta, step);
    util::AppendPod<uint64_t>(meta, options_.steps);
    util::AppendPod<uint64_t>(meta, num_shards);
    util::AppendPod<uint64_t>(meta, batch_size);
    util::AppendPod<double>(meta, tail_loss);
    util::AppendPod<uint64_t>(meta, tail_count);
    writer.AddSection("meta", std::move(meta));
    writer.AddSection(nn::kParamsSection, nn::EncodeParameters(params));
    std::string adam;
    optimizer.ExportState(&adam);
    writer.AddSection("adam", std::move(adam));
    std::string rng_state;
    rng.SerializeState(&rng_state);
    writer.AddSection("rng", std::move(rng_state));
    std::string pool_state;
    util::AppendPod<uint64_t>(pool_state, cursor);
    util::AppendPod<uint64_t>(pool_state, pool.size());
    for (const LabeledPair& pair : pool) {
      util::AppendPod<uint64_t>(pool_state, pair.i);
      util::AppendPod<uint64_t>(pool_state, pair.j);
      util::AppendPod<float>(pool_state, pair.label);
    }
    writer.AddSection("pool", std::move(pool_state));
    return writer.Encode();
  };

  auto decode_state =
      [&](const util::CheckpointReader& reader) -> util::Status {
    const std::string& source = reader.source();
    util::Result<std::string_view> meta = reader.Section("meta");
    if (!meta.ok()) return meta.status();
    util::ByteReader mr(meta.value());
    uint32_t kind = 0;
    uint8_t train_featurizer = 0;
    uint64_t saved_step = 0, saved_steps = 0, saved_shards = 0,
             saved_batch = 0, saved_tail_count = 0;
    double saved_tail_loss = 0.0;
    if (!mr.ReadPod(&kind) || !mr.ReadPod(&train_featurizer) ||
        !mr.ReadPod(&saved_step) || !mr.ReadPod(&saved_steps) ||
        !mr.ReadPod(&saved_shards) || !mr.ReadPod(&saved_batch) ||
        !mr.ReadPod(&saved_tail_loss) || !mr.ReadPod(&saved_tail_count)) {
      return util::Status::IoError(source + ": truncated meta section at offset " +
                                   std::to_string(mr.offset()));
    }
    if (!mr.AtEnd()) {
      return util::Status::IoError(source + ": " +
                                   std::to_string(mr.remaining()) +
                                   " trailing bytes in meta section");
    }
    if (kind != kJudgeCheckpointKind) {
      return util::Status::InvalidArgument(
          source + ": not a judge-trainer checkpoint (kind " +
          std::to_string(kind) + ")");
    }
    if (train_featurizer != (options_.train_featurizer ? 1 : 0) ||
        saved_steps != options_.steps || saved_shards != num_shards ||
        saved_batch != batch_size || saved_step > options_.steps) {
      return util::Status::InvalidArgument(
          source + ": checkpoint from an incompatible run (step " +
          std::to_string(saved_step) + "/" + std::to_string(saved_steps) +
          ", shards " + std::to_string(saved_shards) + ", batch " +
          std::to_string(saved_batch) + ", train_featurizer " +
          std::to_string(train_featurizer) + ")");
    }
    util::Result<std::string_view> params_section =
        reader.Section(nn::kParamsSection);
    if (!params_section.ok()) return params_section.status();
    util::Status status =
        nn::DecodeParameters(params, params_section.value(), source);
    if (!status.ok()) return status;
    util::Result<std::string_view> adam_section = reader.Section("adam");
    if (!adam_section.ok()) return adam_section.status();
    status = optimizer.RestoreState(adam_section.value());
    if (!status.ok()) {
      return util::Status(status.code(), source + ": " + status.message());
    }
    util::Result<std::string_view> rng_section = reader.Section("rng");
    if (!rng_section.ok()) return rng_section.status();
    if (!rng.DeserializeState(rng_section.value())) {
      return util::Status::IoError(source + ": malformed rng section");
    }
    util::Result<std::string_view> pool_section = reader.Section("pool");
    if (!pool_section.ok()) return pool_section.status();
    util::ByteReader pr(pool_section.value());
    uint64_t saved_cursor = 0, pool_size = 0;
    if (!pr.ReadPod(&saved_cursor) || !pr.ReadPod(&pool_size)) {
      return util::Status::IoError(source + ": truncated pool section header");
    }
    std::vector<LabeledPair> saved_pool;
    saved_pool.reserve(std::min<uint64_t>(pool_size, pr.remaining()));
    for (uint64_t i = 0; i < pool_size; ++i) {
      uint64_t pi = 0, pj = 0;
      float label = 0.0f;
      if (!pr.ReadPod(&pi) || !pr.ReadPod(&pj) || !pr.ReadPod(&label)) {
        return util::Status::IoError(source + ": truncated pool entry " +
                                     std::to_string(i) + " at offset " +
                                     std::to_string(pr.offset()));
      }
      if (pi >= encoded.size() || pj >= encoded.size() || !drawable[pi] ||
          !drawable[pj]) {
        return util::Status::InvalidArgument(
            source + ": pool entry " + std::to_string(i) +
            " references a profile outside the labeled pairs");
      }
      saved_pool.push_back(LabeledPair{static_cast<size_t>(pi),
                                       static_cast<size_t>(pj), label});
    }
    if (!pr.AtEnd()) {
      return util::Status::IoError(source + ": " +
                                   std::to_string(pr.remaining()) +
                                   " trailing bytes in pool section");
    }
    if (saved_cursor > saved_pool.size()) {
      return util::Status::InvalidArgument(source +
                                           ": pool cursor out of range");
    }
    // All sections validated; commit.
    pool = std::move(saved_pool);
    cursor = static_cast<size_t>(saved_cursor);
    step = static_cast<size_t>(saved_step);
    tail_loss = saved_tail_loss;
    tail_count = saved_tail_count;
    optimizer.ZeroGrad();
    return util::Status::Ok();
  };

  TrainerCheckpointer checkpointer("judge", options_.checkpoint,
                                   options_.guard, encode_state, decode_state);

  // Whatever way this run exits, keep its state for SaveCheckpoint.
  struct ExitCapture {
    std::function<void()> fn;
    ~ExitCapture() { fn(); }
  } exit_capture{[&] { last_run_state_ = encode_state(); }};

  const std::string explicit_resume =
      std::exchange(pending_resume_path_, std::string());
  bool resumed = false;
  util::Status status = checkpointer.Start(explicit_resume, &resumed);
  if (!status.ok()) return status;

  // ---- Data-parallel machinery ----
  std::vector<nn::Matrix> feature_cache;
  std::vector<JudgeWorker> workers(num_shards);
  std::vector<std::vector<nn::NamedParameter>> replica_params(num_shards);
  std::vector<LabeledPair> batch(batch_size);
  std::vector<util::Rng> sample_rngs;
  // Two-phase training keeps Theta_F fixed, so every drawable profile's
  // feature is step-invariant: compute each one once up front (in parallel,
  // eval mode) and feed the judge detached constants. No backward pass ever
  // reaches the featurizer.
  if (!options_.train_featurizer) {
    std::vector<size_t> cached;
    for (size_t i = 0; i < encoded.size(); ++i) {
      if (drawable[i]) cached.push_back(i);
    }
    feature_cache.resize(encoded.size());
    util::ThreadPool& thread_pool = util::ThreadPool::Global();
    util::ParallelFor(thread_pool, cached.size(), thread_pool.num_threads(),
                      [&](size_t, size_t begin, size_t end) {
                        for (size_t c = begin; c < end; ++c) {
                          feature_cache[cached[c]] =
                              featurizer_->Featurize(encoded[cached[c]])
                                  .value();
                        }
                      });
  }
  for (size_t shard = 0; shard < num_shards; ++shard) {
    JudgeWorker& worker = workers[shard];
    worker.judge = judge_->Clone();
    worker.judge->CollectParameters("judge", replica_params[shard]);
    if (options_.train_featurizer) {
      worker.featurizer = featurizer_->Clone();
      worker.featurizer->CollectParameters("featurizer",
                                           replica_params[shard]);
    }
  }
  optimizer.ZeroGrad();

  // Telemetry: decile "epoch" windows over the step budget. Pure observers —
  // reads of losses/params only, no RNG draws — so the trained trajectory is
  // bitwise-identical with telemetry on or off (tests/determinism_test.cc).
  static obs::Histogram* step_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "hisrect.train.judge_step_seconds", obs::TimeHistogramBoundaries());
  const size_t telemetry_every = std::max<size_t>(1, options_.steps / 10);
  double window_loss = 0.0;
  size_t window_steps = 0;
  util::Stopwatch window_watch;

  while (step < options_.steps) {
    HISRECT_TRACE_SPAN("judge.step");
    obs::ScopedTimer step_timer(step_seconds);
    // All stochastic decisions happen on the coordinating thread, in sample
    // order: pool draws and one forked RNG stream per sample. Workers never
    // touch the trainer RNG, so the trajectory is a function of
    // (seed, num_shards) only.
    sample_rngs.clear();
    for (size_t b = 0; b < batch_size; ++b) {
      batch[b] = next_pair();
      sample_rngs.push_back(rng.Fork());
    }
    for (JudgeWorker& worker : workers) {
      nn::CopyParameterValues(*judge_, *worker.judge);
      if (worker.featurizer != nullptr) {
        nn::CopyParameterValues(*featurizer_, *worker.featurizer);
      }
    }
    const double loss_value = RunShardStep(
        params, replica_params, batch_size, inv_batch,
        [&](size_t shard, size_t b) {
          const JudgeWorker& worker = workers[shard];
          const LabeledPair& pair = batch[b];
          util::Rng& sample_rng = sample_rngs[b];
          nn::Tensor fi, fj;
          if (worker.featurizer != nullptr) {
            fi = worker.featurizer->Featurize(encoded[pair.i], sample_rng,
                                              true);
            fj = worker.featurizer->Featurize(encoded[pair.j], sample_rng,
                                              true);
          } else {
            fi = nn::Tensor::FromMatrix(feature_cache[pair.i]);
            fj = nn::Tensor::FromMatrix(feature_cache[pair.j]);
          }
          nn::Tensor logit =
              worker.judge->CoLocationLogit(fi, fj, sample_rng, true);
          return nn::SigmoidBinaryCrossEntropy(logit, pair.label);
        });

    if (util::FailPoint::ShouldFail("trainer.nan_grad")) {
      params.front().tensor.mutable_grad().data()[0] =
          std::numeric_limits<float>::quiet_NaN();
    }
    if (options_.guard.enabled &&
        (!std::isfinite(loss_value) ||
         !std::isfinite(GradNormSquared(params)))) {
      float lr_scale = 1.0f;
      status = checkpointer.Rollback(
          "non-finite loss or gradient at judge step " + std::to_string(step),
          &lr_scale);
      if (!status.ok()) return status;
      stats->rollbacks = checkpointer.rollbacks();
      optimizer.ScaleLearningRate(lr_scale);
      optimizer.ZeroGrad();
      continue;
    }

    const bool emit_telemetry =
        obs::TelemetrySink::enabled() &&
        ((step + 1) % telemetry_every == 0 || step + 1 == options_.steps);
    // Adam::Step() zeroes gradients, so read the norm before stepping;
    // skipped entirely when the sink is closed.
    const double telemetry_grad_norm =
        emit_telemetry ? std::sqrt(GradNormSquared(params)) : 0.0;
    optimizer.Step();
    record(step, loss_value);
    ++step;
    window_loss += loss_value;
    ++window_steps;
    if (emit_telemetry) {
      const double window_seconds =
          std::max(window_watch.ElapsedSeconds(), 1e-9);
      obs::TelemetrySink::Emit(
          obs::TelemetryRecord("epoch")
              .Set("phase", "judge")
              .Set("epoch", static_cast<uint64_t>(
                                (step + telemetry_every - 1) / telemetry_every))
              .Set("step", static_cast<uint64_t>(step))
              .Set("steps_total", static_cast<uint64_t>(options_.steps))
              .Set("loss", window_loss / static_cast<double>(window_steps))
              .Set("grad_norm", telemetry_grad_norm)
              .Set("lr",
                   static_cast<double>(optimizer.current_learning_rate()))
              .Set("rollbacks",
                   static_cast<uint64_t>(checkpointer.rollbacks()))
              .Set("pairs", static_cast<uint64_t>(window_steps * batch_size))
              .Set("pairs_per_sec",
                   static_cast<double>(window_steps * batch_size) /
                       window_seconds)
              .Set("window_seconds", window_seconds));
      window_loss = 0.0;
      window_steps = 0;
      window_watch.Restart();
    }
    status = checkpointer.AfterStep(step, loss_value);
    if (!status.ok()) return status;
    if (util::FailPoint::ShouldFail("trainer.abort")) {
      return util::Status::Internal(
          "injected failure: trainer.abort after judge step " +
          std::to_string(step));
    }
  }

  status = checkpointer.Finish(
      step, tail_count > 0 ? tail_loss / static_cast<double>(tail_count)
                           : 0.0);
  if (!status.ok()) return status;

  stats->final_loss =
      tail_count > 0 ? tail_loss / static_cast<double>(tail_count) : 0.0;
  return util::Status::Ok();
}

util::Status JudgeTrainer::SaveCheckpoint(const std::string& path) const {
  if (last_run_state_.empty()) {
    return util::Status::FailedPrecondition(
        "no judge training run to checkpoint; call Train first");
  }
  return util::WriteFileAtomic(path, last_run_state_);
}

util::Status JudgeTrainer::ResumeFromCheckpoint(const std::string& path) {
  util::Result<util::CheckpointReader> reader =
      util::CheckpointReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  pending_resume_path_ = path;
  return util::Status::Ok();
}

}  // namespace hisrect::core
