#include "core/ssl_trainer.h"

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

namespace hisrect::core {

namespace {

/// Discriminates trainer checkpoints inside the shared HRCT2 "meta" section.
constexpr uint32_t kSslCheckpointKind = 2;

/// One data-parallel replica of the trained modules.
struct SslWorker {
  std::unique_ptr<HisRectFeaturizer> featurizer;
  std::unique_ptr<PoiClassifier> classifier;
  std::unique_ptr<Embedder> embedder;  // Only when use_embedding.
};

}  // namespace

SslTrainer::SslTrainer(HisRectFeaturizer* featurizer,
                       PoiClassifier* classifier, Embedder* embedder,
                       const SslTrainerOptions& options)
    : featurizer_(featurizer),
      classifier_(classifier),
      embedder_(embedder),
      options_(options) {
  CHECK(featurizer_ != nullptr);
  CHECK(classifier_ != nullptr);
  CHECK(!options_.use_embedding || embedder_ != nullptr)
      << "use_embedding requires an embedder";
  CHECK_GT(options_.batch_size, 0u);
}

SslTrainStats SslTrainer::Train(const std::vector<EncodedProfile>& encoded,
                                const data::DataSplit& split,
                                const geo::PoiSet& pois, util::Rng& rng) {
  SslTrainStats stats;
  util::Status status = Train(encoded, split, pois, rng, &stats);
  CHECK(status.ok()) << status.ToString();
  return stats;
}

util::Status SslTrainer::Train(const std::vector<EncodedProfile>& encoded,
                               const data::DataSplit& split,
                               const geo::PoiSet& pois, util::Rng& rng,
                               SslTrainStats* stats) {
  HISRECT_TRACE_SPAN("ssl.train");
  CHECK_EQ(encoded.size(), split.profiles.size());
  *stats = SslTrainStats{};

  // Affinity entries (positives / negatives / unlabeled-with-weight). The
  // build itself is sharded over the global pool; its output is invariant to
  // options_.affinity.num_shards and the thread count, so it sits outside
  // the trainer's (seed, num_shards) determinism surface.
  std::vector<WeightedPair> positives;
  std::vector<WeightedPair> negatives;
  std::vector<WeightedPair> unlabeled;
  for (const WeightedPair& pair :
       BuildAffinityPairs(split, pois, options_.affinity)) {
    if (pair.labeled && pair.weight > 0.0f) {
      positives.push_back(pair);
    } else if (pair.labeled) {
      negatives.push_back(pair);
    } else if (options_.use_unlabeled_pairs) {
      unlabeled.push_back(pair);
    }
  }

  // Optimizers: one for (F, P) on L_poi, one for (F, E) on L_u.
  std::vector<nn::NamedParameter> poi_params;
  featurizer_->CollectParameters("featurizer", poi_params);
  classifier_->CollectParameters("classifier", poi_params);
  nn::Adam poi_optimizer(poi_params, options_.adam);

  std::vector<nn::NamedParameter> unsup_params;
  featurizer_->CollectParameters("featurizer", unsup_params);
  if (options_.use_embedding) {
    embedder_->CollectParameters("embedder", unsup_params);
  }
  nn::Adam unsup_optimizer(unsup_params, options_.adam);

  // Checkpointed parameter set: the union of both optimizer lists with the
  // shared featurizer included once.
  std::vector<nn::NamedParameter> ckpt_params;
  featurizer_->CollectParameters("featurizer", ckpt_params);
  classifier_->CollectParameters("classifier", ckpt_params);
  if (options_.use_embedding) {
    embedder_->CollectParameters("embedder", ckpt_params);
  }

  const std::vector<size_t>& labeled = split.labeled_indices;
  CHECK(!labeled.empty()) << "SSL training requires labeled profiles";

  // Per-epoch pair pool: all positives + a pair_keep_fraction sample of
  // negatives and unlabeled (paper §6.1.2).
  std::vector<WeightedPair> pool;
  size_t pool_cursor = 0;
  auto refill_pool = [&] {
    pool.clear();
    pool.insert(pool.end(), positives.begin(), positives.end());
    auto sample_from = [&](const std::vector<WeightedPair>& source) {
      if (source.empty()) return;
      size_t keep = static_cast<size_t>(
          static_cast<double>(source.size()) * options_.pair_keep_fraction);
      keep = std::max<size_t>(keep, std::min<size_t>(source.size(), 1));
      for (size_t index : rng.SampleIndices(source.size(), keep)) {
        pool.push_back(source[index]);
      }
    };
    sample_from(negatives);
    sample_from(unlabeled);
    rng.Shuffle(pool);
    pool_cursor = 0;
  };
  refill_pool();
  auto next_pair = [&]() -> WeightedPair {
    if (pool_cursor >= pool.size()) refill_pool();
    return pool[pool_cursor++];
  };

  // Mixing ratio gamma_poi = |R_L| / (|R_L| + |Gamma_L u Gamma_U|)
  // (Algorithm 1, line 2), computed over the per-epoch pool (the sets the
  // batches are actually drawn from after the 1/10 subsampling), floored so
  // the POI classifier still receives enough supervised steps at small
  // scale.
  double gamma_poi =
      static_cast<double>(labeled.size()) /
      std::max(1.0,
               static_cast<double>(labeled.size()) +
                   static_cast<double>(pool.size()));
  gamma_poi = std::max(gamma_poi, options_.min_poi_step_fraction);
  // Degenerate guard: with no pairs at all, always take POI steps.
  if (pool.empty()) gamma_poi = 1.0;

  // Run-state counters; everything a checkpoint captures lives in
  // `ckpt_params`, the two optimizers, `rng`, `pool`/`pool_cursor`, and
  // these (plus poi_steps/pair_steps inside *stats).
  size_t step = 0;
  size_t tail_begin = options_.steps - options_.steps / 10;
  double tail_poi_loss = 0.0;
  uint64_t tail_poi_count = 0;
  double tail_unsup_loss = 0.0;
  uint64_t tail_unsup_count = 0;
  auto record_poi = [&](size_t at_step, double loss_value) {
    ++stats->poi_steps;
    if (at_step >= tail_begin) {
      tail_poi_loss += loss_value;
      ++tail_poi_count;
    }
  };
  auto record_unsup = [&](size_t at_step, double loss_value) {
    ++stats->pair_steps;
    if (at_step >= tail_begin) {
      tail_unsup_loss += loss_value;
      ++tail_unsup_count;
    }
  };

  const size_t batch_size = options_.batch_size;
  const float inv_batch = 1.0f / static_cast<float>(batch_size);
  const size_t num_shards =
      std::min(std::max<size_t>(options_.num_shards, 1), batch_size);

  // The full run state as an HRCT2 container (see JudgeTrainer for the
  // replay contract; the SSL run additionally carries both optimizers and
  // the mixing ratio).
  auto encode_state = [&]() -> std::string {
    util::CheckpointWriter writer;
    std::string meta;
    util::AppendPod<uint32_t>(meta, kSslCheckpointKind);
    util::AppendPod<uint8_t>(meta, options_.use_embedding ? 1 : 0);
    util::AppendPod<uint64_t>(meta, step);
    util::AppendPod<uint64_t>(meta, options_.steps);
    util::AppendPod<uint64_t>(meta, num_shards);
    util::AppendPod<uint64_t>(meta, batch_size);
    util::AppendPod<uint64_t>(meta, stats->poi_steps);
    util::AppendPod<uint64_t>(meta, stats->pair_steps);
    util::AppendPod<double>(meta, tail_poi_loss);
    util::AppendPod<uint64_t>(meta, tail_poi_count);
    util::AppendPod<double>(meta, tail_unsup_loss);
    util::AppendPod<uint64_t>(meta, tail_unsup_count);
    util::AppendPod<double>(meta, gamma_poi);
    writer.AddSection("meta", std::move(meta));
    writer.AddSection(nn::kParamsSection, nn::EncodeParameters(ckpt_params));
    std::string adam_poi;
    poi_optimizer.ExportState(&adam_poi);
    writer.AddSection("adam_poi", std::move(adam_poi));
    std::string adam_unsup;
    unsup_optimizer.ExportState(&adam_unsup);
    writer.AddSection("adam_unsup", std::move(adam_unsup));
    std::string rng_state;
    rng.SerializeState(&rng_state);
    writer.AddSection("rng", std::move(rng_state));
    std::string pool_state;
    util::AppendPod<uint64_t>(pool_state, pool_cursor);
    util::AppendPod<uint64_t>(pool_state, pool.size());
    for (const WeightedPair& pair : pool) {
      util::AppendPod<uint64_t>(pool_state, pair.i);
      util::AppendPod<uint64_t>(pool_state, pair.j);
      util::AppendPod<float>(pool_state, pair.weight);
      util::AppendPod<uint8_t>(pool_state, pair.labeled ? 1 : 0);
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
    uint8_t use_embedding = 0;
    uint64_t saved_step = 0, saved_steps = 0, saved_shards = 0,
             saved_batch = 0, saved_poi_steps = 0, saved_pair_steps = 0,
             saved_tail_poi_count = 0, saved_tail_unsup_count = 0;
    double saved_tail_poi_loss = 0.0, saved_tail_unsup_loss = 0.0,
           saved_gamma = 0.0;
    if (!mr.ReadPod(&kind) || !mr.ReadPod(&use_embedding) ||
        !mr.ReadPod(&saved_step) || !mr.ReadPod(&saved_steps) ||
        !mr.ReadPod(&saved_shards) || !mr.ReadPod(&saved_batch) ||
        !mr.ReadPod(&saved_poi_steps) || !mr.ReadPod(&saved_pair_steps) ||
        !mr.ReadPod(&saved_tail_poi_loss) ||
        !mr.ReadPod(&saved_tail_poi_count) ||
        !mr.ReadPod(&saved_tail_unsup_loss) ||
        !mr.ReadPod(&saved_tail_unsup_count) || !mr.ReadPod(&saved_gamma)) {
      return util::Status::IoError(source +
                                   ": truncated meta section at offset " +
                                   std::to_string(mr.offset()));
    }
    if (!mr.AtEnd()) {
      return util::Status::IoError(source + ": " +
                                   std::to_string(mr.remaining()) +
                                   " trailing bytes in meta section");
    }
    if (kind != kSslCheckpointKind) {
      return util::Status::InvalidArgument(
          source + ": not an ssl-trainer checkpoint (kind " +
          std::to_string(kind) + ")");
    }
    if (use_embedding != (options_.use_embedding ? 1 : 0) ||
        saved_steps != options_.steps || saved_shards != num_shards ||
        saved_batch != batch_size || saved_step > options_.steps) {
      return util::Status::InvalidArgument(
          source + ": checkpoint from an incompatible run (step " +
          std::to_string(saved_step) + "/" + std::to_string(saved_steps) +
          ", shards " + std::to_string(saved_shards) + ", batch " +
          std::to_string(saved_batch) + ", use_embedding " +
          std::to_string(use_embedding) + ")");
    }
    util::Result<std::string_view> params_section =
        reader.Section(nn::kParamsSection);
    if (!params_section.ok()) return params_section.status();
    util::Status status =
        nn::DecodeParameters(ckpt_params, params_section.value(), source);
    if (!status.ok()) return status;
    util::Result<std::string_view> poi_section = reader.Section("adam_poi");
    if (!poi_section.ok()) return poi_section.status();
    status = poi_optimizer.RestoreState(poi_section.value());
    if (!status.ok()) {
      return util::Status(status.code(), source + ": " + status.message());
    }
    util::Result<std::string_view> unsup_section =
        reader.Section("adam_unsup");
    if (!unsup_section.ok()) return unsup_section.status();
    status = unsup_optimizer.RestoreState(unsup_section.value());
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
    std::vector<WeightedPair> saved_pool;
    saved_pool.reserve(std::min<uint64_t>(pool_size, pr.remaining()));
    for (uint64_t i = 0; i < pool_size; ++i) {
      uint64_t pi = 0, pj = 0;
      float weight = 0.0f;
      uint8_t pair_labeled = 0;
      if (!pr.ReadPod(&pi) || !pr.ReadPod(&pj) || !pr.ReadPod(&weight) ||
          !pr.ReadPod(&pair_labeled)) {
        return util::Status::IoError(source + ": truncated pool entry " +
                                     std::to_string(i) + " at offset " +
                                     std::to_string(pr.offset()));
      }
      if (pi >= encoded.size() || pj >= encoded.size()) {
        return util::Status::InvalidArgument(
            source + ": pool entry " + std::to_string(i) +
            " references profile out of range");
      }
      WeightedPair pair;
      pair.i = static_cast<size_t>(pi);
      pair.j = static_cast<size_t>(pj);
      pair.weight = weight;
      pair.labeled = pair_labeled != 0;
      saved_pool.push_back(pair);
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
    pool_cursor = static_cast<size_t>(saved_cursor);
    step = static_cast<size_t>(saved_step);
    stats->poi_steps = static_cast<size_t>(saved_poi_steps);
    stats->pair_steps = static_cast<size_t>(saved_pair_steps);
    tail_poi_loss = saved_tail_poi_loss;
    tail_poi_count = saved_tail_poi_count;
    tail_unsup_loss = saved_tail_unsup_loss;
    tail_unsup_count = saved_tail_unsup_count;
    gamma_poi = saved_gamma;
    poi_optimizer.ZeroGrad();
    unsup_optimizer.ZeroGrad();
    return util::Status::Ok();
  };

  TrainerCheckpointer checkpointer("ssl", options_.checkpoint, options_.guard,
                                   encode_state, decode_state);

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
  // Replica parameter lists mirror the two shared optimizer lists (same
  // names, same order).
  std::vector<SslWorker> workers(num_shards);
  std::vector<std::vector<nn::NamedParameter>> replica_poi_params(num_shards);
  std::vector<std::vector<nn::NamedParameter>> replica_unsup_params(
      num_shards);
  std::vector<size_t> poi_batch(batch_size);
  std::vector<WeightedPair> pair_batch(batch_size);
  std::vector<util::Rng> sample_rngs;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    SslWorker& worker = workers[shard];
    worker.featurizer = featurizer_->Clone();
    worker.classifier = classifier_->Clone();
    worker.featurizer->CollectParameters("featurizer",
                                         replica_poi_params[shard]);
    worker.classifier->CollectParameters("classifier",
                                         replica_poi_params[shard]);
    worker.featurizer->CollectParameters("featurizer",
                                         replica_unsup_params[shard]);
    if (options_.use_embedding) {
      worker.embedder = embedder_->Clone();
      worker.embedder->CollectParameters("embedder",
                                         replica_unsup_params[shard]);
    }
  }
  poi_optimizer.ZeroGrad();
  unsup_optimizer.ZeroGrad();

  // Per-sample losses on the tape of replica `shard`, for batch entry `b`.
  auto poi_sample_loss = [&](size_t shard, size_t b) {
    const SslWorker& worker = workers[shard];
    const EncodedProfile& profile = encoded[poi_batch[b]];
    util::Rng& sample_rng = sample_rngs[b];
    nn::Tensor feature =
        worker.featurizer->Featurize(profile, sample_rng, true);
    nn::Tensor logits = worker.classifier->Logits(feature, sample_rng, true);
    return nn::SoftmaxCrossEntropy(logits, static_cast<size_t>(profile.pid));
  };
  auto unsup_sample_loss = [&](size_t shard, size_t b) {
    const SslWorker& worker = workers[shard];
    const WeightedPair& pair = pair_batch[b];
    util::Rng& sample_rng = sample_rngs[b];
    nn::Tensor fi =
        worker.featurizer->Featurize(encoded[pair.i], sample_rng, true);
    nn::Tensor fj =
        worker.featurizer->Featurize(encoded[pair.j], sample_rng, true);
    nn::Tensor ei = options_.use_embedding
                        ? worker.embedder->Embed(fi, sample_rng, true)
                        : nn::L2NormalizeRow(fi);
    nn::Tensor ej = options_.use_embedding
                        ? worker.embedder->Embed(fj, sample_rng, true)
                        : nn::L2NormalizeRow(fj);
    nn::Tensor sample_loss;
    switch (options_.unsup_loss) {
      case UnsupLossKind::kCosine: {
        // a_ij * (1 - <e_i, e_j>): build as a_ij - a_ij * dot.
        nn::Tensor dot = nn::Dot(ei, ej);
        nn::Tensor scaled = nn::Scale(dot, -pair.weight);
        // Constant a_ij contributes nothing to gradients; add it so the
        // reported loss matches Eq. 4.
        sample_loss = nn::Add(
            scaled, nn::Tensor::FromMatrix(nn::Matrix(1, 1, pair.weight)));
        break;
      }
      case UnsupLossKind::kSquaredL2:
        sample_loss = nn::Scale(nn::SquaredL2Diff(ei, ej), pair.weight);
        break;
    }
    return sample_loss;
  };

  // Telemetry: decile "epoch" windows over the step budget. Pure observers —
  // reads of losses/params only, no RNG draws — so the trained trajectory is
  // bitwise-identical with telemetry on or off (tests/determinism_test.cc).
  static obs::Histogram* step_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "hisrect.train.ssl_step_seconds", obs::TimeHistogramBoundaries());
  const size_t telemetry_every = std::max<size_t>(1, options_.steps / 10);
  double window_poi_loss = 0.0;
  double window_unsup_loss = 0.0;
  size_t window_poi_steps = 0;
  size_t window_unsup_steps = 0;
  util::Stopwatch window_watch;

  while (step < options_.steps) {
    HISRECT_TRACE_SPAN("ssl.step");
    obs::ScopedTimer step_timer(step_seconds);
    // All stochastic decisions happen on the coordinating thread, in sample
    // order: the step-kind draw, batch draws, and one forked RNG stream per
    // sample. The trajectory is a function of (seed, num_shards) only.
    bool take_poi_step = rng.Uniform() < gamma_poi;
    std::vector<nn::NamedParameter>& active_params =
        take_poi_step ? poi_params : unsup_params;
    nn::Adam& active_optimizer = take_poi_step ? poi_optimizer : unsup_optimizer;
    double loss_value = 0.0;
    sample_rngs.clear();
    if (take_poi_step) {
      // Supervised step: L_poi = cross entropy of P(F(r)) vs r.pid.
      for (size_t b = 0; b < batch_size; ++b) {
        poi_batch[b] = labeled[rng.UniformInt(labeled.size())];
        sample_rngs.push_back(rng.Fork());
      }
      for (SslWorker& worker : workers) {
        nn::CopyParameterValues(*featurizer_, *worker.featurizer);
        nn::CopyParameterValues(*classifier_, *worker.classifier);
      }
      loss_value = RunShardStep(poi_params, replica_poi_params, batch_size,
                                inv_batch, poi_sample_loss);
    } else {
      // Unsupervised step over affinity pairs.
      for (size_t b = 0; b < batch_size; ++b) {
        pair_batch[b] = next_pair();
        sample_rngs.push_back(rng.Fork());
      }
      for (SslWorker& worker : workers) {
        nn::CopyParameterValues(*featurizer_, *worker.featurizer);
        if (worker.embedder != nullptr) {
          nn::CopyParameterValues(*embedder_, *worker.embedder);
        }
      }
      loss_value = RunShardStep(unsup_params, replica_unsup_params,
                                batch_size, options_.unsup_weight * inv_batch,
                                unsup_sample_loss);
    }

    if (util::FailPoint::ShouldFail("trainer.nan_grad")) {
      active_params.front().tensor.mutable_grad().data()[0] =
          std::numeric_limits<float>::quiet_NaN();
    }
    if (options_.guard.enabled &&
        (!std::isfinite(loss_value) ||
         !std::isfinite(GradNormSquared(active_params)))) {
      float lr_scale = 1.0f;
      status = checkpointer.Rollback(
          "non-finite loss or gradient at ssl step " + std::to_string(step),
          &lr_scale);
      if (!status.ok()) return status;
      stats->rollbacks = checkpointer.rollbacks();
      // Both optimizers share the featurizer; cool both down.
      poi_optimizer.ScaleLearningRate(lr_scale);
      unsup_optimizer.ScaleLearningRate(lr_scale);
      poi_optimizer.ZeroGrad();
      unsup_optimizer.ZeroGrad();
      continue;
    }

    const bool emit_telemetry =
        obs::TelemetrySink::enabled() &&
        ((step + 1) % telemetry_every == 0 || step + 1 == options_.steps);
    // Adam::Step() zeroes gradients, so read the norm before stepping;
    // skipped entirely when the sink is closed.
    const double telemetry_grad_norm =
        emit_telemetry ? std::sqrt(GradNormSquared(active_params)) : 0.0;
    active_optimizer.Step();
    if (take_poi_step) {
      record_poi(step, loss_value);
      window_poi_loss += loss_value;
      ++window_poi_steps;
    } else {
      record_unsup(step, loss_value);
      window_unsup_loss += loss_value;
      ++window_unsup_steps;
    }
    ++step;
    if (emit_telemetry) {
      const double window_seconds =
          std::max(window_watch.ElapsedSeconds(), 1e-9);
      const size_t window_steps = window_poi_steps + window_unsup_steps;
      obs::TelemetryRecord record("epoch");
      record.Set("phase", "ssl")
          .Set("epoch", static_cast<uint64_t>((step + telemetry_every - 1) /
                                              telemetry_every))
          .Set("step", static_cast<uint64_t>(step))
          .Set("steps_total", static_cast<uint64_t>(options_.steps))
          .Set("loss",
               window_steps == 0
                   ? 0.0
                   : (window_poi_loss + window_unsup_loss) /
                         static_cast<double>(window_steps))
          .Set("grad_norm", telemetry_grad_norm)
          .Set("lr",
               static_cast<double>(poi_optimizer.current_learning_rate()))
          .Set("rollbacks", static_cast<uint64_t>(checkpointer.rollbacks()))
          .Set("poi_steps", static_cast<uint64_t>(window_poi_steps))
          .Set("pair_steps", static_cast<uint64_t>(window_unsup_steps));
      if (window_poi_steps > 0) {
        record.Set("poi_loss",
                   window_poi_loss / static_cast<double>(window_poi_steps));
      }
      if (window_unsup_steps > 0) {
        record.Set("unsup_loss", window_unsup_loss /
                                     static_cast<double>(window_unsup_steps));
      }
      record
          .Set("pairs", static_cast<uint64_t>(window_steps * batch_size))
          .Set("pairs_per_sec", static_cast<double>(window_steps * batch_size) /
                                    window_seconds)
          .Set("window_seconds", window_seconds);
      obs::TelemetrySink::Emit(record);
      window_poi_loss = 0.0;
      window_unsup_loss = 0.0;
      window_poi_steps = 0;
      window_unsup_steps = 0;
      window_watch.Restart();
    }
    status = checkpointer.AfterStep(step, loss_value);
    if (!status.ok()) return status;
    if (util::FailPoint::ShouldFail("trainer.abort")) {
      return util::Status::Internal(
          "injected failure: trainer.abort after ssl step " +
          std::to_string(step));
    }
  }

  double final_poi =
      tail_poi_count > 0 ? tail_poi_loss / static_cast<double>(tail_poi_count)
                         : 0.0;
  status = checkpointer.Finish(step, final_poi);
  if (!status.ok()) return status;

  stats->final_poi_loss = final_poi;
  stats->final_unsup_loss =
      tail_unsup_count > 0
          ? tail_unsup_loss / static_cast<double>(tail_unsup_count)
          : 0.0;
  return util::Status::Ok();
}

util::Status SslTrainer::SaveCheckpoint(const std::string& path) const {
  if (last_run_state_.empty()) {
    return util::Status::FailedPrecondition(
        "no ssl training run to checkpoint; call Train first");
  }
  return util::WriteFileAtomic(path, last_run_state_);
}

util::Status SslTrainer::ResumeFromCheckpoint(const std::string& path) {
  util::Result<util::CheckpointReader> reader =
      util::CheckpointReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  pending_resume_path_ = path;
  return util::Status::Ok();
}

}  // namespace hisrect::core
