#include "core/hisrect_model.h"

#include <algorithm>

#include "nn/graph_optimizer.h"
#include "nn/graph_recorder.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hisrect::core {

HisRectModel::HisRectModel(const HisRectModelConfig& config)
    : config_(config) {}

void HisRectModel::BuildModules(const data::Dataset& dataset,
                                const TextModel& text_model) {
  pois_ = &dataset.pois;
  text_model_ = &text_model;
  util::Rng rng(config_.seed);

  encoder_ = std::make_unique<ProfileEncoder>(pois_, text_model_,
                                              config_.visit_options,
                                              /*min_words=*/3,
                                              config_.encoder_options);
  featurizer_ = std::make_unique<HisRectFeaturizer>(
      config_.featurizer, pois_->size(), text_model_->embeddings.get(), rng);
  classifier_ = std::make_unique<PoiClassifier>(
      config_.featurizer.feature_dim, pois_->size(),
      config_.poi_classifier_layers, rng, config_.featurizer.dropout_rate);
  embedder_ = std::make_unique<Embedder>(config_.featurizer.feature_dim,
                                         config_.embed_dim, config_.qe, rng,
                                         config_.featurizer.dropout_rate);
  judge_ = std::make_unique<JudgeHead>(
      config_.featurizer.feature_dim, config_.judge_embed_dim,
      config_.qe_prime, config_.qc, rng, config_.featurizer.dropout_rate);
}

void HisRectModel::InitializeForLoad(const data::Dataset& dataset,
                                     const TextModel& text_model) {
  BuildModules(dataset, text_model);
}

std::vector<nn::NamedParameter> HisRectModel::AllParameters() const {
  CHECK(fitted());
  std::vector<nn::NamedParameter> parameters;
  featurizer_->CollectParameters("featurizer", parameters);
  classifier_->CollectParameters("classifier", parameters);
  embedder_->CollectParameters("embedder", parameters);
  judge_->CollectParameters("judge", parameters);
  return parameters;
}

util::Status HisRectModel::Save(const std::string& path) const {
  if (!fitted()) {
    return util::Status::FailedPrecondition("model not fitted");
  }
  return nn::SaveParameters(AllParameters(), path);
}

util::Status HisRectModel::Load(const std::string& path) {
  if (!fitted()) {
    return util::Status::FailedPrecondition(
        "call Fit or InitializeForLoad before Load");
  }
  std::vector<nn::NamedParameter> parameters = AllParameters();
  return nn::LoadParameters(parameters, path);
}

void HisRectModel::Fit(const data::Dataset& dataset,
                       const TextModel& text_model) {
  util::Status status = TryFit(dataset, text_model);
  CHECK(status.ok()) << status.ToString();
}

util::Status HisRectModel::TryFit(const data::Dataset& dataset,
                                  const TextModel& text_model) {
  HISRECT_TRACE_SPAN("model.fit");
  BuildModules(dataset, text_model);
  util::Rng rng(config_.seed ^ 0x9e3779b9);

  std::vector<EncodedProfile> encoded =
      encoder_->EncodeAll(dataset.train.profiles, config_.encode_shards);

  if (!config_.one_phase) {
    SslTrainer ssl_trainer(featurizer_.get(), classifier_.get(),
                           embedder_.get(), config_.ssl);
    util::Status status =
        ssl_trainer.Train(encoded, dataset.train, dataset.pois, rng,
                          &ssl_stats_);
    if (!status.ok()) return status;
  }

  JudgeTrainerOptions judge_options = config_.judge_trainer;
  judge_options.train_featurizer =
      config_.one_phase || judge_options.train_featurizer;
  JudgeTrainer judge_trainer(featurizer_.get(), judge_.get(), judge_options);
  util::Status status =
      judge_trainer.Train(encoded, dataset.train, rng, &judge_stats_);
  if (!status.ok()) return status;

  if (config_.one_phase) {
    // One-phase never trained P; give POI inference a quick supervised pass
    // over the (now fixed) jointly-trained features so InferPoi stays usable.
    SslTrainerOptions poi_only = config_.ssl;
    poi_only.use_unlabeled_pairs = false;
    poi_only.min_poi_step_fraction = 1.0;
    poi_only.steps = config_.ssl.steps / 2;
    SslTrainer poi_trainer(featurizer_.get(), classifier_.get(),
                           embedder_.get(), poi_only);
    // Freeze F by excluding it: emulate via a dedicated optimizer inside
    // SslTrainer is overkill; instead run with gamma floor 1.0 so only
    // L_poi steps happen. F also receives updates here, matching the
    // "connect F directly" spirit of One-phase.
    status = poi_trainer.Train(encoded, dataset.train, dataset.pois, rng,
                               &ssl_stats_);
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

nn::Tensor HisRectModel::FeaturizeEncoded(const EncodedProfile& profile) const {
  CHECK(fitted()) << "call Fit before inference";
  return featurizer_->Featurize(profile);
}

double HisRectModel::ScorePairEncoded(const EncodedProfile& a,
                                      const EncodedProfile& b) const {
  CHECK(fitted());
  if (config_.plan.enabled) return ScorePairPlanned(a, b);
  nn::Tensor logit =
      judge_->CoLocationLogit(FeaturizeEncoded(a), FeaturizeEncoded(b));
  return nn::SigmoidValue(logit.value().At(0, 0));
}

std::shared_ptr<const nn::Graph> HisRectModel::RecordScorePlan(
    const EncodedProfile& a, const EncodedProfile& b) const {
  nn::GraphRecorder recorder;
  util::Rng rec_rng(0);  // Eval mode consumes no draws.
  nn::Tensor fi = featurizer_->Featurize(a, rec_rng, false);
  nn::Tensor fj = featurizer_->Featurize(b, rec_rng, false);
  std::shared_ptr<const nn::Graph> plan =
      recorder.Finish(judge_->CoLocationLogit(fi, fj, rec_rng, false));
  if (config_.plan.fuse) plan = nn::FuseGraph(*plan);
  return plan;
}

double HisRectModel::ScorePairPlanned(const EncodedProfile& a,
                                      const EncodedProfile& b) const {
  HISRECT_TRACE_SPAN("nn.plan.execute");
  const uint64_t key = (static_cast<uint64_t>(a.words.size()) << 32) |
                       static_cast<uint64_t>(b.words.size());
  std::shared_ptr<const nn::Graph> plan;
  std::unique_ptr<nn::PlanRun> run;
  {
    std::lock_guard<std::mutex> lock(planned_scorer_.mu);
    plan = planned_scorer_.plans.Get(key);
    if (!planned_scorer_.pool.empty()) {
      run = std::move(planned_scorer_.pool.back());
      planned_scorer_.pool.pop_back();
    }
  }
  if (run == nullptr) run = std::make_unique<nn::PlanRun>();
  if (plan == nullptr) {
    // Record outside the lock (the recorder is thread-local). Concurrent
    // scorers may race to record the same shape; the recordings are
    // identical, so last-Put-wins is harmless.
    plan = RecordScorePlan(a, b);
    std::lock_guard<std::mutex> lock(planned_scorer_.mu);
    planned_scorer_.plans.Put(key, plan);
  }
  run->inputs.Reset();
  featurizer_->BindPlanInputs(a, run->inputs);
  featurizer_->BindPlanInputs(b, run->inputs);
  nn::PlanExecutor::Forward(*plan, *run);
  const double score =
      nn::SigmoidValue(nn::PlanExecutor::OutputScalar(*plan, *run));
  std::lock_guard<std::mutex> lock(planned_scorer_.mu);
  planned_scorer_.pool.push_back(std::move(run));
  return score;
}

double HisRectModel::ScorePair(const data::Profile& a,
                               const data::Profile& b) const {
  return ScorePairEncoded(*Encode(a), *Encode(b));
}

std::vector<std::pair<geo::PoiId, float>> HisRectModel::InferPoiEncoded(
    const EncodedProfile& profile, size_t k) const {
  CHECK(fitted());
  nn::Tensor logits = classifier_->Logits(FeaturizeEncoded(profile));
  nn::Matrix probs = nn::SoftmaxValues(logits.value());
  std::vector<std::pair<geo::PoiId, float>> ranked;
  ranked.reserve(probs.cols());
  for (size_t p = 0; p < probs.cols(); ++p) {
    ranked.emplace_back(static_cast<geo::PoiId>(p), probs.At(0, p));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (k < ranked.size()) ranked.resize(k);
  return ranked;
}

std::vector<std::pair<geo::PoiId, float>> HisRectModel::InferPoi(
    const data::Profile& profile, size_t k) const {
  return InferPoiEncoded(*Encode(profile), k);
}

std::vector<float> HisRectModel::Feature(const data::Profile& profile) const {
  nn::Tensor feature = FeaturizeEncoded(*Encode(profile));
  return feature.value().values();
}

EncodedProfileHandle HisRectModel::Encode(const data::Profile& profile) const {
  CHECK(encoder_ != nullptr) << "call Fit before Encode";
  return encoder_->EncodeCached(profile);
}

const ProfileEncoder& HisRectModel::encoder() const {
  CHECK(encoder_ != nullptr) << "call Fit or InitializeForLoad first";
  return *encoder_;
}

}  // namespace hisrect::core
