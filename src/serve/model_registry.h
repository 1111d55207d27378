#ifndef HISRECT_SERVE_MODEL_REGISTRY_H_
#define HISRECT_SERVE_MODEL_REGISTRY_H_

// Versioned model registry for zero-downtime retrain→deploy (DESIGN.md §13).
//
// A ModelRegistry turns HRCT2 checkpoint files into live, versioned,
// hot-swappable serving models. Deploy(path):
//
//   1. loads the checkpoint into a freshly built model off the hot path
//      (nn::LoadParameters — CRC-chained HRCT2 sections, strict lengths,
//      never partially applied);
//   2. warms the new model up: encodes and scores `warmup_pairs` pairs from
//      the attached dataset's test split, which records (and, per the model
//      config, fuses) its scoring plans and fills its
//      encoder cache — the first live request never pays for plan
//      recording;
//   3. verifies every warmup score is a finite probability;
//   4. only then publishes the model atomically — under shared_ptr, via
//      JudgementServer::SwapModel on the attached server — so in-flight
//      batches finish on the old version and no request is ever dropped or
//      scored by a half-initialized model.
//
// Any failure in 1–3 leaves the previously published version serving and
// counts hisrect.serve.swap_rollbacks: a failed deploy IS the rollback.
// Rollback() re-publishes the previous retained version explicitly (bad
// model discovered after deploy). The registry retains the last
// `keep_versions` models so a rollback target is always resident.
//
// Fleet deploys (DESIGN.md §15): when a ShardRouter is attached instead of
// a single server, Deploy stages one model instance per shard — each with
// its own encoder cache, so shard caches stay partitioned by the shard's
// user population — and runs steps 1–3 for every instance before
// publishing anything. All-or-nothing: one shard's failed load or warmup
// aborts the whole deploy with the incumbent still serving on every shard,
// so there is never a mixed-version steady state. Publication then swaps
// every shard under the registry lock; a Response can name the old or new
// version during the fan-out instant, but steady state is always uniform.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/hisrect_model.h"
#include "core/text_model.h"
#include "data/dataset.h"
#include "serve/judgement_server.h"
#include "util/status.h"

namespace hisrect::serve {

class ShardRouter;

struct RegistryOptions {
  /// Architecture + plan options every deployed model is built with; must
  /// match the checkpoints being deployed.
  core::HisRectModelConfig model_config;
  /// Pairs from the dataset's test split scored during warmup (plan
  /// recording, fusion, encoder-cache fill). 0 skips
  /// scoring warmup (the load is still CRC-verified).
  size_t warmup_pairs = 8;
  /// Model versions kept resident (newest first) as rollback targets.
  size_t keep_versions = 2;
};

class ModelRegistry {
 public:
  /// `dataset` and `text_model` must outlive the registry (they back
  /// InitializeForLoad and the warmup pairs for every deploy).
  ModelRegistry(const data::Dataset* dataset,
                const core::TextModel* text_model, RegistryOptions options);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Attaches a server: the current version (if any) is published to it
  /// immediately, and every later Deploy/Rollback publication is pushed via
  /// SwapModel. The server must outlive the registry or be shut down first;
  /// pass nullptr (or call Detach) to detach.
  void Attach(JudgementServer* server);

  /// Fleet variant: attaches a router; the current version (if any) is
  /// published to every shard immediately, and every later Deploy stages
  /// one warmed model instance per shard before the all-or-nothing fleet
  /// publication. Mutually exclusive with the single-server attachment
  /// (the most recent Attach wins).
  void Attach(ShardRouter* router);

  /// Detaches whatever is attached; later publications go nowhere.
  void Detach();

  /// Loads, warms up, and publishes `path` as the next version. Returns the
  /// new version number; on any failure the previously published version
  /// keeps serving and hisrect.serve.swap_rollbacks is incremented.
  util::Result<uint64_t> Deploy(const std::string& path);

  /// Re-publishes the previous retained version, dropping the current one.
  /// Fails with kFailedPrecondition when no previous version is retained.
  util::Status Rollback();

  /// The currently published model / version (nullptr / 0 before the first
  /// successful Deploy).
  std::shared_ptr<const core::HisRectModel> current() const;
  uint64_t current_version() const;

  /// Versions currently retained (rollback depth).
  size_t num_versions() const;

 private:
  struct Entry {
    uint64_t version = 0;
    std::string path;
    /// The published model; for a fleet entry this aliases shard_models[0].
    std::shared_ptr<const core::HisRectModel> model;
    /// One instance per shard for fleet entries (own encoder cache each);
    /// empty for single-server entries.
    std::vector<std::shared_ptr<const core::HisRectModel>> shard_models;
  };

  /// Scores warmup pairs and verifies the outputs; non-OK means the model
  /// must not be published.
  util::Status WarmUp(const core::HisRectModel& model) const;

  /// Loads `path` into a fresh instance and warms it (steps 1–3 of Deploy).
  /// `shard` tags failure messages and the registry.shard_warmup_fail
  /// injection point (evaluated once per call, in shard order).
  util::Result<std::shared_ptr<const core::HisRectModel>> LoadAndWarm(
      const std::string& path, size_t shard) const;

  /// Publishes an entry to whatever is attached, under mu_.
  void PublishLocked(const Entry& entry);

  const data::Dataset* dataset_;
  const core::TextModel* text_model_;
  RegistryOptions options_;

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // Newest last.
  uint64_t next_version_ = 1;
  JudgementServer* server_ = nullptr;
  ShardRouter* router_ = nullptr;
};

}  // namespace hisrect::serve

#endif  // HISRECT_SERVE_MODEL_REGISTRY_H_
