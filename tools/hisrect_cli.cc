// Command-line front end for the library:
//
//   hisrect_cli stats  [--preset nyc|lv] [--scale S] [--seed N]
//   hisrect_cli train  [--preset ...] [--ssl-steps N] [--judge-steps N]
//                      [--threads N] [--shards N] [--pipeline-shards N]
//                      [--plan] [--fuse]
//                      [--checkpoint-dir DIR] [--checkpoint-every N]
//                      [--keep-last N] [--resume] [--out model.bin]
//   hisrect_cli eval   [--preset ...] [--threads N] [--model model.bin]
//                      (fit if no model)
//
// `train` persists the fitted networks; `eval` reports the Table 4 metrics,
// AUC and Acc@K on the held-out test split. `--threads` sizes the global
// worker pool (default: HISRECT_NUM_THREADS, else all hardware threads);
// `--shards` sets the per-step gradient shard count: each shard trains one
// replica of the modules and the shard gradients are summed in shard order
// (0 and 1 both mean one replica, run inline). Results depend on the shard
// count but never on the thread count. `--pipeline-shards` shards the
// pre-training passes (profile encoding, SSL graph build); unlike --shards
// it is performance-only: those outputs are byte-identical at any value.
// `--plan` makes `eval` score through the recorded-plan replay path
// (nn/plan_executor.h): zero steady-state tensor allocations,
// bitwise-identical scores — see DESIGN.md §11. `--fuse` adds
// the GraphOptimizer fusion pass (still bitwise-identical, DESIGN.md §12).
// Training always runs the eager tape.
//
// Fault tolerance: `--checkpoint-dir` + `--checkpoint-every` write periodic
// HRCT2 checkpoints of the full trainer state; a re-run with `--resume`
// continues from the newest valid one (corrupt files are skipped with a
// warning) and finishes bitwise-identical to an uninterrupted run at the
// same --shards. `--failpoints SPEC` (or HISRECT_FAILPOINTS) arms the
// deterministic fault-injection registry, e.g.
// `atomic_file.crash_before_rename=2` kills the 2nd checkpoint commit.
// Any training/checkpoint failure is reported on stderr with exit code 1.
//
// Observability (any command): `--trace-out trace.json` records scoped spans
// into per-thread buffers and exports Chrome trace-event JSON (load in
// chrome://tracing or https://ui.perfetto.dev); `--telemetry-out t.jsonl`
// emits one structured JSONL record per training epoch window / phase /
// checkpoint; `--metrics-out m.json` dumps the merged counter/histogram
// registry at exit. All three are off by default and add no hot-path cost
// when off; the trained parameters are bitwise-identical either way. See
// DESIGN.md §9.
//
// Numeric flags are parsed strictly (util/flags.h): a negative,
// non-numeric, trailing-junk or out-of-range value exits 2 with a message.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>

#include "core/hisrect_model.h"
#include "core/text_model.h"
#include "data/presets.h"
#include "eval/pair_evaluator.h"
#include "eval/poi_inference.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/fail_point.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace hisrect {
namespace {

struct CliOptions {
  std::string command;
  std::string preset = "nyc";
  double scale = 0.5;
  uint64_t seed = 42;
  size_t ssl_steps = 4000;
  size_t judge_steps = 3000;
  /// 0 keeps the pool's environment-derived default size.
  size_t threads = 0;
  /// Gradient shards (module replicas) per training step; 0 and 1 both
  /// mean one replica.
  size_t shards = 1;
  /// Shards for encoding + graph build (0 = one per pool worker).
  size_t pipeline_shards = 0;
  std::string model_path;
  /// Fault tolerance (train): periodic checkpoints + resume.
  std::string checkpoint_dir;
  size_t checkpoint_every = 0;
  size_t keep_last = 3;
  bool resume = false;
  /// Recorded-plan scoring (see nn/plan_executor.h); training always runs
  /// the eager tape.
  bool plan = false;
  /// GraphOptimizer kernel fusion on the scoring plans (bitwise-identical).
  /// Implies --plan.
  bool fuse = false;
  /// Fail-point spec armed before running (testing/drills).
  std::string failpoints;
  /// Observability exports; empty = disabled (the default).
  std::string metrics_out;
  std::string trace_out;
  std::string telemetry_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: hisrect_cli <stats|train|eval> [--preset nyc|lv] "
               "[--scale S] [--seed N]\n"
               "                   [--ssl-steps N] [--judge-steps N] "
               "[--threads N] [--shards N]\n"
               "                   [--pipeline-shards N] [--plan] [--fuse]\n"
               "                   (--plan/--fuse select the scoring "
               "path; training is eager)\n"
               "                   [--checkpoint-dir DIR] "
               "[--checkpoint-every N] [--keep-last N] [--resume]\n"
               "                   [--failpoints SPEC]\n"
               "                   [--metrics-out FILE] [--trace-out FILE] "
               "[--telemetry-out FILE]\n"
               "                   [--out FILE] [--model FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions& options) {
  if (argc < 2) return false;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    // Strict numeric values (util/flags.h): a bad one fails the parse.
    auto count = [&](uint64_t min, uint64_t max, auto* out) {
      const char* v = next();
      if (v == nullptr) return false;
      std::optional<uint64_t> n =
          util::ParseUintFlag("hisrect_cli", arg, v, min, max);
      if (n) *out = static_cast<std::remove_pointer_t<decltype(out)>>(*n);
      return n.has_value();
    };
    if (arg == "--preset") {
      const char* v = next();
      if (v == nullptr) return false;
      options.preset = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr) return false;
      std::optional<double> scale =
          util::ParsePositiveFlag("hisrect_cli", arg, v, util::kMaxScaleFlag);
      if (!scale) return false;
      options.scale = *scale;
    } else if (arg == "--seed") {
      if (!count(0, UINT64_MAX, &options.seed)) return false;
    } else if (arg == "--ssl-steps") {
      if (!count(0, util::kMaxCountFlag, &options.ssl_steps)) return false;
    } else if (arg == "--judge-steps") {
      if (!count(0, util::kMaxCountFlag, &options.judge_steps)) return false;
    } else if (arg == "--threads") {
      if (!count(0, util::kMaxThreadsFlag, &options.threads)) return false;
    } else if (arg == "--shards") {
      if (!count(0, util::kMaxThreadsFlag, &options.shards)) return false;
    } else if (arg == "--pipeline-shards") {
      if (!count(0, util::kMaxThreadsFlag, &options.pipeline_shards)) {
        return false;
      }
    } else if (arg == "--checkpoint-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options.checkpoint_dir = v;
    } else if (arg == "--checkpoint-every") {
      if (!count(0, util::kMaxCountFlag, &options.checkpoint_every)) {
        return false;
      }
    } else if (arg == "--keep-last") {
      if (!count(0, util::kMaxCountFlag, &options.keep_last)) return false;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--plan") {
      options.plan = true;
    } else if (arg == "--fuse") {
      options.fuse = true;
    } else if (arg == "--failpoints") {
      const char* v = next();
      if (v == nullptr) return false;
      options.failpoints = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.trace_out = v;
    } else if (arg == "--telemetry-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.telemetry_out = v;
    } else if (arg == "--out" || arg == "--model") {
      const char* v = next();
      if (v == nullptr) return false;
      options.model_path = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

data::Dataset MakeCliDataset(const CliOptions& options) {
  data::CityConfig config =
      options.preset == "lv"
          ? data::LvLikeConfig({.users = options.scale})
          : data::NycLikeConfig({.users = options.scale});
  return data::MakeDataset(config, options.seed);
}

int RunStats(const CliOptions& options) {
  data::Dataset dataset = MakeCliDataset(options);
  util::Table table({"Split", "#timeline", "#labeled", "#avg visits", "#pos",
                     "#neg", "#unlabeled"});
  auto add = [&](const char* name, const data::DataSplit& split) {
    data::SplitStats stats = data::ComputeSplitStats(split);
    table.AddRow({name, std::to_string(stats.num_timelines),
                  std::to_string(stats.num_labeled_profiles),
                  util::Table::Fmt(stats.avg_visits_per_profile, 2),
                  std::to_string(stats.num_positive_pairs),
                  std::to_string(stats.num_negative_pairs),
                  std::to_string(stats.num_unlabeled_pairs)});
  };
  add("train", dataset.train);
  add("validation", dataset.validation);
  add("test", dataset.test);
  std::printf("dataset %s (seed %llu)\n", dataset.name.c_str(),
              static_cast<unsigned long long>(options.seed));
  table.Print(std::cout);
  return 0;
}

core::HisRectModelConfig ModelConfig(const CliOptions& options) {
  core::HisRectModelConfig config;
  config.ssl.steps = options.ssl_steps;
  config.judge_trainer.steps = options.judge_steps;
  config.ssl.num_shards = options.shards;
  config.judge_trainer.num_shards = options.shards;
  config.ssl.affinity.num_shards = options.pipeline_shards;
  config.encode_shards = options.pipeline_shards;
  config.plan.enabled = options.plan || options.fuse;
  config.plan.fuse = options.fuse;
  config.seed = options.seed;
  core::CheckpointOptions checkpoint;
  checkpoint.dir = options.checkpoint_dir;
  checkpoint.every = options.checkpoint_every;
  checkpoint.keep_last = options.keep_last;
  checkpoint.resume = options.resume;
  config.ssl.checkpoint = checkpoint;
  config.judge_trainer.checkpoint = checkpoint;
  return config;
}

int RunTrain(const CliOptions& options) {
  data::Dataset dataset = MakeCliDataset(options);
  core::TextModel text_model = core::TrainTextModel(dataset, {}, options.seed);
  core::HisRectModel model(ModelConfig(options));
  std::printf("training on %zu profiles (%zu labeled)...\n",
              dataset.train.profiles.size(),
              dataset.train.labeled_indices.size());
  util::Status fit_status = model.TryFit(dataset, text_model);
  if (!fit_status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 fit_status.ToString().c_str());
    return 1;
  }
  std::printf("done: POI loss %.3f, judge loss %.3f\n",
              model.ssl_stats().final_poi_loss,
              model.judge_stats().final_loss);
  if (!options.model_path.empty()) {
    util::Status status = model.Save(options.model_path);
    std::printf("saved to %s (%s)\n", options.model_path.c_str(),
                status.ToString().c_str());
    if (!status.ok()) return 1;
  }
  return 0;
}

int RunEval(const CliOptions& options) {
  data::Dataset dataset = MakeCliDataset(options);
  core::TextModel text_model = core::TrainTextModel(dataset, {}, options.seed);
  core::HisRectModel model(ModelConfig(options));
  if (!options.model_path.empty()) {
    model.InitializeForLoad(dataset, text_model);
    util::Status status = model.Load(options.model_path);
    if (!status.ok()) {
      std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("loaded %s\n", options.model_path.c_str());
  } else {
    std::printf("no --model given; training from scratch...\n");
    util::Status fit_status = model.TryFit(dataset, text_model);
    if (!fit_status.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   fit_status.ToString().c_str());
      return 1;
    }
  }

  eval::PairScorer scorer = [&](const data::Profile& a,
                                const data::Profile& b) {
    return model.ScorePair(a, b);
  };
  util::Rng rng(options.seed ^ 0xe5a1);
  eval::BinaryMetrics metrics =
      eval::EvaluateTenFold(dataset.test, scorer, rng);
  eval::RocCurve roc = eval::EvaluateRoc(dataset.test, scorer);
  eval::PoiRanker ranker = [&](const data::Profile& profile, size_t k) {
    std::vector<geo::PoiId> out;
    for (const auto& [pid, probability] : model.InferPoi(profile, k)) {
      out.push_back(pid);
    }
    return out;
  };
  std::printf("co-location:  acc=%.4f rec=%.4f pre=%.4f f1=%.4f auc=%.4f\n",
              metrics.accuracy, metrics.recall, metrics.precision, metrics.f1,
              roc.auc);
  std::printf("poi inference: acc@1=%.4f acc@5=%.4f\n",
              eval::AccuracyAtK(dataset.test, ranker, 1),
              eval::AccuracyAtK(dataset.test, ranker, 5));
  return 0;
}

int Run(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, options)) return Usage();
  util::FailPoint::ArmFromEnv();
  if (!options.failpoints.empty()) {
    util::Status status = util::FailPoint::ArmFromSpec(options.failpoints);
    if (!status.ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  if (options.threads > 0) {
    util::ThreadPool::SetGlobalNumThreads(options.threads);
  }
  if (!options.trace_out.empty()) obs::TraceRecorder::Start();
  if (!options.telemetry_out.empty()) {
    obs::TelemetrySink::Open(options.telemetry_out);
  }

  int code;
  if (options.command == "stats") {
    code = RunStats(options);
  } else if (options.command == "train") {
    code = RunTrain(options);
  } else if (options.command == "eval") {
    code = RunEval(options);
  } else {
    return Usage();
  }

  // Flush observability artifacts even when the command failed: a partial
  // trace of a failed run is exactly when you want one.
  if (!options.trace_out.empty()) {
    obs::TraceRecorder::Stop();
    util::Status status = obs::TraceRecorder::WriteChromeTrace(
        options.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
      if (code == 0) code = 1;
    }
  }
  if (!options.telemetry_out.empty()) {
    util::Status status = obs::TelemetrySink::Close();
    if (!status.ok()) {
      std::fprintf(stderr, "telemetry export failed: %s\n",
                   status.ToString().c_str());
      if (code == 0) code = 1;
    }
  }
  if (!options.metrics_out.empty()) {
    util::Status status = obs::WriteMetricsJsonFile(options.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace hisrect

int main(int argc, char** argv) { return hisrect::Run(argc, argv); }
