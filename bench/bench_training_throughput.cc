// Parallel-layer throughput benchmark: end-to-end HisRect training
// (SSL phase + judge phase, data-parallel with a fixed shard count) and
// batched pair-scoring inference, each measured at several global thread-pool
// sizes. Verifies the determinism contract along the way — with num_shards
// fixed, losses and scores must be bitwise identical at every thread count.
// Emits machine-readable
// bench_out/BENCH_parallel.json for tools/run_benches.sh to diff across
// commits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hisrect_approach.h"
#include "baselines/registry.h"
#include "bench/bench_common.h"
#include "core/affinity.h"
#include "core/profile_encoder.h"
#include "obs/metrics.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace hisrect::bench {
namespace {

struct RunResult {
  size_t threads = 0;
  double graph_seconds = 0.0;
  double encode_seconds = 0.0;
  double train_seconds = 0.0;
  double infer_seconds = 0.0;
  // Fixed-seed training outcomes, compared bitwise across thread counts.
  double ssl_poi_loss = 0.0;
  double ssl_unsup_loss = 0.0;
  double judge_loss = 0.0;
  // Per-stage breakdown from metrics-registry scrape deltas over this run:
  // seconds spent inside each instrumented stage plus hot-path call counts.
  double ssl_step_seconds = 0.0;
  uint64_t ssl_step_count = 0;
  double judge_step_seconds = 0.0;
  uint64_t judge_step_count = 0;
  double checkpoint_seconds = 0.0;
  uint64_t checkpoint_writes = 0;
  double graph_stage_seconds = 0.0;
  double encode_stage_seconds = 0.0;
  double infer_stage_seconds = 0.0;
  int64_t matmul_calls = 0;
  int64_t pool_tasks = 0;
  std::vector<double> scores;
  // Sharded-phase outputs, also compared bitwise across thread counts.
  std::vector<core::WeightedPair> pairs;
  std::vector<core::EncodedProfile> encoded;
};

struct HistView {
  double sum = 0.0;
  uint64_t count = 0;
};

HistView HistOf(const obs::MetricsSnapshot& snapshot, const char* name) {
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? HistView{} : HistView{metric->sum, metric->count};
}

int64_t CounterOf(const obs::MetricsSnapshot& snapshot, const char* name) {
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->value;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SamePairs(const std::vector<core::WeightedPair>& a,
               const std::vector<core::WeightedPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].i != b[i].i || a[i].j != b[i].j || a[i].labeled != b[i].labeled ||
        std::memcmp(&a[i].weight, &b[i].weight, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameEncoded(const std::vector<core::EncodedProfile>& a,
                 const std::vector<core::EncodedProfile>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].words != b[i].words || a[i].ts != b[i].ts ||
        a[i].has_geo != b[i].has_geo || a[i].pid != b[i].pid ||
        !BitwiseEqual(a[i].visit_hisrect, b[i].visit_hisrect) ||
        !BitwiseEqual(a[i].visit_onehot, b[i].visit_onehot) ||
        std::memcmp(&a[i].location, &b[i].location,
                    sizeof(a[i].location)) != 0) {
      return false;
    }
  }
  return true;
}

int Run() {
  BenchEnv env = BenchEnv::FromEnv();
  // Throughput, not quality: short fixed budgets keep the three training
  // runs (one per thread count) tractable on a laptop core.
  env.ssl_steps = 400;
  env.judge_steps = 300;
  const size_t kNumShards = 4;
  const size_t kInferRepeats = 3;
  const size_t kPhaseRepeats = 3;
  const std::vector<size_t> thread_counts = {1, 2, 4};

  BenchDataset data =
      MakeBenchDataset(data::NycLikeConfig({.users = 0.25}), env.seed);

  std::vector<RunResult> runs;
  for (size_t threads : thread_counts) {
    util::ThreadPool::SetGlobalNumThreads(threads);

    core::HisRectModelConfig config = baselines::BaseModelConfig(env.Budget());
    config.ssl.num_shards = kNumShards;
    config.judge_trainer.num_shards = kNumShards;
    baselines::HisRectApproach approach("HisRect", config);

    RunResult run;
    run.threads = threads;
    const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Scrape();

    // Sharded-phase throughput, measured standalone so the timings are not
    // entangled with SGD. Affinity num_shards stays 0 (one per worker) — the
    // output is invariant to it, so this is the natural production setting.
    {
      PhaseTimer graph_watch;
      for (size_t r = 0; r < kPhaseRepeats; ++r) {
        run.pairs = core::BuildAffinityPairs(data.dataset.train,
                                             data.dataset.pois, {});
      }
      run.graph_seconds = graph_watch.ElapsedSeconds();
    }

    // A fresh encoder per repeat: EncodeAll memoizes, so reusing one would
    // time cache replay instead of the parallel encode fan-out.
    {
      PhaseTimer encode_watch;
      for (size_t r = 0; r < kPhaseRepeats; ++r) {
        core::ProfileEncoder encoder(&data.dataset.pois, &data.text_model);
        run.encoded = encoder.EncodeAll(data.dataset.train.profiles);
      }
      run.encode_seconds = encode_watch.ElapsedSeconds();
    }

    {
      PhaseTimer train_watch;
      approach.Fit(data.dataset, data.text_model);
      run.train_seconds = train_watch.ElapsedSeconds();
    }
    run.ssl_poi_loss = approach.model()->ssl_stats().final_poi_loss;
    run.ssl_unsup_loss = approach.model()->ssl_stats().final_unsup_loss;
    run.judge_loss = approach.model()->judge_stats().final_loss;

    eval::PairScorer scorer = ScoreOf(approach);
    eval::ScoredPairs scored;
    {
      PhaseTimer infer_watch;
      for (size_t r = 0; r < kInferRepeats; ++r) {
        scored = eval::ScoreLabeledPairs(data.dataset.test, scorer);
      }
      run.infer_seconds = infer_watch.ElapsedSeconds();
    }
    run.scores = scored.scores;

    // Per-stage breakdown: the delta each run contributed to the globally
    // instrumented stage histograms and hot-path counters.
    const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Scrape();
    auto hist_delta = [&](const char* name, uint64_t* count) {
      const HistView b = HistOf(before, name);
      const HistView a = HistOf(after, name);
      if (count != nullptr) *count = a.count - b.count;
      return a.sum - b.sum;
    };
    run.ssl_step_seconds =
        hist_delta("hisrect.train.ssl_step_seconds", &run.ssl_step_count);
    run.judge_step_seconds =
        hist_delta("hisrect.train.judge_step_seconds", &run.judge_step_count);
    run.checkpoint_seconds =
        hist_delta("hisrect.checkpoint.write_seconds", &run.checkpoint_writes);
    run.graph_stage_seconds = hist_delta("hisrect.graph.build_seconds", nullptr);
    run.encode_stage_seconds = hist_delta("hisrect.encode.all_seconds", nullptr);
    run.infer_stage_seconds =
        hist_delta("hisrect.eval.score_pairs_seconds", nullptr);
    run.matmul_calls = CounterOf(after, "hisrect.nn.matmul.calls") -
                       CounterOf(before, "hisrect.nn.matmul.calls");
    run.pool_tasks = CounterOf(after, "hisrect.pool.tasks") -
                     CounterOf(before, "hisrect.pool.tasks");

    std::fprintf(stderr, "[parallel] threads=%zu train %.2fs infer %.2fs\n",
                 threads, run.train_seconds, run.infer_seconds);
    runs.push_back(std::move(run));
  }

  // Determinism contract: with the shard count fixed, every thread count
  // must produce bitwise-identical training losses and inference scores —
  // and the sharded graph-build / encode phases must be byte-identical at
  // every thread count even with num_shards floating (one per worker).
  bool deterministic = true;
  for (const RunResult& run : runs) {
    if (run.ssl_poi_loss != runs[0].ssl_poi_loss ||
        run.ssl_unsup_loss != runs[0].ssl_unsup_loss ||
        run.judge_loss != runs[0].judge_loss ||
        run.scores != runs[0].scores) {
      deterministic = false;
      std::fprintf(stderr,
                   "[parallel] DETERMINISM VIOLATION at threads=%zu "
                   "(losses %.17g/%.17g/%.17g vs %.17g/%.17g/%.17g)\n",
                   run.threads, run.ssl_poi_loss, run.ssl_unsup_loss,
                   run.judge_loss, runs[0].ssl_poi_loss,
                   runs[0].ssl_unsup_loss, runs[0].judge_loss);
    }
    if (!SamePairs(run.pairs, runs[0].pairs)) {
      deterministic = false;
      std::fprintf(stderr,
                   "[parallel] DETERMINISM VIOLATION at threads=%zu: affinity "
                   "pairs differ from the 1-thread build\n",
                   run.threads);
    }
    if (!SameEncoded(run.encoded, runs[0].encoded)) {
      deterministic = false;
      std::fprintf(stderr,
                   "[parallel] DETERMINISM VIOLATION at threads=%zu: encoded "
                   "profiles differ from the 1-thread pass\n",
                   run.threads);
    }
  }

  const double train_steps =
      static_cast<double>(env.ssl_steps + env.judge_steps);
  const double total_pairs = static_cast<double>(
      (data.dataset.test.positive_pairs.size() +
       data.dataset.test.negative_pairs.size()) *
      kInferRepeats);
  // Graph-build throughput denominator: candidate pairs scanned, i.e. every
  // positive / negative / unlabeled pair the sharded pass filters.
  const double graph_candidates = static_cast<double>(
      (data.dataset.train.positive_pairs.size() +
       data.dataset.train.negative_pairs.size() +
       data.dataset.train.unlabeled_pairs.size()) *
      kPhaseRepeats);
  const double encode_profiles = static_cast<double>(
      data.dataset.train.profiles.size() * kPhaseRepeats);

  util::Table table({"threads", "train s", "steps/s", "train speedup",
                     "infer s", "pairs/s", "infer speedup"});
  for (const RunResult& run : runs) {
    table.AddRow({std::to_string(run.threads),
                  util::Table::Fmt(run.train_seconds, 2),
                  util::Table::Fmt(train_steps / run.train_seconds, 1),
                  util::Table::Fmt(runs[0].train_seconds / run.train_seconds, 2),
                  util::Table::Fmt(run.infer_seconds, 2),
                  util::Table::Fmt(total_pairs / run.infer_seconds, 1),
                  util::Table::Fmt(runs[0].infer_seconds / run.infer_seconds,
                                   2)});
  }
  std::printf("== Parallel training / inference throughput (num_shards=%zu) "
              "==\n",
              kNumShards);
  table.Print(std::cout);

  util::Table phase_table({"threads", "graph s", "cand pairs/s",
                           "graph speedup", "encode s", "profiles/s",
                           "encode speedup"});
  for (const RunResult& run : runs) {
    phase_table.AddRow(
        {std::to_string(run.threads), util::Table::Fmt(run.graph_seconds, 3),
         util::Table::Fmt(graph_candidates / run.graph_seconds, 1),
         util::Table::Fmt(runs[0].graph_seconds / run.graph_seconds, 2),
         util::Table::Fmt(run.encode_seconds, 3),
         util::Table::Fmt(encode_profiles / run.encode_seconds, 1),
         util::Table::Fmt(runs[0].encode_seconds / run.encode_seconds, 2)});
  }
  std::printf("== Sharded pipeline phases (graph build / profile encode) ==\n");
  phase_table.Print(std::cout);
  std::printf("Determinism across thread counts: %s\n",
              deterministic ? "OK (bitwise)" : "VIOLATED");
  // Machine-readable record for tools/run_benches.sh regression diffing.
  std::string out_dir = "bench_out";
  if (const char* v = std::getenv("HISRECT_BENCH_OUT")) out_dir = v;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  std::string out_path = out_dir + "/BENCH_parallel.json";
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "[parallel] cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"num_shards\": %zu,\n", kNumShards);
  std::fprintf(json, "  \"hardware_threads\": %zu,\n",
               static_cast<size_t>(std::thread::hardware_concurrency()));
  std::fprintf(json, "  \"train_steps\": %.0f,\n", train_steps);
  std::fprintf(json, "  \"inference_pairs\": %.0f,\n", total_pairs);
  std::fprintf(json, "  \"graph_candidate_pairs\": %.0f,\n", graph_candidates);
  std::fprintf(json, "  \"encode_profiles\": %.0f,\n", encode_profiles);
  // Target for the sharded phases on hosts with >= 4 physical cores; on the
  // 1-core CI box every speedup sits at ~1.0 by construction.
  std::fprintf(json, "  \"phase_speedup_target_4core\": 2.5,\n");
  std::fprintf(json, "  \"deterministic_across_threads\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& run = runs[i];
    std::fprintf(json,
                 "    {\"threads\": %zu, \"train_seconds\": %.4f, "
                 "\"steps_per_sec\": %.2f, \"train_speedup\": %.3f, "
                 "\"infer_seconds\": %.4f, \"pairs_per_sec\": %.2f, "
                 "\"infer_speedup\": %.3f, "
                 "\"graph_build_seconds\": %.4f, "
                 "\"graph_build_pairs_per_sec\": %.2f, "
                 "\"graph_build_speedup\": %.3f, "
                 "\"encode_seconds\": %.4f, "
                 "\"encode_profiles_per_sec\": %.2f, "
                 "\"encode_speedup\": %.3f,\n"
                 "     \"stages\": {"
                 "\"ssl_step\": {\"seconds\": %.4f, \"count\": %llu}, "
                 "\"judge_step\": {\"seconds\": %.4f, \"count\": %llu}, "
                 "\"checkpoint\": {\"seconds\": %.4f, \"count\": %llu}, "
                 "\"graph_build_seconds\": %.4f, "
                 "\"encode_seconds\": %.4f, "
                 "\"score_pairs_seconds\": %.4f, "
                 "\"matmul_calls\": %lld, "
                 "\"pool_tasks\": %lld}}%s\n",
                 run.threads, run.train_seconds,
                 train_steps / run.train_seconds,
                 runs[0].train_seconds / run.train_seconds, run.infer_seconds,
                 total_pairs / run.infer_seconds,
                 runs[0].infer_seconds / run.infer_seconds, run.graph_seconds,
                 graph_candidates / run.graph_seconds,
                 runs[0].graph_seconds / run.graph_seconds, run.encode_seconds,
                 encode_profiles / run.encode_seconds,
                 runs[0].encode_seconds / run.encode_seconds,
                 run.ssl_step_seconds,
                 static_cast<unsigned long long>(run.ssl_step_count),
                 run.judge_step_seconds,
                 static_cast<unsigned long long>(run.judge_step_count),
                 run.checkpoint_seconds,
                 static_cast<unsigned long long>(run.checkpoint_writes),
                 run.graph_stage_seconds, run.encode_stage_seconds,
                 run.infer_stage_seconds,
                 static_cast<long long>(run.matmul_calls),
                 static_cast<long long>(run.pool_tasks),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote %s\n", out_path.c_str());

  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace hisrect::bench

int main() { return hisrect::bench::Run(); }
