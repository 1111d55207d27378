// Online judgement serving front end:
//
//   hisrect_serve [--preset nyc|lv] [--scale S] [--seed N]
//                 [--model FILE | --registry-dir DIR]
//                 [--ssl-steps N] [--judge-steps N] [--threads N]
//                 [--batch-size N] [--max-wait-us N] [--max-queue N]
//                 [--max-batch-queue N] [--cache-capacity N] [--requests N]
//                 [--deadline-ms N] [--priority interactive|batch]
//                 [--metrics-out FILE] [--failpoints SPEC]
//                 [--plan] [--fuse]
//                 [--admin-port N] [--linger-ms N] [--router-shards N]
//
// Loads a model saved by `hisrect_cli train --out FILE` (or trains one from
// scratch when neither --model nor --registry-dir is given), stands up a
// JudgementServer (DESIGN.md §10, failure model §13), drives --requests
// co-location queries sampled from the held-out test split through it, and
// prints a sample of judgements plus the server / encoder-cache statistics.
//
// `--router-shards N` (N >= 2) serves through a hash-sharded
// serve::ShardRouter instead of a single server (DESIGN.md §15): N
// in-process shards, each request routed by the canonical (min_uid,
// max_uid) pair hash. Queue bounds apply per shard. With --registry-dir,
// SIGHUP fans the reload out as an all-or-nothing fleet deploy — one
// instance per shard, nothing published unless every shard's warmup
// passes — and the admin plane serves fleet-merged /statusz + /tracez with
// per-shard breakdowns.
//
// `--registry-dir DIR` serves through a serve::ModelRegistry instead of a
// fixed model: the newest *.bin checkpoint in DIR is deployed (loaded,
// CRC-verified, warmed up) and published; sending the process SIGHUP
// rescans DIR and hot-swaps the newest checkpoint in with zero downtime —
// in-flight requests finish on the old version. `--deadline-ms` attaches a
// per-request deadline (0 = none) and `--priority` picks the admission
// class; `--max-batch-queue` bounds the batch class separately so overload
// sheds batch traffic first. `--failpoints` arms util::FailPoint specs
// ("point=hit[:payload],...") for fault drills. All flags are validated up
// front; invalid usage exits 2 with a message instead of CHECK-failing.
//
// `--admin-port N` stands up the live introspection plane (DESIGN.md §14)
// on 127.0.0.1:N (0 picks an ephemeral port, printed at startup): /metrics,
// /healthz, /statusz, /tracez, plus stage tracing and 10s-window latency
// percentiles on the server. `--linger-ms N` keeps the process (and the
// admin endpoint) alive that long after the request sweep, so external
// pollers like `hisrect_top` have a live window; /healthz flips to
// "draining" when the graceful shutdown begins. Successful SIGHUP reloads
// increment `hisrect.serve.reloads`.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hisrect_model.h"
#include "core/text_model.h"
#include "data/presets.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serve/introspection.h"
#include "serve/judgement_server.h"
#include "serve/model_registry.h"
#include "serve/shard_router.h"
#include "util/fail_point.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace hisrect {
namespace {

volatile std::sig_atomic_t g_reload_requested = 0;

void HandleSighup(int) { g_reload_requested = 1; }

struct ServeCliOptions {
  std::string preset = "nyc";
  double scale = 0.5;
  uint64_t seed = 42;
  size_t ssl_steps = 4000;
  size_t judge_steps = 3000;
  size_t threads = 0;
  std::string model_path;
  std::string registry_dir;
  size_t batch_size = 32;
  uint64_t max_wait_us = 1000;
  size_t max_queue = 1024;
  size_t max_batch_queue = 1024;
  size_t cache_capacity = 4096;
  size_t requests = 64;
  uint64_t deadline_ms = 0;
  std::string priority = "interactive";
  std::string metrics_out;
  std::string failpoints;
  /// Recorded-plan scoring (nn/plan_executor.h): --plan replays static
  /// memory-planned graphs, --fuse adds the GraphOptimizer kernel-fusion
  /// pass (both bitwise-identical to eager) and implies --plan.
  bool plan = false;
  bool fuse = false;
  /// Admin endpoint port: -1 off (default), 0 ephemeral, else fixed.
  int admin_port = -1;
  /// >= 2 serves through a hash-sharded ShardRouter (DESIGN.md §15);
  /// 1 keeps the single-server path. Queue bounds apply per shard.
  size_t router_shards = 1;
  /// Keep the process alive this long after the request sweep (admin
  /// endpoint stays scrapeable; SIGHUP reloads still apply).
  uint64_t linger_ms = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: hisrect_serve [--preset nyc|lv] [--scale S] [--seed N]\n"
               "                     [--model FILE | --registry-dir DIR]\n"
               "                     [--ssl-steps N] [--judge-steps N] "
               "[--threads N]\n"
               "                     [--batch-size N] [--max-wait-us N] "
               "[--max-queue N]\n"
               "                     [--max-batch-queue N] "
               "[--cache-capacity N] [--requests N]\n"
               "                     [--deadline-ms N] "
               "[--priority interactive|batch]\n"
               "                     [--metrics-out FILE] [--failpoints SPEC]\n"
               "                     [--plan] [--fuse]\n"
               "                     [--admin-port N] [--linger-ms N] "
               "[--router-shards N]\n"
               "\n"
               "--router-shards N: N >= 2 serves through a hash-sharded "
               "router fleet;\n"
               "                   SIGHUP reloads deploy to every shard "
               "all-or-nothing.\n"
               "--admin-port N: serve /metrics /healthz /statusz /tracez on "
               "127.0.0.1:N\n"
               "                (0 = ephemeral; the bound port is printed at "
               "startup).\n"
               "SIGHUP (with --registry-dir): hot-swap the newest *.bin in "
               "the directory.\n");
  return 2;
}

int Invalid(const std::string& message) {
  std::fprintf(stderr, "hisrect_serve: %s\n", message.c_str());
  return Usage();
}

// Upper bounds of the time flags. A deadline must stay representable in
// steady-clock nanoseconds once converted to microseconds.
constexpr uint64_t kMaxWaitUs = 60'000'000;        // one minute
constexpr uint64_t kMaxLingerMs = 86'400'000;      // one day
constexpr uint64_t kMaxDeadlineMs =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count();

bool ParseArgs(int argc, char** argv, ServeCliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    // Strict numeric values (util/flags.h): a bad one fails the parse.
    auto count = [&](uint64_t min, uint64_t max, auto* out) {
      const char* text = next();
      if (text == nullptr) return false;
      std::optional<uint64_t> n =
          util::ParseUintFlag("hisrect_serve", arg, text, min, max);
      if (n) *out = static_cast<std::remove_pointer_t<decltype(out)>>(*n);
      return n.has_value();
    };
    const char* v = nullptr;
    if (arg == "--preset") {
      if ((v = next()) == nullptr) return false;
      options.preset = v;
    } else if (arg == "--scale") {
      if ((v = next()) == nullptr) return false;
      std::optional<double> scale =
          util::ParsePositiveFlag("hisrect_serve", arg, v, util::kMaxScaleFlag);
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
    } else if (arg == "--model") {
      if ((v = next()) == nullptr) return false;
      options.model_path = v;
    } else if (arg == "--registry-dir") {
      if ((v = next()) == nullptr) return false;
      options.registry_dir = v;
    } else if (arg == "--batch-size") {
      if (!count(1, util::kMaxCountFlag, &options.batch_size)) return false;
    } else if (arg == "--max-wait-us") {
      if (!count(0, kMaxWaitUs, &options.max_wait_us)) return false;
    } else if (arg == "--max-queue") {
      if (!count(1, util::kMaxCountFlag, &options.max_queue)) return false;
    } else if (arg == "--max-batch-queue") {
      if (!count(1, util::kMaxCountFlag, &options.max_batch_queue)) {
        return false;
      }
    } else if (arg == "--cache-capacity") {
      if (!count(1, util::kMaxCountFlag, &options.cache_capacity)) return false;
    } else if (arg == "--requests") {
      if (!count(1, util::kMaxCountFlag, &options.requests)) return false;
    } else if (arg == "--deadline-ms") {
      if (!count(0, kMaxDeadlineMs, &options.deadline_ms)) return false;
    } else if (arg == "--priority") {
      if ((v = next()) == nullptr) return false;
      options.priority = v;
    } else if (arg == "--metrics-out") {
      if ((v = next()) == nullptr) return false;
      options.metrics_out = v;
    } else if (arg == "--failpoints") {
      if ((v = next()) == nullptr) return false;
      options.failpoints = v;
    } else if (arg == "--admin-port") {
      if (!count(0, 65535, &options.admin_port)) return false;
    } else if (arg == "--linger-ms") {
      if (!count(0, kMaxLingerMs, &options.linger_ms)) return false;
    } else if (arg == "--router-shards") {
      if (!count(1, 64, &options.router_shards)) return false;
    } else if (arg == "--plan") {
      options.plan = true;
    } else if (arg == "--fuse") {
      options.fuse = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Rejects unusable configurations before any dataset/model work, so bad
/// usage exits fast with a message instead of CHECK-failing mid-setup.
int Validate(const ServeCliOptions& options) {
  if (options.preset != "nyc" && options.preset != "lv") {
    return Invalid("--preset must be 'nyc' or 'lv', got '" + options.preset +
                   "'");
  }
  if (options.priority != "interactive" && options.priority != "batch") {
    return Invalid("--priority must be 'interactive' or 'batch', got '" +
                   options.priority + "'");
  }
  if (!options.model_path.empty() && !options.registry_dir.empty()) {
    return Invalid("--model and --registry-dir are mutually exclusive");
  }
  if (!options.registry_dir.empty() &&
      !std::filesystem::is_directory(options.registry_dir)) {
    return Invalid("--registry-dir '" + options.registry_dir +
                   "' is not a directory");
  }
  if (!options.failpoints.empty()) {
    util::Status status = util::FailPoint::ArmFromSpec(options.failpoints);
    if (!status.ok()) {
      return Invalid("--failpoints: " + status.ToString());
    }
  }
  return 0;
}

/// The newest (by mtime) "*.bin" regular file in `dir`, or empty.
std::string NewestCheckpoint(const std::string& dir) {
  std::string newest;
  std::filesystem::file_time_type newest_time;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".bin") {
      continue;
    }
    const auto mtime = entry.last_write_time(ec);
    if (ec) continue;
    if (newest.empty() || mtime > newest_time) {
      newest = entry.path().string();
      newest_time = mtime;
    }
  }
  return newest;
}

int Run(int argc, char** argv) {
  ServeCliOptions options;
  if (!ParseArgs(argc, argv, options)) return Usage();
  if (int rc = Validate(options); rc != 0) return rc;
  if (options.threads > 0) {
    util::ThreadPool::SetGlobalNumThreads(options.threads);
  }
  util::FailPoint::ArmFromEnv();

  data::CityConfig city = options.preset == "lv"
                              ? data::LvLikeConfig({.users = options.scale})
                              : data::NycLikeConfig({.users = options.scale});
  data::Dataset dataset = data::MakeDataset(city, options.seed);
  core::TextModel text_model =
      core::TrainTextModel(dataset, {}, options.seed);

  core::HisRectModelConfig config;
  config.ssl.steps = options.ssl_steps;
  config.judge_trainer.steps = options.judge_steps;
  config.seed = options.seed;
  config.encoder_options.cache_capacity = options.cache_capacity;
  config.plan.enabled = options.plan || options.fuse;
  config.plan.fuse = options.fuse;

  const std::vector<data::Profile>& pool = dataset.test.profiles;
  if (pool.size() < 2) {
    std::fprintf(stderr, "test split too small to serve from\n");
    return 1;
  }

  // Three model sources: a registry directory (hot-swappable), a fixed
  // checkpoint file, or train-from-scratch.
  serve::RegistryOptions registry_options;
  registry_options.model_config = config;
  serve::ModelRegistry registry(&dataset, &text_model, registry_options);
  core::HisRectModel local_model(config);  // --model / from-scratch path.
  const bool use_registry = !options.registry_dir.empty();
  if (use_registry) {
    const std::string newest = NewestCheckpoint(options.registry_dir);
    if (newest.empty()) {
      std::fprintf(stderr, "no *.bin checkpoint found in %s\n",
                   options.registry_dir.c_str());
      return 1;
    }
    auto version = registry.Deploy(newest);
    if (!version.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   version.status().ToString().c_str());
      return 1;
    }
    std::printf("deployed %s as v%llu\n", newest.c_str(),
                static_cast<unsigned long long>(version.value()));
    // sigaction with SA_RESTART instead of std::signal: reload signals
    // landing mid-syscall restart the interrupted accept/read/write on the
    // admin thread rather than surfacing EINTR, and the handler stays
    // installed across deliveries on every libc (std::signal leaves both
    // properties implementation-defined).
    struct sigaction reload_action;
    std::memset(&reload_action, 0, sizeof(reload_action));
    reload_action.sa_handler = HandleSighup;
    sigemptyset(&reload_action.sa_mask);
    reload_action.sa_flags = SA_RESTART;
    sigaction(SIGHUP, &reload_action, nullptr);
  } else if (!options.model_path.empty()) {
    local_model.InitializeForLoad(dataset, text_model);
    util::Status status = local_model.Load(options.model_path);
    if (!status.ok()) {
      std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("loaded %s\n", options.model_path.c_str());
  } else {
    std::printf("no --model given; training from scratch...\n");
    util::Status status = local_model.TryFit(dataset, text_model);
    if (!status.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  serve::ServeOptions serve_options;
  serve_options.batch_size = options.batch_size;
  serve_options.max_wait_us = options.max_wait_us;
  serve_options.max_queue = options.max_queue;
  serve_options.max_batch_queue = options.max_batch_queue;
  if (options.admin_port >= 0) {
    // The introspection plane wants stage traces and live percentiles;
    // both stay off without --admin-port (zero overhead by default).
    serve_options.stage_trace_capacity = 1u << 14;
    serve_options.stats_window_s = 10.0;
  }
  // Single server by default; --router-shards N >= 2 stands up a
  // hash-sharded fleet instead. Exactly one of the two exists, and with
  // --registry-dir the registry attaches to whichever does, so SIGHUP
  // reloads publish to the single server or fan out fleet-wide.
  const bool use_router = options.router_shards >= 2;
  std::unique_ptr<serve::JudgementServer> server;
  std::unique_ptr<serve::ShardRouter> router;
  if (use_router) {
    serve::RouterOptions router_options;
    router_options.num_shards = options.router_shards;
    router_options.shard_options = serve_options;
    router = use_registry
                 ? std::make_unique<serve::ShardRouter>(
                       registry.current(), router_options,
                       registry.current_version())
                 : std::make_unique<serve::ShardRouter>(&local_model,
                                                        router_options);
    if (use_registry) registry.Attach(router.get());
    std::printf("router: %zu shards\n", router->num_shards());
  } else {
    server = use_registry
                 ? std::make_unique<serve::JudgementServer>(
                       registry.current(), serve_options,
                       registry.current_version())
                 : std::make_unique<serve::JudgementServer>(&local_model,
                                                            serve_options);
    if (use_registry) registry.Attach(server.get());
  }

  serve::ServerIntrospection introspection =
      use_router ? serve::ServerIntrospection(router.get())
                 : serve::ServerIntrospection(server.get());
  obs::AdminServer admin;
  if (options.admin_port >= 0) {
    introspection.RegisterHandlers(&admin);
    util::Status status =
        admin.Start(static_cast<uint16_t>(options.admin_port));
    if (!status.ok()) {
      std::fprintf(stderr, "admin endpoint failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf(
        "admin endpoint on http://127.0.0.1:%u "
        "(/metrics /healthz /statusz /tracez)\n",
        admin.port());
    std::fflush(stdout);
  }

  const serve::Priority priority = options.priority == "batch"
                                       ? serve::Priority::kBatch
                                       : serve::Priority::kInteractive;

  // A SIGHUP observed between submissions (or between collected responses)
  // triggers a zero-downtime hot swap: in-flight batches finish on the old
  // version while the newest checkpoint loads and warms off the hot path.
  // Registered eagerly so every metrics dump carries the series, even at
  // zero reloads (check_telemetry.py --serving).
  obs::Counter* reloads =
      obs::MetricsRegistry::Global().GetCounter("hisrect.serve.reloads");
  auto maybe_reload = [&] {
    if (!use_registry || !g_reload_requested) return;
    g_reload_requested = 0;
    const std::string newest = NewestCheckpoint(options.registry_dir);
    if (newest.empty()) {
      std::fprintf(stderr, "reload: no *.bin checkpoint in %s\n",
                   options.registry_dir.c_str());
      return;
    }
    auto version = registry.Deploy(newest);
    if (version.ok()) {
      reloads->Increment();
      std::printf("reload: deployed %s as v%llu\n", newest.c_str(),
                  static_cast<unsigned long long>(version.value()));
    } else {
      std::fprintf(stderr, "reload failed (still serving v%llu): %s\n",
                   static_cast<unsigned long long>(registry.current_version()),
                   version.status().ToString().c_str());
    }
  };

  // Submit everything up front (the server batches), then collect.
  auto submit = [&](serve::JudgementRequest request) {
    return use_router ? router->Submit(std::move(request))
                      : server->Submit(std::move(request));
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<serve::Ticket> tickets;
  std::vector<std::pair<data::UserId, data::UserId>> who;
  size_t rejected = 0;
  for (size_t i = 0; i < options.requests; ++i) {
    maybe_reload();
    serve::JudgementRequest request;
    request.a = pool[i % pool.size()];
    request.b = pool[(i * 7 + 3) % pool.size()];
    request.priority = priority;
    request.timeout_us = options.deadline_ms * 1000;
    who.emplace_back(request.a.uid, request.b.uid);
    auto result = submit(std::move(request));
    if (result.ok()) {
      tickets.push_back(std::move(result).value());
    } else {
      tickets.emplace_back();  // Placeholder keeps indices aligned.
      ++rejected;
    }
  }

  util::Table sample({"uid a", "uid b", "score", "co-located", "version"});
  size_t completed = 0;
  size_t positive = 0;
  size_t expired = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    maybe_reload();
    if (!tickets[i].valid()) continue;
    util::Result<serve::Response> response = tickets[i].future().get();
    if (!response.ok()) {
      if (response.status().code() == util::StatusCode::kDeadlineExceeded) {
        ++expired;
      }
      continue;
    }
    ++completed;
    const serve::Judgement& judgement = response.value().judgement;
    if (judgement.co_located) ++positive;
    if (i < 10) {
      sample.AddRow({std::to_string(who[i].first),
                     std::to_string(who[i].second),
                     util::Table::Fmt(judgement.score, 4),
                     judgement.co_located ? "yes" : "no",
                     "v" + std::to_string(response.value().model_version)});
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Hold the process open for external pollers (hisrect_top, the bench
  // smoke) before draining; SIGHUP reloads still land during the window.
  if (options.linger_ms > 0) {
    const auto linger_until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.linger_ms);
    while (std::chrono::steady_clock::now() < linger_until) {
      maybe_reload();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  // Graceful shutdown: advertise the drain first so /healthz flips to
  // "draining" while admitted requests are still being resolved.
  introspection.SetDraining(true);
  if (use_router) {
    router->Shutdown();
  } else {
    server->Shutdown();
  }
  if (use_registry) registry.Detach();

  std::printf("== sample judgements ==\n");
  sample.Print(std::cout);
  serve::JudgementServer::Stats stats =
      use_router ? router->stats() : server->stats();
  std::printf(
      "served %zu/%zu requests in %.3fs (%.1f/s), %zu rejected, "
      "%zu expired, %llu batches, %llu swaps, %zu judged co-located\n",
      completed, options.requests, seconds,
      static_cast<double>(completed) / seconds, rejected, expired,
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.swaps), positive);
  const core::HisRectModel& model =
      use_router ? *router->shard(0).model()
                 : (use_registry ? *server->model() : local_model);
  std::printf(
      "encoder cache: capacity=%zu size=%zu hits=%zu misses=%zu "
      "evictions=%zu\n",
      model.encoder().cache_capacity(), model.encoder().cache_size(),
      model.encoder().cache_hits(), model.encoder().cache_misses(),
      model.encoder().cache_evictions());
  if (use_router) {
    const std::vector<uint64_t> routed = router->routed_per_shard();
    std::string per_shard;
    for (size_t i = 0; i < routed.size(); ++i) {
      if (i > 0) per_shard += " ";
      per_shard += std::to_string(routed[i]);
    }
    std::printf("router: routed per shard: [%s]\n", per_shard.c_str());
  }

  if (!options.metrics_out.empty()) {
    util::Status status = obs::WriteMetricsJsonFile(options.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hisrect

int main(int argc, char** argv) { return hisrect::Run(argc, argv); }
