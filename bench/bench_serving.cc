// Online serving benchmark: closed-loop load against a JudgementServer
// (src/serve) wrapping a fitted HisRect model with a small bounded encoder
// cache. Measures end-to-end request latency (p50/p95/p99) and throughput,
// checks that every served score is bitwise-identical to the offline
// ScorePair on the same profiles, and soaks the bounded LRU cache with 10x
// its capacity of distinct profiles to prove the bound holds with visible
// evictions. Serving runs on the recorded-plan path (config.plan.enabled):
// the closed-loop load warms every pair shape, after which scoring must do
// zero tensor allocations — measured across the verification pass and gated
// in the exit code. A hash-sharded ShardRouter phase (DESIGN.md §15) gates
// shard-count admission-capacity scaling, bitwise identity through the
// router, an all-or-nothing fleet deploy with an injected one-shard warmup
// failure, and shard balance under a burst/diurnal open-loop replay. Emits
// machine-readable bench_out/BENCH_serving.json for tools/run_benches.sh
// and tools/check_telemetry.py.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/hisrect_model.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serve/introspection.h"
#include "serve/judgement_server.h"
#include "serve/model_registry.h"
#include "serve/shard_router.h"
#include "serve/stage_trace.h"
#include "util/fail_point.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace hisrect::bench {
namespace {

struct HistDelta {
  std::vector<double> boundaries;
  std::vector<uint64_t> counts;
  uint64_t total = 0;
  double sum = 0.0;
};

HistDelta HistogramDelta(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after, const char* name) {
  HistDelta delta;
  const obs::MetricValue* b = before.Find(name);
  const obs::MetricValue* a = after.Find(name);
  if (a == nullptr) return delta;
  delta.boundaries = a->boundaries;
  delta.counts = a->bucket_counts;
  delta.total = a->count;
  delta.sum = a->sum;
  if (b != nullptr) {
    delta.total -= b->count;
    delta.sum -= b->sum;
    for (size_t i = 0; i < delta.counts.size() && i < b->bucket_counts.size();
         ++i) {
      delta.counts[i] -= b->bucket_counts[i];
    }
  }
  return delta;
}

int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const char* name) {
  const obs::MetricValue* b = before.Find(name);
  const obs::MetricValue* a = after.Find(name);
  return (a == nullptr ? 0 : a->value) - (b == nullptr ? 0 : b->value);
}

/// One-shot loopback HTTP/1.0 GET against an obs::AdminServer — the bench
/// polls through the real socket path, exactly like an external scraper.
bool AdminGet(uint16_t port, const char* path, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos ||
      response.compare(9, 3, "200") != 0) {
    return false;
  }
  *body = response.substr(head_end + 4);
  return true;
}

int Run() {
  BenchEnv env = BenchEnv::FromEnv();
  // Serving latency, not model quality: short training budgets, small city.
  env.ssl_steps = 400;
  env.judge_steps = 300;
  const size_t kCacheCapacity = 64;
  const size_t kClientThreads = 4;
  const size_t kRequestsPerClient = 200;
  const size_t kVerifyPairs = 32;

  BenchDataset data =
      MakeBenchDataset(data::NycLikeConfig({.users = 0.15}), env.seed);

  core::HisRectModelConfig config = baselines::BaseModelConfig(env.Budget());
  config.encoder_options.cache_capacity = kCacheCapacity;
  // Production serving path: training and ScorePairEncoded both replay
  // recorded memory-planned graphs (bitwise-identical to eager; see
  // tests/determinism_test.cc for the eager-vs-planned sweep).
  config.plan.enabled = true;
  core::HisRectModel model(config);
  {
    PhaseTimer fit_watch;
    model.Fit(data.dataset, data.text_model);
    std::fprintf(stderr, "[serving] fit %.1fs\n", fit_watch.ElapsedSeconds());
  }

  const std::vector<data::Profile>& pool = data.dataset.test.profiles;
  const size_t pool_size = pool.size();
  if (pool_size < 4) {
    std::fprintf(stderr, "[serving] test split too small (%zu)\n", pool_size);
    return 1;
  }

  serve::ServeOptions serve_options;
  serve_options.batch_size = 8;
  serve_options.max_wait_us = 500;
  serve_options.max_queue = 1024;
  serve::JudgementServer server(&model, serve_options);

  auto pair_for = [&](size_t i) {
    serve::JudgementRequest request;
    request.a = pool[i % pool_size];
    request.b = pool[(i * 7 + 3) % pool_size];
    return request;
  };

  // --- Closed-loop load phase: each client submits, waits, repeats. ---
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Scrape();
  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<size_t> client_rejected(kClientThreads, 0);
  const auto load_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        latencies[t].reserve(kRequestsPerClient);
        for (size_t i = 0; i < kRequestsPerClient; ++i) {
          const auto start = std::chrono::steady_clock::now();
          auto result = server.Submit(pair_for(t * kRequestsPerClient + i));
          if (!result.ok()) {
            ++client_rejected[t];
            continue;
          }
          if (!std::move(result).value().future().get().ok()) continue;
          latencies[t].push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const double load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_start)
          .count();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Scrape();

  std::vector<double> all_latencies;
  size_t rejected_closed_loop = 0;
  for (size_t t = 0; t < kClientThreads; ++t) {
    all_latencies.insert(all_latencies.end(), latencies[t].begin(),
                         latencies[t].end());
    rejected_closed_loop += client_rejected[t];
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  const double qps =
      static_cast<double>(all_latencies.size()) / load_seconds;
  const double p50_ms = SortedPercentile(all_latencies, 0.50) * 1e3;
  const double p95_ms = SortedPercentile(all_latencies, 0.95) * 1e3;
  const double p99_ms = SortedPercentile(all_latencies, 0.99) * 1e3;
  const HistDelta batch_hist =
      HistogramDelta(before, after, "hisrect.serve.batch_size");
  const double mean_batch =
      batch_hist.total == 0
          ? 0.0
          : batch_hist.sum / static_cast<double>(batch_hist.total);

  // --- Bitwise verification: served == offline on the same pairs. ---
  // Every verify pair's (word count, word count) shape already appeared in
  // the closed-loop load, so the plan cache is warm: this pass doubles as
  // the steady-state window for the zero-allocation contract.
  bool bitwise_identical = true;
  for (size_t i = 0; i < kVerifyPairs; ++i) {
    serve::JudgementRequest request = pair_for(i * 13 + 1);
    auto result = server.Submit(request);
    if (!result.ok()) {
      bitwise_identical = false;
      break;
    }
    util::Result<serve::Response> response =
        std::move(result).value().future().get();
    if (!response.ok()) {
      bitwise_identical = false;
      break;
    }
    double served = response.value().judgement.score;
    double offline = model.ScorePair(request.a, request.b);
    if (std::memcmp(&served, &offline, sizeof(double)) != 0) {
      bitwise_identical = false;
      std::fprintf(stderr,
                   "[serving] BITWISE MISMATCH pair %zu: served %.17g vs "
                   "offline %.17g\n",
                   i, served, offline);
    }
  }
  const obs::MetricsSnapshot after_verify =
      obs::MetricsRegistry::Global().Scrape();
  const int64_t steady_tensor_allocs =
      CounterDelta(after, after_verify, "hisrect.nn.tensor_allocs");
  const int64_t arena_bytes = [&] {
    const obs::MetricValue* gauge =
        after_verify.Find("hisrect.nn.arena_bytes");
    return gauge == nullptr ? int64_t{0} : gauge->value;
  }();
  const int64_t plan_cache_hits =
      CounterDelta(before, after_verify, "hisrect.nn.plan_cache_hits");

  // --- Soak: 10x cache capacity of distinct profiles through the server.
  // The old unbounded memo map would grow without limit; the bounded LRU
  // must stay at its capacity and surface the churn as evictions. ---
  const size_t evictions_before = model.encoder().cache_evictions();
  const size_t soak_requests = 10 * kCacheCapacity;
  for (size_t i = 0; i < soak_requests; ++i) {
    serve::JudgementRequest request;
    request.a = pool[0];
    request.a.uid = 1'000'000 + i;  // Distinct cache key per request.
    request.b = pool[1];
    auto result = server.Submit(request);
    if (!result.ok()) continue;
    std::move(result).value().future().get();
  }
  const size_t cache_size_after = model.encoder().cache_size();
  const size_t soak_evictions =
      model.encoder().cache_evictions() - evictions_before;
  const bool bound_held = cache_size_after <= kCacheCapacity;

  server.Shutdown();
  serve::JudgementServer::Stats stats = server.stats();
  // Every admitted request must resolve somewhere: scored, cancelled,
  // expired, or aborted. Anything else was dropped.
  const uint64_t lost = stats.admitted - stats.completed - stats.cancelled -
                        stats.expired - stats.aborted;

  std::string out_dir = "bench_out";
  if (const char* v = std::getenv("HISRECT_BENCH_OUT")) out_dir = v;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  // --- Open-loop overload + zero-downtime hot swap (DESIGN.md §13). ---
  // Offered load is ≥2.2x the closed-loop capacity measured above: an
  // interactive stream at a sub-capacity rate plus a bursty batch-class
  // flood carrying 50ms deadlines. The server must shed batch (kUnavailable
  // at its own bound) while interactive p99 stays within 2x its uncontended
  // p99, and a ModelRegistry deploy mid-overload must swap the model with
  // zero dropped requests — every response attributable to exactly one
  // version and bitwise-identical to the offline scorer.
  struct OverloadOutcome {
    bool ran = false;
    double interactive_qps = 0.0, offered_qps = 0.0;
    double p99_uncontended_ms = 0.0, p99_overload_ms = 0.0;
    size_t interactive_completed = 0, interactive_expired = 0;
    size_t batch_admitted = 0, batch_shed = 0, batch_completed = 0;
    size_t batch_expired = 0, batch_cancelled = 0;
    size_t responses_v1 = 0, responses_v2 = 0, dropped = 0;
    int64_t swap_rollbacks = 0;
    uint64_t swapped_version = 0;
    bool bitwise = true;
    bool ratio_ok = false, shed_ok = false, versions_ok = false;
    // Stage-trace introspection (DESIGN.md §14), recorded while an admin
    // endpoint is scraped at 10 Hz through the real socket path. The
    // accounting gate: every admitted request left exactly one trace, and
    // every retained scored trace's per-stage sum reproduces the
    // server-measured latency within 1%.
    struct StageStat {
      double mean_ms = 0.0, p99_ms = 0.0;
    };
    StageStat stage_queue, stage_batch, stage_encode, stage_score,
        stage_resolve;
    uint64_t traces_recorded = 0;
    size_t traces_scored = 0;
    size_t admin_polls = 0;
    bool accounting_ok = false;
    bool ok() const {
      return ran && ratio_ok && shed_ok && versions_ok && dropped == 0 &&
             bitwise && swap_rollbacks == 0 && accounting_ok;
    }
  };
  OverloadOutcome overload;
  const std::string swap_ckpt = out_dir + "/serving_swap_model.bin";
  if (!model.Save(swap_ckpt).ok()) {
    std::fprintf(stderr, "[serving] cannot save %s\n", swap_ckpt.c_str());
  } else {
    // Offline reference, one score per pair-pattern slot: the pairing walk
    // (i % P, (i*7+3) % P) cycles with period P, so P scores cover every
    // pair any open-loop request can carry.
    std::vector<double> offline_scores(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      offline_scores[i] =
          model.ScorePair(pool[i % pool_size], pool[(i * 7 + 3) % pool_size]);
    }
    serve::RegistryOptions registry_options;
    registry_options.model_config = config;
    serve::ModelRegistry registry(&data.dataset, &data.text_model,
                                  registry_options);
    auto v1 = registry.Deploy(swap_ckpt);
    if (!v1.ok()) {
      std::fprintf(stderr, "[serving] overload: deploy v1 failed: %s\n",
                   v1.status().ToString().c_str());
    } else {
      // The p99 ratio is a latency gate on a shared box: allow one retry.
      for (int attempt = 0; attempt < 2 && !overload.ok(); ++attempt) {
        OverloadOutcome out;
        out.ran = true;
        const obs::MetricsSnapshot overload_before =
            obs::MetricsRegistry::Global().Scrape();
        serve::ServeOptions overload_options;
        overload_options.batch_size = 4;
        overload_options.max_wait_us = 2000;
        overload_options.max_queue = 512;
        overload_options.max_batch_queue = 64;  // Shed batch first, hard.
        // Full introspection plane on during overload: stage traces for the
        // breakdown + accounting gate, windowed percentiles for /statusz.
        overload_options.stage_trace_capacity = 1u << 15;
        overload_options.stats_window_s = 10.0;
        const uint64_t base_version = registry.current_version();
        serve::JudgementServer overload_server(registry.current(),
                                               overload_options,
                                               base_version);
        registry.Attach(&overload_server);

        // Admin endpoint scraped at 10 Hz through the socket path for the
        // whole phase — production-shaped observability load.
        serve::ServerIntrospection overload_intro(&overload_server);
        obs::AdminServer overload_admin;
        overload_intro.RegisterHandlers(&overload_admin);
        std::atomic<bool> poll_stop{false};
        std::thread poller;
        if (overload_admin.Start(0).ok()) {
          poller = std::thread([&] {
            std::string body;
            while (!poll_stop.load(std::memory_order_relaxed)) {
              if (AdminGet(overload_admin.port(), "/statusz", &body) &&
                  AdminGet(overload_admin.port(), "/metrics", &body)) {
                ++out.admin_polls;
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
          });
        }

        const double capacity = std::max(qps, 200.0);
        out.interactive_qps = 0.35 * capacity;
        out.offered_qps = 2.2 * capacity;
        const double batch_qps = out.offered_qps - out.interactive_qps;

        struct Sub {
          serve::Ticket ticket;
          size_t pair = 0;
          bool overload_phase = false;
        };
        std::vector<Sub> interactive_subs, batch_subs;
        size_t interactive_rejected = 0;

        // Paced open-loop submitter: submissions keyed to a wall-clock
        // schedule, never blocked on responses.
        auto run_interactive = [&](double seconds, bool overload_phase,
                                   size_t base) {
          const auto phase_start = std::chrono::steady_clock::now();
          const double interval = 1.0 / out.interactive_qps;
          for (size_t i = 0;; ++i) {
            const double due = static_cast<double>(i) * interval;
            if (due >= seconds) break;
            std::this_thread::sleep_until(
                phase_start + std::chrono::duration<double>(due));
            serve::JudgementRequest request = pair_for(base + i);
            request.priority = serve::Priority::kInteractive;
            auto result = overload_server.Submit(std::move(request));
            if (!result.ok()) {
              ++interactive_rejected;
              continue;
            }
            interactive_subs.push_back(Sub{std::move(result).value(),
                                           (base + i) % pool_size,
                                           overload_phase});
          }
        };

        // Phase A: interactive alone, at the same rate it will see under
        // overload — the uncontended baseline for the p99 ratio.
        run_interactive(1.0, /*overload_phase=*/false, 0);

        // Phase B: same interactive stream + bursty batch flood + a hot
        // swap deployed mid-phase off the serving path.
        const double kOverloadSeconds = 2.4;
        std::thread batch_flood([&] {
          const auto phase_start = std::chrono::steady_clock::now();
          double due = 0.0;
          for (size_t i = 0;; ++i) {
            // Burst: the middle third offers 2x the batch rate.
            const bool burst = due > kOverloadSeconds / 3 &&
                               due < 2 * kOverloadSeconds / 3;
            due += 1.0 / (burst ? 2.0 * batch_qps : batch_qps);
            if (due >= kOverloadSeconds) break;
            std::this_thread::sleep_until(
                phase_start + std::chrono::duration<double>(due));
            serve::JudgementRequest request = pair_for(i);
            request.priority = serve::Priority::kBatch;
            request.timeout_us = 50'000;  // Stale batch work expires.
            auto result = overload_server.Submit(std::move(request));
            if (!result.ok()) {
              ++out.batch_shed;
              continue;
            }
            ++out.batch_admitted;
            batch_subs.push_back(
                Sub{std::move(result).value(), i % pool_size, true});
            if (batch_subs.size() % 37 == 0) {
              batch_subs.back().ticket.Cancel();  // Client gave up.
            }
          }
        });
        std::thread deployer([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(800));
          auto v2 = registry.Deploy(swap_ckpt);
          if (v2.ok()) out.swapped_version = v2.value();
        });
        run_interactive(kOverloadSeconds, /*overload_phase=*/true, 100'000);
        batch_flood.join();
        deployer.join();
        // Tail: traffic strictly after the swap, so v2 attribution is
        // guaranteed even if the deploy landed late in the phase.
        for (size_t i = 0; i < 8; ++i) {
          auto result = overload_server.Submit(pair_for(i));
          if (result.ok()) {
            interactive_subs.push_back(
                Sub{std::move(result).value(), i % pool_size, true});
          }
        }
        overload_server.Shutdown();
        poll_stop.store(true, std::memory_order_relaxed);
        if (poller.joinable()) poller.join();
        overload_admin.Stop();
        registry.Detach();

        // Stage accounting: one trace per admitted request, and retained
        // scored traces must telescope — stage sum == latency_seconds
        // within 1%. Also the per-stage breakdown for the JSON record.
        {
          const serve::JudgementServer::Stats ostats =
              overload_server.stats();
          const serve::StageTraceBuffer* traces =
              overload_server.stage_traces();
          out.traces_recorded = traces->recorded();
          bool sums_ok = true;
          std::vector<double> stage_vals[5];
          for (const serve::StageTrace& trace :
               traces->Recent(overload_options.stage_trace_capacity)) {
            if (trace.outcome != serve::StageTrace::Outcome::kScored) {
              continue;
            }
            ++out.traces_scored;
            const double sum = trace.StageSum();
            if (std::fabs(sum - trace.total_seconds) >
                std::max(1e-6, 0.01 * trace.total_seconds)) {
              sums_ok = false;
            }
            stage_vals[0].push_back(trace.queue_seconds);
            stage_vals[1].push_back(trace.batch_seconds);
            stage_vals[2].push_back(trace.encode_seconds);
            stage_vals[3].push_back(trace.score_seconds);
            stage_vals[4].push_back(trace.resolve_seconds);
          }
          out.accounting_ok = sums_ok && out.traces_scored > 0 &&
                              out.traces_recorded == ostats.admitted;
          OverloadOutcome::StageStat* stats_out[5] = {
              &out.stage_queue, &out.stage_batch, &out.stage_encode,
              &out.stage_score, &out.stage_resolve};
          for (int s = 0; s < 5; ++s) {
            if (stage_vals[s].empty()) continue;
            double total = 0.0;
            for (double v : stage_vals[s]) total += v;
            std::sort(stage_vals[s].begin(), stage_vals[s].end());
            stats_out[s]->mean_ms =
                total / static_cast<double>(stage_vals[s].size()) * 1e3;
            stats_out[s]->p99_ms = SortedPercentile(stage_vals[s], 0.99) * 1e3;
          }
        }

        // Collect. After Shutdown every admitted future must be ready:
        // scored, expired, cancelled, or aborted — anything else is a drop.
        std::vector<double> unc_lat, over_lat;
        auto collect = [&](std::vector<Sub>& subs, bool interactive) {
          for (Sub& sub : subs) {
            if (sub.ticket.future().wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
              ++out.dropped;
              continue;
            }
            util::Result<serve::Response> response = sub.ticket.future().get();
            if (!response.ok()) {
              const util::StatusCode code = response.status().code();
              if (code == util::StatusCode::kDeadlineExceeded) {
                (interactive ? out.interactive_expired : out.batch_expired)++;
              } else if (code == util::StatusCode::kCancelled) {
                ++out.batch_cancelled;
              }
              continue;
            }
            const serve::Response& r = response.value();
            if (r.model_version == base_version) {
              ++out.responses_v1;
            } else if (r.model_version == out.swapped_version) {
              ++out.responses_v2;
            } else {
              out.versions_ok = false;  // Attributed to an unknown version.
            }
            double offline = offline_scores[sub.pair];
            if (std::memcmp(&r.judgement.score, &offline, sizeof(double)) !=
                0) {
              out.bitwise = false;
            }
            if (interactive) {
              ++out.interactive_completed;
              (sub.overload_phase ? over_lat : unc_lat)
                  .push_back(r.latency_seconds);
            } else {
              ++out.batch_completed;
            }
          }
        };
        out.versions_ok = true;
        collect(interactive_subs, true);
        collect(batch_subs, false);
        std::sort(unc_lat.begin(), unc_lat.end());
        std::sort(over_lat.begin(), over_lat.end());
        out.p99_uncontended_ms = SortedPercentile(unc_lat, 0.99) * 1e3;
        out.p99_overload_ms = SortedPercentile(over_lat, 0.99) * 1e3;
        out.ratio_ok = unc_lat.size() >= 50 && over_lat.size() >= 50 &&
                       out.p99_overload_ms <= 2.0 * out.p99_uncontended_ms;
        out.shed_ok = out.batch_shed > 0;
        out.versions_ok = out.versions_ok && out.swapped_version != 0 &&
                          out.responses_v2 >= 1;
        out.swap_rollbacks = CounterDelta(
            overload_before, obs::MetricsRegistry::Global().Scrape(),
            "hisrect.serve.swap_rollbacks");
        if (!out.ratio_ok && attempt == 0) {
          std::fprintf(stderr,
                       "[serving] overload attempt %d: p99 %.3fms vs "
                       "uncontended %.3fms — retrying\n",
                       attempt, out.p99_overload_ms, out.p99_uncontended_ms);
        }
        overload = out;
        // Re-deploy a fresh version for the retry so the swap is observable
        // again (versions keep incrementing; the gate checks swapped, not 2).
      }
    }
  }
  if (!overload.ok()) {
    std::fprintf(
        stderr,
        "[serving] overload gate FAILED: ran=%d ratio_ok=%d (p99 %.3fms vs "
        "2x %.3fms) shed=%zu versions_ok=%d dropped=%zu bitwise=%d "
        "rollbacks=%lld accounting_ok=%d (%llu traces, %zu scored)\n",
        overload.ran, overload.ratio_ok, overload.p99_overload_ms,
        overload.p99_uncontended_ms, overload.batch_shed,
        overload.versions_ok, overload.dropped, overload.bitwise,
        static_cast<long long>(overload.swap_rollbacks),
        overload.accounting_ok,
        static_cast<unsigned long long>(overload.traces_recorded),
        overload.traces_scored);
  }

  // --- Admin-plane overhead A/B (DESIGN.md §14 overhead budget). Two
  // servers over the same model: one bare, one with the full introspection
  // plane (stage traces + windowed stats) AND a live admin endpoint being
  // scraped at 10 Hz through the socket path. Closed-loop rounds alternate
  // between them so box-speed drift hits both modes equally. Gate: the
  // instrumented server's interactive p99 stays within 5% of the bare one
  // (one retry — this is a latency ratio on a shared box). ---
  struct AdminAb {
    bool ran = false;
    double p99_noadmin_ms = 0.0, p99_admin_ms = 0.0;
    size_t polls = 0;
    size_t requests_per_mode = 0;
    bool ok() const {
      return ran && polls >= 5 && requests_per_mode >= 100 &&
             p99_admin_ms <= 1.05 * p99_noadmin_ms;
    }
  };
  AdminAb admin_ab;
  for (int attempt = 0; attempt < 2 && !admin_ab.ok(); ++attempt) {
    AdminAb ab;
    ab.ran = true;
    serve::ServeOptions plain_options;
    plain_options.batch_size = 8;
    plain_options.max_wait_us = 500;
    serve::JudgementServer plain_server(&model, plain_options);
    serve::ServeOptions instr_options = plain_options;
    instr_options.stage_trace_capacity = 1u << 14;
    instr_options.stats_window_s = 10.0;
    serve::JudgementServer instr_server(&model, instr_options);
    serve::ServerIntrospection instr_intro(&instr_server);
    obs::AdminServer ab_admin;
    instr_intro.RegisterHandlers(&ab_admin);
    std::atomic<bool> ab_poll_stop{false};
    std::atomic<size_t> ab_polls{0};
    std::thread ab_poller;
    if (ab_admin.Start(0).ok()) {
      ab_poller = std::thread([&] {
        std::string body;
        while (!ab_poll_stop.load(std::memory_order_relaxed)) {
          if (AdminGet(ab_admin.port(), "/statusz", &body) &&
              AdminGet(ab_admin.port(), "/metrics", &body)) {
            ab_polls.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
    }
    const size_t kAbThreads = 2;
    const size_t kAbPerThread = 120;
    const size_t kAbRounds = 3;
    std::vector<double> lat_plain, lat_admin;
    std::mutex lat_mutex;
    auto run_mode = [&](serve::JudgementServer& target,
                        std::vector<double>& lat) {
      std::vector<std::thread> clients;
      for (size_t t = 0; t < kAbThreads; ++t) {
        clients.emplace_back([&, t] {
          std::vector<double> local;
          local.reserve(kAbPerThread);
          for (size_t i = 0; i < kAbPerThread; ++i) {
            auto result = target.Submit(pair_for(t * kAbPerThread + i));
            if (!result.ok()) continue;
            util::Result<serve::Response> response =
                std::move(result).value().future().get();
            if (response.ok()) {
              local.push_back(response.value().latency_seconds);
            }
          }
          std::lock_guard<std::mutex> lock(lat_mutex);
          lat.insert(lat.end(), local.begin(), local.end());
        });
      }
      for (std::thread& client : clients) client.join();
    };
    for (size_t round = 0; round < kAbRounds; ++round) {
      run_mode(plain_server, lat_plain);
      run_mode(instr_server, lat_admin);
    }
    ab_poll_stop.store(true, std::memory_order_relaxed);
    if (ab_poller.joinable()) ab_poller.join();
    ab_admin.Stop();
    instr_server.Shutdown();
    plain_server.Shutdown();
    std::sort(lat_plain.begin(), lat_plain.end());
    std::sort(lat_admin.begin(), lat_admin.end());
    ab.requests_per_mode = lat_plain.size();
    ab.polls = ab_polls.load(std::memory_order_relaxed);
    ab.p99_noadmin_ms = SortedPercentile(lat_plain, 0.99) * 1e3;
    ab.p99_admin_ms = SortedPercentile(lat_admin, 0.99) * 1e3;
    if (!ab.ok() && attempt == 0) {
      std::fprintf(stderr,
                   "[serving] admin A/B attempt %d: p99 %.3fms (admin) vs "
                   "%.3fms (bare) — retrying\n",
                   attempt, ab.p99_admin_ms, ab.p99_noadmin_ms);
    }
    admin_ab = ab;
  }
  if (!admin_ab.ok()) {
    std::fprintf(stderr,
                 "[serving] admin overhead gate FAILED: p99 %.3fms (admin, "
                 "%zu polls) vs %.3fms (bare) over %zu requests/mode\n",
                 admin_ab.p99_admin_ms, admin_ab.polls,
                 admin_ab.p99_noadmin_ms, admin_ab.requests_per_mode);
  }

  // --- Hash-sharded router phase (DESIGN.md §15). Three sub-phases:
  //  1. Burst capacity scaling: with the shard batchers parked (huge batch,
  //     long wait), an instantaneous burst 4x the widest fleet's admission
  //     capacity must admit ~S*max_queue requests — admission capacity
  //     scales with shard count by construction, and Shutdown must then
  //     drain every admitted future (zero drops).
  //  2. Diurnal/burst open-loop replay on a 2-shard fleet fed by a
  //     ModelRegistry, with a mid-run fleet deploy whose second shard's
  //     warmup is made to fail (registry.shard_warmup_fail): the whole
  //     deploy must roll back (incumbent everywhere, exactly one rollback),
  //     a clean redeploy must then reach both shards, and every response
  //     must be bitwise-identical to the offline scorer and attributable to
  //     incumbent or fleet version — never a mix.
  //  3. Balance: 4096 distinct canonical user pairs against a 4-shard
  //     router; the max/min routed-per-shard ratio is gated (splitmix64
  //     spread), with the requests cancelled instead of scored so the gate
  //     measures the hash, not the scorer.
  constexpr size_t kScales = 3;
  struct RouterOutcome {
    bool ran = false;
    size_t shard_counts[kScales] = {1, 2, 4};
    size_t burst_offered = 0;
    size_t per_shard_queue_bound = 0;
    size_t admitted_by_scale[kScales] = {0, 0, 0};
    size_t burst_dropped = 0;
    bool scaling_ok = false;
    size_t replay_shards = 0;
    double replay_seconds = 0.0;
    size_t replay_offered = 0, replay_admitted = 0, replay_completed = 0;
    size_t replay_shed = 0, replay_dropped = 0;
    bool replay_bitwise = true;
    uint64_t incumbent_version = 0, fleet_version = 0;
    size_t responses_incumbent = 0, responses_fleet = 0;
    bool versions_known = true;
    bool failed_deploy_rolled_back = false;
    int64_t swap_rollbacks = 0;
    bool deploy_ok = false;
    size_t balance_shards = 0, balance_requests = 0;
    std::vector<uint64_t> routed_per_shard;
    double max_min_ratio = 0.0;
    double balance_bound = 1.35;
    bool balance_ok = false;
    bool ok() const {
      return ran && scaling_ok && burst_dropped == 0 && replay_bitwise &&
             replay_dropped == 0 && deploy_ok && balance_ok;
    }
  };
  RouterOutcome router_out;
  if (!model.Save(swap_ckpt).ok()) {
    std::fprintf(stderr, "[serving] router: cannot save %s\n",
                 swap_ckpt.c_str());
  } else {
    router_out.ran = true;

    // Sub-phase 1: burst capacity scaling.
    router_out.per_shard_queue_bound = 64;
    router_out.burst_offered = 16 * router_out.per_shard_queue_bound;
    router_out.scaling_ok = true;
    for (size_t sc = 0; sc < kScales; ++sc) {
      const size_t shards = router_out.shard_counts[sc];
      serve::RouterOptions burst_options;
      burst_options.num_shards = shards;
      // Park the batchers: nothing drains while the burst is admitted, so
      // admitted == min(offered to shard, max_queue) summed over shards.
      burst_options.shard_options.batch_size = 4096;
      burst_options.shard_options.max_wait_us = 30'000'000;
      burst_options.shard_options.max_queue =
          router_out.per_shard_queue_bound;
      burst_options.shard_options.max_batch_queue = 1;
      serve::ShardRouter burst_router(&model, burst_options);
      std::vector<serve::Ticket> tickets;
      tickets.reserve(router_out.burst_offered);
      for (size_t i = 0; i < router_out.burst_offered; ++i) {
        // Distinct canonical pair per request: capacity scaling must not
        // depend on the test pool's size or its hash spread.
        serve::JudgementRequest request;
        request.a = pool[i % pool_size];
        request.a.uid = 5'000'000 + static_cast<data::UserId>(2 * i);
        request.b = pool[(i * 7 + 3) % pool_size];
        request.b.uid = 5'000'001 + static_cast<data::UserId>(2 * i);
        auto result = burst_router.Submit(std::move(request));
        if (result.ok()) tickets.push_back(std::move(result).value());
      }
      router_out.admitted_by_scale[sc] = tickets.size();
      burst_router.Shutdown();  // Drains (scores) every admitted request.
      for (serve::Ticket& ticket : tickets) {
        if (ticket.future().wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++router_out.burst_dropped;
        }
      }
      // The parked batcher can still time out and drain a little on a very
      // slow box, so admitted can exceed S*bound — never legitimately fall
      // 10% under it.
      if (tickets.size() <
          (9 * shards * router_out.per_shard_queue_bound) / 10) {
        router_out.scaling_ok = false;
      }
    }
    router_out.scaling_ok =
        router_out.scaling_ok &&
        router_out.admitted_by_scale[1] >
            router_out.admitted_by_scale[0] &&
        router_out.admitted_by_scale[2] >
            router_out.admitted_by_scale[1] &&
        static_cast<double>(router_out.admitted_by_scale[2]) >=
            2.5 * static_cast<double>(router_out.admitted_by_scale[0]);

    // Sub-phase 2: diurnal replay + all-or-nothing fleet deploy drill.
    std::vector<double> offline_scores(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      offline_scores[i] =
          model.ScorePair(pool[i % pool_size], pool[(i * 7 + 3) % pool_size]);
    }
    serve::RegistryOptions fleet_registry_options;
    fleet_registry_options.model_config = config;
    serve::ModelRegistry fleet_registry(&data.dataset, &data.text_model,
                                        fleet_registry_options);
    auto incumbent = fleet_registry.Deploy(swap_ckpt);
    if (!incumbent.ok()) {
      std::fprintf(stderr, "[serving] router: incumbent deploy failed: %s\n",
                   incumbent.status().ToString().c_str());
      router_out.deploy_ok = false;
    } else {
      const obs::MetricsSnapshot fleet_before =
          obs::MetricsRegistry::Global().Scrape();
      router_out.incumbent_version = incumbent.value();
      serve::RouterOptions replay_options;
      replay_options.num_shards = 2;
      replay_options.shard_options.batch_size = 8;
      replay_options.shard_options.max_wait_us = 500;
      replay_options.shard_options.max_queue = 512;
      serve::ShardRouter replay_router(fleet_registry.current(),
                                       replay_options,
                                       router_out.incumbent_version);
      fleet_registry.Attach(&replay_router);
      router_out.replay_shards = replay_options.num_shards;

      struct RouterSub {
        serve::Ticket ticket;
        size_t pair = 0;
      };
      std::vector<RouterSub> subs;
      bool rolled_back = false;
      std::thread fleet_deployer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
        // Shard 0's instance loads and warms cleanly; shard 1's warmup
        // fails on its (second) evaluation of the point. All-or-nothing:
        // nothing may be published.
        util::FailPoint::Arm("registry.shard_warmup_fail", 2);
        auto bad = fleet_registry.Deploy(swap_ckpt);
        util::FailPoint::Disarm("registry.shard_warmup_fail");
        const std::vector<uint64_t> versions =
            replay_router.model_versions();
        rolled_back =
            !bad.ok() &&
            fleet_registry.current_version() ==
                router_out.incumbent_version &&
            versions[0] == router_out.incumbent_version &&
            versions[1] == router_out.incumbent_version;
        auto good = fleet_registry.Deploy(swap_ckpt);
        if (good.ok()) router_out.fleet_version = good.value();
      });

      // Open-loop burst/diurnal replay: offered rate swings 0.6x..1.4x of
      // ~capacity over the phase (half a "day"), with the middle third
      // bursting at 2x on top — transient overload is expected and shed is
      // allowed; drops are not.
      const double kReplaySeconds = 2.0;
      router_out.replay_seconds = kReplaySeconds;
      const double base_rate = std::max(qps, 200.0) * 0.9;
      {
        const auto phase_start = std::chrono::steady_clock::now();
        double due = 0.0;
        for (size_t i = 0;; ++i) {
          const double diurnal =
              0.6 + 0.8 * std::pow(std::sin(M_PI * due / kReplaySeconds), 2);
          const bool burst = due > kReplaySeconds / 3 &&
                             due < 2 * kReplaySeconds / 3;
          due += 1.0 / (base_rate * diurnal * (burst ? 2.0 : 1.0));
          if (due >= kReplaySeconds) break;
          std::this_thread::sleep_until(
              phase_start + std::chrono::duration<double>(due));
          ++router_out.replay_offered;
          auto result = replay_router.Submit(pair_for(i));
          if (!result.ok()) {
            ++router_out.replay_shed;
            continue;
          }
          subs.push_back(
              RouterSub{std::move(result).value(), i % pool_size});
        }
      }
      fleet_deployer.join();
      router_out.failed_deploy_rolled_back = rolled_back;
      // Tail traffic strictly after the redeploy: fleet-version attribution
      // is guaranteed even if the replay ended before the deploy landed.
      for (size_t i = 0; i < 8; ++i) {
        ++router_out.replay_offered;
        auto result = replay_router.Submit(pair_for(i));
        if (result.ok()) {
          subs.push_back(RouterSub{std::move(result).value(), i % pool_size});
        } else {
          ++router_out.replay_shed;
        }
      }
      replay_router.Shutdown();
      fleet_registry.Detach();
      router_out.replay_admitted = subs.size();
      for (RouterSub& sub : subs) {
        if (sub.ticket.future().wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++router_out.replay_dropped;
          continue;
        }
        util::Result<serve::Response> response = sub.ticket.future().get();
        if (!response.ok()) continue;
        const serve::Response& r = response.value();
        ++router_out.replay_completed;
        if (r.model_version == router_out.incumbent_version) {
          ++router_out.responses_incumbent;
        } else if (r.model_version == router_out.fleet_version) {
          ++router_out.responses_fleet;
        } else {
          router_out.versions_known = false;
        }
        double offline = offline_scores[sub.pair];
        if (std::memcmp(&r.judgement.score, &offline, sizeof(double)) != 0) {
          router_out.replay_bitwise = false;
        }
      }
      router_out.swap_rollbacks =
          CounterDelta(fleet_before, obs::MetricsRegistry::Global().Scrape(),
                       "hisrect.serve.swap_rollbacks");
      // Exactly the injected failure rolled back — the incumbent deploy and
      // the redeploy contributed none.
      router_out.deploy_ok =
          router_out.failed_deploy_rolled_back &&
          router_out.swap_rollbacks == 1 && router_out.fleet_version != 0 &&
          router_out.responses_fleet >= 1 && router_out.versions_known;
    }

    // Sub-phase 3: shard balance under distinct canonical pairs.
    {
      serve::RouterOptions balance_options;
      balance_options.num_shards = 4;
      balance_options.shard_options.batch_size = 4096;
      balance_options.shard_options.max_wait_us = 30'000'000;
      balance_options.shard_options.max_queue = 4096;
      serve::ShardRouter balance_router(&model, balance_options);
      router_out.balance_shards = balance_options.num_shards;
      router_out.balance_requests = 4096;
      std::vector<serve::Ticket> tickets;
      tickets.reserve(router_out.balance_requests);
      for (size_t i = 0; i < router_out.balance_requests; ++i) {
        serve::JudgementRequest request;
        request.a = pool[0];
        request.a.uid = 7'000'000 + static_cast<data::UserId>(2 * i);
        request.b = pool[1];
        request.b.uid = 7'000'001 + static_cast<data::UserId>(2 * i);
        auto result = balance_router.Submit(std::move(request));
        if (result.ok()) tickets.push_back(std::move(result).value());
      }
      router_out.routed_per_shard = balance_router.routed_per_shard();
      uint64_t min_routed = router_out.routed_per_shard[0];
      uint64_t max_routed = router_out.routed_per_shard[0];
      for (uint64_t routed : router_out.routed_per_shard) {
        min_routed = std::min(min_routed, routed);
        max_routed = std::max(max_routed, routed);
      }
      router_out.max_min_ratio =
          min_routed == 0 ? 0.0
                          : static_cast<double>(max_routed) /
                                static_cast<double>(min_routed);
      // Cancel instead of scoring: the gate measures the hash spread, and
      // every cancelled future still resolves exactly once.
      bool balance_resolved = true;
      for (serve::Ticket& ticket : tickets) ticket.Cancel();
      balance_router.Shutdown();
      for (serve::Ticket& ticket : tickets) {
        if (ticket.future().wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          balance_resolved = false;
        }
      }
      router_out.balance_ok =
          tickets.size() == router_out.balance_requests && min_routed > 0 &&
          router_out.max_min_ratio <= router_out.balance_bound &&
          balance_resolved;
    }
  }
  if (!router_out.ok()) {
    std::fprintf(
        stderr,
        "[serving] router gate FAILED: ran=%d scaling_ok=%d "
        "(admitted %zu/%zu/%zu, burst_dropped=%zu) bitwise=%d "
        "replay_dropped=%zu deploy_ok=%d (rolled_back=%d rollbacks=%lld "
        "fleet_v=%llu fleet_responses=%zu) balance_ok=%d (ratio %.3f)\n",
        router_out.ran, router_out.scaling_ok,
        router_out.admitted_by_scale[0], router_out.admitted_by_scale[1],
        router_out.admitted_by_scale[2], router_out.burst_dropped,
        router_out.replay_bitwise, router_out.replay_dropped,
        router_out.deploy_ok, router_out.failed_deploy_rolled_back,
        static_cast<long long>(router_out.swap_rollbacks),
        static_cast<unsigned long long>(router_out.fleet_version),
        router_out.responses_fleet, router_out.balance_ok,
        router_out.max_min_ratio);
  }

  // --- Execution-variant sweep: {baseline, plan, plan+fuse} single-thread
  // offline scoring throughput, all loading the one fit above from a
  // checkpoint. Contracts measured per variant: plan variants must score
  // bitwise-identically to the eager baseline and do zero steady-state
  // tensor allocations inside the timed window. ---
  struct VariantResult {
    std::string name;
    double pairs_per_sec = 0.0;
    bool matches_eager = false;
    int64_t steady_allocs = 0;
  };
  std::vector<VariantResult> variants;
  bool variants_ok = true;
  const std::string variant_ckpt = out_dir + "/serving_variant_model.bin";
  if (!model.Save(variant_ckpt).ok()) {
    std::fprintf(stderr, "[serving] cannot save %s\n", variant_ckpt.c_str());
    variants_ok = false;
  } else {
    util::ThreadPool::SetGlobalNumThreads(1);  // Single-thread throughput.
    const size_t kThroughputPairs = 48;
    struct VariantSpec {
      const char* name;
      bool plan, fuse;
    };
    const VariantSpec specs[] = {
        {"baseline", false, false},
        {"plan", true, false},
        {"plan_fuse", true, true},
    };
    struct VariantState {
      VariantSpec spec;
      std::unique_ptr<core::HisRectModel> model;
      std::vector<core::EncodedProfileHandle> encoded;
      VariantResult result;
      int64_t window_allocs = 0;
      double best_pps = 0.0;
    };
    std::vector<VariantState> states;
    std::vector<double> eager_scores;
    // Phase 1 (per variant): load, warm, and check the bitwise-vs-eager
    // contract.
    for (const VariantSpec& spec : specs) {
      core::HisRectModelConfig vconfig =
          baselines::BaseModelConfig(env.Budget());
      vconfig.plan.enabled = spec.plan;
      vconfig.plan.fuse = spec.fuse;
      VariantState state;
      state.spec = spec;
      state.model = std::make_unique<core::HisRectModel>(vconfig);
      core::HisRectModel& vmodel = *state.model;
      vmodel.InitializeForLoad(data.dataset, data.text_model);
      if (!vmodel.Load(variant_ckpt).ok()) {
        std::fprintf(stderr, "[serving] variant %s: load failed\n",
                     spec.name);
        variants_ok = false;
        break;
      }
      // Pre-encode the throughput pool once: the timed window measures
      // scoring proper (featurize + judge network), which is the path the
      // fused kernels target — not the encoder LRU.
      state.encoded.reserve(pool_size);
      for (size_t i = 0; i < pool_size; ++i) {
        state.encoded.push_back(vmodel.Encode(pool[i]));
      }
      auto pass = [&](std::vector<double>* out) {
        for (size_t i = 0; i < kThroughputPairs; ++i) {
          double score = vmodel.ScorePairEncoded(
              *state.encoded[i % pool_size],
              *state.encoded[(i * 7 + 3) % pool_size]);
          if (out != nullptr) out->push_back(score);
        }
      };
      // Warmup: plan recording for every timed pair shape.
      for (int warm = 0; warm < 6; ++warm) pass(nullptr);
      std::vector<double> scores;
      pass(&scores);
      if (spec.name == std::string("baseline")) eager_scores = scores;
      state.result.name = spec.name;
      state.result.matches_eager =
          scores.size() == eager_scores.size() &&
          std::memcmp(scores.data(), eager_scores.data(),
                      scores.size() * sizeof(double)) == 0;
      states.push_back(std::move(state));
    }
    // Phase 2: interleaved timing rounds. Round-robin over the variants so
    // slow phases of a shared box penalize all of them equally — back-to-
    // back per-variant windows would let box-speed drift masquerade as a
    // kernel-level speedup (or hide one). Best round wins; the alloc gate
    // accumulates across every window.
    if (variants_ok) {
      for (int round = 0; round < 8; ++round) {
        for (VariantState& state : states) {
          core::HisRectModel& vmodel = *state.model;
          const obs::MetricsSnapshot t0 =
              obs::MetricsRegistry::Global().Scrape();
          const auto round_start = std::chrono::steady_clock::now();
          size_t scored = 0;
          double elapsed = 0.0;
          do {
            for (size_t i = 0; i < kThroughputPairs; ++i) {
              (void)vmodel.ScorePairEncoded(
                  *state.encoded[i % pool_size],
                  *state.encoded[(i * 7 + 3) % pool_size]);
            }
            scored += kThroughputPairs;
            elapsed = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - round_start)
                          .count();
          } while (elapsed < 0.25);
          state.best_pps =
              std::max(state.best_pps, static_cast<double>(scored) / elapsed);
          state.window_allocs +=
              CounterDelta(t0, obs::MetricsRegistry::Global().Scrape(),
                           "hisrect.nn.tensor_allocs");
        }
      }
      for (VariantState& state : states) {
        state.result.pairs_per_sec = state.best_pps;
        state.result.steady_allocs = state.window_allocs;
        variants.push_back(state.result);
      }
    }
  }
  if (variants_ok && variants.size() == 3) {
    for (size_t i = 1; i < variants.size(); ++i) {
      const VariantResult& v = variants[i];
      if (!v.matches_eager) {
        std::fprintf(stderr,
                     "[serving] variant %s: scores differ from eager\n",
                     v.name.c_str());
        variants_ok = false;
      }
      if (v.steady_allocs != 0) {
        std::fprintf(stderr,
                     "[serving] variant %s: %lld steady-state tensor "
                     "allocation(s); want 0\n",
                     v.name.c_str(),
                     static_cast<long long>(v.steady_allocs));
        variants_ok = false;
      }
    }
  } else if (variants_ok) {
    variants_ok = false;
  }

  util::Table table({"metric", "value"});
  table.AddRow({"requests", std::to_string(all_latencies.size())});
  table.AddRow({"qps", util::Table::Fmt(qps, 1)});
  table.AddRow({"p50 ms", util::Table::Fmt(p50_ms, 3)});
  table.AddRow({"p95 ms", util::Table::Fmt(p95_ms, 3)});
  table.AddRow({"p99 ms", util::Table::Fmt(p99_ms, 3)});
  table.AddRow({"mean batch", util::Table::Fmt(mean_batch, 2)});
  table.AddRow({"lost", std::to_string(lost)});
  table.AddRow({"bitwise vs offline", bitwise_identical ? "OK" : "VIOLATED"});
  table.AddRow({"steady tensor allocs",
                std::to_string(static_cast<long long>(steady_tensor_allocs))});
  table.AddRow({"arena high-water B",
                std::to_string(static_cast<long long>(arena_bytes))});
  table.AddRow({"soak cache bound", bound_held ? "OK" : "VIOLATED"});
  table.AddRow({"soak evictions", std::to_string(soak_evictions)});
  table.AddRow({"overload p99 unc/over ms",
                util::Table::Fmt(overload.p99_uncontended_ms, 3) + " / " +
                    util::Table::Fmt(overload.p99_overload_ms, 3)});
  table.AddRow({"overload batch shed", std::to_string(overload.batch_shed)});
  table.AddRow(
      {"overload swap",
       "v" + std::to_string(overload.swapped_version) + " (" +
           std::to_string(overload.responses_v1) + " old / " +
           std::to_string(overload.responses_v2) + " new responses)"});
  table.AddRow({"overload gate", overload.ok() ? "OK" : "VIOLATED"});
  table.AddRow({"stage means q/b/e/s ms",
                util::Table::Fmt(overload.stage_queue.mean_ms, 3) + " / " +
                    util::Table::Fmt(overload.stage_batch.mean_ms, 3) +
                    " / " +
                    util::Table::Fmt(overload.stage_encode.mean_ms, 3) +
                    " / " +
                    util::Table::Fmt(overload.stage_score.mean_ms, 3)});
  table.AddRow({"trace accounting",
                overload.accounting_ok ? "OK" : "VIOLATED"});
  table.AddRow({"admin A/B p99 ms",
                util::Table::Fmt(admin_ab.p99_noadmin_ms, 3) + " bare / " +
                    util::Table::Fmt(admin_ab.p99_admin_ms, 3) + " admin (" +
                    std::to_string(admin_ab.polls) + " polls)"});
  table.AddRow({"admin overhead gate", admin_ab.ok() ? "OK" : "VIOLATED"});
  table.AddRow({"router burst admitted 1/2/4",
                std::to_string(router_out.admitted_by_scale[0]) + " / " +
                    std::to_string(router_out.admitted_by_scale[1]) + " / " +
                    std::to_string(router_out.admitted_by_scale[2])});
  table.AddRow({"router fleet deploy",
                "v" + std::to_string(router_out.fleet_version) +
                    " after rollback (" +
                    std::to_string(router_out.responses_incumbent) +
                    " incumbent / " +
                    std::to_string(router_out.responses_fleet) +
                    " fleet responses)"});
  table.AddRow({"router balance max/min",
                util::Table::Fmt(router_out.max_min_ratio, 3) + " over " +
                    std::to_string(router_out.balance_shards) + " shards"});
  table.AddRow({"router gate", router_out.ok() ? "OK" : "VIOLATED"});
  for (const VariantResult& v : variants) {
    table.AddRow({v.name + " pairs/s (1 thread)",
                  util::Table::Fmt(v.pairs_per_sec, 1)});
    table.AddRow({v.name + " bitwise vs eager",
                  v.matches_eager ? "OK" : "VIOLATED"});
  }
  std::printf("== Online serving (batch_size=%zu, max_wait=%lluus, "
              "cache_capacity=%zu) ==\n",
              serve_options.batch_size,
              static_cast<unsigned long long>(serve_options.max_wait_us),
              kCacheCapacity);
  table.Print(std::cout);

  std::string out_path = out_dir + "/BENCH_serving.json";
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "[serving] cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"client_threads\": %zu,\n", kClientThreads);
  std::fprintf(json, "  \"batch_size\": %zu,\n", serve_options.batch_size);
  std::fprintf(json, "  \"max_wait_us\": %llu,\n",
               static_cast<unsigned long long>(serve_options.max_wait_us));
  std::fprintf(json, "  \"requests\": %zu,\n", all_latencies.size());
  std::fprintf(json, "  \"rejected_closed_loop\": %zu,\n",
               rejected_closed_loop);
  std::fprintf(json, "  \"qps\": %.2f,\n", qps);
  std::fprintf(json,
               "  \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, "
               "\"p99\": %.4f},\n",
               p50_ms, p95_ms, p99_ms);
  std::fprintf(json, "  \"batches\": %llu,\n",
               static_cast<unsigned long long>(batch_hist.total));
  std::fprintf(json, "  \"mean_batch_size\": %.3f,\n", mean_batch);
  std::fprintf(json, "  \"batch_size_hist\": {\"boundaries\": [");
  for (size_t i = 0; i < batch_hist.boundaries.size(); ++i) {
    std::fprintf(json, "%s%.0f", i == 0 ? "" : ", ",
                 batch_hist.boundaries[i]);
  }
  std::fprintf(json, "], \"counts\": [");
  for (size_t i = 0; i < batch_hist.counts.size(); ++i) {
    std::fprintf(json, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(batch_hist.counts[i]));
  }
  std::fprintf(json, "]},\n");
  std::fprintf(json, "  \"admitted\": %llu,\n",
               static_cast<unsigned long long>(stats.admitted));
  std::fprintf(json, "  \"completed\": %llu,\n",
               static_cast<unsigned long long>(stats.completed));
  std::fprintf(json, "  \"rejected\": %llu,\n",
               static_cast<unsigned long long>(stats.rejected));
  std::fprintf(json, "  \"cancelled\": %llu,\n",
               static_cast<unsigned long long>(stats.cancelled));
  std::fprintf(json, "  \"expired\": %llu,\n",
               static_cast<unsigned long long>(stats.expired));
  std::fprintf(json, "  \"aborted\": %llu,\n",
               static_cast<unsigned long long>(stats.aborted));
  std::fprintf(json, "  \"lost\": %llu,\n",
               static_cast<unsigned long long>(lost));
  std::fprintf(json, "  \"served_bitwise_identical\": %s,\n",
               bitwise_identical ? "true" : "false");
  std::fprintf(json,
               "  \"plan\": {\"enabled\": true, "
               "\"steady_state_allocs\": %lld, "
               "\"arena_high_water_bytes\": %lld, "
               "\"plan_cache_hits\": %lld},\n",
               static_cast<long long>(steady_tensor_allocs),
               static_cast<long long>(arena_bytes),
               static_cast<long long>(plan_cache_hits));
  std::fprintf(json, "  \"variants\": [");
  for (size_t i = 0; i < variants.size(); ++i) {
    const VariantResult& v = variants[i];
    std::fprintf(json,
                 "%s\n    {\"name\": \"%s\", \"pairs_per_sec\": %.2f, "
                 "\"matches_eager\": %s, \"steady_state_allocs\": %lld}",
                 i == 0 ? "" : ",", v.name.c_str(), v.pairs_per_sec,
                 v.matches_eager ? "true" : "false",
                 static_cast<long long>(v.steady_allocs));
  }
  std::fprintf(json, "\n  ],\n");
  std::fprintf(json,
               "  \"overload\": {\"ran\": %s, \"offered_qps\": %.1f, "
               "\"interactive_qps\": %.1f,\n"
               "    \"p99_uncontended_ms\": %.4f, \"p99_overload_ms\": %.4f, "
               "\"p99_ratio_ok\": %s,\n"
               "    \"interactive_completed\": %zu, "
               "\"interactive_expired\": %zu,\n"
               "    \"batch_admitted\": %zu, \"batch_shed\": %zu, "
               "\"batch_completed\": %zu, \"batch_expired\": %zu, "
               "\"batch_cancelled\": %zu,\n"
               "    \"swapped_version\": %llu, \"responses_old_version\": "
               "%zu, \"responses_new_version\": %zu,\n"
               "    \"dropped\": %zu, \"bitwise_identical\": %s, "
               "\"swap_rollbacks\": %lld,\n",
               overload.ran ? "true" : "false", overload.offered_qps,
               overload.interactive_qps, overload.p99_uncontended_ms,
               overload.p99_overload_ms, overload.ratio_ok ? "true" : "false",
               overload.interactive_completed, overload.interactive_expired,
               overload.batch_admitted, overload.batch_shed,
               overload.batch_completed, overload.batch_expired,
               overload.batch_cancelled,
               static_cast<unsigned long long>(overload.swapped_version),
               overload.responses_v1, overload.responses_v2, overload.dropped,
               overload.bitwise ? "true" : "false",
               static_cast<long long>(overload.swap_rollbacks));
  std::fprintf(json,
               "    \"stages\": {"
               "\"queue\": {\"mean_ms\": %.4f, \"p99_ms\": %.4f}, "
               "\"batch\": {\"mean_ms\": %.4f, \"p99_ms\": %.4f}, "
               "\"encode\": {\"mean_ms\": %.4f, \"p99_ms\": %.4f}, "
               "\"score\": {\"mean_ms\": %.4f, \"p99_ms\": %.4f}, "
               "\"resolve\": {\"mean_ms\": %.4f, \"p99_ms\": %.4f}},\n",
               overload.stage_queue.mean_ms, overload.stage_queue.p99_ms,
               overload.stage_batch.mean_ms, overload.stage_batch.p99_ms,
               overload.stage_encode.mean_ms, overload.stage_encode.p99_ms,
               overload.stage_score.mean_ms, overload.stage_score.p99_ms,
               overload.stage_resolve.mean_ms, overload.stage_resolve.p99_ms);
  std::fprintf(json,
               "    \"traces_recorded\": %llu, \"traces_scored\": %zu, "
               "\"trace_accounting_ok\": %s, \"admin_polls\": %zu, "
               "\"ok\": %s},\n",
               static_cast<unsigned long long>(overload.traces_recorded),
               overload.traces_scored,
               overload.accounting_ok ? "true" : "false",
               overload.admin_polls, overload.ok() ? "true" : "false");
  std::fprintf(json,
               "  \"admin\": {\"ran\": %s, \"p99_noadmin_ms\": %.4f, "
               "\"p99_admin_ms\": %.4f, \"polls\": %zu, "
               "\"requests_per_mode\": %zu, \"ok\": %s},\n",
               admin_ab.ran ? "true" : "false", admin_ab.p99_noadmin_ms,
               admin_ab.p99_admin_ms, admin_ab.polls,
               admin_ab.requests_per_mode, admin_ab.ok() ? "true" : "false");
  std::fprintf(json,
               "  \"router\": {\"ran\": %s,\n"
               "    \"scaling\": {\"shard_counts\": [%zu, %zu, %zu], "
               "\"burst_offered\": %zu, \"per_shard_queue_bound\": %zu, "
               "\"admitted\": [%zu, %zu, %zu], \"dropped\": %zu, "
               "\"ok\": %s},\n",
               router_out.ran ? "true" : "false",
               router_out.shard_counts[0], router_out.shard_counts[1],
               router_out.shard_counts[2], router_out.burst_offered,
               router_out.per_shard_queue_bound,
               router_out.admitted_by_scale[0],
               router_out.admitted_by_scale[1],
               router_out.admitted_by_scale[2], router_out.burst_dropped,
               router_out.scaling_ok ? "true" : "false");
  std::fprintf(
      json,
      "    \"replay\": {\"shards\": %zu, \"seconds\": %.2f, "
      "\"offered\": %zu, \"admitted\": %zu, \"completed\": %zu, "
      "\"shed\": %zu, \"dropped\": %zu, \"bitwise_identical\": %s,\n"
      "      \"incumbent_version\": %llu, \"fleet_version\": %llu, "
      "\"responses_incumbent\": %zu, \"responses_fleet\": %zu,\n"
      "      \"failed_deploy_rolled_back\": %s, \"swap_rollbacks\": %lld, "
      "\"ok\": %s},\n",
      router_out.replay_shards, router_out.replay_seconds,
      router_out.replay_offered, router_out.replay_admitted,
      router_out.replay_completed, router_out.replay_shed,
      router_out.replay_dropped, router_out.replay_bitwise ? "true" : "false",
      static_cast<unsigned long long>(router_out.incumbent_version),
      static_cast<unsigned long long>(router_out.fleet_version),
      router_out.responses_incumbent, router_out.responses_fleet,
      router_out.failed_deploy_rolled_back ? "true" : "false",
      static_cast<long long>(router_out.swap_rollbacks),
      router_out.deploy_ok ? "true" : "false");
  std::fprintf(json,
               "    \"balance\": {\"shards\": %zu, \"requests\": %zu, "
               "\"routed_per_shard\": [",
               router_out.balance_shards, router_out.balance_requests);
  for (size_t i = 0; i < router_out.routed_per_shard.size(); ++i) {
    std::fprintf(json, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(
                     router_out.routed_per_shard[i]));
  }
  std::fprintf(json,
               "], \"max_min_ratio\": %.4f, \"bound\": %.2f, \"ok\": %s},\n"
               "    \"ok\": %s},\n",
               router_out.max_min_ratio, router_out.balance_bound,
               router_out.balance_ok ? "true" : "false",
               router_out.ok() ? "true" : "false");
  std::fprintf(json,
               "  \"cache\": {\"capacity\": %zu, \"hits\": %lld, "
               "\"misses\": %lld, \"soak_requests\": %zu, "
               "\"soak_evictions\": %zu, \"size_after\": %zu, "
               "\"bound_held\": %s}\n",
               kCacheCapacity, static_cast<long long>(CounterDelta(
                                   before, after, "hisrect.encode.cache_hits")),
               static_cast<long long>(
                   CounterDelta(before, after, "hisrect.encode.cache_misses")),
               soak_requests, soak_evictions, cache_size_after,
               bound_held ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("Wrote %s\n", out_path.c_str());

  return (lost == 0 && bitwise_identical && bound_held &&
          steady_tensor_allocs == 0 && variants_ok && overload.ok() &&
          admin_ab.ok() && router_out.ok())
             ? 0
             : 1;
}

}  // namespace
}  // namespace hisrect::bench

int main() { return hisrect::bench::Run(); }
