// Robustness tests for the serving path (DESIGN.md §13): admission-time
// request validation, deadlines, cancellation, priority admission,
// failpoint-injected faults, and zero-downtime model hot-swap via
// serve::ModelRegistry.
//
// Fault injection uses util::FailPoint (serve.slow_batch, serve.score_abort,
// registry.corrupt_load); every test disarms on exit so suites compose.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hisrect_model.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "serve/judgement_server.h"
#include "serve/model_registry.h"
#include "serve/shard_router.h"
#include "tests/test_common.h"
#include "util/fail_point.h"
#include "util/status.h"

namespace hisrect::serve {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

core::HisRectModelConfig FastConfig() {
  core::HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.ssl.steps = 200;
  config.ssl.batch_size = 4;
  config.judge_trainer.steps = 200;
  config.judge_trainer.batch_size = 4;
  return config;
}

// One fitted model (and one saved checkpoint for registry tests) for the
// whole suite — fitting dominates test time.
class ServeRobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new core::TextModel(TinyTextModel(*dataset_));
    model_ = new core::HisRectModel(FastConfig());
    model_->Fit(*dataset_, *text_model_);
    checkpoint_dir_ = new std::string(::testing::TempDir() +
                                      "serve_robustness_test/");
    std::filesystem::remove_all(*checkpoint_dir_);
    std::filesystem::create_directories(*checkpoint_dir_);
    checkpoint_path_ = new std::string(*checkpoint_dir_ + "model.bin");
    ASSERT_TRUE(model_->Save(*checkpoint_path_).ok());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*checkpoint_dir_);
    delete checkpoint_path_;
    delete checkpoint_dir_;
    delete model_;
    delete text_model_;
    delete dataset_;
    checkpoint_path_ = nullptr;
    checkpoint_dir_ = nullptr;
    model_ = nullptr;
    text_model_ = nullptr;
    dataset_ = nullptr;
  }

  void TearDown() override { util::FailPoint::DisarmAll(); }

  static JudgementRequest RequestFor(size_t i, size_t j,
                                     Priority priority = Priority::kInteractive,
                                     uint64_t timeout_us = 0) {
    JudgementRequest request;
    request.a = dataset_->test.profiles[i % dataset_->test.profiles.size()];
    request.b = dataset_->test.profiles[j % dataset_->test.profiles.size()];
    request.priority = priority;
    request.timeout_us = timeout_us;
    return request;
  }

  static RegistryOptions FastRegistryOptions() {
    RegistryOptions options;
    options.model_config = FastConfig();
    options.warmup_pairs = 4;
    return options;
  }

  static data::Dataset* dataset_;
  static core::TextModel* text_model_;
  static core::HisRectModel* model_;
  static std::string* checkpoint_dir_;
  static std::string* checkpoint_path_;
};

data::Dataset* ServeRobustnessFixture::dataset_ = nullptr;
core::TextModel* ServeRobustnessFixture::text_model_ = nullptr;
core::HisRectModel* ServeRobustnessFixture::model_ = nullptr;
std::string* ServeRobustnessFixture::checkpoint_dir_ = nullptr;
std::string* ServeRobustnessFixture::checkpoint_path_ = nullptr;

// ---------------------------------------------------------------------------
// Tie rule (satellite): 0.5 judges co-located, matching offline eval.

TEST(TieRuleTest, HalfIsCoLocatedAndMatchesOfflineEval) {
  EXPECT_TRUE(CoLocatedScore(0.5));
  EXPECT_TRUE(CoLocatedScore(0.75));
  EXPECT_FALSE(CoLocatedScore(std::nextafter(0.5, 0.0)));

  // A pair scored exactly 0.5 must land on the same side of the decision
  // as eval::ConfusionAtThreshold(scores, labels, 0.5): predicted positive.
  eval::Confusion confusion =
      eval::ConfusionAtThreshold({0.5, 0.25}, {1, 0}, 0.5);
  EXPECT_EQ(confusion.tp, 1u);  // The tied pair counts as predicted positive,
  EXPECT_EQ(confusion.fn, 0u);  // exactly like CoLocatedScore(0.5).
  EXPECT_EQ(confusion.tn, 1u);
}

// ---------------------------------------------------------------------------
// Admission-time validation: malformed requests are rejected with
// kInvalidArgument instead of CHECK-failing or overflowing the deadline.

// A timeout whose deadline cannot be represented on the steady clock.
constexpr uint64_t kOverflowingTimeoutUs =
    std::numeric_limits<uint64_t>::max() / 2;

TEST_F(ServeRobustnessFixture, OutOfRangePriorityIsInvalidArgument) {
  JudgementServer server(model_);
  for (int bad : {2, 7, -1}) {
    auto result = server.Submit(RequestFor(0, 1, static_cast<Priority>(bad)));
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST_F(ServeRobustnessFixture, OverflowingTimeoutIsInvalidArgument) {
  JudgementServer server(model_);
  for (uint64_t bad : {kOverflowingTimeoutUs,
                       std::numeric_limits<uint64_t>::max(),
                       static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::max())}) {
    auto result =
        server.Submit(RequestFor(0, 1, Priority::kInteractive, bad));
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(server.stats().admitted, 0u);

  // A long but representable deadline (one day) is still admitted, and the
  // server keeps serving after the rejections.
  auto ok = server.Submit(
      RequestFor(0, 1, Priority::kInteractive, 86'400ull * 1'000'000));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(std::move(ok).value().future().get().ok());
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST_F(ServeRobustnessFixture, RouterRejectsInvalidRequestsPerShard) {
  RouterOptions options;
  options.num_shards = 3;
  ShardRouter router(model_, options);
  auto bad_priority =
      router.Submit(RequestFor(0, 1, static_cast<Priority>(5)));
  ASSERT_FALSE(bad_priority.ok());
  EXPECT_EQ(bad_priority.status().code(), util::StatusCode::kInvalidArgument);
  auto bad_timeout = router.Submit(
      RequestFor(2, 3, Priority::kBatch, kOverflowingTimeoutUs));
  ASSERT_FALSE(bad_timeout.ok());
  EXPECT_EQ(bad_timeout.status().code(), util::StatusCode::kInvalidArgument);

  auto good = router.Submit(RequestFor(0, 1));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(std::move(good).value().future().get().ok());
  router.Shutdown();
  JudgementServer::Stats stats = router.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 2u);
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST_F(ServeRobustnessFixture, OverdueRequestExpiresAtBatchFormation) {
  ServeOptions options;
  options.batch_size = 100;     // Never reached: the flush timer forms the
  options.max_wait_us = 20000;  // batch 20ms after admission...
  JudgementServer server(model_, options);

  // ...by which point a 1us deadline is long overdue.
  auto result = server.Submit(RequestFor(0, 2, Priority::kInteractive, 1));
  ASSERT_TRUE(result.ok());
  Ticket ticket = std::move(result).value();
  util::Result<Response> response = ticket.future().get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST_F(ServeRobustnessFixture, SlowBatchExpiresQueuedDeadlineNeverMidBatch) {
  ServeOptions options;
  options.batch_size = 1;
  options.max_wait_us = 1000;
  JudgementServer server(model_, options);

  // The first batch stalls 100ms (injected); a second request with a 5ms
  // deadline queues behind it. The batcher must expire it when it next forms
  // a batch — and must NOT expire the in-flight one, which carries no
  // deadline but would be overdue mid-batch if the check were misplaced.
  util::FailPoint::Arm("serve.slow_batch", 1, 100);
  auto slow = server.Submit(RequestFor(0, 2));
  ASSERT_TRUE(slow.ok());
  Ticket slow_ticket = std::move(slow).value();
  // Wait until the slow batch is actually in flight (queue drained).
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto doomed =
      server.Submit(RequestFor(1, 3, Priority::kInteractive, 5000));
  ASSERT_TRUE(doomed.ok());
  Ticket doomed_ticket = std::move(doomed).value();

  util::Result<Response> slow_response = slow_ticket.future().get();
  ASSERT_TRUE(slow_response.ok()) << slow_response.status().ToString();
  EXPECT_GE(slow_response.value().latency_seconds, 0.1);  // Paid the stall.

  util::Result<Response> doomed_response = doomed_ticket.future().get();
  ASSERT_FALSE(doomed_response.ok());
  EXPECT_EQ(doomed_response.status().code(),
            util::StatusCode::kDeadlineExceeded);
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// ---------------------------------------------------------------------------
// Cancellation.

TEST_F(ServeRobustnessFixture, CancelQueuedRequestResolvesCancelled) {
  ServeOptions options;
  options.batch_size = 100;
  options.max_wait_us = 10'000'000;  // Window stays open: requests sit queued.
  JudgementServer server(model_, options);

  auto result = server.Submit(RequestFor(0, 2));
  ASSERT_TRUE(result.ok());
  Ticket ticket = std::move(result).value();
  EXPECT_TRUE(ticket.Cancel());
  EXPECT_FALSE(ticket.Cancel());  // Second cancel finds nothing to cancel.

  util::Result<Response> response = ticket.future().get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST_F(ServeRobustnessFixture, CancelAfterScoringReturnsFalse) {
  ServeOptions options;
  options.batch_size = 1;  // Scored immediately.
  JudgementServer server(model_, options);

  auto result = server.Submit(RequestFor(0, 2));
  ASSERT_TRUE(result.ok());
  Ticket ticket = std::move(result).value();
  ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_FALSE(ticket.Cancel());
  ASSERT_TRUE(ticket.future().get().ok());
  EXPECT_EQ(server.stats().cancelled, 0u);
}

TEST_F(ServeRobustnessFixture, CancelRacesShutdownEveryFutureResolves) {
  ServeOptions options;
  options.batch_size = 4;
  options.max_wait_us = 500;
  JudgementServer server(model_, options);

  const size_t kRequests = 48;
  std::vector<Ticket> tickets;
  tickets.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    auto result = server.Submit(RequestFor(i, i + 2));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }

  // Cancels race the drain: each request is either scored or cancelled,
  // never both, never neither.
  std::thread canceller([&tickets] {
    for (size_t i = 0; i < tickets.size(); i += 3) tickets[i].Cancel();
  });
  server.Shutdown();
  canceller.join();

  size_t scored = 0, cancelled = 0;
  for (Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "an admitted future was left hanging across Shutdown";
    util::Result<Response> response = ticket.future().get();
    if (response.ok()) {
      ++scored;
    } else {
      EXPECT_EQ(response.status().code(), util::StatusCode::kCancelled);
      ++cancelled;
    }
  }
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(scored + cancelled, kRequests);
  EXPECT_EQ(stats.completed, scored);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.admitted, kRequests);
}

TEST_F(ServeRobustnessFixture, DeadlinesRaceFlushEveryFutureResolves) {
  ServeOptions options;
  options.batch_size = 4;
  options.max_wait_us = 200;
  JudgementServer server(model_, options);

  const size_t kRequests = 48;
  std::vector<Ticket> tickets;
  tickets.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    // Deadlines straddle the flush window so expiry races batch formation.
    const uint64_t timeout_us = (i % 2 == 0) ? 150 : 0;
    auto result =
        server.Submit(RequestFor(i, i + 2, Priority::kInteractive, timeout_us));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  server.Shutdown();

  size_t scored = 0, expired = 0;
  for (Ticket& ticket : tickets) {
    util::Result<Response> response = ticket.future().get();
    if (response.ok()) {
      ++scored;
    } else {
      EXPECT_EQ(response.status().code(),
                util::StatusCode::kDeadlineExceeded);
      ++expired;
    }
  }
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(scored + expired, kRequests);
  EXPECT_EQ(stats.completed, scored);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.completed + stats.expired, stats.admitted);
}

// ---------------------------------------------------------------------------
// Priority admission.

TEST_F(ServeRobustnessFixture, BatchClassShedsAtItsOwnBound) {
  ServeOptions options;
  options.batch_size = 100;
  options.max_wait_us = 10'000'000;  // Queues fill deterministically.
  options.max_queue = 8;
  options.max_batch_queue = 2;
  JudgementServer server(model_, options);

  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 2; ++i) {
    auto result = server.Submit(RequestFor(i, i + 2, Priority::kBatch));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  // Batch class is full: the next batch submit sheds...
  auto shed = server.Submit(RequestFor(4, 6, Priority::kBatch));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  // ...while interactive still has headroom.
  auto interactive = server.Submit(RequestFor(5, 7, Priority::kInteractive));
  ASSERT_TRUE(interactive.ok());
  tickets.push_back(std::move(interactive).value());

  EXPECT_EQ(server.stats().rejected, 1u);
  server.Shutdown();
  for (Ticket& ticket : tickets) {
    EXPECT_TRUE(ticket.future().get().ok());
  }
}

TEST_F(ServeRobustnessFixture, InteractiveFlushesBeforeEarlierBatchClass) {
  ServeOptions options;
  options.batch_size = 1;  // One request per batch: formation order is
  options.max_wait_us = 1000;  // completion order.
  JudgementServer server(model_, options);

  // Stall the first batch 100ms so the next two submissions are both queued
  // when it ends; arm score_abort to fire on the THIRD batch formed. With
  // strict priority the third batch is the batch-class request (admitted
  // first, flushed last); with FIFO it would be the interactive one.
  util::FailPoint::Arm("serve.slow_batch", 1, 100);
  util::FailPoint::Arm("serve.score_abort", 3);

  auto first = server.Submit(RequestFor(0, 2));
  ASSERT_TRUE(first.ok());
  Ticket first_ticket = std::move(first).value();
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto batch_class = server.Submit(RequestFor(1, 3, Priority::kBatch));
  ASSERT_TRUE(batch_class.ok());
  Ticket batch_ticket = std::move(batch_class).value();
  auto interactive = server.Submit(RequestFor(2, 4, Priority::kInteractive));
  ASSERT_TRUE(interactive.ok());
  Ticket interactive_ticket = std::move(interactive).value();

  EXPECT_TRUE(first_ticket.future().get().ok());
  EXPECT_TRUE(interactive_ticket.future().get().ok())
      << "interactive request must ride the second batch, before the "
         "earlier-admitted batch-class request";
  util::Result<Response> aborted = batch_ticket.future().get();
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(server.stats().aborted, 1u);
}

// ---------------------------------------------------------------------------
// Injected scoring failure.

TEST_F(ServeRobustnessFixture, ScoreAbortResolvesWholeBatchInternal) {
  ServeOptions options;
  options.batch_size = 4;
  options.max_wait_us = 10'000'000;
  JudgementServer server(model_, options);

  util::FailPoint::Arm("serve.score_abort", 1);
  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 4; ++i) {
    auto result = server.Submit(RequestFor(i, i + 2));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (Ticket& ticket : tickets) {
    util::Result<Response> response = ticket.future().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), util::StatusCode::kInternal);
  }
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(stats.aborted, 4u);
  EXPECT_EQ(stats.completed, 0u);

  // The failpoint disarmed after firing: the server recovers.
  auto next = server.Submit(RequestFor(0, 2));
  ASSERT_TRUE(next.ok());
  Ticket next_ticket = std::move(next).value();
  server.Shutdown();
  EXPECT_TRUE(next_ticket.future().get().ok());
}

// ---------------------------------------------------------------------------
// Model registry: load, warmup, publish, rollback.

TEST_F(ServeRobustnessFixture, DeployPublishesVersionsAndRollbackRestores) {
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.current(), nullptr);

  auto v1 = registry.Deploy(*checkpoint_path_);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1.value(), 1u);
  ASSERT_NE(registry.current(), nullptr);

  auto v2 = registry.Deploy(*checkpoint_path_);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 2u);
  EXPECT_EQ(registry.num_versions(), 2u);

  ASSERT_TRUE(registry.Rollback().ok());
  EXPECT_EQ(registry.current_version(), 1u);
  // Only one version retained now: nothing left to roll back to.
  util::Status exhausted = registry.Rollback();
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ServeRobustnessFixture, DeployedModelScoresBitwiseMatchSourceModel) {
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  ASSERT_TRUE(registry.Deploy(*checkpoint_path_).ok());
  std::shared_ptr<const core::HisRectModel> deployed = registry.current();
  for (size_t i = 0; i < 6; ++i) {
    const auto& a = dataset_->test.profiles[i];
    const auto& b = dataset_->test.profiles[i + 2];
    hisrect::testing::ExpectBitwiseEqual(
        deployed->ScorePair(a, b), model_->ScorePair(a, b),
        "deployed (load+warmup) vs source model score");
  }
}

TEST_F(ServeRobustnessFixture, CorruptLoadFailpointRollsBackDeploy) {
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  ASSERT_TRUE(registry.Deploy(*checkpoint_path_).ok());

  obs::Counter* rollbacks = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.swap_rollbacks");
  const int64_t before = rollbacks->Value();
  util::FailPoint::Arm("registry.corrupt_load", 1);
  auto failed = registry.Deploy(*checkpoint_path_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kIoError);
  EXPECT_EQ(registry.current_version(), 1u);  // v1 keeps serving.
  EXPECT_EQ(rollbacks->Value(), before + 1);

  // The failpoint disarmed: the next deploy succeeds.
  auto v2 = registry.Deploy(*checkpoint_path_);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 2u);
}

TEST_F(ServeRobustnessFixture, GarbageCheckpointFileRejectedWithoutPublish) {
  const std::string garbage_path = *checkpoint_dir_ + "garbage.bin";
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "HRCT2 this is not a checkpoint, CRC cannot possibly match";
  }
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  ASSERT_TRUE(registry.Deploy(*checkpoint_path_).ok());
  auto failed = registry.Deploy(garbage_path);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_EQ(registry.num_versions(), 1u);
}

// ---------------------------------------------------------------------------
// Zero-downtime hot swap.

TEST_F(ServeRobustnessFixture, HotSwapMidStreamEveryResponseAttributable) {
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  ASSERT_TRUE(registry.Deploy(*checkpoint_path_).ok());

  ServeOptions options;
  options.batch_size = 2;
  options.max_wait_us = 500;
  JudgementServer server(registry.current(), options,
                         registry.current_version());
  registry.Attach(&server);

  const size_t kRequests = 64;
  std::vector<Ticket> tickets;
  std::vector<size_t> pair_index;
  std::atomic<bool> swapped{false};
  std::thread deployer([&registry, &swapped] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto v2 = registry.Deploy(
        *ServeRobustnessFixture::checkpoint_path_);
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    swapped.store(true);
  });
  for (size_t i = 0; i < kRequests; ++i) {
    auto result = server.Submit(RequestFor(i, i * 7 + 3));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
    pair_index.push_back(i);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  deployer.join();
  // Traffic submitted strictly after the swap must land on v2.
  ASSERT_TRUE(swapped.load());
  auto after = server.Submit(RequestFor(0, 3));
  ASSERT_TRUE(after.ok());
  tickets.push_back(std::move(after).value());
  pair_index.push_back(0);
  server.Shutdown();

  size_t v2_responses = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    util::Result<Response> response = tickets[i].future().get();
    ASSERT_TRUE(response.ok()) << "request dropped across hot swap: "
                               << response.status().ToString();
    const uint64_t version = response.value().model_version;
    ASSERT_TRUE(version == 1 || version == 2)
        << "response attributed to unknown version " << version;
    if (version == 2) ++v2_responses;
    // Both versions load the same checkpoint: scores stay bitwise-identical
    // to the offline model regardless of which side of the swap served them.
    const size_t p = pair_index[i];
    const auto& a =
        dataset_->test.profiles[p % dataset_->test.profiles.size()];
    const auto& b =
        dataset_->test.profiles[(p * 7 + 3) % dataset_->test.profiles.size()];
    hisrect::testing::ExpectBitwiseEqual(
        response.value().judgement.score, model_->ScorePair(a, b),
        "served-across-swap vs offline score");
  }
  EXPECT_GE(v2_responses, 1u);
  EXPECT_EQ(server.model_version(), 2u);
  EXPECT_GE(server.stats().swaps, 1u);
}

TEST_F(ServeRobustnessFixture, SwapRacesShutdownWithoutDropsOrDeadlock) {
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  ASSERT_TRUE(registry.Deploy(*checkpoint_path_).ok());

  ServeOptions options;
  options.batch_size = 4;
  options.max_wait_us = 500;
  auto server = std::make_unique<JudgementServer>(
      registry.current(), options, registry.current_version());
  registry.Attach(server.get());

  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 24; ++i) {
    auto result = server->Submit(RequestFor(i, i + 2));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  std::thread deployer([&registry] {
    // Races Shutdown: publication into a stopping server must neither drop
    // requests nor deadlock.
    auto v2 = registry.Deploy(
        *ServeRobustnessFixture::checkpoint_path_);
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  });
  server->Shutdown();
  deployer.join();
  registry.Detach();  // Detach before the server dies.
  for (Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.future().get().ok());
  }
  auto late = server->Submit(RequestFor(0, 2));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
  server.reset();
  EXPECT_EQ(registry.current_version(), 2u);
}

}  // namespace
}  // namespace hisrect::serve
