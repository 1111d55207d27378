#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/hisrect_model.h"
#include "core/profile_encoder.h"
#include "obs/metrics.h"
#include "serve/judgement_server.h"
#include "tests/test_common.h"

namespace hisrect::serve {
namespace {

using hisrect::testing::MakeProfile;
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

// One fitted model for the whole suite — fitting dominates test time.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new core::TextModel(TinyTextModel(*dataset_));
    model_ = new core::HisRectModel(FastConfig());
    model_->Fit(*dataset_, *text_model_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete text_model_;
    delete dataset_;
    model_ = nullptr;
    text_model_ = nullptr;
    dataset_ = nullptr;
  }

  static JudgementRequest RequestFor(size_t i, size_t j) {
    JudgementRequest request;
    request.a = dataset_->test.profiles[i];
    request.b = dataset_->test.profiles[j];
    return request;
  }

  static data::Dataset* dataset_;
  static core::TextModel* text_model_;
  static core::HisRectModel* model_;
};

data::Dataset* ServeFixture::dataset_ = nullptr;
core::TextModel* ServeFixture::text_model_ = nullptr;
core::HisRectModel* ServeFixture::model_ = nullptr;

TEST_F(ServeFixture, FlushesWhenBatchSizeReached) {
  ServeOptions options;
  options.batch_size = 4;
  options.max_wait_us = 10'000'000;  // Size, not timeout, must trigger.
  JudgementServer server(model_, options);

  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 4; ++i) {
    auto result = server.Submit(RequestFor(i, i + 1));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    tickets.push_back(std::move(result).value());
  }
  for (Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    util::Result<Response> response = ticket.future().get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Judgement& judgement = response.value().judgement;
    EXPECT_GE(judgement.score, 0.0);
    EXPECT_LE(judgement.score, 1.0);
    EXPECT_EQ(judgement.co_located, CoLocatedScore(judgement.score));
    EXPECT_EQ(response.value().model_version, 1u);
    EXPECT_GE(response.value().latency_seconds, 0.0);
  }
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeFixture, FlushesPartialBatchOnTimeout) {
  ServeOptions options;
  options.batch_size = 100;  // Never reached: timeout must flush.
  options.max_wait_us = 1000;
  JudgementServer server(model_, options);

  auto result = server.Submit(RequestFor(0, 1));
  ASSERT_TRUE(result.ok());
  Ticket ticket = std::move(result).value();
  ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  util::Result<Response> response = ticket.future().get();
  ASSERT_TRUE(response.ok());
  EXPECT_GE(response.value().judgement.score, 0.0);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST_F(ServeFixture, OverloadRejectsAndShutdownDrainsAdmitted) {
  ServeOptions options;
  options.batch_size = 100;          // Larger than anything we submit...
  options.max_wait_us = 10'000'000;  // ...and the window stays open, so the
  options.max_queue = 4;             // queue fills deterministically.
  JudgementServer server(model_, options);

  std::vector<Ticket> admitted;
  size_t rejected = 0;
  for (size_t i = 0; i < 10; ++i) {
    auto result = server.Submit(RequestFor(i, i + 1));
    if (result.ok()) {
      admitted.push_back(std::move(result).value());
    } else {
      EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted.size(), 4u);
  EXPECT_EQ(rejected, 6u);

  // Shutdown must complete every admitted request — no future left hanging.
  server.Shutdown();
  for (Ticket& ticket : admitted) {
    ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    util::Result<Response> response = ticket.future().get();
    ASSERT_TRUE(response.ok());
    EXPECT_GE(response.value().judgement.score, 0.0);
  }
  JudgementServer::Stats stats = server.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_FALSE(server.accepting());

  // Late submissions are an explicit failed precondition, not a hang.
  auto late = server.Submit(RequestFor(0, 1));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, ShutdownIsIdempotent) {
  JudgementServer server(model_);
  server.Shutdown();
  server.Shutdown();
  EXPECT_FALSE(server.accepting());
}

// Golden contract: a served score is bitwise-identical to the offline
// ScorePair on the same profiles — batching and threading change nothing.
TEST_F(ServeFixture, ServedScoresBitwiseMatchOffline) {
  ServeOptions options;
  options.batch_size = 3;  // Forces multiple partial + full batches.
  options.max_wait_us = 1000;
  JudgementServer server(model_, options);

  const size_t pairs = 8;
  std::vector<Ticket> tickets;
  for (size_t i = 0; i < pairs; ++i) {
    auto result = server.Submit(RequestFor(i, i + 2));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (size_t i = 0; i < pairs; ++i) {
    ASSERT_EQ(tickets[i].future().wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    util::Result<Response> response = tickets[i].future().get();
    ASSERT_TRUE(response.ok());
    double served = response.value().judgement.score;
    double offline = model_->ScorePair(dataset_->test.profiles[i],
                                       dataset_->test.profiles[i + 2]);
    hisrect::testing::ExpectBitwiseEqual(served, offline,
                                         "served vs offline score");
  }
}

// Planned serving path (config.plan.enabled): training always runs the
// eager tape, so this model fits to the fixture's parameters, and scores
// served through ScorePairPlanned by many concurrent clients must
// bitwise-match the eager fixture model's offline ScorePair. Racing clients
// exercise the plan-cache record path and the PlanRun pool under contention
// (run under TSan by sanitize_smoke.sh).
TEST_F(ServeFixture, PlannedServingBitwiseMatchesEagerOffline) {
  core::HisRectModelConfig config = FastConfig();
  config.plan.enabled = true;
  core::HisRectModel planned(config);
  planned.Fit(*dataset_, *text_model_);

  ServeOptions options;
  options.batch_size = 3;
  options.max_wait_us = 1000;
  JudgementServer server(&planned, options);

  const size_t kClients = 4;
  const size_t kPerClient = 12;
  std::vector<std::vector<std::pair<size_t, double>>> served(kClients);
  {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = 0; i < kPerClient; ++i) {
          const size_t p = (t * kPerClient + i) % 8;
          auto result = server.Submit(RequestFor(p, p + 2));
          if (!result.ok()) continue;  // Overload: nothing to compare.
          util::Result<Response> response =
              std::move(result).value().future().get();
          if (!response.ok()) continue;
          served[t].emplace_back(p, response.value().judgement.score);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  size_t compared = 0;
  for (size_t t = 0; t < kClients; ++t) {
    for (const auto& [p, score] : served[t]) {
      double offline = model_->ScorePair(dataset_->test.profiles[p],
                                         dataset_->test.profiles[p + 2]);
      hisrect::testing::ExpectBitwiseEqual(
          score, offline, "planned served vs eager offline score");
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

// Fused serving path (config.plan.fuse): the GraphOptimizer rewrite keeps
// the same bitwise contract as the plain plan — a JudgementServer on a
// fused fp32 plan (fitted on the eager tape, like every model) must serve
// scores bitwise-identical to the eager fixture model's offline ScorePair,
// under racing clients (TSan leg of
// sanitize_smoke.sh runs this under the `fusion` label).
TEST_F(ServeFixture, FusedPlannedServingBitwiseMatchesEagerOffline) {
  core::HisRectModelConfig config = FastConfig();
  config.plan.enabled = true;
  config.plan.fuse = true;
  core::HisRectModel fused(config);
  fused.Fit(*dataset_, *text_model_);

  ServeOptions options;
  options.batch_size = 3;
  options.max_wait_us = 1000;
  JudgementServer server(&fused, options);

  const size_t kClients = 4;
  const size_t kPerClient = 12;
  std::vector<std::vector<std::pair<size_t, double>>> served(kClients);
  {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = 0; i < kPerClient; ++i) {
          const size_t p = (t * kPerClient + i) % 8;
          auto result = server.Submit(RequestFor(p, p + 2));
          if (!result.ok()) continue;  // Overload: nothing to compare.
          util::Result<Response> response =
              std::move(result).value().future().get();
          if (!response.ok()) continue;
          served[t].emplace_back(p, response.value().judgement.score);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  size_t compared = 0;
  for (size_t t = 0; t < kClients; ++t) {
    for (const auto& [p, score] : served[t]) {
      double offline = model_->ScorePair(dataset_->test.profiles[p],
                                         dataset_->test.profiles[p + 2]);
      hisrect::testing::ExpectBitwiseEqual(
          score, offline, "fused served vs eager offline score");
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

// ---------------------------------------------------------------------------
// Bounded LRU encoder cache (the fix for the unbounded memo map).
// ---------------------------------------------------------------------------

TEST(EncoderLruTest, EvictsLeastRecentlyUsedAtCapacity) {
  data::Dataset dataset = TinyDataset();
  core::TextModel text_model = TinyTextModel(dataset);
  core::EncoderOptions options;
  options.cache_capacity = 2;
  core::ProfileEncoder encoder(&dataset.pois, &text_model, {}, 3, options);
  EXPECT_EQ(encoder.cache_capacity(), 2u);

  geo::LatLon center{40.0, -74.0};
  data::Profile a = MakeProfile(1, 100, center, 0, "alpha words here");
  data::Profile b = MakeProfile(2, 200, center, 1, "beta words here");
  data::Profile c = MakeProfile(3, 300, center, 0, "gamma words here");

  core::EncodedProfileHandle handle_b;
  {
    encoder.EncodeCached(a);                       // cache: [a]
    handle_b = encoder.EncodeCached(b);            // cache: [b, a]
    encoder.EncodeCached(a);                       // hit -> [a, b]
    EXPECT_EQ(encoder.cache_hits(), 1u);
    EXPECT_EQ(encoder.cache_evictions(), 0u);

    encoder.EncodeCached(c);                       // evicts b -> [c, a]
    EXPECT_EQ(encoder.cache_evictions(), 1u);
    EXPECT_EQ(encoder.cache_size(), 2u);
  }

  // a survived (recently used): hit. b was evicted: miss, evicting a or c.
  size_t hits = encoder.cache_hits();
  encoder.EncodeCached(a);
  EXPECT_EQ(encoder.cache_hits(), hits + 1);
  size_t misses = encoder.cache_misses();
  core::EncodedProfileHandle b_again = encoder.EncodeCached(b);
  EXPECT_EQ(encoder.cache_misses(), misses + 1);
  EXPECT_EQ(encoder.cache_size(), 2u);  // Still bounded.

  // The evicted entry's handle stayed valid, and re-encoding is bitwise
  // identical to the evicted copy.
  ASSERT_NE(handle_b, nullptr);
  hisrect::testing::ExpectBitwiseEqual(handle_b->visit_hisrect,
                                       b_again->visit_hisrect,
                                       "evicted handle vs re-encode");
  EXPECT_EQ(handle_b->words, b_again->words);
}

TEST(EncoderLruTest, HitsShareTheStoredObject) {
  data::Dataset dataset = TinyDataset();
  core::TextModel text_model = TinyTextModel(dataset);
  core::ProfileEncoder encoder(&dataset.pois, &text_model);
  data::Profile p = MakeProfile(7, 700, {40.0, -74.0}, 0);
  core::EncodedProfileHandle first = encoder.EncodeCached(p);
  core::EncodedProfileHandle second = encoder.EncodeCached(p);
  EXPECT_EQ(first.get(), second.get());  // No deep copy on the hit path.
}

TEST(EncoderLruTest, SoakHoldsCacheAtBoundWithVisibleEvictions) {
  data::Dataset dataset = TinyDataset();
  core::TextModel text_model = TinyTextModel(dataset);
  core::EncoderOptions options;
  options.cache_capacity = 8;
  core::ProfileEncoder encoder(&dataset.pois, &text_model, {}, 3, options);

  // 10x capacity of distinct profiles: the old unbounded memo map would
  // grow to 80 entries; the bounded cache must stay at 8 and evict.
  geo::LatLon center{40.0, -74.0};
  for (size_t i = 0; i < 10 * options.cache_capacity; ++i) {
    encoder.EncodeCached(MakeProfile(1000 + i, 10 * i, center, 0));
    EXPECT_LE(encoder.cache_size(), options.cache_capacity);
  }
  EXPECT_EQ(encoder.cache_size(), options.cache_capacity);
  EXPECT_EQ(encoder.cache_evictions(),
            10 * options.cache_capacity - options.cache_capacity);

  // The eviction counter is also published as a metric.
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Scrape();
  const obs::MetricValue* metric =
      snapshot.Find("hisrect.encode.cache_evictions");
  ASSERT_NE(metric, nullptr);
  EXPECT_GE(metric->value, static_cast<int64_t>(encoder.cache_evictions()));
}

}  // namespace
}  // namespace hisrect::serve
