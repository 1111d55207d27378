#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace hisrect {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("hisrect.test.concurrent_sum");
  counter->ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kIncrementsPerThread);
}

TEST(CounterTest, HandleLookupIsStableAndShared) {
  obs::Counter* a =
      obs::MetricsRegistry::Global().GetCounter("hisrect.test.shared_handle");
  obs::Counter* b =
      obs::MetricsRegistry::Global().GetCounter("hisrect.test.shared_handle");
  EXPECT_EQ(a, b);
  a->ResetForTest();
  a->Add(3);
  b->Add(4);
  EXPECT_EQ(a->Value(), 7);
}

TEST(GaugeTest, SetOverwrites) {
  obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("hisrect.test.gauge");
  gauge->Set(41);
  gauge->Set(42);
  EXPECT_EQ(gauge->Value(), 42);
}

// Documented semantics: every bucket is [lower, upper) — closed below, open
// above. With boundaries {1.0, 2.0}: bucket 0 = (-inf, 1), bucket 1 = [1, 2),
// bucket 2 = [2, +inf).
TEST(HistogramTest, BucketBoundariesAreClosedOpen) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "hisrect.test.boundaries", {1.0, 2.0});
  histogram->ResetForTest();
  ASSERT_EQ(histogram->num_buckets(), 3u);

  EXPECT_EQ(histogram->BucketIndex(0.999), 0u);
  EXPECT_EQ(histogram->BucketIndex(1.0), 1u);  // boundary value goes above
  EXPECT_EQ(histogram->BucketIndex(1.999), 1u);
  EXPECT_EQ(histogram->BucketIndex(2.0), 2u);
  EXPECT_EQ(histogram->BucketIndex(100.0), 2u);

  histogram->Observe(0.5);
  histogram->Observe(1.0);
  histogram->Observe(1.5);
  histogram->Observe(2.0);
  EXPECT_EQ(histogram->BucketCount(0), 1u);
  EXPECT_EQ(histogram->BucketCount(1), 2u);
  EXPECT_EQ(histogram->BucketCount(2), 1u);
  EXPECT_EQ(histogram->Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram->Sum(), 5.0);
}

// HistogramPercentile clamps quantiles that land in the zero-width overflow
// bucket to the last boundary — documented behavior — and reports it through
// the `saturated` out-param so callers can flag the value as a lower bound
// instead of an estimate.
TEST(HistogramTest, PercentileReportsOverflowSaturation) {
  const std::vector<double> boundaries = {0.001, 0.01, 0.1};

  // All mass below the last boundary: no saturation, interpolation as usual.
  bool saturated = true;
  const std::vector<uint64_t> inside = {2, 6, 2, 0};
  const double p50 =
      obs::HistogramPercentile(boundaries, inside, 0.5, &saturated);
  EXPECT_GT(p50, 0.001);
  EXPECT_LE(p50, 0.01);
  EXPECT_FALSE(saturated);

  // Overflow mass, but the quantile resolves below it: still not saturated.
  const std::vector<uint64_t> mixed = {0, 8, 0, 2};
  EXPECT_LE(obs::HistogramPercentile(boundaries, mixed, 0.5, &saturated),
            0.01);
  EXPECT_FALSE(saturated);

  // The quantile lands in the overflow bucket: clamped to the last boundary
  // and flagged.
  EXPECT_EQ(obs::HistogramPercentile(boundaries, mixed, 0.99, &saturated),
            0.1);
  EXPECT_TRUE(saturated);

  // Everything overflows: every quantile is a clamped lower bound.
  const std::vector<uint64_t> all_over = {0, 0, 0, 5};
  EXPECT_EQ(obs::HistogramPercentile(boundaries, all_over, 0.5, &saturated),
            0.1);
  EXPECT_TRUE(saturated);

  // The out-param is optional — the legacy call shape still works.
  EXPECT_EQ(obs::HistogramPercentile(boundaries, all_over, 0.5), 0.1);
}

TEST(HistogramTest, ConcurrentObservationsSumExactly) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "hisrect.test.concurrent_histogram", {0.5});
  histogram->ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kObservationsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kObservationsPerThread; ++i) histogram->Observe(1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram->Count(),
            static_cast<uint64_t>(kThreads) * kObservationsPerThread);
  EXPECT_DOUBLE_EQ(histogram->Sum(),
                   static_cast<double>(kThreads) * kObservationsPerThread);
}

// Race-coverage test for TSan builds (HISRECT_SANITIZE=thread): scraping the
// registry while writers hammer counters and histograms must be data-race
// free (the snapshot may lag, but never tear).
TEST(MetricsRegistryTest, ScrapeWhileWritingIsRaceFree) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("hisrect.test.scrape_race");
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "hisrect.test.scrape_race_hist", {1.0});
  counter->ResetForTest();
  histogram->ResetForTest();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        histogram->Observe(0.5);
      }
    });
  }
  int64_t last_counter = 0;
  for (int i = 0; i < 200; ++i) {
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Scrape();
    const obs::MetricValue* value = snapshot.Find("hisrect.test.scrape_race");
    ASSERT_NE(value, nullptr);
    EXPECT_GE(value->value, last_counter);  // counters are monotonic
    last_counter = value->value;
  }
  stop.store(true);
  for (std::thread& thread : writers) thread.join();
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Scrape();
  const obs::MetricValue* value = snapshot.Find("hisrect.test.scrape_race");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, counter->Value());
}

TEST(MetricsRegistryTest, ScrapeSnapshotCarriesHistogramShape) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "hisrect.test.snapshot_hist", {1.0, 2.0});
  histogram->ResetForTest();
  histogram->Observe(1.5);
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Scrape();
  const obs::MetricValue* value = snapshot.Find("hisrect.test.snapshot_hist");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->kind, obs::MetricValue::Kind::kHistogram);
  ASSERT_EQ(value->boundaries.size(), 2u);
  ASSERT_EQ(value->bucket_counts.size(), 3u);
  EXPECT_EQ(value->bucket_counts[1], 1u);
  EXPECT_EQ(value->count, 1u);
  std::string json = obs::MetricsToJson(snapshot);
  EXPECT_NE(json.find("hisrect.test.snapshot_hist"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
}

TEST(ScopedTimerTest, FeedsHistogramAndElapsedOut) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "hisrect.test.timer_hist", obs::TimeHistogramBoundaries());
  histogram->ResetForTest();
  double elapsed = -1.0;
  {
    obs::ScopedTimer timer(histogram, &elapsed);
    EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(histogram->Count(), 1u);
  EXPECT_GE(elapsed, 0.0);
}

// NowNanos() is measured from a process epoch that its first call pins.
// The first read must not run ahead of that epoch and wrap. ctest also runs
// this test alone (obs_trace_clock_first_read) so that the read below really
// is the process's first; inside the full suite it still holds.
TEST(TraceClock, FirstReadIsSmall) {
  constexpr uint64_t kOneHourNs = 3600ull * 1000 * 1000 * 1000;
  const uint64_t first = obs::TraceRecorder::NowNanos();
  EXPECT_LT(first, kOneHourNs);
  EXPECT_GE(obs::TraceRecorder::NowNanos(), first);
}

TEST(TraceTest, RecordsSpansAndExportsChromeTrace) {
  obs::TraceRecorder::Start(/*capacity_per_thread=*/64);
  {
    HISRECT_TRACE_SPAN("test.outer");
    HISRECT_TRACE_SPAN("test.inner");
  }
  std::thread worker([] { HISRECT_TRACE_SPAN("test.worker"); });
  worker.join();
  obs::TraceRecorder::Stop();
  EXPECT_GE(obs::TraceRecorder::EventCount(), 3u);
  EXPECT_EQ(obs::TraceRecorder::DroppedEvents(), 0u);

  const std::string path = TempPath("obs_test_trace.json");
  ASSERT_TRUE(obs::TraceRecorder::WriteChromeTrace(path).ok());
  const std::string json = ReadFileOrDie(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.worker\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(TraceTest, CapacityOverflowCountsDropsInsteadOfGrowing) {
  obs::TraceRecorder::Start(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    HISRECT_TRACE_SPAN("test.overflow");
  }
  obs::TraceRecorder::Stop();
  EXPECT_EQ(obs::TraceRecorder::DroppedEvents(), 6u);
  // A later Start() resets both events and the drop counter.
  obs::TraceRecorder::Start(/*capacity_per_thread=*/4);
  obs::TraceRecorder::Stop();
  EXPECT_EQ(obs::TraceRecorder::DroppedEvents(), 0u);
  EXPECT_EQ(obs::TraceRecorder::EventCount(), 0u);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  obs::TraceRecorder::Start(/*capacity_per_thread=*/4);
  obs::TraceRecorder::Stop();
  {
    HISRECT_TRACE_SPAN("test.disabled");
  }
  EXPECT_EQ(obs::TraceRecorder::EventCount(), 0u);
}

TEST(TelemetryTest, RecordEscapesAndOrdersKeys) {
  obs::TelemetryRecord record("epoch");
  record.Set("phase", "judge")
      .Set("note", "quote\" backslash\\ newline\n")
      .Set("loss", 0.5)
      .Set("nan_value", std::nan(""))
      .Set("step", static_cast<uint64_t>(7));
  const std::string line = record.ToJsonLine();
  EXPECT_EQ(line.find("{\"kind\": \"epoch\""), 0u);
  EXPECT_NE(line.find("\"note\": \"quote\\\" backslash\\\\ newline\\n\""),
            std::string::npos);
  EXPECT_NE(line.find("\"nan_value\": null"), std::string::npos);
  EXPECT_NE(line.find("\"step\": 7"), std::string::npos);
  EXPECT_EQ(line.back(), '}');
}

TEST(TelemetryTest, SinkBuffersAndCommitsAtomically) {
  const std::string path = TempPath("obs_test_telemetry.jsonl");
  std::remove(path.c_str());
  obs::TelemetrySink::Open(path);
  EXPECT_TRUE(obs::TelemetrySink::enabled());
  obs::TelemetrySink::Emit(obs::TelemetryRecord("epoch").Set("step",
                                                             uint64_t{1}));
  obs::TelemetrySink::Emit(obs::TelemetryRecord("epoch").Set("step",
                                                             uint64_t{2}));
  EXPECT_EQ(obs::TelemetrySink::EmittedRecords(), 2u);
  // Nothing on disk until Close() commits the buffer atomically.
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
  ASSERT_TRUE(obs::TelemetrySink::Close().ok());
  EXPECT_FALSE(obs::TelemetrySink::enabled());

  const std::string contents = ReadFileOrDie(path);
  size_t lines = 0;
  for (char c : contents) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(contents.find("{\"kind\": \"epoch\", \"step\": 1}"),
            std::string::npos);
}

TEST(TelemetryTest, EmitAfterCloseIsDiscarded) {
  const std::string path = TempPath("obs_test_telemetry_closed.jsonl");
  obs::TelemetrySink::Open(path);
  ASSERT_TRUE(obs::TelemetrySink::Close().ok());
  obs::TelemetrySink::Emit(obs::TelemetryRecord("epoch"));
  // Re-open resets the emitted count; nothing leaked from the closed state.
  obs::TelemetrySink::Open(path);
  EXPECT_EQ(obs::TelemetrySink::EmittedRecords(), 0u);
  ASSERT_TRUE(obs::TelemetrySink::Close().ok());
}

}  // namespace
}  // namespace hisrect
