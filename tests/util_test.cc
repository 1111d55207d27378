#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace hisrect::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_GT(c, 4500);
    EXPECT_LT(c, 5500);
  }
}

TEST(RngTest, SignedUniformInt) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    ASSERT_GE(v, -5);
    ASSERT_LT(v, 5);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalScaledMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(1);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, CategoricalAllZeroWeightsIsUniform) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) ++counts[rng.Categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 2500);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(8);
  std::vector<size_t> sample = rng.SampleIndices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleIndicesCapsAtN) {
  Rng rng(8);
  EXPECT_EQ(rng.SampleIndices(5, 50).size(), 5u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork();
  // The fork differs from the parent's continued stream.
  EXPECT_NE(forked.Next(), a.Next());
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad dim");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TableTest, FormatsAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"a", Table::Fmt(0.12345, 2)});
  table.AddRow({"long-name", "x"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("0.12"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, FmtRounds) {
  EXPECT_EQ(Table::Fmt(0.98765, 4), "0.9877");
  EXPECT_EQ(Table::Fmt(2.0, 1), "2.0");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter csv({"a", "b"});
  csv.AddRow({"plain", "with,comma"});
  csv.AddRow({"with\"quote", "multi\nline"});
  std::string out = csv.ToString();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(CsvTest, WriteFileRoundTrip) {
  CsvWriter csv({"x"});
  csv.AddRow({"1"});
  Status s = csv.WriteFile("/tmp/hisrect_csv_test.csv");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(CsvTest, WriteFileFailsOnBadPath) {
  CsvWriter csv({"x"});
  Status s = csv.WriteFile("/nonexistent-dir/file.csv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

/// Captures log lines through SetLogSink and restores the default writer
/// (stderr, kInfo threshold) when it leaves scope, so a failing assertion
/// can't leak a test sink into later tests.
class LogCapture {
 public:
  LogCapture() {
    SetLogSink([this](LogSeverity severity, const std::string& line) {
      lines_.emplace_back(severity, line);
    });
  }
  ~LogCapture() {
    SetLogSink(nullptr);
    SetMinLogSeverity(LogSeverity::kInfo);
  }

  const std::vector<std::pair<LogSeverity, std::string>>& lines() const {
    return lines_;
  }

 private:
  std::vector<std::pair<LogSeverity, std::string>> lines_;
};

TEST(LoggingTest, SinkReceivesOneFormattedLinePerMessage) {
  LogCapture capture;
  LOG(WARNING) << "sink probe " << 42;
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0].first, LogSeverity::kWarning);
  const std::string& line = capture.lines()[0].second;
  // Prefix: [YYYY-MM-DD HH:MM:SS.mmm WARN t<idx> util_test.cc:<line>] body
  EXPECT_EQ(line.front(), '[');
  EXPECT_NE(line.find(" WARN t"), std::string::npos) << line;
  EXPECT_NE(line.find("util_test.cc:"), std::string::npos) << line;
  EXPECT_NE(line.find("] sink probe 42"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "sink lines must not carry a trailing newline";
}

TEST(LoggingTest, MessagesBelowMinSeverityAreSuppressed) {
  LogCapture capture;
  SetMinLogSeverity(LogSeverity::kError);
  LOG(INFO) << "suppressed info";
  LOG(WARNING) << "suppressed warning";
  LOG(ERROR) << "kept error";
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0].first, LogSeverity::kError);
  EXPECT_NE(capture.lines()[0].second.find("kept error"), std::string::npos);
}

TEST(LoggingTest, MinSeverityRoundTrips) {
  LogCapture capture;  // Restores kInfo on scope exit.
  SetMinLogSeverity(LogSeverity::kWarning);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kWarning);
  LOG(WARNING) << "at threshold";
  ASSERT_EQ(capture.lines().size(), 1u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0 * 0.99);
}

}  // namespace
}  // namespace hisrect::util
