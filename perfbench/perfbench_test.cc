// Tests of the benchmark's own statistics: the percentile rule, the seeded
// Poisson schedule and the capacity-ladder search. Run by perfbench/run.py
// after every build; exits 1 on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int g_failed = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failed;
    std::fprintf(stderr, "perfbench_test: FAILED: %s\n", what);
  }
}

void TestPercentileRule() {
  // Nearest rank, index ceil(q*n)-1: p50 of two reads the first element,
  // p99 of 1..100 reads 99 (index 98), p100 the last, p0 the first.
  Expect(SortedPercentile({}, 0.5) == 0.0, "empty sample reads 0");
  Expect(SortedPercentile({1.0, 2.0}, 0.5) == 1.0, "p50 of two");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(SortedPercentile(hundred, 0.99) == 99.0, "p99 of 100");
  Expect(SortedPercentile(hundred, 0.50) == 50.0, "p50 of 100");
  Expect(SortedPercentile(hundred, 1.0) == 100.0, "p100 of 100");
  Expect(SortedPercentile(hundred, 0.0) == 1.0, "p0 of 100");
  Expect(SortedPercentile({7.0}, 0.99) == 7.0, "single element");
  const Summary s = Summarize({3.0, 1.0, 2.0, 4.0});
  Expect(s.count == 4 && s.mean == 2.5 && s.p50 == 2.0 && s.p99 == 4.0,
         "Summarize sorts and uses the same rule");
  Expect(Median({5.0, 1.0, 3.0}) == 3.0, "median of three");
}

void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(42, 1000.0, 5.0);
  const std::vector<double> b = PoissonSchedule(42, 1000.0, 5.0);
  const std::vector<double> c = PoissonSchedule(43, 1000.0, 5.0);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  // 5000 expected arrivals; the count is Poisson, sd ~71.
  Expect(std::abs(static_cast<double>(a.size()) - 5000.0) < 400.0,
         "arrival count matches the rate");
  bool ordered = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0.0 || a[i] >= 5.0 || (i > 0 && a[i] <= a[i - 1])) {
      ordered = false;
    }
  }
  Expect(ordered, "offsets increase strictly inside [0, seconds)");
  // Exponential gaps: mean 1/rate and coefficient of variation ~1.
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sum_sq += gap * gap;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  Expect(std::abs(mean - 1e-3) < 1e-4, "mean gap is 1/rate");
  Expect(std::abs(cv - 1.0) < 0.1, "gaps are exponential (cv ~ 1)");
  // A fixed seed pins the exact values (platform-independent generator).
  const std::vector<double> pinned = PoissonSchedule(7, 10.0, 1.0);
  const std::vector<double> again = PoissonSchedule(7, 10.0, 1.0);
  Expect(!pinned.empty() && pinned == again, "pinned schedule is stable");
  Expect(PoissonSchedule(1, 0.0, 1.0).empty(), "zero rate gives nothing");
}

/// Synthetic server with capacity `cap`: p99 = 2 ms / (1 - rate/cap),
/// shedding and a growing backlog past capacity.
RungResult Synthetic(double rate, double cap) {
  RungResult r;
  r.rate = rate;
  if (rate >= cap) {
    r.p99_ms = 1000.0;
    r.shed = 10;
    r.backlog_growing = true;
  } else {
    r.p99_ms = 2.0 / (1.0 - rate / cap);
  }
  return r;
}

void TestCapacitySearch() {
  const std::vector<double> ladder = {1000, 2000, 4000, 8000, 16000};
  // p99 <= 10 ms  <=>  rate <= 0.8 cap. With cap 6000 the limit is 4800:
  // 4000 passes, 8000 fails, bisection probes 6000 (fail), 5000 (fail).
  int probes = 0;
  CapacityResult r = SearchCapacity(ladder, 2, 10.0, [&](double rate) {
    ++probes;
    return Synthetic(rate, 6000.0);
  });
  Expect(r.capacity == 4000.0, "capacity is the highest passing rate");
  Expect(probes == 6 && r.rungs.size() == 6,
         "walk stops at the first failure, then bisects twice");
  Expect(r.rungs[4].rate == 6000.0 && r.rungs[5].rate == 5000.0,
         "bisection midpoints");

  // Cap 5600 -> limit 4480; refinement finds 4000 < x <= 4480 region:
  // probes 6000 (fail), 5000 (fail), 4500 (fail), 4250 (pass).
  r = SearchCapacity(ladder, 4, 10.0,
                     [&](double rate) { return Synthetic(rate, 5600.0); });
  Expect(r.capacity == 4250.0, "refinement raises capacity between rungs");

  // Every rung passes: capacity saturates at the top of the ladder.
  r = SearchCapacity(ladder, 2, 10.0,
                     [&](double rate) { return Synthetic(rate, 1e9); });
  Expect(r.capacity == 16000.0 && r.rungs.size() == ladder.size(),
         "top of the ladder when nothing fails");

  // First rung fails: capacity 0, no bisection.
  r = SearchCapacity(ladder, 2, 10.0,
                     [&](double rate) { return Synthetic(rate, 500.0); });
  Expect(r.capacity == 0.0 && r.rungs.size() == 1, "nothing passes");

  // Shedding or a lagging generator fails a rung even with a low p99.
  RungResult shed = Synthetic(1000.0, 1e9);
  shed.shed = 1;
  Expect(!RungPasses(shed, 10.0), "shedding fails a rung");
  RungResult behind = Synthetic(1000.0, 1e9);
  behind.generator_behind = true;
  Expect(!RungPasses(behind, 10.0), "a lagging generator fails a rung");
}

void TestBacklog() {
  Expect(!BacklogGrowing({1, 2, 1, 2, 1, 2}, 32), "steady depth");
  Expect(BacklogGrowing({1, 2, 50, 100, 200, 400}, 32), "rising depth");
  Expect(!BacklogGrowing({}, 32), "no samples");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestPoissonSchedule();
  perfbench::TestCapacitySearch();
  perfbench::TestBacklog();
  if (perfbench::g_failed != 0) return 1;
  std::printf("perfbench_test: all passed\n");
  return 0;
}
