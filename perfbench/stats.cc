#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.mean = std::accumulate(values.begin(), values.end(), 0.0) /
                 static_cast<double>(values.size());
  summary.p50 = SortedPercentile(values, 0.50);
  summary.p99 = SortedPercentile(values, 0.99);
  return summary;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedPercentile(values, 0.5);
}

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  std::vector<double> offsets;
  if (!(rate > 0.0) || !(seconds > 0.0)) return offsets;
  offsets.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  uint64_t state = seed;
  double t = 0.0;
  while (true) {
    // Uniform in (0, 1]: 53 random bits, never 0, so the log is finite.
    const double u =
        (static_cast<double>(SplitMix64(state) >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  return offsets;
}

bool RungPasses(const RungResult& rung, double p99_limit_ms) {
  return rung.p99_ms <= p99_limit_ms && rung.shed == 0 &&
         !rung.backlog_growing && !rung.generator_behind;
}

CapacityResult SearchCapacity(
    const std::vector<double>& ladder, int refine, double p99_limit_ms,
    const std::function<RungResult(double rate)>& probe) {
  CapacityResult result;
  double passed = 0.0;
  double failed = 0.0;
  for (double rate : ladder) {
    result.rungs.push_back(probe(rate));
    if (!RungPasses(result.rungs.back(), p99_limit_ms)) {
      failed = rate;
      break;
    }
    passed = rate;
  }
  if (failed > 0.0 && passed > 0.0) {
    for (int i = 0; i < refine; ++i) {
      const double mid = 0.5 * (passed + failed);
      result.rungs.push_back(probe(mid));
      if (RungPasses(result.rungs.back(), p99_limit_ms)) {
        passed = mid;
      } else {
        failed = mid;
      }
    }
  }
  result.capacity = passed;
  return result;
}

bool BacklogGrowing(const std::vector<double>& depths, double slack) {
  const size_t third = depths.size() / 3;
  if (third == 0) return false;
  const double first =
      Median(std::vector<double>(depths.begin(), depths.begin() + third));
  const double last =
      Median(std::vector<double>(depths.end() - third, depths.end()));
  return last > first + slack && last > 1.5 * first;
}

}  // namespace perfbench
