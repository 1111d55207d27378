#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics and load-schedule helpers of the repository benchmark: the
// percentile rule, the seeded Poisson arrival schedule of the open-loop
// generator, and the capacity-ladder search. Kept free of any hisrect
// dependency so perfbench_test can check them on synthetic inputs.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the element at
/// index ceil(q*n)-1 (clamped), so p50 of two elements reads [0] and p99 of
/// 100 elements reads [98]. Same rule as the repository's bench harness
/// (bench/bench_common.h SortedPercentile). Empty input reads 0.
double SortedPercentile(const std::vector<double>& sorted, double q);

/// Count, mean and nearest-rank percentiles of an unsorted sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};
Summary Summarize(std::vector<double> values);

/// Median by the nearest-rank rule (SortedPercentile(sorted, 0.5)).
double Median(std::vector<double> values);

/// Arrival offsets, in seconds from the start of a phase, of a Poisson
/// process with `rate` arrivals per second over [0, seconds): exponential
/// gaps drawn from a splitmix64 stream seeded with `seed`. The same
/// (seed, rate, seconds) always yields the same schedule on every platform.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

/// Outcome of holding one offered rate for one ladder rung.
struct RungResult {
  double rate = 0.0;
  double p99_ms = 0.0;
  /// Requests rejected, expired or failed during the rung.
  uint64_t shed = 0;
  /// Queue depth kept rising through the rung.
  bool backlog_growing = false;
  /// The generator could not keep to the schedule, so the rate was not
  /// actually offered.
  bool generator_behind = false;
};

/// A rung passes when its p99 is within `p99_limit_ms`, nothing was shed,
/// the backlog did not grow and the generator kept to the schedule.
bool RungPasses(const RungResult& rung, double p99_limit_ms);

struct CapacityResult {
  /// Highest probed rate that passed; 0 when the first rung failed.
  double capacity = 0.0;
  /// Every rung probed, in probe order.
  std::vector<RungResult> rungs;
};

/// Walks `ladder` (ascending rates) until the first failing rung, then
/// bisects `refine` times between the last passing and the first failing
/// rate. `probe` holds one rate and reports the rung.
CapacityResult SearchCapacity(
    const std::vector<double>& ladder, int refine, double p99_limit_ms,
    const std::function<RungResult(double rate)>& probe);

/// True when the median of the last third of `depths` (queue-depth samples
/// in time order) sits above the median of the first third by more than
/// `slack` requests and by more than half again. Medians, so one stall's
/// short spike does not read as a growing backlog.
bool BacklogGrowing(const std::vector<double>& depths, double slack);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
