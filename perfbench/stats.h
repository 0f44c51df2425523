#ifndef PARTIX_PERFBENCH_STATS_H_
#define PARTIX_PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Order statistics of one sample set: the benchmark's only percentile
/// code. Percentiles interpolate linearly between the closest ranks
/// (rank = p/100 * (n-1)); infinite samples (failed requests) sort last.
struct Summary {
  size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// The highest percentile, capped at the requested one, that still has
  /// at least kTailMargin samples ranked strictly above it; 0 when the set
  /// is too small to have any.
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Samples a reported tail percentile must leave above itself.
inline constexpr size_t kTailMargin = 10;

/// Percentile `pct` (0..100) of `sorted` (ascending, non-empty).
double PercentileOfSorted(const std::vector<double>& sorted, double pct);

/// Highest percentile <= `max_pct` with at least kTailMargin of `count`
/// samples ranked above it, or 0 when there is none.
double HighestSupportedPercentile(size_t count, double max_pct);

/// Median, quartiles and the tail percentile (at most `max_tail_pct`) of
/// `samples`. An empty set yields an all-zero summary.
Summary Summarize(std::vector<double> samples, double max_tail_pct = 99.0);

/// Tail percentile as the median over consecutive windows of a run.
struct WindowedTail {
  size_t windows = 0;
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Smallest sample count whose tail percentile reaches `pct` (< 100).
size_t MinSamplesForPercentile(double pct);

/// Cuts `in_order` (samples in completion order) into as many consecutive,
/// near-equal windows as each still supports `pct` on its own, and returns
/// the median of the windows' `pct` percentiles. With room for fewer than
/// two windows it is the whole set's tail (Summarize).
WindowedTail MedianWindowTail(const std::vector<double>& in_order,
                              double pct = 99.0);

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_STATS_H_
