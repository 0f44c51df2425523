#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double PercentileOfSorted(const std::vector<double>& sorted, double pct) {
  // Multiply before dividing so whole-number ranks come out exact.
  const double rank = std::clamp(pct, 0.0, 100.0) *
                      static_cast<double>(sorted.size() - 1) / 100.0;
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  if (lo == hi || std::isinf(sorted[hi])) return sorted[hi];
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - std::floor(rank));
}

double HighestSupportedPercentile(size_t count, double max_pct) {
  if (count < kTailMargin + 2) return 0.0;
  // Samples above percentile p: count - 1 - ceil(p/100 * (count - 1)).
  // Requiring >= kTailMargin gives p <= 100 (count-1-margin) / (count-1).
  const double n1 = static_cast<double>(count - 1);
  const double limit = 100.0 * (n1 - static_cast<double>(kTailMargin)) / n1;
  return std::min(max_pct, limit);
}

Summary Summarize(std::vector<double> samples, double max_tail_pct) {
  Summary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = PercentileOfSorted(samples, 50.0);
  out.q1 = PercentileOfSorted(samples, 25.0);
  out.q3 = PercentileOfSorted(samples, 75.0);
  out.tail_pct = HighestSupportedPercentile(samples.size(), max_tail_pct);
  if (out.tail_pct > 0.0) out.tail = PercentileOfSorted(samples, out.tail_pct);
  return out;
}

size_t MinSamplesForPercentile(double pct) {
  // Inverse of HighestSupportedPercentile: count - 1 >= 100 m / (100 - p).
  const double need =
      100.0 * static_cast<double>(kTailMargin) / (100.0 - pct);
  return static_cast<size_t>(std::ceil(need - 1e-9)) + 1;
}

WindowedTail MedianWindowTail(const std::vector<double>& in_order,
                              double pct) {
  WindowedTail out;
  const size_t n = in_order.size();
  const size_t windows = n / MinSamplesForPercentile(pct);
  if (windows < 2) {
    const Summary whole = Summarize(in_order, pct);
    out.windows = n > 0 ? 1 : 0;
    out.tail_pct = whole.tail_pct;
    out.tail = whole.tail;
    return out;
  }
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = in_order.begin() + w * n / windows;
    const auto last = in_order.begin() + (w + 1) * n / windows;
    tails.push_back(Summarize(std::vector<double>(first, last), pct).tail);
  }
  out.windows = windows;
  out.tail_pct = pct;
  out.tail = Summarize(std::move(tails)).median;
  return out;
}

}  // namespace perfbench
