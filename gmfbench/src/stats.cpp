#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace gmfbench {

double supported_quantile(std::size_t n, double want) {
  if (n <= 2 * kTailBeyond) return 0.5;
  const double cap = static_cast<double>(n - kTailBeyond) /
                     static_cast<double>(n);
  return std::max(0.5, std::min(want, cap));
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.  The epsilon keeps q = (n-10)/n from rounding up a rank.
  const double rank = std::ceil(q * n - 1e-9);
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, n - 1.0));
  return samples[idx];
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tail summarize(const std::vector<double>& samples, double want_tail) {
  Tail t;
  t.count = samples.size();
  t.tail_q = supported_quantile(samples.size(), want_tail);
  t.p50 = quantile(samples, 0.5);
  t.tail = quantile(samples, t.tail_q);
  return t;
}

}  // namespace gmfbench
