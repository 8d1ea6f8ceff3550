// Sample summaries used by every gmfbench metric.
//
// Tail rule: a timing is reported as its median plus the highest
// percentile (at most the one asked for) that still has at least
// kTailBeyond samples strictly above its nearest-rank position, so a
// "p99" from 300 samples honestly reads as the p96.7 it is.
#pragma once

#include <cstddef>
#include <vector>

namespace gmfbench {

inline constexpr std::size_t kTailBeyond = 10;

/// Highest quantile q <= want whose nearest-rank sample has at least
/// kTailBeyond samples above it in a sample of size n.  Never below the
/// median (0.5), which is returned when n is too small for any tail.
[[nodiscard]] double supported_quantile(std::size_t n, double want);

/// Nearest-rank quantile of `samples` (sorted internally); NaN when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// A latency summary: median plus the supported tail.
struct Tail {
  double p50 = 0;
  double tail = 0;       ///< value at `tail_q`
  double tail_q = 0.5;   ///< the quantile actually reported
  std::size_t count = 0;
};
[[nodiscard]] Tail summarize(const std::vector<double>& samples,
                             double want_tail = 0.99);

}  // namespace gmfbench
