// Sensitivity analysis on top of the holistic bounds: how much slack a
// flow set has, which stage of a flow's pipeline dominates its bound, and
// how far traffic can be scaled before guarantees break.
//
// These are the questions an operator asks the admission controller after a
// "yes": how close to the edge are we, and where is the edge?
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/holistic.hpp"

namespace gmfnet::core {

/// Per-flow slack: the margin between the worst frame's bound and its
/// deadline.
struct FlowSlack {
  FlowId flow;
  /// min over frames of (deadline - bound); negative when a deadline is
  /// missed, Time::zero() at the edge.
  gmfnet::Time slack = gmfnet::Time::zero();
  /// Frame attaining the minimum.
  std::size_t critical_frame = 0;
  /// The pipeline stage contributing the largest share of that frame's
  /// bound (the flow's bottleneck).
  StageKey bottleneck;
  gmfnet::Time bottleneck_response = gmfnet::Time::zero();
};

/// Slack report for a schedulable flow set.  Returns std::nullopt when the
/// holistic analysis does not converge.  `start` optionally warm-starts the
/// solve (see WarmStartView for the soundness contract).
[[nodiscard]] std::optional<std::vector<FlowSlack>> compute_slack(
    const AnalysisContext& ctx, const HolisticOptions& opts = {},
    WarmStartView start = {});

/// Result of the capacity-scaling search.
struct ScalingResult {
  /// Largest multiplier in [lo, hi] for which the scaled system is
  /// schedulable, 0 if even `lo` fails.
  double max_factor = 0.0;
  /// Schedulability at the probe points actually evaluated, for reporting.
  std::int64_t probes = 0;
};

/// Binary-searches the largest uniform payload scaling factor (every frame
/// of every flow's payload multiplied by f) that keeps the whole set
/// schedulable.  `tolerance` is the relative precision of the search.
///
/// Monotonicity note: payload growth only increases every C/NFRAMES term,
/// so schedulability is antitone in the factor and bisection is exact up to
/// byte rounding.
[[nodiscard]] ScalingResult max_payload_scaling(
    const net::Network& network, const std::vector<gmf::Flow>& flows,
    double lo = 0.1, double hi = 16.0, double tolerance = 0.01,
    const HolisticOptions& opts = {});

/// Binary-searches the smallest uniform link-speed multiplier that makes
/// the set schedulable (how much faster must the cabling get?).  Returns
/// std::nullopt when even `hi` times faster links do not suffice.
[[nodiscard]] std::optional<double> min_speed_scaling(
    const net::Network& network, const std::vector<gmf::Flow>& flows,
    double lo = 1.0 / 16.0, double hi = 16.0, double tolerance = 0.01,
    const HolisticOptions& opts = {});

/// Scales every link speed of a network by `factor` (helper, exposed for
/// tests and benches).
[[nodiscard]] net::Network scale_link_speeds(const net::Network& network,
                                             double factor);

/// Scales every payload of every flow by `factor` (bytes rounded up).
[[nodiscard]] std::vector<gmf::Flow> scale_payloads(
    const std::vector<gmf::Flow>& flows, double factor);

}  // namespace gmfnet::core
