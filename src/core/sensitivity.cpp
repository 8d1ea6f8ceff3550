#include "core/sensitivity.hpp"

#include <algorithm>
#include <cmath>

#include "ethernet/constants.hpp"

namespace gmfnet::core {

std::optional<std::vector<FlowSlack>> compute_slack(
    const AnalysisContext& ctx, const HolisticOptions& opts,
    WarmStartView start) {
  const HolisticResult res = analyze_holistic(ctx, opts, start);
  if (!res.converged) return std::nullopt;

  std::vector<FlowSlack> out;
  out.reserve(ctx.flow_count());
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    const gmf::Flow& flow = ctx.flow(id);
    FlowSlack s;
    s.flow = id;
    s.slack = gmfnet::Time::max();
    for (std::size_t k = 0; k < flow.frame_count(); ++k) {
      const FrameResult& fr = res.flows[f].frames[k];
      const gmfnet::Time margin = flow.frame(k).deadline - fr.response;
      if (margin < s.slack) {
        s.slack = margin;
        s.critical_frame = k;
      }
    }
    // Bottleneck stage of the critical frame.
    const FrameResult& crit = res.flows[f].frames[s.critical_frame];
    gmfnet::Time worst = gmfnet::Time(-1);
    for (const StageResponse& st : crit.stages) {
      if (st.hop.response > worst) {
        worst = st.hop.response;
        s.bottleneck = st.stage;
        s.bottleneck_response = st.hop.response;
      }
    }
    out.push_back(s);
  }
  return out;
}

net::Network scale_link_speeds(const net::Network& network, double factor) {
  net::Network out;
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const net::NodeId id(static_cast<std::int32_t>(i));
    const net::Node& n = network.node(id);
    switch (n.kind) {
      case net::NodeKind::kEndHost:
        out.add_endhost(n.name);
        break;
      case net::NodeKind::kSwitch:
        out.add_switch(n.name, n.sw);
        break;
      case net::NodeKind::kRouter:
        out.add_router(n.name);
        break;
    }
  }
  for (const net::Link& l : network.links()) {
    const auto speed = static_cast<ethernet::LinkSpeedBps>(
        std::llround(static_cast<double>(l.speed_bps) * factor));
    out.add_link(l.src, l.dst, std::max<ethernet::LinkSpeedBps>(speed, 1),
                 l.prop);
  }
  return out;
}

std::vector<gmf::Flow> scale_payloads(const std::vector<gmf::Flow>& flows,
                                      double factor) {
  std::vector<gmf::Flow> out;
  out.reserve(flows.size());
  for (const gmf::Flow& f : flows) {
    std::vector<gmf::FrameSpec> frames(f.frames());
    for (gmf::FrameSpec& fr : frames) {
      const double scaled =
          std::ceil(static_cast<double>(fr.payload_bits) * factor / 8.0) *
          8.0;
      fr.payload_bits = std::clamp<ethernet::Bits>(
          static_cast<ethernet::Bits>(scaled), 0,
          ethernet::kMaxUdpPayloadBytes * 8);
    }
    out.emplace_back(f.name(), f.route(), std::move(frames), f.priority(),
                     f.rtp());
  }
  return out;
}

namespace {
bool schedulable_at(const net::Network& network,
                    const std::vector<gmf::Flow>& flows,
                    const HolisticOptions& opts) {
  AnalysisContext ctx(network, flows);
  return analyze_holistic(ctx, opts).schedulable;
}
}  // namespace

ScalingResult max_payload_scaling(const net::Network& network,
                                  const std::vector<gmf::Flow>& flows,
                                  double lo, double hi, double tolerance,
                                  const HolisticOptions& opts) {
  ScalingResult out;
  auto ok = [&](double f) {
    ++out.probes;
    return schedulable_at(network, scale_payloads(flows, f), opts);
  };
  if (!ok(lo)) return out;  // max_factor stays 0
  if (ok(hi)) {
    out.max_factor = hi;
    return out;
  }
  double good = lo;
  double bad = hi;
  while ((bad - good) / good > tolerance) {
    const double mid = 0.5 * (good + bad);
    if (ok(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  out.max_factor = good;
  return out;
}

std::optional<double> min_speed_scaling(const net::Network& network,
                                        const std::vector<gmf::Flow>& flows,
                                        double lo, double hi,
                                        double tolerance,
                                        const HolisticOptions& opts) {
  auto ok = [&](double f) {
    return schedulable_at(scale_link_speeds(network, f), flows, opts);
  };
  if (!ok(hi)) return std::nullopt;
  if (ok(lo)) return lo;
  double bad = lo;
  double good = hi;
  while ((good - bad) / bad > tolerance) {
    const double mid = 0.5 * (bad + good);
    if (ok(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

}  // namespace gmfnet::core
