// Tests of the holistic jitter fixed point (§3.5).
#include "core/holistic.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "workload/scenario.hpp"

namespace gmfnet::core {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 10'000'000;

TEST(Holistic, LoneFlowConvergesInTwoSweeps) {
  const auto star = net::make_star_network(4, kSpeed);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "a", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(20), gmfnet::Time::ms(20), 1000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  // Sweep 1 installs the stage jitters, sweep 2 observes no change.
  EXPECT_EQ(r.sweeps, 2);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_TRUE(r.flows[0].schedulable());
}

TEST(Holistic, Figure2ScenarioSchedulable) {
  const auto s = workload::make_figure2_scenario(kSpeed, true);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    EXPECT_TRUE(r.flows[f].all_converged()) << "flow " << f;
  }
}

TEST(Holistic, BoundsAreMonotoneInLoad) {
  // Same flow, analysed alone vs. with cross traffic: the holistic bound
  // with competitors must dominate.
  const auto quiet = workload::make_figure2_scenario(kSpeed, false);
  const auto busy = workload::make_figure2_scenario(kSpeed, true);
  const HolisticResult rq =
      analyze_holistic(AnalysisContext(quiet.network, quiet.flows));
  const HolisticResult rb =
      analyze_holistic(AnalysisContext(busy.network, busy.flows));
  ASSERT_TRUE(rq.converged);
  ASSERT_TRUE(rb.converged);
  EXPECT_GT(rb.worst_response(FlowId(0)), rq.worst_response(FlowId(0)));
}

TEST(Holistic, JitterPropagatesDownstream) {
  const auto s = workload::make_figure2_scenario(kSpeed, false);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult r = analyze_holistic(ctx);
  ASSERT_TRUE(r.converged);
  const auto& stages = ctx.stages(FlowId(0));
  // Jitter strictly accumulates along the pipeline for every frame.
  for (std::size_t k = 0; k < 9; ++k) {
    gmfnet::Time prev = gmfnet::Time(-1);
    for (const StageKey& st : stages) {
      const gmfnet::Time j = r.jitters.jitter(FlowId(0), st, k);
      EXPECT_GT(j, prev);
      prev = j;
    }
  }
}

TEST(Holistic, UnschedulableOverloadReported) {
  const auto star = net::make_star_network(4, kSpeed);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "over", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.schedulable);
}

TEST(Holistic, DeadlineMissWithoutDivergence) {
  const auto star = net::make_star_network(4, kSpeed);
  // Feasible load but a deadline below the floor MFT+CIRC costs.
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "tight", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(20), gmfnet::Time::ms(1), 1000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);       // analysis converges fine...
  EXPECT_FALSE(r.schedulable);    // ...but the deadline is missed
}

TEST(Holistic, WorstResponseAccessor) {
  const auto s = workload::make_figure2_scenario(kSpeed, false);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult r = analyze_holistic(ctx);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.worst_response(FlowId(0)), r.flows[0].worst_response());
  EXPECT_GT(r.worst_response(FlowId(0)), gmfnet::Time::zero());
}

TEST(Holistic, ManyIndependentFlowsStillTwoSweeps) {
  // Flows that share nothing have no cross-jitter: the fixed point arrives
  // after one productive sweep.
  const auto star = net::make_star_network(8, kSpeed);
  std::vector<gmf::Flow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(gmf::make_sporadic_flow(
        "f" + std::to_string(i),
        net::Route({star.hosts[static_cast<std::size_t>(2 * i)], star.sw,
                    star.hosts[static_cast<std::size_t>(2 * i + 1)]}),
        gmfnet::Time::ms(20), gmfnet::Time::ms(20), 1000 * 8));
  }
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.sweeps, 2);
}

}  // namespace
}  // namespace gmfnet::core
