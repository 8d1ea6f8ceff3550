// The incremental engine's core contract, checked as a property over
// randomized scenarios: any sequence of add_flow / remove_flow followed by
// evaluate() produces a HolisticResult bit-identical to a from-scratch
// AnalysisContext + analyze_holistic run on the same flow set — same
// schedulability verdict, same worst responses, same fixed-point jitters.
//
// Soundness argument (see analysis_engine.hpp): both iterations drive the
// same monotone sweep operator to its unique least fixed point; the engine
// merely starts closer (warm start) and skips flows whose interference
// component is untouched.  This test is the executable version of that
// argument, across topology families, utilizations and mutation orders.
#include "engine/analysis_engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/priority.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::engine {
namespace {

core::HolisticResult from_scratch(const net::Network& net,
                                  const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  return core::analyze_holistic(ctx);
}

/// The pre-envelope reference: same from-scratch run with the per-hop
/// analyses forced onto the naive per-interferer MX/NX path (no merged
/// LevelEnvelope, no cursor).  Pinning the engine against this closes the
/// loop: engine (envelope) == cold (envelope) == cold (naive).
core::HolisticResult from_scratch_naive(const net::Network& net,
                                        const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  core::HolisticOptions opts;
  opts.hop.use_envelope = false;
  return core::analyze_holistic(ctx, opts);
}

void expect_bit_identical(const core::HolisticResult& inc,
                          const core::HolisticResult& cold,
                          const std::string& where) {
  ASSERT_EQ(inc.converged, cold.converged) << where;
  ASSERT_EQ(inc.schedulable, cold.schedulable) << where;
  // Without a fixed point the per-sweep partial state is not comparable.
  if (!inc.converged) return;
  EXPECT_TRUE(inc.jitters == cold.jitters)
      << where << ": jitter fixed points differ";
  ASSERT_EQ(inc.flows.size(), cold.flows.size()) << where;
  for (std::size_t f = 0; f < inc.flows.size(); ++f) {
    const core::FlowId id(static_cast<std::int32_t>(f));
    EXPECT_EQ(inc.worst_response(id), cold.worst_response(id))
        << where << ": flow " << f;
    ASSERT_EQ(inc.flows[f].frames.size(), cold.flows[f].frames.size());
    for (std::size_t k = 0; k < inc.flows[f].frames.size(); ++k) {
      EXPECT_EQ(inc.flows[f].frames[k].response,
                cold.flows[f].frames[k].response)
          << where << ": flow " << f << " frame " << k;
      EXPECT_EQ(inc.flows[f].frames[k].meets_deadline,
                cold.flows[f].frames[k].meets_deadline)
          << where << ": flow " << f << " frame " << k;
    }
  }
}

/// Drives one scenario through the engine and compares every step bit for
/// bit with a cold rebuild: incremental adds, random removals (the
/// reset-dirty-component path), a re-add (warm start over a shrunk fixed
/// point), envelope parity, what-if probes (single and batched), and a
/// mixed commit group against sequential commits.
void check_scenario(const net::Network& net,
                    const std::vector<gmf::Flow>& flows, Rng& rng,
                    const std::string& tag) {
  AnalysisEngine eng(net);
  std::vector<gmf::Flow> mirror;  // ground truth for the cold rebuild

  for (std::size_t i = 0; i < flows.size(); ++i) {
    eng.add_flow(flows[i]);
    mirror.push_back(flows[i]);
    expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                         tag + " after add " + std::to_string(i));
  }

  const std::size_t removals = 1 + rng.next_below(2);
  for (std::size_t r = 0; r < removals && !mirror.empty(); ++r) {
    const auto idx = static_cast<std::size_t>(rng.next_below(mirror.size()));
    ASSERT_TRUE(eng.remove_flow(idx));
    mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
    if (mirror.empty()) break;
    expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                         tag + " after remove " + std::to_string(idx));
  }

  eng.add_flow(flows[0]);
  mirror.push_back(flows[0]);
  expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                       tag + " after re-add");

  // Envelope fast path vs the pre-envelope naive per-hop evaluation: the
  // cold runs above used the (default) envelope path; the naive reference
  // must agree bit-for-bit on the same final flow set.
  expect_bit_identical(from_scratch(net, mirror),
                       from_scratch_naive(net, mirror),
                       tag + " envelope parity");

  // What-if probes match cold runs and commit nothing.
  const std::vector<gmf::Flow> cands = {flows.back(), flows[0]};
  const auto batch = eng.evaluate_batch(cands);
  ASSERT_EQ(batch.size(), cands.size());
  EXPECT_EQ(eng.flow_count(), mirror.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    std::vector<gmf::Flow> with = mirror;
    with.push_back(cands[i]);
    const core::HolisticResult cold = from_scratch(net, with);
    expect_bit_identical(batch[i].result(), cold,
                         tag + " batch candidate " + std::to_string(i));
    expect_bit_identical(batch[i].result(), from_scratch_naive(net, with),
                         tag + " batch candidate (naive parity) " +
                             std::to_string(i));
    expect_bit_identical(eng.what_if(cands[i]).result(), cold,
                         tag + " what-if candidate " + std::to_string(i));
  }
  EXPECT_EQ(eng.flow_count(), mirror.size());

  // A commit group — try_admit_lean / remove_flow, then ONE evaluate() —
  // against a second engine committing the same ops one at a time
  // (try_admit, remove_flow + evaluate).  The group opens on a current
  // result (the first admit probes the published snapshot); later admits
  // probe the pending state, back to back after a commit and after the
  // 1 us-deadline flow, which is always rejected.
  AnalysisEngine seq(net);
  for (const gmf::Flow& f : mirror) seq.add_flow(f);
  (void)seq.evaluate();
  const std::size_t published_before = eng.published()->flow_count();
  const gmf::Flow hopeless = gmf::make_sporadic_flow(
      "hopeless", flows[0].route(), gmfnet::Time::ms(1), gmfnet::Time::us(1),
      1500 * 8, flows[0].priority());
  // nullopt = remove a random resident.
  const std::vector<std::optional<gmf::Flow>> group = {
      flows.back(),           std::nullopt, hopeless,    flows[0],
      flows[flows.size() / 2], std::nullopt, flows.back()};
  for (std::size_t k = 0; k < group.size(); ++k) {
    const std::string op = tag + " group op " + std::to_string(k);
    if (group[k].has_value()) {
      const bool lean = eng.try_admit_lean(*group[k]);
      ASSERT_EQ(lean, seq.try_admit(*group[k]).has_value()) << op;
      if (k == 2) {
        EXPECT_FALSE(lean) << op << " (1 us deadline)";
      }
      if (lean) mirror.push_back(*group[k]);
    } else if (mirror.size() > 1) {
      const auto idx =
          static_cast<std::size_t>(rng.next_below(mirror.size()));
      ASSERT_TRUE(eng.remove_flow(idx)) << op;
      ASSERT_TRUE(seq.remove_flow(idx)) << op;
      (void)seq.evaluate();
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  // Readers see the pre-group world until the group's evaluate().
  EXPECT_EQ(eng.published()->flow_count(), published_before);
  const core::HolisticResult grouped = eng.evaluate();
  EXPECT_EQ(eng.published()->flow_count(), mirror.size());
  expect_bit_identical(grouped, seq.evaluate(), tag + " group vs sequential");
  expect_bit_identical(grouped, from_scratch(net, mirror),
                       tag + " group vs from-scratch");
}

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, IncrementalMatchesFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(0x5eed5eed + seed * 0x9E3779B9ull);

  // Rotate topology families for scenario diversity.
  net::Network net;
  std::vector<net::NodeId> hosts;
  switch (seed % 3) {
    case 0: {
      const auto fig = net::make_figure1_network(100'000'000);
      net = fig.net;
      hosts = {fig.host0, fig.host1, fig.host2, fig.host3};
      break;
    }
    case 1: {
      const auto star = net::make_star_network(6, 100'000'000);
      net = star.net;
      hosts = star.hosts;
      break;
    }
    default: {
      const auto line = net::make_line_network(3, 100'000'000);
      net = line.net;
      hosts = line.leaf_hosts;
      hosts.push_back(line.src_host);
      hosts.push_back(line.dst_host);
      break;
    }
  }

  workload::TasksetParams params;
  params.num_flows = 3 + static_cast<int>(rng.next_below(5));  // 3..7
  params.total_utilization = rng.uniform(0.15, 0.55);
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(net, hosts, params, rng);
  ASSERT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);

  check_scenario(net, ts->flows, rng, "seed " + std::to_string(seed));
}

// 100+ random scenarios (the acceptance floor for this property).
INSTANTIATE_TEST_SUITE_P(Scenarios, EngineEquivalence,
                         ::testing::Range<std::uint64_t>(0, 108));

// Two flows of distinct priority sharing the sw0 -> sw1 link, neither as
// its first hop.  Egress interference at sw0 runs one way only (the
// higher priority delays the lower), but ingress at sw1 is priority-blind:
// each flow's ingress stage reads the other's iterated jitter.  The
// interference graph is therefore cyclic even though no two flows share a
// priority — the shape a priority-only dependency check misses.
TEST(EngineEquivalenceIngressCycle, DistinctPrioritiesMatchFromScratch) {
  const auto line = net::make_line_network(2, 100'000'000);
  const std::vector<gmf::Flow> flows = {
      gmf::make_sporadic_flow(
          "hi", net::Route({line.src_host, line.switches[0],
                            line.switches[1], line.dst_host}),
          gmfnet::Time::us(500), gmfnet::Time::ms(10), 1500 * 8, 2),
      gmf::make_sporadic_flow(
          "lo", net::Route({line.leaf_hosts[0], line.switches[0],
                            line.switches[1], line.leaf_hosts[1]}),
          gmfnet::Time::us(500), gmfnet::Time::ms(10), 1500 * 8, 1)};

  // The whole-set solve must be a real fixed point for the comparisons
  // below to mean anything.
  const core::HolisticResult cold = from_scratch(line.net, flows);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(cold.schedulable);

  Rng rng(0x1c1c1e);
  check_scenario(line.net, flows, rng, "ingress cycle");
}

}  // namespace
}  // namespace gmfnet::engine
