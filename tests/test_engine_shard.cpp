// The sharded engine's contracts:
//
//  * Partition correctness: at every point, two resident flows live in the
//    same shard iff their routes share links transitively (checked against
//    a reference union-find over the global flow set), shards merge when a
//    flow bridges domains and split again when a removal disconnects one
//    (rebuild-on-remove).
//
//  * Bit-identical results: evaluate(), what_if() and snapshot probes match
//    a from-scratch AnalysisContext + analyze_holistic run on the same
//    global flow set — same verdicts, same per-frame responses, same
//    fixed-point jitters — across randomized multi-domain scenarios and
//    mutation orders, and the sharded engine matches the single-domain
//    (shard_by_domain = false) engine.
//
//  * Snapshot consistency under concurrency: reader threads probing
//    published snapshots while the writer admits/removes always observe a
//    committed world — every probe bit-matches a from-scratch run over the
//    snapshot's own flow list (the same equivalence harness, applied to
//    whatever world the reader happened to catch), or a second probe on
//    the same snapshot.
//
//  * Lean results: WhatIfResult's cheap accessors (converged, sweeps,
//    flow_count, flow_result, worst_response) agree with the lazily
//    materialized full result().
//
//  * EngineStats: evaluations == full_runs + incremental_runs always (every
//    solver run is exactly one of the two), counters survive concurrent
//    batch probes, and reset_stats() zeroes them.
//
//  * No idle re-solves: a shard whose solve did not converge is not
//    re-solved or re-published by evaluate()/snapshot() until it changes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::engine {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

core::HolisticResult from_scratch(const net::Network& net,
                                  const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  return core::analyze_holistic(ctx);
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

/// Reference partition: union-find over the engine's resident flows by
/// transitive link sharing, used to check shard assignment.
std::vector<std::size_t> reference_partition(
    const net::Network& net, const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  const std::size_t n = flows.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t f = 0; f < n; ++f) {
    for (const net::LinkRef l :
         ctx.route_links(net::FlowId(static_cast<std::int32_t>(f)))) {
      for (const net::FlowId j : ctx.flows_on_link(l)) {
        const std::size_t a = find(f);
        const std::size_t b = find(static_cast<std::size_t>(j.v));
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  std::vector<std::size_t> root(n);
  for (std::size_t f = 0; f < n; ++f) root[f] = find(f);
  return root;
}

void expect_partition_matches(const AnalysisEngine& eng,
                              const net::Network& net,
                              const std::vector<gmf::Flow>& flows,
                              const std::string& where) {
  ASSERT_EQ(eng.flow_count(), flows.size()) << where;
  const std::vector<std::size_t> root = reference_partition(net, flows);
  std::size_t domains = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) domains += root[f] == f;
  EXPECT_EQ(eng.shard_count(), domains) << where;
  for (std::size_t a = 0; a < flows.size(); ++a) {
    for (std::size_t b = a + 1; b < flows.size(); ++b) {
      EXPECT_EQ(eng.shard_of(a) == eng.shard_of(b), root[a] == root[b])
          << where << ": flows " << a << "," << b;
    }
  }
}

gmf::Flow voip_between(const net::StarNetwork& star, std::size_t a,
                       std::size_t b, const std::string& name) {
  return workload::make_voip_flow(
      name, net::Route({star.hosts[a], star.sw, star.hosts[b]}));
}

TEST(EngineShard, DisjointFlowsGetTheirOwnShards) {
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  eng.add_flow(voip_between(star, 4, 5, "c"));
  EXPECT_EQ(eng.shard_count(), 3u);
  EXPECT_NE(eng.shard_of(0), eng.shard_of(1));
  // Same host pair -> same links -> same shard.
  eng.add_flow(voip_between(star, 0, 1, "a2"));
  EXPECT_EQ(eng.shard_count(), 3u);
  EXPECT_EQ(eng.shard_of(0), eng.shard_of(3));
}

TEST(EngineShard, BridgeFlowMergesAndRemovalResplits) {
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  ASSERT_EQ(eng.shard_count(), 2u);
  // 0 -> 3 shares host0's uplink with "a" and host3's downlink with "b".
  const net::FlowId bridge = eng.add_flow(voip_between(star, 0, 3, "bridge"));
  EXPECT_EQ(eng.shard_count(), 1u);
  EXPECT_TRUE(eng.evaluate().schedulable);
  // Rebuild-on-remove: dropping the bridge disconnects the domain again.
  ASSERT_TRUE(eng.remove_flow(static_cast<std::size_t>(bridge.v)));
  EXPECT_EQ(eng.shard_count(), 2u);
  EXPECT_NE(eng.shard_of(0), eng.shard_of(1));
  EXPECT_TRUE(eng.evaluate().schedulable);
}

TEST(EngineShard, MergeKeepsWarmStateOfEvaluatedParts) {
  // Bridging two domains while one of them holds a flow added since its
  // last solve must not go cold: covered flows warm-start, only the
  // uncovered ones (plus closure) restart.
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  (void)eng.evaluate();
  eng.add_flow(voip_between(star, 0, 1, "a2"));  // domain A, not yet solved
  eng.add_flow(voip_between(star, 0, 3, "bridge"));  // merges A and B
  ASSERT_EQ(eng.shard_count(), 1u);

  const EngineStats before = eng.stats();
  const core::HolisticResult& merged = eng.evaluate();
  // The merge preserved the parts' converged state: an incremental run,
  // not a cold full one.
  EXPECT_EQ(eng.stats().full_runs, before.full_runs);
  EXPECT_EQ(eng.stats().incremental_runs, before.incremental_runs + 1);

  std::vector<gmf::Flow> mirror = {
      voip_between(star, 0, 1, "a"), voip_between(star, 2, 3, "b"),
      voip_between(star, 0, 1, "a2"), voip_between(star, 0, 3, "bridge")};
  expect_bit_identical(merged, from_scratch(star.net, mirror),
                       "merge with unevaluated add");
}

/// A small campus: `cells` independent stars, so scenarios have several
/// locality domains by construction.
struct Campus {
  net::Network net;
  std::vector<net::NodeId> hosts;  // all hosts, cell-major
  std::vector<net::NodeId> switches;
};

Campus make_campus(int cells, int hosts_per_cell) {
  Campus c;
  for (int cell = 0; cell < cells; ++cell) {
    const net::NodeId sw = c.net.add_switch("sw" + std::to_string(cell));
    c.switches.push_back(sw);
    for (int h = 0; h < hosts_per_cell; ++h) {
      const net::NodeId host = c.net.add_endhost(
          "c" + std::to_string(cell) + "h" + std::to_string(h));
      c.net.add_duplex_link(host, sw, kSpeed);
      c.hosts.push_back(host);
    }
  }
  return c;
}

/// A VoIP flow between hosts `a` and `b` of one campus cell.
gmf::Flow voip(const Campus& campus, int cell, std::size_t a, std::size_t b,
               const std::string& name) {
  const std::size_t per_cell = campus.hosts.size() / campus.switches.size();
  const std::size_t base = static_cast<std::size_t>(cell) * per_cell;
  return workload::make_voip_flow(
      name,
      net::Route({campus.hosts[base + a],
                  campus.switches[static_cast<std::size_t>(cell)],
                  campus.hosts[base + b]}));
}

/// Snapshot probes vs cold truth: each candidate's full result must match
/// a from-scratch run over the snapshot's flows + the candidate, and its
/// verdict must be that result's schedulability.
void expect_snapshot_probes_match_cold(const EngineSnapshot& snap,
                                       const net::Network& net,
                                       const std::vector<gmf::Flow>& cands,
                                       const std::string& where) {
  const std::vector<gmf::Flow> residents = snap.flows();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const WhatIfResult probe = snap.what_if(cands[i]);
    std::vector<gmf::Flow> with = residents;
    with.push_back(cands[i]);
    expect_bit_identical(probe.result(), from_scratch(net, with),
                         where + " candidate " + std::to_string(i));
    EXPECT_EQ(probe.admissible, probe.result().schedulable) << where;
  }
}

class EngineShardEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineShardEquivalence, RandomMultiDomainScenarios) {
  const std::uint64_t seed = GetParam();
  Rng rng(0x51a4d5eed + seed * 0x9E3779B9ull);

  const int cells = 2 + static_cast<int>(seed % 3);  // 2..4 domains
  const Campus campus = make_campus(cells, 4);

  workload::TasksetParams params;
  params.num_flows = 4 + static_cast<int>(rng.next_below(6));  // 4..9
  params.total_utilization = rng.uniform(0.15, 0.5);
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(campus.net, campus.hosts, params, rng);
  ASSERT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);

  AnalysisEngine eng(campus.net);
  AnalysisEngine mono(campus.net, {}, /*shard_by_domain=*/false);
  std::vector<gmf::Flow> mirror;

  const auto check = [&](const std::string& where) {
    const core::HolisticResult cold = from_scratch(campus.net, mirror);
    expect_bit_identical(eng.evaluate(), cold, where + " (sharded)");
    expect_bit_identical(mono.evaluate(), cold, where + " (single-domain)");
    expect_partition_matches(eng, campus.net, mirror, where);
    EXPECT_LE(mono.shard_count(), 1u) << where;
  };

  // Incremental adds across domains.
  for (std::size_t i = 0; i < ts->flows.size(); ++i) {
    eng.add_flow(ts->flows[i]);
    mono.add_flow(ts->flows[i]);
    mirror.push_back(ts->flows[i]);
    check("seed " + std::to_string(seed) + " after add " + std::to_string(i));
  }

  // Random removals (exercises split-on-remove and cache reindexing).
  const std::size_t removals = 1 + rng.next_below(3);
  for (std::size_t r = 0; r < removals && !mirror.empty(); ++r) {
    const auto idx = static_cast<std::size_t>(rng.next_below(mirror.size()));
    ASSERT_TRUE(eng.remove_flow(idx));
    ASSERT_TRUE(mono.remove_flow(idx));
    mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
    if (mirror.empty()) break;
    check("seed " + std::to_string(seed) + " after remove " +
          std::to_string(idx));
  }

  // Re-add after removal (warm start over a shrunk fixed point).
  eng.add_flow(ts->flows[0]);
  mono.add_flow(ts->flows[0]);
  mirror.push_back(ts->flows[0]);
  check("seed " + std::to_string(seed) + " after re-add");

  // Snapshot probes: lock-free reader path vs cold truth, full result.
  const auto snap = eng.snapshot();
  ASSERT_EQ(snap->flow_count(), mirror.size());
  expect_snapshot_probes_match_cold(*snap, campus.net,
                                    {ts->flows.back(), ts->flows[0]},
                                    "seed " + std::to_string(seed) +
                                        " snapshot");
  EXPECT_EQ(eng.flow_count(), mirror.size());  // probes committed nothing
}

INSTANTIATE_TEST_SUITE_P(Scenarios, EngineShardEquivalence,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(EngineShard, SoloBridgeSpanProbesMatchColdTruth) {
  // 2 cells x 6 hosts; three disjoint resident pairs per cell -> 6 shards.
  const Campus campus = make_campus(2, 6);
  AnalysisEngine eng(campus.net);
  for (int cell = 0; cell < 2; ++cell) {
    for (std::size_t p = 0; p < 3; ++p) {
      eng.add_flow(voip(campus, cell, 2 * p, 2 * p + 1,
                        "r" + std::to_string(cell) + std::to_string(p)));
    }
  }
  const auto snap = eng.snapshot();
  ASSERT_EQ(snap->shard_count(), 6u);

  // Per cell: a candidate inside one shard (same host pair as a resident),
  // one bridging two shards, and one spanning the cell's first and last
  // shards; then every adjacent-pair bridge.
  std::vector<gmf::Flow> cands;
  for (int cell = 0; cell < 2; ++cell) {
    cands.push_back(voip(campus, cell, 0, 1, "solo"));
    cands.push_back(voip(campus, cell, 1, 2, "bridge"));
    cands.push_back(voip(campus, cell, 0, 5, "span"));
    for (std::size_t a = 0; a + 1 < 6; ++a) {
      cands.push_back(voip(campus, cell, a, a + 1, "pair"));
    }
  }
  expect_snapshot_probes_match_cold(*snap, campus.net, cands, "campus");
  EXPECT_EQ(eng.flow_count(), 6u);  // probes committed nothing
}

TEST(EngineShard, CheapAccessorsMatchMaterializedResult) {
  const Campus campus = make_campus(2, 6);
  AnalysisEngine eng(campus.net);
  for (int cell = 0; cell < 2; ++cell) {
    eng.add_flow(voip(campus, cell, 0, 1, "r" + std::to_string(cell)));
  }
  const auto snap = eng.snapshot();

  const WhatIfResult w = snap->what_if(voip(campus, 0, 2, 3, "cand"));
  const core::HolisticResult& full = w.result();
  EXPECT_EQ(w.converged(), full.converged);
  EXPECT_EQ(w.sweeps(), full.sweeps);
  EXPECT_EQ(w.admissible, full.schedulable);
  ASSERT_EQ(w.flow_count(), full.flows.size());
  for (std::size_t f = 0; f < full.flows.size(); ++f) {
    const core::FlowId id(static_cast<std::int32_t>(f));
    // Both dirty (candidate component) and clean (shared published) flows.
    EXPECT_EQ(w.worst_response(id), full.worst_response(id)) << "flow " << f;
    EXPECT_EQ(w.flow_result(id).worst_response(),
              full.flows[f].worst_response())
        << "flow " << f;
  }
}

TEST(EngineShard, SnapshotStressReadersVsWriter) {
  // Writer thread admits/removes while reader threads probe whatever
  // snapshot is currently published.  Every probe must bit-match a
  // from-scratch run over the snapshot's own flow list — i.e. readers only
  // ever see committed worlds, never a half-applied mutation.
  const Campus campus = make_campus(3, 4);
  const auto flow_for = [&](int n, const std::string& prefix) {
    const int cell = n % 3;
    const std::size_t a = static_cast<std::size_t>(cell) * 4 +
                          static_cast<std::size_t>(n % 2) * 2;
    return workload::make_voip_flow(
        prefix + std::to_string(n),
        net::Route({campus.hosts[a],
                    campus.switches[static_cast<std::size_t>(cell)],
                    campus.hosts[a + 1]}),
        gmfnet::Time::ms(20), /*priority=*/5);
  };

  AnalysisEngine eng(campus.net);
  for (int n = 0; n < 6; ++n) eng.add_flow(flow_for(n, "seed"));
  (void)eng.evaluate();

  std::atomic<bool> stop{false};
  std::atomic<int> probes_ok{0};
  std::atomic<int> probes_bad{0};

  const int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = eng.published();
        const gmf::Flow cand = flow_for(100 + (r * 7 + i) % 11, "probe");
        const WhatIfResult w = snap->what_if(cand);
        // Verify against cold truth for the very flow set the snapshot
        // claims to hold (self-consistency of the published world).
        std::vector<gmf::Flow> with = snap->flows();
        with.push_back(cand);
        const core::HolisticResult cold = from_scratch(campus.net, with);
        const bool ok =
            w.converged() == cold.converged &&
            w.admissible == cold.schedulable &&
            w.flow_count() == cold.flows.size() &&
            (!cold.converged || w.result().jitters == cold.jitters);
        (ok ? probes_ok : probes_bad).fetch_add(1,
                                                std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Writer: churn admissions and removals across all three domains, then
  // keep the readers alive until each has landed at least one probe (on a
  // single-core box the 40 rounds can finish before a reader ever runs).
  for (int round = 0; round < 40; ++round) {
    (void)eng.try_admit(flow_for(200 + round, "w"));
    if (eng.flow_count() > 8) {
      (void)eng.remove_flow(static_cast<std::size_t>(round) %
                            eng.flow_count());
    }
    (void)eng.evaluate();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (probes_ok.load() + probes_bad.load() < kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(probes_bad.load(), 0);
  EXPECT_GT(probes_ok.load(), 0);
}

TEST(EngineShard, ConcurrentReadersProbeUnderWriterChurn) {
  // Each reader issues hundreds of probes while the writer admits/removes
  // and republishes.  Every probe is checked against a second probe on the
  // same snapshot; every fourth one also against a cold from-scratch solve
  // of the snapshot's own flow list.  Run under TSan in CI.
  const Campus campus = make_campus(3, 6);
  const auto flow_for = [&](int n, const std::string& prefix) {
    const int cell = n % 3;
    const std::size_t a = static_cast<std::size_t>(n % 5);
    return voip(campus, cell, a, a + 1, prefix + std::to_string(n));
  };

  AnalysisEngine eng(campus.net);
  for (int n = 0; n < 6; ++n) eng.add_flow(flow_for(n, "seed"));
  (void)eng.evaluate();

  std::atomic<bool> stop{false};
  std::atomic<int> probes_ok{0};
  std::atomic<int> probes_bad{0};

  constexpr int kReaders = 4;
  constexpr int kMinProbesPerReader = 150;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = eng.published();
        const gmf::Flow cand = flow_for(100 + (r * 7 + i) % 13, "probe");
        const WhatIfResult w = snap->what_if(cand);
        bool ok = true;
        if (i % 4 == 0) {
          // Cold truth for the very flow set this snapshot holds.
          std::vector<gmf::Flow> with = snap->flows();
          with.push_back(cand);
          const core::HolisticResult cold = from_scratch(campus.net, with);
          ok = w.converged() == cold.converged &&
               w.admissible == cold.schedulable &&
               w.flow_count() == cold.flows.size() &&
               (!cold.converged || w.result().jitters == cold.jitters);
        } else {
          const WhatIfResult ref = snap->what_if(cand);
          ok = w.admissible == ref.admissible &&
               w.converged() == ref.converged() &&
               w.flow_count() == ref.flow_count() &&
               (!w.converged() ||
                w.result().jitters == ref.result().jitters);
        }
        (ok ? probes_ok : probes_bad).fetch_add(1,
                                                std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Writer: churn admissions/removals across the domains, republishing
  // after each, then keep the readers alive until each has landed enough
  // probes to have seen many republishes.
  for (int round = 0; round < 30; ++round) {
    if (round % 3 == 2 && eng.flow_count() > 3) {
      (void)eng.remove_flow(eng.flow_count() - 1);
      (void)eng.evaluate();
    } else {
      (void)eng.try_admit(flow_for(200 + round, "writer"));
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (probes_ok.load() + probes_bad.load() <
             kReaders * kMinProbesPerReader &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(probes_bad.load(), 0);
  EXPECT_GE(probes_ok.load(), kReaders * kMinProbesPerReader);
}

// One flow overloading its link — 15 kB every 2 ms is 60 Mbit/s on a
// 10 Mbit/s star — so no shard holding it can converge.
gmf::Flow hog_between(const net::StarNetwork& star, std::size_t a,
                      std::size_t b) {
  return gmf::Flow("hog", net::Route({star.hosts[a], star.sw, star.hosts[b]}),
                   {{gmfnet::Time::ms(2), gmfnet::Time::ms(2),
                     gmfnet::Time::zero(), 15'000 * 8}});
}

/// Equality including a diverged solve's partial state: the sweep count,
/// the jitter map and every frame's response and converged flag.
void expect_same_partial_state(const core::HolisticResult& got,
                               const core::HolisticResult& cold) {
  EXPECT_EQ(got.converged, cold.converged);
  EXPECT_EQ(got.schedulable, cold.schedulable);
  EXPECT_EQ(got.sweeps, cold.sweeps);
  EXPECT_TRUE(got.jitters == cold.jitters) << "jitter maps differ";
  ASSERT_EQ(got.flows.size(), cold.flows.size());
  for (std::size_t f = 0; f < cold.flows.size(); ++f) {
    ASSERT_EQ(got.flows[f].frames.size(), cold.flows[f].frames.size());
    for (std::size_t k = 0; k < cold.flows[f].frames.size(); ++k) {
      EXPECT_EQ(got.flows[f].frames[k].response,
                cold.flows[f].frames[k].response)
          << "flow " << f << " frame " << k;
      EXPECT_EQ(got.flows[f].frames[k].converged,
                cold.flows[f].frames[k].converged)
          << "flow " << f << " frame " << k;
    }
  }
}

TEST(EngineShard, UnchangedDivergedShardIsNotResolved) {
  const auto star = net::make_star_network(2, 10'000'000);
  const std::vector<gmf::Flow> flows = {hog_between(star, 0, 1)};
  AnalysisEngine eng(star.net);
  eng.add_flow(flows[0]);
  ASSERT_FALSE(eng.evaluate().converged);

  // Back-to-back evaluate() and snapshot() with no mutation in between:
  // nothing is re-solved and nothing is re-published.
  const EngineStats before = eng.stats();
  const std::shared_ptr<const EngineSnapshot> published = eng.published();
  const core::HolisticResult& again = eng.evaluate();
  EXPECT_EQ(eng.snapshot(), published);
  EXPECT_EQ(eng.stats().sweeps, before.sweeps);
  EXPECT_EQ(eng.stats().evaluations, before.evaluations);
  EXPECT_EQ(eng.published(), published);

  // The kept result is the from-scratch one, down to the sweep count and
  // the partial jitter map.
  const core::HolisticResult cold = from_scratch(star.net, flows);
  EXPECT_FALSE(cold.converged);
  expect_same_partial_state(again, cold);

  // A mutation still re-solves: the shard changed.
  eng.add_flow(voip_between(star, 0, 1, "voice"));
  (void)eng.evaluate();
  EXPECT_GT(eng.stats().evaluations, before.evaluations);
  EXPECT_NE(eng.published(), published);
}

TEST(EngineShard, WarmRunThatDivergesStoresTheColdResult) {
  // A converged shard overloaded by add_flow: its warm-started run
  // diverges from a start the cold solve never sees.  The stored result
  // (and every evaluate() after it) is still the from-scratch one.
  const auto star = net::make_star_network(2, 10'000'000);
  const std::vector<gmf::Flow> flows = {voip_between(star, 0, 1, "voice"),
                                        voip_between(star, 0, 1, "voice2"),
                                        hog_between(star, 0, 1)};
  AnalysisEngine eng(star.net);
  eng.add_flow(flows[0]);
  eng.add_flow(flows[1]);
  ASSERT_TRUE(eng.evaluate().converged);

  eng.add_flow(flows[2]);
  const core::HolisticResult& overloaded = eng.evaluate();
  const core::HolisticResult cold = from_scratch(star.net, flows);
  ASSERT_FALSE(cold.converged);
  expect_same_partial_state(overloaded, cold);

  // Unchanged from here on: the stored cold result stands.
  const EngineStats before = eng.stats();
  expect_same_partial_state(eng.evaluate(), cold);
  EXPECT_EQ(eng.stats().sweeps, before.sweeps);
}

TEST(EngineShard, StatsConsistencyAndReset) {
  const auto star = net::make_star_network(10, kSpeed);
  AnalysisEngine eng(star.net);
  const auto consistent = [&] {
    const EngineStats s = eng.stats();
    return s.evaluations == s.full_runs + s.incremental_runs;
  };
  EXPECT_TRUE(consistent());

  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  (void)eng.evaluate();
  EXPECT_TRUE(consistent());
  EXPECT_EQ(eng.stats().full_runs, 2u);  // one cold run per new domain

  (void)eng.what_if(voip_between(star, 0, 1, "probe"));
  EXPECT_TRUE(consistent());

  // Concurrent batch probes record through the atomic counters.
  std::vector<gmf::Flow> cands;
  for (int i = 0; i < 16; ++i) {
    cands.push_back(voip_between(star, 4, 5, "c" + std::to_string(i)));
  }
  const EngineStats before = eng.stats();
  const auto batch = eng.evaluate_batch(cands);
  ASSERT_EQ(batch.size(), cands.size());
  const EngineStats after = eng.stats();
  EXPECT_TRUE(consistent());
  EXPECT_EQ(after.evaluations - before.evaluations, cands.size());

  eng.reset_stats();
  const EngineStats zero = eng.stats();
  EXPECT_EQ(zero.evaluations, 0u);
  EXPECT_EQ(zero.full_runs, 0u);
  EXPECT_EQ(zero.incremental_runs, 0u);
  EXPECT_EQ(zero.flow_analyses, 0u);
  EXPECT_EQ(zero.flow_results_reused, 0u);
  EXPECT_EQ(zero.sweeps, 0u);
  EXPECT_TRUE(consistent());
}

}  // namespace
}  // namespace gmfnet::engine
