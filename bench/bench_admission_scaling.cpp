// Experiment E10: admission-decision cost as the resident flow set grows —
// the seed's from-scratch controller (rebuild AnalysisContext + cold
// holistic fixed point per query) vs the incremental sharded AnalysisEngine
// (per-domain contexts, route-based dirty tracking, warm-started fixed
// point, published snapshots).
//
// Two scenarios:
//
//  * "campus": independent star cells (one switch + 8 phones each), flows
//    on rotating host pairs — many small locality domains, the shape an
//    operator's admission controller actually serves.  From-scratch cost
//    grows with the total resident count; sharded cost only with the
//    touched domain.
//
//  * "four_domain": 4 cells whose flows all fan out of one hub host, so
//    the engine discovers exactly 4 locality domains of 64 flows each at
//    256 residents.  Domains this large are the hard case for incremental
//    admission (the touched component is a quarter of the world), which is
//    what the >= 3x single-admission bar is measured on.  The
//    single-domain engine (shard_by_domain = false, the pre-shard
//    architecture) is timed alongside to isolate what the per-shard
//    context buys on top of warm incremental re-analysis.
//
//   $ ./bench_admission_scaling [probes_per_size]
//
// Exits non-zero if sharded admission is not >= 5x faster than
// from-scratch at 64+ campus residents, not >= 3x faster than from-scratch
// on the 4-domain 256-resident scenario, or if any two paths disagree on a
// verdict.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/campus_topology.hpp"
#include "core/holistic.hpp"
#include "engine/analysis_engine.hpp"
#include "net/network.hpp"
#include "util/bench_json.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using namespace gmfnet;
using benchtopo::Campus;
using benchtopo::hub_flow;
using benchtopo::make_campus;
using benchtopo::resident_flow;

namespace {

constexpr int kCells = 8;

double wall_us(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int probes = std::max(1, argc > 1 ? std::atoi(argv[1]) : 32);
  std::printf("=== E10: admission cost scaling — from-scratch vs sharded "
              "engine (%d-cell campus, %d probes per size) ===\n\n",
              kCells, probes);

  const Campus campus = make_campus(kCells);

  Table t("Per-admission decision cost (median over probes)");
  t.set_columns({"resident flows", "from-scratch us", "sharded us", "speedup",
                 "verdicts agree"});
  CsvWriter csv({"section", "residents", "scratch_us", "incremental_us",
                 "speedup"});
  BenchJsonWriter json("admission_scaling");

  bool bar_met = true;
  bool verdicts_agree = true;
  for (const int residents : {8, 16, 32, 64, 128, 256}) {
    std::vector<gmf::Flow> flows;
    flows.reserve(static_cast<std::size_t>(residents));
    for (int n = 0; n < residents; ++n) {
      flows.push_back(resident_flow(campus, kCells, n));
    }

    // The sharded engine carries its converged state between arrivals.
    engine::AnalysisEngine eng(campus.net);
    for (const gmf::Flow& f : flows) eng.add_flow(f);
    (void)eng.evaluate();  // settle the warm cache (not timed)

    // Median over probes: robust against scheduler spikes on busy hosts.
    std::vector<double> scratch_samples, incremental_samples;
    scratch_samples.reserve(static_cast<std::size_t>(probes));
    incremental_samples.reserve(static_cast<std::size_t>(probes));
    bool size_agree = true;
    for (int p = 0; p < probes; ++p) {
      const gmf::Flow cand = resident_flow(campus, kCells, residents + p);

      // Seed behaviour: rebuild the world, iterate from cold.
      core::HolisticResult cold;
      scratch_samples.push_back(wall_us([&] {
        std::vector<gmf::Flow> candidate_set = flows;
        candidate_set.push_back(cand);
        const core::AnalysisContext ctx(campus.net, candidate_set);
        cold = core::analyze_holistic(ctx);
      }));

      // Engine behaviour: copy of the touched shard only, dirty component
      // only, warm start from the published fixed point.
      engine::WhatIfResult warm;
      incremental_samples.push_back(wall_us([&] { warm = eng.what_if(cand); }));

      size_agree &= warm.admissible == cold.schedulable;
      size_agree &=
          warm.worst_response(
              core::FlowId(static_cast<std::int32_t>(residents))) ==
          cold.worst_response(
              core::FlowId(static_cast<std::int32_t>(residents)));
    }
    verdicts_agree &= size_agree;
    const double scratch_us = median(std::move(scratch_samples));
    const double incremental_us = median(std::move(incremental_samples));
    const double speedup = scratch_us / incremental_us;
    if (residents >= 64 && speedup < 5.0) bar_met = false;

    t.add_row({std::to_string(residents), Table::fixed(scratch_us, 1),
               Table::fixed(incremental_us, 1), Table::fixed(speedup, 1) + "x",
               size_agree ? "yes" : "NO"});
    csv.begin_row();
    csv.add(std::string("campus"));
    csv.add(residents);
    csv.add(scratch_us);
    csv.add(incremental_us);
    csv.add(speedup);
    json.begin_row();
    json.add("section", std::string("campus"));
    json.add("residents", residents);
    json.add("scratch_us", scratch_us);
    json.add("incremental_us", incremental_us);
    json.add("speedup", speedup);
    json.add("verdicts_agree", size_agree);
    json.add("hw_threads",
             static_cast<int>(std::thread::hardware_concurrency()));
    json.add("compiler", std::string(GMFNET_COMPILER));
  }
  t.print();

  // --- four_domain: 4 hub cells, 64-flow locality domains at 256 flows ---
  std::printf("\n=== four_domain: 4 locality domains x 64 residents — "
              "the large-domain hard case ===\n\n");
  constexpr int kFourCells = 4;
  constexpr int kFourResidents = 256;
  const Campus hub = make_campus(kFourCells);
  std::vector<gmf::Flow> hub_flows;
  for (int n = 0; n < kFourResidents; ++n) {
    hub_flows.push_back(hub_flow(hub, kFourCells, n));
  }
  engine::AnalysisEngine sharded(hub.net);
  engine::AnalysisEngine mono(hub.net, {}, /*shard_by_domain=*/false);
  for (const gmf::Flow& f : hub_flows) {
    sharded.add_flow(f);
    mono.add_flow(f);
  }
  (void)sharded.evaluate();
  (void)mono.evaluate();
  std::printf("engine discovered %zu locality domains\n",
              sharded.shard_count());

  std::vector<double> fs_s, mono_s, shard_s;
  bool hub_agree = true;
  const int fs_probes = std::min(probes, 8);  // from-scratch is slow here
  for (int p = 0; p < probes; ++p) {
    const gmf::Flow cand = hub_flow(hub, kFourCells, kFourResidents + p);
    core::HolisticResult cold;
    if (p < fs_probes) {
      fs_s.push_back(wall_us([&] {
        std::vector<gmf::Flow> candidate_set = hub_flows;
        candidate_set.push_back(cand);
        const core::AnalysisContext ctx(hub.net, candidate_set);
        cold = core::analyze_holistic(ctx);
      }));
    }
    engine::WhatIfResult wm, ws;
    mono_s.push_back(wall_us([&] { wm = mono.what_if(cand); }));
    shard_s.push_back(wall_us([&] { ws = sharded.what_if(cand); }));
    hub_agree &= wm.admissible == ws.admissible;
    if (p < fs_probes) hub_agree &= ws.admissible == cold.schedulable;
  }
  verdicts_agree &= hub_agree;
  const double fs_us = median(fs_s);
  const double mono_us = median(mono_s);
  const double shard_us = median(shard_s);
  const double hub_speedup = fs_us / shard_us;
  // The two engine paths are within a few percent of each other here (the
  // 65-flow component solve dominates both), so the gated ratio uses each
  // path's best-case sample — the standard low-noise estimator of a
  // deterministic cost — rather than medians, whose scheduler jitter would
  // swamp a ~1.0 ratio.
  const double vs_mono =
      *std::min_element(mono_s.begin(), mono_s.end()) /
      *std::min_element(shard_s.begin(), shard_s.end());
  const bool hub_bar = hub_speedup >= 3.0;
  bar_met &= hub_bar;

  Table t4("4-domain 256-resident single-admission cost (median)");
  t4.set_columns({"path", "us", "speedup vs from-scratch"});
  t4.add_row({"from-scratch", Table::fixed(fs_us, 1), "1.0x"});
  t4.add_row({"single-domain engine", Table::fixed(mono_us, 1),
              Table::fixed(fs_us / mono_us, 1) + "x"});
  t4.add_row({"sharded engine", Table::fixed(shard_us, 1),
              Table::fixed(hub_speedup, 1) + "x"});
  t4.print();
  std::printf("sharded vs single-domain engine: %.2fx — on domains this "
              "large the 65-flow component solve dominates both paths "
              "(expect ~1.0x within noise); the touched-shard copy/closure "
              "win shows in the many-small-domains campus table above\n",
              vs_mono);
  csv.begin_row();
  csv.add(std::string("four_domain"));
  csv.add(kFourResidents);
  csv.add(fs_us);
  csv.add(shard_us);
  csv.add(hub_speedup);
  json.begin_row();
  json.add("section", std::string("four_domain"));
  json.add("residents", kFourResidents);
  json.add("scratch_us", fs_us);
  json.add("incremental_us", shard_us);
  json.add("mono_us", mono_us);
  json.add("speedup", hub_speedup);
  json.add("speedup_vs_mono", vs_mono);
  json.add("verdicts_agree", hub_agree);
  json.add("hw_threads",
           static_cast<int>(std::thread::hardware_concurrency()));
  json.add("compiler", std::string(GMFNET_COMPILER));

  csv.save("bench_admission_scaling.csv");
  if (json.save()) {
    std::printf("\nCSV written to bench_admission_scaling.csv, JSON to %s\n",
                json.path().c_str());
  } else {
    std::printf("\nFAIL: could not write %s\n", json.path().c_str());
    return 1;
  }

  if (!verdicts_agree) {
    std::printf("FAIL: engine and from-scratch verdicts disagree.\n");
    return 1;
  }
  if (!bar_met) {
    std::printf("FAIL: speedup bars missed (need >= 5x at 64+ campus "
                "residents, >= 3x on 4-domain 256).\n");
    return 1;
  }
  std::printf("PASS: sharded admission >= 5x faster at 64+ campus residents, "
              ">= 3x on the 4-domain 256-resident scenario, verdicts "
              "identical.\n");
  return 0;
}
