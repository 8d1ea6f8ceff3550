// Warm boot: restoring an engine from a checkpoint vs re-solving from
// scratch on restart.
//
// A restarted admission controller without persistence must rebuild its
// world and run the cold holistic fixed point over every locality domain
// before it can answer a single probe.  With a checkpoint it deserializes
// the converged per-shard state, rebuilds the contexts, and publishes —
// zero solver runs.  Two scenarios, both on the shared bench campus:
//
//  * "campus": many small locality domains (rotating host pairs).  The
//    cold solve is cheap per domain, so the warm-boot win is modest —
//    reported for context, not gated.
//
//  * "four_domain_av": 4 hub cells of 64 flows, every 4th a camera feed
//    (av_hub_flow) — large domains at ~80% hub-link utilization, where the
//    cold fixed point is genuinely expensive.  This is the state a
//    checkpoint exists to preserve; restore must be >= 10x faster than
//    the cold boot at 256 residents (gated).
//
//   $ ./bench_warm_boot [repeats]
//
// Emits BENCH_warm_boot.json (ratio metric `speedup` is additionally gated
// by bench/check_bench_regression.py against bench/baselines/).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/campus_topology.hpp"
#include "engine/analysis_engine.hpp"
#include "io/checkpoint.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

using namespace gmfnet;
using benchtopo::av_hub_flow;
using benchtopo::Campus;
using benchtopo::make_campus;
using benchtopo::resident_flow;

namespace {

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

struct SectionResult {
  double cold_us = 0.0;
  double restore_us = 0.0;
  bool identical = true;
};

/// Measures both restart paths for one flow set: cold boot (rebuild engine,
/// solve every domain) vs warm boot (restore from a checkpoint blob), and
/// verifies the restored state is bit-identical with zero solver runs.
SectionResult measure(const Campus& campus,
                      const std::vector<gmf::Flow>& flows, int repeats) {
  SectionResult out;

  // The reference world: a live engine whose state gets checkpointed.
  engine::AnalysisEngine live(campus.net);
  for (const gmf::Flow& f : flows) live.add_flow(f);
  const core::HolisticResult& truth = live.evaluate();
  out.identical &= truth.converged && truth.schedulable;
  std::ostringstream blob_os;
  live.save(blob_os);
  const std::string blob = blob_os.str();

  std::vector<double> cold_samples, restore_samples;
  for (int r = 0; r < repeats; ++r) {
    // Restart path A — no checkpoint: rebuild the engine and solve every
    // domain cold before the first probe can be answered.
    cold_samples.push_back(wall_us([&] {
      engine::AnalysisEngine eng(campus.net);
      for (const gmf::Flow& f : flows) eng.add_flow(f);
      (void)eng.evaluate();
    }));

    // Restart path B — warm boot: deserialize, rebuild contexts, publish.
    std::istringstream is(blob);
    const auto t0 = std::chrono::steady_clock::now();
    engine::AnalysisEngine eng = engine::AnalysisEngine::restore(is);
    restore_samples.push_back(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());

    const core::HolisticResult& got = eng.evaluate();
    out.identical &= eng.stats().evaluations == 0;  // no solver runs
    out.identical &= got.schedulable == truth.schedulable;
    out.identical &= got.jitters == truth.jitters;
    out.identical &= got.flows.size() == truth.flows.size();
    for (std::size_t f = 0; out.identical && f < got.flows.size(); ++f) {
      const core::FlowId id(static_cast<std::int32_t>(f));
      out.identical &= got.worst_response(id) == truth.worst_response(id);
    }
  }
  out.cold_us = median(std::move(cold_samples));
  out.restore_us = median(std::move(restore_samples));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats = std::max(3, argc > 1 ? std::atoi(argv[1]) : 7);
  std::printf("=== warm boot: checkpoint restore vs cold engine re-solve "
              "(median of %d) ===\n\n",
              repeats);

  Table t("Restart-to-probe-ready cost");
  t.set_columns({"section", "residents", "cold boot us", "restore us",
                 "speedup", "bit-identical"});
  BenchJsonWriter json("warm_boot");

  bool bar_met = true;
  bool all_identical = true;
  const auto record = [&](const std::string& section, int residents,
                          const SectionResult& r) {
    const double speedup = r.cold_us / r.restore_us;
    all_identical &= r.identical;
    t.add_row({section, std::to_string(residents), Table::fixed(r.cold_us, 1),
               Table::fixed(r.restore_us, 1), Table::fixed(speedup, 1) + "x",
               r.identical ? "yes" : "NO"});
    json.begin_row();
    json.add("section", section);
    json.add("residents", residents);
    json.add("cold_us", r.cold_us);
    json.add("restore_us", r.restore_us);
    json.add("speedup", speedup);
    json.add("identical", r.identical);
    json.add("hw_threads",
             static_cast<int>(std::thread::hardware_concurrency()));
    json.add("compiler", std::string(GMFNET_COMPILER));
    return speedup;
  };

  // Many-small-domains campus: context rebuild dominates both paths, so
  // the warm-boot win is modest here (reported, not gated).
  const Campus campus = make_campus(8);
  for (const int residents : {64, 256}) {
    std::vector<gmf::Flow> flows;
    for (int n = 0; n < residents; ++n) {
      flows.push_back(resident_flow(campus, 8, n));
    }
    (void)record("campus", residents, measure(campus, flows, repeats));
  }

  // Four large audio/video domains: the cold fixed point dominates the
  // restart, which is exactly the state worth persisting.  Gated >= 10x.
  const Campus hub = make_campus(4);
  {
    std::vector<gmf::Flow> flows;
    for (int n = 0; n < 256; ++n) flows.push_back(av_hub_flow(hub, 4, n));
    const double speedup =
        record("four_domain_av", 256, measure(hub, flows, repeats));
    if (speedup < 10.0) bar_met = false;
  }
  t.print();

  if (json.save()) {
    std::printf("\nJSON written to %s\n", json.path().c_str());
  } else {
    std::printf("\nFAIL: could not write %s\n", json.path().c_str());
    return 1;
  }
  if (!all_identical) {
    std::printf("FAIL: a restored engine was not bit-identical to the saved "
                "engine (or restore ran the solver, or a reference world "
                "was not schedulable).\n");
    return 1;
  }
  if (!bar_met) {
    std::printf("FAIL: warm boot < 10x faster than cold boot on "
                "four_domain_av at 256 residents.\n");
    return 1;
  }
  std::printf("PASS: checkpoint restore >= 10x faster than a cold re-solve "
              "on the 4-domain AV scenario at 256 residents, restored state "
              "bit-identical, zero solver runs on restore.\n");
  return 0;
}
