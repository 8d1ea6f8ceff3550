// Concurrent what-if throughput and latency: N reader threads issuing
// admission probes against the engine's published snapshot
// (EngineSnapshot::what_if — the lock-free RCU read path); every probe
// assembles its touched-shard base afresh from the snapshot it probes.
//
// Topology: the 8-cell campus of bench_admission_scaling with 256 resident
// flows on rotating host pairs — many small locality domains, so probes
// spread across shards and the only shared state is the immutable
// snapshot.  Each reader loops over candidates in "its" cells; throughput
// is total completed probes / wall time, measured at 1/2/4/8 readers.
//
// Two sections:
//   readers_only   — a quiescent world, pure reader scaling;
//   mixed          — the same reader fleet while one writer thread churns
//                    admissions/removals and republishes, showing probes
//                    never block behind the writer.
//
//   $ ./bench_concurrent_whatif [ms_per_point]
//
// Emits BENCH_concurrent_whatif.json ({section, threads, hw_threads,
// compiler, qps, speedup, p50_us, p99_us}).  On machines with >= 8 hardware threads the
// bench exits non-zero unless readers_only throughput grows monotonically
// with reader count (5% tolerance) and the 8-reader point is >= 4x the
// single-reader point; with fewer cores the bars are reported but not
// enforced (they measure the hardware, not the code).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/campus_topology.hpp"
#include "engine/analysis_engine.hpp"
#include "net/network.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using namespace gmfnet;
using benchtopo::Campus;
using benchtopo::make_campus;
using benchtopo::voip_resident_flow;

namespace {

constexpr int kCells = 8;
constexpr int kResidents = 256;

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const auto nth = static_cast<std::ptrdiff_t>(
      p * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + nth, samples.end());
  return samples[static_cast<std::size_t>(nth)];
}

struct Point {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  int bad = 0;
};

/// One measurement: `readers` threads probing `eng.published()` for
/// `ms_per_point` ms.  With `churn`, a writer thread concurrently
/// admits/removes probe-sized flows (and republishes after every
/// mutation); verdict checks are skipped in that mode — the world the
/// probe ran against is a moving target — and correctness under churn is
/// covered by tests/test_engine_shard.cpp.
Point run_point(engine::AnalysisEngine& eng, const Campus& campus,
                const std::vector<gmf::Flow>& cands,
                const std::vector<bool>& expect, int readers,
                int ms_per_point, bool churn) {
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> done{0};
  std::atomic<int> bad{0};
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::vector<double>& samples = lat[static_cast<std::size_t>(r)];
      samples.reserve(4096);
      std::size_t i = static_cast<std::size_t>(r) * 17;
      std::int64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t k = i++ % cands.size();
        const auto snap = eng.published();
        const auto p0 = std::chrono::steady_clock::now();
        const engine::WhatIfResult w = snap->what_if(cands[k]);
        const auto p1 = std::chrono::steady_clock::now();
        samples.push_back(
            std::chrono::duration<double, std::micro>(p1 - p0).count());
        if (!churn && w.admissible != expect[k]) bad.fetch_add(1);
        ++local;
      }
      done.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      int n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (n % 2 == 0) {
          (void)eng.try_admit(
              voip_resident_flow(campus, kCells, 2 * kResidents + n));
        } else if (eng.flow_count() > static_cast<std::size_t>(kResidents)) {
          (void)eng.remove_flow(eng.flow_count() - 1);
          (void)eng.evaluate();
        }
        ++n;
      }
      // Restore the resident count so later sections see the same world.
      while (eng.flow_count() > static_cast<std::size_t>(kResidents)) {
        (void)eng.remove_flow(eng.flow_count() - 1);
      }
      (void)eng.evaluate();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms_per_point));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  if (writer.joinable()) writer.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Point out;
  out.qps = static_cast<double>(done.load()) / secs;
  std::vector<double> all;
  for (const auto& s : lat) all.insert(all.end(), s.begin(), s.end());
  out.p50_us = percentile(all, 0.50);
  out.p99_us = percentile(all, 0.99);
  out.bad = bad.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int ms_per_point = argc > 1 ? std::atoi(argv[1]) : 400;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== concurrent what-if throughput — lock-free snapshot "
              "probes (%d residents, %u hardware threads, %d ms/point) "
              "===\n\n",
              kResidents, hw, ms_per_point);

  const Campus campus = make_campus(kCells);
  engine::AnalysisEngine eng(campus.net);
  for (int n = 0; n < kResidents; ++n) {
    eng.add_flow(voip_resident_flow(campus, kCells, n));
  }
  const auto snap = eng.snapshot();
  std::printf("resident world: %zu flows in %zu locality domains\n\n",
              snap->flow_count(), snap->shard_count());

  // Reference verdicts so quiescent readers can sanity-check their probes.
  std::vector<gmf::Flow> cands;
  std::vector<bool> expect;
  for (int p = 0; p < 64; ++p) {
    cands.push_back(voip_resident_flow(campus, kCells, kResidents + p));
    expect.push_back(snap->what_if(cands.back()).admissible);
  }

  BenchJsonWriter json("concurrent_whatif");
  double qps1 = 0.0;
  std::vector<double> qps_points;
  bool fail = false;

  for (const bool churn : {false, true}) {
    const char* section = churn ? "mixed" : "readers_only";
    Table t(churn ? "What-if under writer churn (1 writer admitting/removing)"
                  : "What-if throughput vs reader threads (quiescent world)");
    t.set_columns(
        {"readers", "probes/s", "speedup vs 1", "p50 us", "p99 us"});
    for (const int readers : {1, 2, 4, 8}) {
      const Point pt = run_point(eng, campus, cands, expect, readers,
                                 ms_per_point, churn);
      if (!churn && readers == 1) qps1 = pt.qps;
      if (!churn) qps_points.push_back(pt.qps);
      // Both sections normalize against the quiescent single-reader point,
      // so the mixed rows read as "throughput retained under churn".
      const double speedup = pt.qps / qps1;
      t.add_row({std::to_string(readers), Table::fixed(pt.qps, 0),
                 Table::fixed(speedup, 2) + "x", Table::fixed(pt.p50_us, 1),
                 Table::fixed(pt.p99_us, 1)});
      json.begin_row();
      json.add("section", std::string(section));
      json.add("threads", readers);
      json.add("hw_threads", static_cast<int>(hw));
      json.add("compiler", std::string(GMFNET_COMPILER));
      json.add("qps", pt.qps);
      json.add("speedup", speedup);
      json.add("p50_us", pt.p50_us);
      json.add("p99_us", pt.p99_us);
      if (pt.bad != 0) {
        std::printf("FAIL: %d probes disagreed with the reference verdicts "
                    "(%s, %d readers)\n",
                    pt.bad, section, readers);
        fail = true;
      }
    }
    t.print();
    std::printf("\n");
  }
  if (fail) return 1;
  if (!json.save()) {
    std::printf("FAIL: could not write %s\n", json.path().c_str());
    return 1;
  }
  std::printf("JSON written to %s\n", json.path().c_str());

  bool monotonic = true;
  for (std::size_t k = 1; k < qps_points.size(); ++k) {
    monotonic &= qps_points[k] >= 0.95 * qps_points[k - 1];
  }
  const double at8 = qps_points.back() / qps_points.front();
  if (hw >= 8) {
    if (!monotonic || at8 < 4.0) {
      std::printf("FAIL: readers_only throughput must grow monotonically and "
                  "reach >= 4x at 8 readers (got %.2fx, monotonic=%s).\n",
                  at8, monotonic ? "yes" : "no");
      return 1;
    }
    std::printf("PASS: throughput monotonic, %.2fx at 8 readers.\n", at8);
  } else {
    std::printf("NOTE: %u hardware threads < 8 — scaling bars reported, not "
                "enforced (%.2fx at 8 readers, monotonic=%s).\n",
                hw, at8, monotonic ? "yes" : "no");
  }
  return 0;
}
