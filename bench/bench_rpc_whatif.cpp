// Wire-protocol overhead on the read path: what-if probe throughput
// through a loopback-TCP gmfnetd (rpc::Server + rpc::Client) vs the same
// probes called in-process on the published EngineSnapshot.
//
// Topology: the 4-cell campus with 128 resident VoIP flows (many small
// locality domains — probe cost is dominated by one domain's solve, so
// the wire overhead is visible, not drowned).  Three sections:
//
//   in_process       snap->what_if(c) in a loop
//   loopback_single  client.what_if(c) — one frame round trip per probe;
//                    the daemon's epoll reactor probes a one-candidate
//                    batch inline on its own thread
//   loopback_batch16 client.what_if_batch(16) — amortized framing, the
//                    reactor fans the candidates over its reader pool
//   loopback_batch16_stalled
//                    the same batches while a slow-loris peer sits on
//                    another connection stalled mid-frame — the reactor
//                    only ever does non-blocking reads and expires the
//                    stalled frame on its io-timeout timer wheel, so
//                    healthy-connection qps must stay within 10% of the
//                    no-stall section
//
//   $ ./bench_rpc_whatif [ms_per_point]
//
// Emits BENCH_rpc_whatif.json ({section, qps, vs_in_process}).  The
// absolute numbers are informational (loopback qps measures the socket
// stack and the runner's scheduler, not this codebase).  The bench fails
// when a remote verdict disagrees with the in-process reference (a
// protocol bug), when the stalled-peer section drops below 90% of the
// no-stall baseline (an isolation bug), or when the stalled peer is not
// disconnected within the io deadline (a hardening bug).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/campus_topology.hpp"
#include "engine/analysis_engine.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

using namespace gmfnet;
using benchtopo::Campus;
using benchtopo::make_campus;
using benchtopo::voip_resident_flow;

namespace {

constexpr int kCells = 4;
constexpr int kResidents = 128;
constexpr std::size_t kBatch = 16;

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int ms_per_point = argc > 1 ? std::atoi(argv[1]) : 400;
  std::printf("=== rpc what-if throughput — loopback gmfnetd vs in-process "
              "(%d residents, %d ms/point) ===\n\n",
              kResidents, ms_per_point);

  const Campus campus = make_campus(kCells);
  auto eng = std::make_shared<engine::AnalysisEngine>(campus.net);
  for (int n = 0; n < kResidents; ++n) {
    eng->add_flow(voip_resident_flow(campus, kCells, n));
  }
  const auto snap = eng->snapshot();

  std::vector<gmf::Flow> cands;
  std::vector<bool> expect;
  for (int p = 0; p < 64; ++p) {
    cands.push_back(voip_resident_flow(campus, kCells, kResidents + p));
    expect.push_back(snap->what_if(cands.back()).admissible);
  }

  rpc::ServerConfig scfg;  // loopback, ephemeral port
  scfg.io_timeout_ms = 2'000;  // the stalled-peer section needs a deadline
  rpc::Server server(eng, scfg);
  std::thread daemon([&server] { server.serve(); });
  rpc::Client client = rpc::Client::connect_tcp("127.0.0.1",
                                                server.tcp_port());
  std::printf("daemon on tcp:127.0.0.1:%u, %zu domains\n\n",
              static_cast<unsigned>(server.tcp_port()), snap->shard_count());

  Table t("What-if probe throughput");
  t.set_columns({"section", "probes/s", "vs in-process"});
  BenchJsonWriter json("rpc_whatif");
  int bad = 0;
  double in_process_qps = 0.0;

  const auto run_section = [&](const char* section, auto&& probe_some) {
    std::int64_t done = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (secs_since(t0) * 1000.0 < ms_per_point) {
      done += probe_some(static_cast<std::size_t>(done));
    }
    const double qps = static_cast<double>(done) / secs_since(t0);
    if (in_process_qps == 0.0) in_process_qps = qps;
    const double rel = qps / in_process_qps;
    t.add_row({section, Table::fixed(qps, 0), Table::fixed(rel, 2) + "x"});
    json.begin_row();
    json.add("section", std::string(section));
    json.add("qps", qps);
    json.add("vs_in_process", rel);
    return qps;
  };

  run_section("in_process", [&](std::size_t i) {
    const std::size_t k = i % cands.size();
    if (snap->what_if(cands[k]).admissible != expect[k]) ++bad;
    return 1;
  });
  run_section("loopback_single", [&](std::size_t i) {
    const std::size_t k = i % cands.size();
    if (client.what_if(cands[k]).admissible != expect[k]) ++bad;
    return 1;
  });
  std::vector<gmf::Flow> batch(cands.begin(),
                               cands.begin() + static_cast<long>(kBatch));
  const auto batch16 = [&](std::size_t) {
    const std::vector<engine::WhatIfResult> results =
        client.what_if_batch(batch);
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (results[k].admissible != expect[k]) ++bad;
    }
    return static_cast<int>(kBatch);
  };
  const double no_stall_qps = run_section("loopback_batch16", batch16);

  // Same batches while a peer on another connection stalls mid-frame
  // (best of 3 samples — loopback qps is noisy on shared runners).
  double stalled_qps = 0.0;
  bool peer_disconnected = false;
  {
    rpc::Socket stalled =
        rpc::connect_tcp("127.0.0.1", server.tcp_port());
    stalled.send_all(std::string_view(rpc::kMagic, sizeof rpc::kMagic));
    const auto stall_t0 = std::chrono::steady_clock::now();

    for (int sample = 0; sample < 3; ++sample) {
      std::int64_t done = 0;
      const auto t0 = std::chrono::steady_clock::now();
      while (secs_since(t0) * 1000.0 < ms_per_point / 2) {
        done += batch16(static_cast<std::size_t>(done));
      }
      stalled_qps =
          std::max(stalled_qps, static_cast<double>(done) / secs_since(t0));
    }
    t.add_row({"loopback_batch16_stalled", Table::fixed(stalled_qps, 0),
               Table::fixed(stalled_qps / in_process_qps, 2) + "x"});
    json.begin_row();
    json.add("section", std::string("loopback_batch16_stalled"));
    json.add("qps", stalled_qps);
    json.add("vs_in_process", stalled_qps / in_process_qps);
    json.add("vs_no_stall", stalled_qps / no_stall_qps);

    // The daemon must shed the stalled peer once its io deadline expires.
    stalled.set_recv_timeout_ms(6'000);
    char byte = 0;
    try {
      while (stalled.recv_exact(&byte, 1)) {
      }
      peer_disconnected = true;
    } catch (const rpc::TimeoutError&) {
      peer_disconnected = false;  // still connected after deadline + slack
    } catch (const rpc::TransportError&) {
      peer_disconnected = true;  // reset: equally disconnected
    }
    std::printf("stalled peer disconnected after %.1f s (io timeout %.1f "
                "s)\n\n",
                secs_since(stall_t0), scfg.io_timeout_ms / 1000.0);
  }

  client.shutdown();
  daemon.join();

  t.print();
  if (!json.save()) {
    std::printf("\nFAIL: could not write %s\n", json.path().c_str());
    return 1;
  }
  std::printf("\nJSON written to %s (informational — not perf-gated)\n",
              json.path().c_str());
  if (bad != 0) {
    std::printf("FAIL: %d remote probes disagreed with the in-process "
                "reference\n", bad);
    return 1;
  }
  if (!peer_disconnected) {
    std::printf("FAIL: stalled peer still connected past the io deadline\n");
    return 1;
  }
  if (stalled_qps < 0.9 * no_stall_qps) {
    std::printf("FAIL: stalled peer cost %.0f%% of healthy-connection qps "
                "(max allowed 10%%)\n",
                100.0 * (1.0 - stalled_qps / no_stall_qps));
    return 1;
  }
  std::printf("PASS: every remote verdict matched the in-process reference; "
              "stalled peer isolated (%.0f%% of no-stall qps)\n",
              100.0 * stalled_qps / no_stall_qps);
  return 0;
}
