// Reactor concurrency: sustained qps + tail latency of the epoll-reactor
// gmfnetd under hundreds of concurrent connections with mixed writer /
// reader traffic, against the PR 7 deployment model (thread-per-connection
// server, synchronous one-frame-at-a-time clients) as the baseline.
//
// This is a SYSTEM-vs-SYSTEM comparison, end to end.  The baseline runs
// the full pre-reactor contract: synchronous clients, classic ADMIT, and
// ADMIT / what-if responses that carry the complete O(world)
// HolisticResult — the only wire form that system had (protocol v3 and
// earlier).  Protocol v4 dropped that form (replies carry the candidate's
// own FlowResult), so the baseline server and its clients keep the v3
// reply bodies in-bench (legacy_reply_frame / LegacyClient): without them
// the baseline would silently inherit the v4 payload and stop being the
// system it stands for.  The reactor side runs what the rebuild
// ships: frame pipelining, verdict-only probes, single-flow ADMIT_BATCH
// frames with lean bitmap responses, and coalesced group commits.  The 3x
// gate therefore measures what the rebuild delivers to an operator, not
// any single mechanism in isolation.  (The in-bench threaded server DOES
// honor verdict_only when asked — baseline clients simply never ask,
// because that request flag did not exist before the rebuild.)
//
// Topology: a 64-cell campus where every host pair is its own locality
// domain.  Pairs 0-1 of each cell hold the resident base world and the
// reader probe candidates; pairs 2-3 are reserved one-per-writer, so every
// writer's admission verdicts depend only on its OWN earlier admits — the
// whole storm is deterministic and replayable on an in-process mirror
// engine no matter how the daemon interleaves connections.
//
// Traffic per section: 10% of the connections are writers, the rest are
// readers.  A writer first admits its private budget of 24 flows (even
// reactor writers pipeline single-flow ADMIT_BATCH frames — the coalescing
// path; odd writers send the budget as one ADMIT_BATCH; baseline writers
// issue synchronous classic ADMITs), then probes like a reader.  Readers
// issue single-candidate WHAT_IF_BATCH probes whose verdicts are constant
// by construction and checked against the precomputed expectation on every
// response.  Reactor reader connections pipeline (the new client API) and
// multiplex over four driver threads — the client-side economics the
// reactor enables; baseline clients are synchronous with a blocking
// thread per connection (all the PR 7 client could do).
//
// Sections:
//   threaded_500   in-bench thread-per-connection server, 500 connections
//   reactor_100 / reactor_500 / reactor_1000
//
//   $ ./bench_rpc_concurrency [ms_per_point] [--soak]
//
// --soak runs only the 1000-connection reactor section with full verdict
// checking and no perf gates (the CI TSan soak).  Otherwise emits
// BENCH_rpc_concurrency.json and FAILS when any verdict disagrees with the
// mirror (probe, admission replay, or final world), when any client hits a
// transport error, when no commits coalesced at 500 connections, or when
// reactor_500 qps < 3x threaded_500 qps.  The ratio is the shipped system
// against the frozen v3-era one, payload included; it does not show that
// the reactor beats thread-per-connection once both send v4 replies.
// That comparison is an open ROADMAP item, and its outcome decides whether
// the in-bench v3 copy stays.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench/campus_topology.hpp"
#include "engine/analysis_engine.hpp"
#include "io/codec.hpp"
#include "io/wire.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

using namespace gmfnet;
using benchtopo::Campus;
using benchtopo::make_campus;

namespace {

constexpr int kCells = 64;
constexpr int kProbeCands = 128;
constexpr int kWriterBudget = 24;
constexpr int kWriterDepth = 8;  ///< writer pipeline depth (reactor mode)
constexpr int kReaderDepth = 4;  ///< per-connection probe pipeline depth
constexpr int kDrivers = 4;      ///< reader driver threads (reactor mode)

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A VoIP call between the two hosts of `pair` in `cell` — one locality
/// domain per pair, the bench's unit of isolation.  `deadline` defaults to
/// a comfortable 20 ms; callers pass kTightDeadline to make a flow that
/// cannot meet its bound, so storm traffic carries a real admit/reject mix
/// instead of all-admissible candidates.
constexpr Time kTightDeadline = Time::us(30);

gmf::Flow pair_call(const Campus& c, int cell, int pair,
                    const std::string& name,
                    Time deadline = Time::ms(20)) {
  const auto cl = static_cast<std::size_t>(cell);
  const auto a = static_cast<std::size_t>(2 * pair);
  net::Route route({c.hosts[cl][a], c.switches[cl], c.hosts[cl][a + 1]});
  return workload::make_voip_flow(name, std::move(route), deadline,
                                  /*priority=*/5);
}

/// The base world: two calls on pair 0 and one on pair 1 of every cell.
std::vector<gmf::Flow> base_flows(const Campus& campus) {
  std::vector<gmf::Flow> flows;
  for (int cell = 0; cell < kCells; ++cell) {
    const std::string p = "b" + std::to_string(cell);
    flows.push_back(pair_call(campus, cell, 0, p + "a"));
    flows.push_back(pair_call(campus, cell, 0, p + "b"));
    flows.push_back(pair_call(campus, cell, 1, p + "c"));
  }
  return flows;
}

std::shared_ptr<engine::AnalysisEngine> make_engine(
    const Campus& campus, const std::vector<gmf::Flow>& base) {
  auto eng = std::make_shared<engine::AnalysisEngine>(campus.net);
  for (const auto& f : base) eng->add_flow(f);
  (void)eng->snapshot();  // converge + publish the base world
  return eng;
}

// ------------------------------------------------------------------------
// The v3 reply bodies of the baseline system.  A frame keeps today's
// header, so the transport accepts it, but carries the body v3 sent: ADMIT
// answered with the committed whole-set HolisticResult and every detailed
// what-if with the whole-world HolisticResult.

std::string legacy_reply_frame(rpc::MsgType type, const io::ByteWriter& body) {
  io::ByteWriter frame;
  frame.raw(std::string_view(rpc::kMagic, sizeof rpc::kMagic));
  frame.u32(rpc::kVersion);
  frame.u32(static_cast<std::uint32_t>(type));
  frame.u64(body.bytes().size());
  frame.u64(io::fnv1a(body.bytes()));
  frame.raw(body.bytes());
  return frame.take();
}

/// The baseline client: synchronous, one frame at a time, decoding the
/// whole world out of every ADMIT and what-if reply as the v3 client did.
class LegacyClient {
 public:
  explicit LegacyClient(std::uint16_t port) {
    for (int attempt = 0;; ++attempt) {
      try {
        sock_ = rpc::connect_tcp("127.0.0.1", port, 120'000);
        return;
      } catch (const rpc::TransportError&) {
        if (attempt >= 5) throw;  // a 500-way connect storm can drop a few
        std::this_thread::sleep_for(std::chrono::milliseconds(20 << attempt));
      }
    }
  }

  /// The admission verdict of one detailed what-if probe.
  bool what_if(const gmf::Flow& candidate) {
    io::ByteReader r = exchange(rpc::WhatIfBatchRequest{{candidate}},
                                rpc::MsgType::kWhatIfBatchResponse);
    if (r.u64() != 1) throw rpc::ProtocolError("legacy: one result expected");
    const bool admissible = (r.u8() & 1) != 0;
    (void)io::codec::decode_holistic_result(r);
    return admissible;
  }

  /// True when the flow was admitted.
  bool admit(const gmf::Flow& flow) {
    io::ByteReader r =
        exchange(rpc::AdmitRequest{flow}, rpc::MsgType::kAdmitResponse);
    if (!r.boolean()) return false;
    (void)io::codec::decode_holistic_result(r);
    return true;
  }

 private:
  io::ByteReader exchange(const rpc::Request& req, rpc::MsgType expect) {
    rpc::send_frame(sock_, rpc::encode_request(req));
    std::optional<std::string> frame = rpc::recv_frame(sock_);
    if (!frame) throw rpc::TransportError("baseline server closed");
    if (rpc::decode_frame_header(*frame).type != expect) {
      throw rpc::ProtocolError("legacy: unexpected reply type");
    }
    reply_ = std::move(*frame);
    return io::ByteReader(std::string_view(reply_).substr(rpc::kHeaderSize),
                          "legacy reply");
  }

  rpc::Socket sock_;
  std::string reply_;  ///< backs the reader exchange() returns
};

// ------------------------------------------------------------------------
// The PR 7 deployment model, embedded for the ratio: one blocking thread
// per connection, classic try_admit per ADMIT (no coalescing, no
// pipelining API on the client side).
class ThreadedServer {
 public:
  explicit ThreadedServer(std::shared_ptr<engine::AnalysisEngine> eng)
      : eng_(std::move(eng)),
        listener_(rpc::Listener::listen_tcp("127.0.0.1", 0)) {}

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  void start() {
    accept_ = std::thread([this] { accept_loop(); });
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    listener_.close();
    if (accept_.joinable()) accept_.join();
    for (auto& t : handlers_) t.join();
  }

 private:
  void accept_loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      rpc::Socket s;
      try {
        s = listener_.accept(200);
      } catch (const rpc::TransportError&) {
        break;  // listener closed under us: winding down
      }
      if (!s.valid()) continue;
      handlers_.emplace_back(
          [this, sock = std::move(s)]() mutable { handle(std::move(sock)); });
    }
  }

  void handle(rpc::Socket s) {
    try {
      std::string frame;
      while (!stop_.load(std::memory_order_acquire)) {
        const rpc::FrameStatus st = rpc::recv_frame_idle(s, frame, 200);
        if (st == rpc::FrameStatus::kIdle) continue;
        if (st == rpc::FrameStatus::kEof) return;
        rpc::send_frame(s, handle_one(rpc::decode_request(frame)));
      }
    } catch (...) {
      // Peer gone or stream corrupt: drop the connection, daemon lives on.
    }
  }

  /// The encoded reply frame: v3 bodies for ADMIT and detailed what-ifs,
  /// the current wire form for everything else.
  std::string handle_one(rpc::Request&& req) {
    if (auto* w = std::get_if<rpc::WhatIfBatchRequest>(&req)) {
      const auto snap = eng_->published();
      io::ByteWriter body;
      rpc::WhatIfBatchResponse out;
      body.u64(w->candidates.size());
      for (const auto& c : w->candidates) {
        engine::WhatIfResult wi = snap->what_if(c);
        if (!w->verdict_only) {
          // v3: flags (admissible | detailed), then the whole world.
          body.u8(wi.admissible ? 3 : 2);
          io::codec::encode_holistic_result(body, wi.result());
          continue;
        }
        // Honor verdict_only like the reactor does: the baseline loses on
        // architecture, not on response payload.
        out.results.push_back(engine::WhatIfResult::verdict_only(
            wi.admissible, wi.converged(), wi.sweeps(), wi.flow_count()));
      }
      if (w->verdict_only) return rpc::encode_response(std::move(out));
      return legacy_reply_frame(rpc::MsgType::kWhatIfBatchResponse, body);
    }
    if (auto* a = std::get_if<rpc::AdmitRequest>(&req)) {
      std::lock_guard<std::mutex> lock(mu_);
      // v3: a presence byte, then the committed whole-set result.
      io::ByteWriter body;
      const auto r = eng_->try_admit(a->flow);
      body.u8(r ? 1 : 0);
      if (r) io::codec::encode_holistic_result(body, *r);
      return legacy_reply_frame(rpc::MsgType::kAdmitResponse, body);
    }
    if (auto* r = std::get_if<rpc::RemoveRequest>(&req)) {
      std::lock_guard<std::mutex> lock(mu_);
      const bool removed = eng_->remove_flow(r->index);
      if (removed) eng_->evaluate();
      return rpc::encode_response(rpc::RemoveResponse{removed});
    }
    return rpc::encode_response(rpc::ErrorResponse{
        "unsupported by the thread-per-connection baseline"});
  }

  std::shared_ptr<engine::AnalysisEngine> eng_;
  std::mutex mu_;  ///< the old global writer mutex
  rpc::Listener listener_;
  std::atomic<bool> stop_{false};
  std::thread accept_;
  std::vector<std::thread> handlers_;  ///< touched by the accept thread only
};

// ------------------------------------------------------------------------
// Client storm shared state.
struct Storm {
  std::uint16_t port = 0;
  const std::vector<gmf::Flow>* cands = nullptr;
  const std::vector<bool>* expect = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<int> connected{0};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<int> bad{0};
  std::atomic<int> errors{0};
  std::mutex start_mu;
  std::condition_variable start_cv;
  bool started = false;  ///< guarded by start_mu
};

void wait_start(Storm& sh) {
  std::unique_lock<std::mutex> lock(sh.start_mu);
  sh.start_cv.wait(lock, [&] { return sh.started; });
}

rpc::Client connect_retry(std::uint16_t port) {
  rpc::ClientConfig cfg;
  cfg.request_timeout_ms = 120'000;  // sized for the TSan soak, not health
  for (int attempt = 0;; ++attempt) {
    try {
      return rpc::Client::connect_tcp("127.0.0.1", port, cfg);
    } catch (const rpc::TransportError&) {
      if (attempt >= 5) throw;  // a 1000-way connect storm can drop a few
      std::this_thread::sleep_for(std::chrono::milliseconds(20 << attempt));
    }
  }
}

/// Baseline reader inner loop, shared by baseline readers and post-budget
/// writers: the pre-reactor client contract — synchronous what-ifs whose
/// replies carry the full O(world) HolisticResult (the lean verdict-only
/// form ships with the reactor rebuild).
void probe_loop(LegacyClient& cl, Storm& sh, std::vector<double>& lat,
                std::size_t next) {
  const auto& cands = *sh.cands;
  const auto& expect = *sh.expect;
  std::uint64_t local_ops = 0;
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const auto t0 = Clock::now();
    const bool admissible = cl.what_if(cands[next % cands.size()]);
    lat.push_back(ms_since(t0));
    if (admissible != expect[next % cands.size()]) {
      sh.bad.fetch_add(1, std::memory_order_relaxed);
    }
    ++next;
    ++local_ops;
  }
  sh.ops.fetch_add(local_ops, std::memory_order_relaxed);
}

/// Reactor-mode post-budget writer loop: `kWriterDepth` pipelined
/// verdict-only probes.
void probe_loop(rpc::Client& cl, Storm& sh, std::vector<double>& lat,
                std::size_t next) {
  const auto& cands = *sh.cands;
  const auto& expect = *sh.expect;
  std::uint64_t local_ops = 0;
  const auto check = [&](const rpc::WhatIfBatchResponse& r, std::size_t k) {
    if (r.results.size() != 1 ||
        r.results[0].admissible != expect[k % cands.size()]) {
      sh.bad.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::deque<std::pair<Clock::time_point, std::size_t>> inflight;
  const auto submit_one = [&] {
    cl.submit(rpc::WhatIfBatchRequest{{cands[next % cands.size()]},
                                      /*verdict_only=*/true});
    inflight.emplace_back(Clock::now(), next);
    ++next;
  };
  for (int d = 0; d < kWriterDepth; ++d) submit_one();
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const auto r = cl.collect_as<rpc::WhatIfBatchResponse>();
    lat.push_back(ms_since(inflight.front().first));
    check(r, inflight.front().second);
    inflight.pop_front();
    ++local_ops;
    submit_one();
  }
  while (cl.pending() > 0) {  // drain the tail (uncounted: past the clock)
    const auto r = cl.collect_as<rpc::WhatIfBatchResponse>();
    check(r, inflight.front().second);
    inflight.pop_front();
  }
  sh.ops.fetch_add(local_ops, std::memory_order_relaxed);
}

/// A baseline reader: one synchronous legacy client on its own thread.
void reader_worker(Storm& sh, std::vector<double>& lat, int id) {
  bool counted = false;
  try {
    LegacyClient cl(sh.port);
    counted = true;
    sh.connected.fetch_add(1, std::memory_order_release);
    wait_start(sh);
    probe_loop(cl, sh, lat, static_cast<std::size_t>(id));
  } catch (const std::exception&) {
    sh.errors.fetch_add(1, std::memory_order_relaxed);
    if (!counted) sh.connected.fetch_add(1, std::memory_order_release);
  }
}

/// A writer admits its private budget (recording every verdict for the
/// mirror replay), then turns into a reader for the rest of the section.
void writer_worker(Storm& sh, std::vector<double>& lat, int id,
                   const std::vector<gmf::Flow>& flows,
                   std::vector<std::uint8_t>& verdicts, bool pipelined) {
  bool counted = false;
  try {
    // Reactor writers speak today's client; baseline writers the legacy one.
    std::optional<rpc::Client> cl;
    std::optional<LegacyClient> legacy;
    if (pipelined) {
      cl.emplace(connect_retry(sh.port));
    } else {
      legacy.emplace(sh.port);
    }
    counted = true;
    sh.connected.fetch_add(1, std::memory_order_release);
    wait_start(sh);
    std::uint64_t local_ops = 0;
    if (pipelined && (id % 2 == 1)) {
      // Odd reactor writers: the whole budget as one ADMIT_BATCH frame.
      const auto t0 = Clock::now();
      const auto r = cl->admit_batch(flows);
      lat.push_back(ms_since(t0));
      verdicts.assign(r.admitted.begin(), r.admitted.end());
      local_ops += flows.size();
    } else if (pipelined) {
      // Even reactor writers: pipelined single-flow ADMIT_BATCH frames —
      // still one admission per frame, but the frames queue behind the
      // mutation worker, coalesce into group commits, and come back with
      // the lean verdict bitmap instead of an O(world) HolisticResult.
      std::deque<Clock::time_point> sent;
      std::size_t submitted = 0;
      while (submitted < flows.size() &&
             static_cast<int>(submitted) < kWriterDepth) {
        cl->submit(rpc::AdmitBatchRequest{{flows[submitted++]}});
        sent.push_back(Clock::now());
      }
      while (!sent.empty()) {
        const auto r = cl->collect_as<rpc::AdmitBatchResponse>();
        lat.push_back(ms_since(sent.front()));
        sent.pop_front();
        verdicts.push_back(r.admitted.size() == 1 && r.admitted[0] != 0 ? 1
                                                                        : 0);
        ++local_ops;
        if (submitted < flows.size()) {
          cl->submit(rpc::AdmitBatchRequest{{flows[submitted++]}});
          sent.push_back(Clock::now());
        }
      }
    } else {
      // Baseline writers: synchronous classic ADMITs — full-payload
      // responses, the only admission call the PR 7 system had.
      for (const auto& f : flows) {
        const auto t0 = Clock::now();
        verdicts.push_back(legacy->admit(f) ? 1 : 0);
        lat.push_back(ms_since(t0));
        ++local_ops;
        if (sh.stop.load(std::memory_order_relaxed)) break;
      }
    }
    sh.ops.fetch_add(local_ops, std::memory_order_relaxed);
    if (!sh.stop.load(std::memory_order_relaxed)) {
      const auto next = static_cast<std::size_t>(id) * 31;
      if (pipelined) {
        probe_loop(*cl, sh, lat, next);
      } else {
        probe_loop(*legacy, sh, lat, next);
      }
    }
  } catch (const std::exception&) {
    sh.errors.fetch_add(1, std::memory_order_relaxed);
    if (!counted) sh.connected.fetch_add(1, std::memory_order_release);
  }
}

/// One reactor-mode driver thread multiplexing many pipelined connections
/// round-robin — the deployment model the reactor + pipelined client
/// enables (the threaded baseline needs a blocking thread per connection).
void driver_worker(Storm& sh, std::vector<double>& lat, int driver_id,
                   int nconns) {
  struct ConnState {
    std::optional<rpc::Client> cl;
    std::deque<std::pair<Clock::time_point, std::size_t>> inflight;
    std::size_t next = 0;
  };
  const auto& cands = *sh.cands;
  const auto& expect = *sh.expect;
  std::vector<ConnState> conns(static_cast<std::size_t>(nconns));
  int connected_here = 0;
  try {
    for (auto& cs : conns) {
      cs.cl.emplace(connect_retry(sh.port));
      cs.next = static_cast<std::size_t>(driver_id * 8191 + connected_here);
      ++connected_here;
      sh.connected.fetch_add(1, std::memory_order_release);
    }
  } catch (const std::exception&) {
    sh.errors.fetch_add(1, std::memory_order_relaxed);
    for (int i = connected_here; i < nconns; ++i) {
      sh.connected.fetch_add(1, std::memory_order_release);  // free the latch
    }
  }
  wait_start(sh);
  std::uint64_t local_ops = 0;
  const auto submit_one = [&](ConnState& cs) {
    cs.cl->submit(rpc::WhatIfBatchRequest{{cands[cs.next % cands.size()]},
                                          /*verdict_only=*/true});
    cs.inflight.emplace_back(Clock::now(), cs.next % cands.size());
    ++cs.next;
  };
  const auto collect_one = [&](ConnState& cs) {
    const auto r = cs.cl->collect_as<rpc::WhatIfBatchResponse>();
    lat.push_back(ms_since(cs.inflight.front().first));
    if (r.results.size() != 1 ||
        r.results[0].admissible != expect[cs.inflight.front().second]) {
      sh.bad.fetch_add(1, std::memory_order_relaxed);
    }
    cs.inflight.pop_front();
  };
  for (auto& cs : conns) {
    if (!cs.cl) continue;
    try {
      for (int d = 0; d < kReaderDepth; ++d) submit_one(cs);
    } catch (const std::exception&) {
      sh.errors.fetch_add(1, std::memory_order_relaxed);
      cs.cl.reset();
    }
  }
  while (!sh.stop.load(std::memory_order_relaxed)) {
    bool any = false;
    for (auto& cs : conns) {
      if (!cs.cl) continue;
      any = true;
      try {
        collect_one(cs);
        ++local_ops;
        submit_one(cs);
      } catch (const std::exception&) {
        sh.errors.fetch_add(1, std::memory_order_relaxed);
        cs.cl.reset();
      }
      if (sh.stop.load(std::memory_order_relaxed)) break;
    }
    if (!any) break;
  }
  for (auto& cs : conns) {  // drain the tails (uncounted: past the clock)
    if (!cs.cl) continue;
    try {
      while (cs.cl->pending() > 0) collect_one(cs);
    } catch (const std::exception&) {
      sh.errors.fetch_add(1, std::memory_order_relaxed);
      cs.cl.reset();
    }
  }
  sh.ops.fetch_add(local_ops, std::memory_order_relaxed);
}

struct SectionResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool connected_all = false;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

/// Runs one client storm: `writers` writer connections + readers up to
/// `conns`, measured for `ms` milliseconds once every connection is up.
SectionResult run_storm(Storm& sh, int conns, int writers, int ms,
                        const std::vector<std::vector<gmf::Flow>>& wflows,
                        std::vector<std::vector<std::uint8_t>>& verdicts,
                        bool pipelined) {
  const int readers = conns - writers;
  const int nthreads = pipelined ? writers + kDrivers : conns;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(nthreads));
  verdicts.assign(static_cast<std::size_t>(writers), {});
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int w = 0; w < writers; ++w) {
    auto& mine = lat[static_cast<std::size_t>(w)];
    mine.reserve(4096);
    threads.emplace_back(writer_worker, std::ref(sh), std::ref(mine), w,
                         std::cref(wflows[static_cast<std::size_t>(w)]),
                         std::ref(verdicts[static_cast<std::size_t>(w)]),
                         pipelined);
  }
  if (pipelined) {
    // Readers multiplex over a handful of driver threads — pipelining
    // means a thread no longer has to block per connection.
    for (int d = 0; d < kDrivers; ++d) {
      const int share =
          readers / kDrivers + (d < readers % kDrivers ? 1 : 0);
      auto& mine = lat[static_cast<std::size_t>(writers + d)];
      mine.reserve(65536);
      threads.emplace_back(driver_worker, std::ref(sh), std::ref(mine), d,
                           share);
    }
  } else {
    // The PR 7 model: a synchronous client thread per connection.
    for (int i = 0; i < readers; ++i) {
      auto& mine = lat[static_cast<std::size_t>(writers + i)];
      mine.reserve(4096);
      threads.emplace_back(reader_worker, std::ref(sh), std::ref(mine),
                           writers + i);
    }
  }
  const auto connect_t0 = Clock::now();
  while (sh.connected.load(std::memory_order_acquire) < conns &&
         ms_since(connect_t0) < 60'000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  SectionResult out;
  out.connected_all =
      sh.connected.load(std::memory_order_acquire) == conns &&
      sh.errors.load(std::memory_order_relaxed) == 0;
  {
    std::lock_guard<std::mutex> lock(sh.start_mu);
    sh.started = true;
  }
  sh.start_cv.notify_all();
  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  sh.stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double secs = ms_since(t0) / 1000.0;
  out.qps = static_cast<double>(sh.ops.load()) / secs;
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  out.p50_ms = percentile(all, 0.50);
  out.p99_ms = percentile(all, 0.99);
  return out;
}

/// Replays every writer's recorded admission sequence on a fresh mirror of
/// the base world.  Writer domains are pairwise disjoint, so any writer
/// order reproduces the daemon's verdicts and final world exactly.
/// Returns the mismatch count; the converged mirror is left in `mirror`.
int replay_on_mirror(engine::AnalysisEngine& mirror,
                     const std::vector<std::vector<gmf::Flow>>& wflows,
                     const std::vector<std::vector<std::uint8_t>>& verdicts) {
  int mismatches = 0;
  for (std::size_t w = 0; w < verdicts.size(); ++w) {
    for (std::size_t k = 0; k < verdicts[w].size(); ++k) {
      const bool admitted = mirror.try_admit(wflows[w][k]).has_value();
      if (admitted != (verdicts[w][k] != 0)) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  int ms_per_point = 0;
  bool soak = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    } else {
      ms_per_point = std::atoi(argv[i]);
    }
  }
  if (ms_per_point <= 0) ms_per_point = soak ? 300 : 1000;

  // 1000 connections x (client fd + daemon fd) + slack.
  rlimit nofile{};
  if (getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur < 8192) {
    nofile.rlim_cur = std::min<rlim_t>(8192, nofile.rlim_max);
    (void)setrlimit(RLIMIT_NOFILE, &nofile);
  }

  std::printf("=== rpc concurrency — epoll reactor vs thread-per-connection "
              "(%d ms/point%s) ===\n\n",
              ms_per_point, soak ? ", soak" : "");

  const Campus campus = make_campus(kCells);
  const std::vector<gmf::Flow> base = base_flows(campus);

  // Reader probe candidates on pairs 0-1 (the base pairs): their verdicts
  // never change because writers only ever touch pairs 2-3.
  std::vector<gmf::Flow> cands;
  std::vector<bool> expect;
  {
    const auto ref = make_engine(campus, base);
    const auto snap = ref->snapshot();
    const auto t0 = Clock::now();
    for (int j = 0; j < kProbeCands; ++j) {
      // Odd probes carry an unmeetable deadline: the expectation vector
      // gets a real admit/reject mix, so a response that answered the
      // wrong way cannot hide behind all-true expectations.
      cands.push_back(pair_call(campus, j % kCells, (j / kCells) % 2,
                                "probe" + std::to_string(j),
                                j % 2 == 1 ? kTightDeadline : Time::ms(20)));
      expect.push_back(snap->what_if(cands.back()).admissible);
    }
    const auto admissible =
        std::count(expect.begin(), expect.end(), true);
    std::printf("%d probe candidates (%lld admit / %lld reject), "
                "%.1f us/probe in-process\n\n",
                kProbeCands, static_cast<long long>(admissible),
                static_cast<long long>(kProbeCands - admissible),
                ms_since(t0) * 1000.0 / kProbeCands);
  }

  // One private (cell, pair) domain per writer on pairs 2-3.
  const int max_writers = kCells * 2;
  std::vector<std::vector<gmf::Flow>> wflows(
      static_cast<std::size_t>(max_writers));
  for (int w = 0; w < max_writers; ++w) {
    for (int k = 0; k < kWriterBudget; ++k) {
      // Every sixth admission is doomed (tight deadline): writer verdict
      // streams mix admits and rejects, and the mirror replay must
      // reproduce both.  Rejects leave no state behind, so determinism
      // per private domain is unaffected.
      wflows[static_cast<std::size_t>(w)].push_back(
          pair_call(campus, w % kCells, 2 + w / kCells,
                    "w" + std::to_string(w) + "f" + std::to_string(k),
                    k % 6 == 5 ? kTightDeadline : Time::ms(20)));
    }
  }

  Table t("RPC concurrency (mixed 10% writers / 90% readers)");
  t.set_columns({"section", "conns", "qps", "p50 ms", "p99 ms"});
  BenchJsonWriter json("rpc_concurrency");
  int failures = 0;
  double threaded_500_qps = 0.0;
  double reactor_500_qps = 0.0;
  std::uint64_t coalesced_500 = 0;

  const auto add_row = [&](const std::string& section, int conns,
                           const SectionResult& r) {
    t.add_row({section, std::to_string(conns), Table::fixed(r.qps, 0),
               Table::fixed(r.p50_ms, 2), Table::fixed(r.p99_ms, 2)});
    json.begin_row();
    json.add("section", section);
    json.add("connections", static_cast<double>(conns));
    json.add("qps", r.qps);
    json.add("p50_ms", r.p50_ms);
    json.add("p99_ms", r.p99_ms);
    json.add("hw_threads",
             static_cast<int>(std::thread::hardware_concurrency()));
    json.add("compiler", std::string(GMFNET_COMPILER));
  };

  const auto check_world = [&](const char* section, std::uint64_t remote_flows,
                               engine::AnalysisEngine& mirror,
                               const std::vector<engine::WhatIfResult>& remote,
                               int replay_mismatches) {
    if (replay_mismatches != 0) {
      std::printf("FAIL(%s): %d admission verdicts disagreed with the mirror "
                  "replay\n", section, replay_mismatches);
      ++failures;
    }
    if (remote_flows != mirror.flow_count()) {
      std::printf("FAIL(%s): daemon holds %llu flows, mirror %zu\n", section,
                  static_cast<unsigned long long>(remote_flows),
                  mirror.flow_count());
      ++failures;
    }
    const auto snap = mirror.snapshot();
    int bad_final = 0;
    for (std::size_t k = 0; k < remote.size(); ++k) {
      if (remote[k].admissible != snap->what_if(cands[k]).admissible) {
        ++bad_final;
      }
    }
    if (bad_final != 0) {
      std::printf("FAIL(%s): %d final-world probes disagreed with the "
                  "mirror\n", section, bad_final);
      ++failures;
    }
  };

  const auto check_storm = [&](const char* section, const Storm& sh,
                               const SectionResult& r) {
    if (!r.connected_all || sh.errors.load() != 0) {
      std::printf("FAIL(%s): %d client transport errors (sustaining the "
                  "connection count is the point)\n", section,
                  sh.errors.load());
      ++failures;
    }
    if (sh.bad.load() != 0) {
      std::printf("FAIL(%s): %d probe verdicts disagreed with the "
                  "precomputed expectation\n", section, sh.bad.load());
      ++failures;
    }
  };

  // ------------------------------------------------- threaded baseline --
  if (!soak) {
    const int conns = 500;
    const int writers = conns / 10;
    auto eng = make_engine(campus, base);
    ThreadedServer srv(eng);
    srv.start();
    Storm sh;
    sh.port = srv.port();
    sh.cands = &cands;
    sh.expect = &expect;
    std::vector<std::vector<std::uint8_t>> verdicts;
    const SectionResult r = run_storm(sh, conns, writers, ms_per_point,
                                      wflows, verdicts, /*pipelined=*/false);
    srv.stop();
    add_row("threaded_500", conns, r);
    check_storm("threaded_500", sh, r);
    auto mirror = make_engine(campus, base);
    const int mism = replay_on_mirror(*mirror, wflows, verdicts);
    const auto snap = eng->snapshot();
    std::vector<engine::WhatIfResult> final_probes;
    for (const auto& c : cands) final_probes.push_back(snap->what_if(c));
    check_world("threaded_500", eng->flow_count(), *mirror, final_probes,
                mism);
    threaded_500_qps = r.qps;
  }

  // ------------------------------------------------------ reactor sections --
  const std::vector<int> conn_points = soak ? std::vector<int>{1000}
                                            : std::vector<int>{100, 500, 1000};
  for (const int conns : conn_points) {
    const int writers = std::min(conns / 10, max_writers);
    auto eng = make_engine(campus, base);
    rpc::ServerConfig scfg;
    scfg.max_connections = 1100;
    scfg.io_timeout_ms = 120'000;  // a TSan soak is slow, not stalled
    rpc::Server server(eng, scfg);
    std::thread daemon([&server] { server.serve(); });
    Storm sh;
    sh.port = server.tcp_port();
    sh.cands = &cands;
    sh.expect = &expect;
    std::vector<std::vector<std::uint8_t>> verdicts;
    const SectionResult r = run_storm(sh, conns, writers, ms_per_point,
                                      wflows, verdicts, /*pipelined=*/true);
    const std::string section = "reactor_" + std::to_string(conns);
    add_row(section, conns, r);
    check_storm(section.c_str(), sh, r);

    // Verify against the mirror over the live daemon, then wind it down.
    try {
      rpc::Client cl = connect_retry(server.tcp_port());
      const rpc::StatsResponse st = cl.stats();
      auto mirror = make_engine(campus, base);
      const int mism = replay_on_mirror(*mirror, wflows, verdicts);
      const std::vector<engine::WhatIfResult> final_probes =
          cl.what_if_batch(cands);
      check_world(section.c_str(), st.flows, *mirror, final_probes, mism);
      if (conns == 500) {
        reactor_500_qps = r.qps;
        coalesced_500 = st.coalesced_commits;
        json.add("vs_threaded",
                 threaded_500_qps > 0.0 ? r.qps / threaded_500_qps : 0.0);
        json.add("coalesced_commits", static_cast<double>(st.coalesced_commits));
      }
      std::printf("%s: frames=%llu coalesced=%llu pipelined_hwm=%llu "
                  "flows=%llu\n",
                  section.c_str(),
                  static_cast<unsigned long long>(st.frames_served),
                  static_cast<unsigned long long>(st.coalesced_commits),
                  static_cast<unsigned long long>(st.pipelined_hwm),
                  static_cast<unsigned long long>(st.flows));
      cl.shutdown();
    } catch (const std::exception& e) {
      std::printf("FAIL(%s): post-storm verification: %s\n", section.c_str(),
                  e.what());
      ++failures;
      server.request_stop();
    }
    daemon.join();
  }

  std::printf("\n");
  t.print();

  if (!soak) {
    if (!json.save()) {
      std::printf("\nFAIL: could not write %s\n", json.path().c_str());
      return 1;
    }
    std::printf("\nJSON written to %s\n", json.path().c_str());
    if (coalesced_500 == 0) {
      std::printf("FAIL: no coalesced commits at 500 connections — the "
                  "mutation worker never batched\n");
      ++failures;
    }
    if (reactor_500_qps < 3.0 * threaded_500_qps) {
      std::printf("FAIL: reactor_500 %.0f qps < 3x threaded_500 %.0f qps\n",
                  reactor_500_qps, threaded_500_qps);
      ++failures;
    } else {
      std::printf("reactor_500 / threaded_500 = %.2fx (gate: >= 3x)\n",
                  threaded_500_qps > 0.0 ? reactor_500_qps / threaded_500_qps
                                         : 0.0);
    }
  }

  if (failures != 0) {
    std::printf("FAIL: %d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("PASS: every verdict matched the mirror; all sections "
              "sustained their connection count\n");
  return 0;
}
