// Client-side load: closed-loop what-if readers and the scripted writer.
//
// Readers each own one rpc::Client and send the next single-candidate
// WHAT_IF_BATCH (default detailed response, as `gmfnet_ctl what-if` does)
// as soon as the previous answer arrived.
//
// The writer sends the mutation script over one connection.  In the open
// loop op i is due at start + due[i] whatever the daemon is doing:
// requests are pipelined, and each latency is taken from the op's due
// time, so a stall (in the daemon or in the client itself) is charged to
// every op it delayed, not just the one it hit.  How late the writer sent
// is recorded as lag.  In the closed loop (no due times) an op is due when
// the previous one completed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "trace.hpp"
#include "worlds.hpp"

namespace gmfbench {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- readers --

struct ReaderSample {
  Clock::time_point start;
  double latency_us = 0;
};

struct ReaderResult {
  std::vector<ReaderSample> samples;  ///< completed probes
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Span> spans;  ///< "client.what_if" spans (traced window only)
};

struct ReaderConfig {
  const std::string* socket = nullptr;  ///< the daemon's Unix socket
  const World* world = nullptr;
  const Plan* plan = nullptr;
  Oracle* oracle = nullptr;
  std::size_t offset = 0;        ///< first usable-probe position
  Clock::time_point start_at;    ///< first send (connected before it)
  Clock::time_point stop_at;     ///< stop sending after this
  const std::atomic<bool>* stop = nullptr;  ///< or once this is set
  /// Probes sent at or after this time are traced (the traced run);
  /// Clock::time_point::max() traces nothing.
  Clock::time_point trace_from = Clock::time_point::max();
  Clock::time_point epoch;       ///< span clock origin
  std::uint64_t request_base = 0;  ///< request ids of this reader
};

/// Runs one closed-loop reader on the calling thread.
[[nodiscard]] ReaderResult run_reader(const ReaderConfig& cfg);

// --------------------------------------------------------------- writer --

/// One answer to a scripted mutation.
struct Reply {
  bool failed = false;  ///< transport/protocol/remote error
  bool ok = false;      ///< admitted / removed
};

/// Where the writer's requests go: the daemon in a run, a fake in tests.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Sends op `op` without waiting for its answer.
  virtual void send(std::size_t op) = 0;
  /// Waits until `deadline` for the next answer (answers arrive in send
  /// order).  Returns false when none arrived in time.
  virtual bool receive(Clock::time_point deadline, Reply& reply) = 0;
};

struct WriterConfig {
  std::size_t ops = 0;
  /// Open loop: op i is due at start + due[i] (non-decreasing, one per
  /// op).  Empty runs the closed loop.
  std::vector<std::chrono::nanoseconds> due;
  Clock::time_point start;
  /// Closed loop only: stop at the first boundary op completing after this.
  Clock::time_point stop_at = Clock::time_point::max();
  /// Closed loop only: which ops may end the run (empty = any).
  std::vector<bool> boundary;
  /// Test hook: runs just before op i is sent (e.g. to inject a stall).
  std::function<void(std::size_t)> before_send;
};

struct WriterResult {
  std::vector<double> latency_us;  ///< per completed op, from its due time
  std::vector<double> lag_us;      ///< per sent op: send time - due time
  std::vector<Reply> replies;      ///< per completed op, in op order
  std::size_t sent = 0;
  std::size_t failed = 0;
};

[[nodiscard]] WriterResult run_writer(Channel& ch, const WriterConfig& cfg);

/// Open-loop due times of `ops` requests over `window`: a Poisson arrival
/// process conditioned on `ops` arrivals in the window, i.e. `ops` sorted
/// uniform instants.  Some requests land back to back, so they queue behind
/// a commit and coalesce.  The same seed gives the same schedule.
[[nodiscard]] std::vector<std::chrono::nanoseconds> poisson_due(
    std::size_t ops, std::chrono::nanoseconds window, std::uint64_t seed);

/// Channel over one connection to the daemon, speaking the
/// rpc frame protocol directly: the open loop needs to wait for "answer or
/// next due time", which rpc::Client's blocking collect() cannot express.
[[nodiscard]] std::unique_ptr<Channel> make_daemon_channel(
    const std::string& socket, const World& world, const Plan& plan);

}  // namespace gmfbench
