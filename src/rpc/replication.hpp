// Checkpoint-shipping replication for gmfnetd: a primary journals every
// commit group (a lone mutation is a group of one) as a DELTA frame keyed
// by a monotonic (epoch, commit_seq) and streams the journal to subscribed
// replicas; a replica bootstraps from a full checkpoint (SYNC_FULL — the
// io/checkpoint on-disk format, shipped over the wire) and then applies the
// delta tail.
//
// The pieces:
//
//  * ReplicationLog — the primary's bounded in-memory journal of
//    pre-encoded DELTA frames.  Subscriber threads block on it
//    (cv-based, sliced waits) and stream frames in commit order; a
//    subscriber that asks for a sequence the bounded journal no longer
//    holds gets kGap, which the server answers with a fresh full sync.
//
//  * ReplicationClient — the replica's pull side: one background thread
//    that connects to the primary with capped-exponential-backoff (the
//    same policy as rpc::Client), SUBSCRIBEs at the replica's current
//    position, applies SYNC_FULL / DELTA frames through caller hooks,
//    and falls back to a fresh full sync on any sequence gap or
//    checksum failure.  The PR 7 fault injector can be installed on the
//    replication thread, so the chaos suite drives short writes, EINTR
//    storms, delays and resets through this exact path.
//
// Epoch fencing (the no-split-brain rule): every daemon carries an
// epoch; promote bumps the new primary's epoch past its old primary's.
// A replica REJECTS any subscribe answer or delta carrying an epoch
// lower than its own — an ex-primary that comes back after a failover
// can never roll a promoted replica backwards.  The epoch alone is not
// enough to resume a delta stream, though: a restarted primary's fresh
// history could coincidentally reach a matching (epoch, seq).  Each
// primary history therefore carries a random `history` token, and
// journal catch-up requires the replica's token to match; any mismatch
// degrades safely to a full sync.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "rpc/fault_injection.hpp"
#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"
#include "util/rng.hpp"

namespace gmfnet::rpc {

// -------------------------------------------------------- primary address --

/// A daemon address as operators write it: "unix:PATH" or "HOST:PORT".
struct PrimaryAddr {
  std::string unix_path;  ///< non-empty: Unix-domain
  std::string host;
  std::uint16_t port = 0;

  [[nodiscard]] bool valid() const {
    return !unix_path.empty() || !host.empty();
  }
};

/// Parses "unix:PATH" or "HOST:PORT"; throws std::invalid_argument on
/// anything else (empty path, unparseable port).
[[nodiscard]] PrimaryAddr parse_primary_addr(const std::string& addr);
/// The canonical string form parse_primary_addr accepts.
[[nodiscard]] std::string format_primary_addr(const PrimaryAddr& addr);

// ---------------------------------------------------------- primary journal --

/// Bounded in-memory journal of pre-encoded DELTA frames, contiguous by
/// commit sequence.  One writer (the daemon's mutation path, already
/// serialized by the server's writer mutex) appends; any number of
/// subscriber threads block in wait_fetch.  When the journal exceeds its
/// capacity the oldest frames fall off — a replica that needs them gets
/// kGap and recovers via full sync (bounded memory beats unbounded
/// history; the checkpoint IS the compacted history).
class ReplicationLog {
 public:
  explicit ReplicationLog(std::size_t capacity);

  enum class Fetch {
    kOk,       ///< frame delivered
    kGap,      ///< seq older than the journal holds — full sync needed
    kTimeout,  ///< nothing new within the slice — re-check stop and retry
    kStopped,  ///< the journal is winding down — subscriber must exit
  };

  /// Appends the frame for `seq`, which must be exactly next_seq() —
  /// commit order IS journal order.  Throws std::logic_error otherwise.
  void append(std::uint64_t seq, std::string frame);

  /// Blocks up to `timeout_ms` for the frame with sequence `seq`.
  Fetch wait_fetch(std::uint64_t seq, std::string& frame, int timeout_ms);

  /// Non-blocking wait_fetch for the reactor's subscriber pump: kTimeout
  /// means "nothing new yet" (the reactor re-pumps after the next commit
  /// wakes it) — never parks the calling thread.
  Fetch try_fetch(std::uint64_t seq, std::string& frame);

  /// Drops every frame and restarts the journal at `next_seq` (promote /
  /// restore: history before the event is no longer streamable).
  void reset(std::uint64_t next_seq);

  /// Wakes every waiter with kStopped (serve() teardown).
  void request_stop();

  /// Oldest journaled sequence (== next_seq() when empty).
  [[nodiscard]] std::uint64_t first_seq() const;
  /// The sequence the next append must carry (last + 1).
  [[nodiscard]] std::uint64_t next_seq() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> frames_;
  std::uint64_t first_seq_ = 1;  ///< seq of frames_.front()
  bool stopped_ = false;
};

// ----------------------------------------------------------- replica client --

struct ReplicationClientConfig {
  /// The primary, as "unix:PATH" or "HOST:PORT".
  std::string primary_addr;
  int connect_timeout_ms = 5'000;
  /// Deadline for each in-flight frame (a primary that stalls mid-frame
  /// is treated as dead and the stream is re-established).
  int io_timeout_ms = 30'000;
  /// How often a replica blocked on a quiet stream re-checks stop /
  /// pause (the stream is push-based; idleness is normal).
  int idle_slice_ms = 250;
  /// Reconnect backoff, same shape as ClientConfig's.
  int backoff_initial_ms = 20;
  int backoff_max_ms = 2'000;
  std::uint64_t backoff_seed = 1;
  /// Non-null: installed (thread-local) on the replication thread, so
  /// every transport syscall of the replication link runs under fault
  /// injection.  The injector must outlive stop().
  FaultInjector* fault = nullptr;
};

/// Where the replica currently stands; returned by the position() hook
/// and offered to the primary at subscribe time.
struct ReplicaPosition {
  std::uint64_t epoch = 0;
  std::uint64_t next_seq = 0;  ///< first sequence the replica still needs
  std::uint64_t history = 0;   ///< history token of the followed primary
};

/// What the apply hook made of one delta.
enum class ApplyResult {
  kApplied,  ///< committed locally; keep streaming
  kGap,      ///< sequence/shape mismatch — resync from a fresh full sync
  kStale,    ///< delta epoch below ours — fenced primary; drop the link
};

/// Callbacks into the replica's server (all invoked on the replication
/// thread; the server side takes its own writer lock inside).
struct ReplicationHooks {
  /// Install a full checkpoint (SYNC_FULL).  Throws on a checkpoint that
  /// fails validation — the client counts it and resyncs from scratch.
  std::function<void(const SyncFullResponse&)> full_sync;
  /// Apply one delta at the replica's current position.
  std::function<ApplyResult(const DeltaResponse&)> apply;
  /// The replica's current position (offered at subscribe time).
  std::function<ReplicaPosition()> position;
  /// True once the server is stopping/draining — the thread winds down.
  std::function<bool()> stopped;
};

/// The replica's subscription loop.  start() launches the thread; stop()
/// (or hooks.stopped() turning true) winds it down.  The loop reconnects
/// forever with capped backoff: replication losing its primary is an
/// availability event, never a crash.
class ReplicationClient {
 public:
  ReplicationClient(ReplicationClientConfig cfg, ReplicationHooks hooks);
  ~ReplicationClient();

  ReplicationClient(const ReplicationClient&) = delete;
  ReplicationClient& operator=(const ReplicationClient&) = delete;

  void start();
  /// Signals the thread and joins it.  Safe to call twice.  MUST be
  /// called without holding any lock the hooks acquire (the thread may
  /// be blocked inside apply()).
  void stop();

  /// Test/repoint hook: a paused client drops its link and subscribes to
  /// nothing until resume() — the deterministic way to open a journal gap
  /// under it or to swap primary_addr.
  void pause();
  /// resume() with a non-empty `new_primary` also repoints the client.
  void resume(const std::string& new_primary = "");

  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t full_syncs() const {
    return full_syncs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t deltas_applied() const {
    return deltas_applied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Streams dropped for a local gap/corruption (each leads to a full
  /// resync on the next subscribe).
  [[nodiscard]] std::uint64_t gaps() const {
    return gaps_.load(std::memory_order_relaxed);
  }
  /// Subscribe answers / deltas rejected for carrying a stale epoch.
  [[nodiscard]] std::uint64_t stale_rejects() const {
    return stale_rejects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string primary_addr() const;
  [[nodiscard]] std::string last_error() const;

 private:
  void run();
  /// One connect → subscribe → stream session; returns when the link
  /// drops (or stop/pause/repoint — `gen` went stale).  Sets
  /// force_full_resync_ when the next session must start from scratch.
  /// Returns true when the session got as far as a live delta stream.
  bool session(std::uint64_t gen);
  void backoff_sleep(int attempt);
  void note_error(const std::string& what);
  [[nodiscard]] bool winding_down() const;
  [[nodiscard]] bool link_stale(std::uint64_t gen) const {
    return link_gen_.load(std::memory_order_acquire) != gen;
  }

  ReplicationClientConfig cfg_;
  ReplicationHooks hooks_;
  Rng jitter_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  /// Bumped by pause()/resume(): a session started under an older value
  /// drops its link (the repoint/pause barrier).
  std::atomic<std::uint64_t> link_gen_{0};
  std::atomic<bool> connected_{false};
  /// Next subscribe offers position (0,0,0) — ask for the whole world.
  std::atomic<bool> force_full_resync_{false};
  std::atomic<std::uint64_t> full_syncs_{0};
  std::atomic<std::uint64_t> deltas_applied_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> gaps_{0};
  std::atomic<std::uint64_t> stale_rejects_{0};
  mutable std::mutex mu_;  ///< guards primary_addr_ + last_error_
  std::string primary_addr_;
  std::string last_error_;
};

}  // namespace gmfnet::rpc
