// Replication contracts (src/rpc/replication.*, the Server's replica
// mode, and the promote/role/repoint verbs):
//
//  * Address grammar: parse_primary_addr accepts exactly "unix:PATH" and
//    "HOST:PORT" and round-trips through format_primary_addr.
//
//  * ReplicationLog: contiguous append, blocking fetch, bounded capacity
//    (a subscriber behind the window gets kGap), reset() restarts the
//    window, request_stop() wakes waiters with kStopped.
//
//  * Roles: a replica answers WHAT_IF_BATCH/STATS from its own snapshots
//    and rejects every mutation with NOT_PRIMARY carrying the primary's
//    address; STATS/ROLE expose role, epoch and commit position.
//
//  * Convergence: a replica bootstraps via SYNC_FULL, follows the delta
//    stream, and its delivered verdicts are bit-identical to an
//    in-process mirror engine driven through the same committed ops.
//
//  * Gap recovery: a replica paused past the primary's bounded journal
//    provably recovers via a fresh full sync (full_syncs() increments)
//    and converges again.
//
//  * Epoch fencing: promote bumps the epoch past everything observed; a
//    promoted replica rejects its stale ex-primary (stale_rejects()), and
//    an ex-primary self-fences when a higher-epoch subscriber appears.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "net/topology.hpp"
#include "rpc/client.hpp"
#include "rpc/replication.hpp"
#include "rpc/server.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::rpc {
namespace {

using namespace std::chrono_literals;

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

/// Multi-cell star campus (several locality domains by construction).
struct Campus {
  net::Network net;
  std::vector<net::NodeId> hosts;  // cell-major
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

void expect_bit_identical(const core::HolisticResult& a,
                          const core::HolisticResult& b,
                          const std::string& where) {
  ASSERT_EQ(a.converged, b.converged) << where;
  ASSERT_EQ(a.schedulable, b.schedulable) << where;
  ASSERT_EQ(a.sweeps, b.sweeps) << where;
  EXPECT_TRUE(a.jitters == b.jitters) << where << ": jitter maps differ";
  ASSERT_EQ(a.flows.size(), b.flows.size()) << where;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    ASSERT_EQ(a.flows[f].frames.size(), b.flows[f].frames.size()) << where;
    for (std::size_t k = 0; k < a.flows[f].frames.size(); ++k) {
      EXPECT_EQ(a.flows[f].frames[k].response, b.flows[f].frames[k].response)
          << where << ": flow " << f << " frame " << k;
    }
  }
}

std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/gmfnet_repl_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A served engine on a fresh Unix socket, plus the serve thread.
class TestDaemon {
 public:
  explicit TestDaemon(const net::Network& network, ServerConfig cfg = {})
      : engine_(std::make_shared<engine::AnalysisEngine>(network)) {
    cfg.unix_path = fresh_socket_path();
    server_ = std::make_unique<Server>(engine_, cfg);
    path_ = server_->unix_path();
    thread_ = std::thread([this] { server_->serve(); });
  }

  ~TestDaemon() { stop(); }

  void stop() {
    if (server_) server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] Client connect() const { return Client::connect_unix(path_); }
  [[nodiscard]] Server& server() { return *server_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::shared_ptr<engine::AnalysisEngine> engine_;
  std::unique_ptr<Server> server_;
  std::string path_;
  std::thread thread_;
};

ServerConfig replica_config(const std::string& primary_path,
                            std::size_t journal_cap = 1024) {
  ServerConfig cfg;
  cfg.replica_of = "unix:" + primary_path;
  cfg.journal_capacity = journal_cap;
  cfg.repl_backoff_initial_ms = 5;
  cfg.repl_backoff_max_ms = 50;
  cfg.repl_backoff_seed = 0xDE7E12;
  return cfg;
}

/// Polls until the replica has applied the primary's commit position (or
/// the deadline passes — asserted by the caller via the return value).
bool await_caught_up(Server& replica, std::uint64_t epoch,
                     std::uint64_t commit_seq, int timeout_ms = 15'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (replica.epoch() == epoch && replica.commit_seq() == commit_seq) {
      return true;
    }
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

std::vector<gmf::Flow> make_flows(const Campus& campus, std::uint64_t seed,
                                  int count) {
  Rng rng(seed);
  workload::TasksetParams params;
  params.num_flows = count;
  params.total_utilization = 0.4;
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(campus.net, campus.hosts, params, rng);
  EXPECT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);
  return std::move(ts->flows);
}

// ---------------------------------------------------------- address grammar --

TEST(PrimaryAddr, ParsesUnixAndTcpFormsAndRoundTrips) {
  const PrimaryAddr u = parse_primary_addr("unix:/tmp/p.sock");
  EXPECT_EQ(u.unix_path, "/tmp/p.sock");
  EXPECT_TRUE(u.valid());
  EXPECT_EQ(format_primary_addr(u), "unix:/tmp/p.sock");

  const PrimaryAddr t = parse_primary_addr("127.0.0.1:9443");
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9443);
  EXPECT_EQ(format_primary_addr(t), "127.0.0.1:9443");
}

TEST(PrimaryAddr, RejectsMalformedAddresses) {
  for (const char* bad : {"", "unix:", "no-port", "host:", "host:0",
                          "host:65536", "host:12ab", ":443"}) {
    EXPECT_THROW((void)parse_primary_addr(bad), std::invalid_argument)
        << "addr: " << bad;
  }
}

// ---------------------------------------------------------- journal basics --

TEST(ReplicationLog, AppendsContiguouslyAndFetchesInOrder) {
  ReplicationLog log(8);
  EXPECT_EQ(log.first_seq(), 1u);
  EXPECT_EQ(log.next_seq(), 1u);
  log.append(1, "one");
  log.append(2, "two");
  EXPECT_THROW(log.append(5, "gap"), std::logic_error);

  std::string frame;
  ASSERT_EQ(log.wait_fetch(1, frame, 100), ReplicationLog::Fetch::kOk);
  EXPECT_EQ(frame, "one");
  ASSERT_EQ(log.wait_fetch(2, frame, 100), ReplicationLog::Fetch::kOk);
  EXPECT_EQ(frame, "two");
  EXPECT_EQ(log.wait_fetch(3, frame, 20), ReplicationLog::Fetch::kTimeout);
}

TEST(ReplicationLog, BoundedCapacityEvictsIntoGap) {
  ReplicationLog log(3);
  for (std::uint64_t s = 1; s <= 6; ++s) {
    log.append(s, "f" + std::to_string(s));
  }
  EXPECT_EQ(log.first_seq(), 4u);
  EXPECT_EQ(log.next_seq(), 7u);
  std::string frame;
  EXPECT_EQ(log.wait_fetch(2, frame, 100), ReplicationLog::Fetch::kGap);
  ASSERT_EQ(log.wait_fetch(4, frame, 100), ReplicationLog::Fetch::kOk);
  EXPECT_EQ(frame, "f4");
}

TEST(ReplicationLog, ResetRestartsTheWindow) {
  ReplicationLog log(8);
  log.append(1, "a");
  log.append(2, "b");
  log.reset(10);
  EXPECT_EQ(log.first_seq(), 10u);
  EXPECT_EQ(log.next_seq(), 10u);
  std::string frame;
  EXPECT_EQ(log.wait_fetch(2, frame, 50), ReplicationLog::Fetch::kGap);
  log.append(10, "j");
  ASSERT_EQ(log.wait_fetch(10, frame, 100), ReplicationLog::Fetch::kOk);
  EXPECT_EQ(frame, "j");
}

TEST(ReplicationLog, StopWakesBlockedWaiters) {
  ReplicationLog log(8);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    std::string frame;
    const auto r = log.wait_fetch(1, frame, 10'000);
    woke.store(r == ReplicationLog::Fetch::kStopped);
  });
  std::this_thread::sleep_for(30ms);
  log.request_stop();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

// ------------------------------------------------------------------- roles --

TEST(Replication, ReplicaServesReadsAndRejectsMutations) {
  const Campus campus = make_campus(3, 4);
  TestDaemon primary(campus.net);
  EXPECT_EQ(primary.server().role(), Role::kPrimary);
  EXPECT_EQ(primary.server().epoch(), 1u);

  TestDaemon replica(campus.net, replica_config(primary.path()));
  EXPECT_EQ(replica.server().role(), Role::kReplica);

  // Seed the primary so the replica has a world to bootstrap.
  const std::vector<gmf::Flow> flows = make_flows(campus, 0xA11CE, 6);
  engine::AnalysisEngine mirror(campus.net);
  Client pc = primary.connect();
  for (const gmf::Flow& f : flows) {
    ASSERT_EQ(pc.admit(f).has_value(), mirror.try_admit(f).has_value());
  }
  ASSERT_TRUE(await_caught_up(replica.server(), primary.server().epoch(),
                              primary.server().commit_seq()));

  Client rc = replica.connect();

  // Reads work and match the mirror bit-for-bit.
  const std::vector<gmf::Flow> probes = make_flows(campus, 0xB0B, 3);
  const auto remote = rc.what_if_batch(probes);
  const auto local = mirror.evaluate_batch(probes);
  ASSERT_EQ(remote.size(), local.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].admissible, local[i].admissible);
    expect_bit_identical(remote[i].result(), local[i].result(),
                         "replica probe " + std::to_string(i));
  }

  // STATS carries the replication position.
  const StatsResponse stats = rc.stats();
  EXPECT_EQ(stats.role, Role::kReplica);
  EXPECT_EQ(stats.epoch, primary.server().epoch());
  EXPECT_EQ(stats.commit_seq, primary.server().commit_seq());
  EXPECT_EQ(stats.flows, mirror.flow_count());

  // Every mutation bounces with the primary's address attached.
  try {
    (void)rc.admit(probes[0]);
    FAIL() << "replica accepted ADMIT";
  } catch (const NotPrimaryError& e) {
    EXPECT_EQ(e.primary_addr(), "unix:" + primary.path());
  }
  EXPECT_THROW((void)rc.remove(0), NotPrimaryError);
  EXPECT_THROW((void)rc.restore("anything"), NotPrimaryError);

  // ROLE exposes the link state.
  const RoleResponse role = rc.role();
  EXPECT_EQ(role.role, Role::kReplica);
  EXPECT_FALSE(role.fenced);
  EXPECT_EQ(role.primary_addr, "unix:" + primary.path());
  EXPECT_GE(role.full_syncs, 1u);
}

// ------------------------------------------------------------- convergence --

TEST(Replication, DeltaStreamConvergesBitIdenticalToMirror) {
  const Campus campus = make_campus(3, 4);
  TestDaemon primary(campus.net);
  TestDaemon replica(campus.net, replica_config(primary.path()));

  engine::AnalysisEngine mirror(campus.net);
  Client pc = primary.connect();
  const std::vector<gmf::Flow> flows = make_flows(campus, 0xFEED, 10);
  Rng rng(0x1234);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ASSERT_EQ(pc.admit(flows[i]).has_value(),
              mirror.try_admit(flows[i]).has_value());
    if (i % 4 == 3 && mirror.flow_count() > 1) {
      const auto idx =
          static_cast<std::size_t>(rng.next_below(mirror.flow_count()));
      ASSERT_EQ(pc.remove(idx), mirror.remove_flow(idx));
    }
  }
  ASSERT_TRUE(await_caught_up(replica.server(), primary.server().epoch(),
                              primary.server().commit_seq()));

  Client rc = replica.connect();
  EXPECT_EQ(rc.stats().flows, mirror.flow_count());
  const std::vector<gmf::Flow> probes = make_flows(campus, 0xCAFE, 4);
  const auto remote = rc.what_if_batch(probes);
  const auto local = mirror.evaluate_batch(probes);
  ASSERT_EQ(remote.size(), local.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].admissible, local[i].admissible);
    expect_bit_identical(remote[i].result(), local[i].result(),
                         "post-delta probe " + std::to_string(i));
  }
}

// ------------------------------------------------------------ gap recovery --

TEST(Replication, JournalGapForcesFullResyncAndRecovers) {
  const Campus campus = make_campus(2, 4);
  // Tiny journal: anything more than 4 commits behind is a guaranteed gap.
  TestDaemon primary(campus.net, [] {
    ServerConfig cfg;
    cfg.journal_capacity = 4;
    return cfg;
  }());
  TestDaemon replica(campus.net, replica_config(primary.path()));

  engine::AnalysisEngine mirror(campus.net);
  Client pc = primary.connect();
  const std::vector<gmf::Flow> flows = make_flows(campus, 0x6A9, 12);
  ASSERT_EQ(pc.admit(flows[0]).has_value(),
            mirror.try_admit(flows[0]).has_value());
  ASSERT_TRUE(await_caught_up(replica.server(), primary.server().epoch(),
                              primary.server().commit_seq()));

  ReplicationClient* rcli = replica.server().replication_client();
  ASSERT_NE(rcli, nullptr);
  const std::uint64_t syncs_before = rcli->full_syncs();

  // Open a gap: detach the replica, push the journal window far past it.
  rcli->pause();
  for (std::size_t i = 1; i < flows.size(); ++i) {
    ASSERT_EQ(pc.admit(flows[i]).has_value(),
              mirror.try_admit(flows[i]).has_value());
  }
  ASSERT_GT(primary.server().commit_seq(), 4u + replica.server().commit_seq());
  rcli->resume();

  ASSERT_TRUE(await_caught_up(replica.server(), primary.server().epoch(),
                              primary.server().commit_seq()));
  EXPECT_GT(rcli->full_syncs(), syncs_before)
      << "a sequence-gapped replica must recover via full resync";

  Client rc = replica.connect();
  EXPECT_EQ(rc.stats().flows, mirror.flow_count());
  const std::vector<gmf::Flow> probes = make_flows(campus, 0x90A7, 3);
  const auto remote = rc.what_if_batch(probes);
  const auto local = mirror.evaluate_batch(probes);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].admissible, local[i].admissible);
    expect_bit_identical(remote[i].result(), local[i].result(),
                         "post-resync probe " + std::to_string(i));
  }
}

// ----------------------------------------------------------- epoch fencing --

TEST(Replication, PromoteBumpsEpochAndTakesWrites) {
  const Campus campus = make_campus(2, 4);
  TestDaemon primary(campus.net);
  TestDaemon replica(campus.net, replica_config(primary.path()));

  engine::AnalysisEngine mirror(campus.net);
  Client pc = primary.connect();
  const std::vector<gmf::Flow> flows = make_flows(campus, 0xF01, 8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(pc.admit(flows[static_cast<std::size_t>(i)]).has_value(),
              mirror.try_admit(flows[static_cast<std::size_t>(i)]).has_value());
  }
  ASSERT_TRUE(await_caught_up(replica.server(), 1, 4));

  // Failover: the primary dies, the replica is promoted.
  primary.stop();
  Client rc = replica.connect();
  const std::uint64_t new_epoch = rc.promote();
  EXPECT_EQ(new_epoch, 2u);
  EXPECT_EQ(replica.server().role(), Role::kPrimary);
  EXPECT_FALSE(replica.server().fenced());

  // Idempotent on a live primary: no further epoch burn.
  EXPECT_EQ(rc.promote(), 2u);

  // The promoted daemon takes writes, still bit-identical to the mirror.
  for (std::size_t i = 4; i < flows.size(); ++i) {
    const auto remote = rc.admit(flows[i]);
    const auto local = mirror.try_admit(flows[i]);
    ASSERT_EQ(remote.has_value(), local.has_value());
    if (remote) {
      expect_bit_identical(*remote, *local,
                           "post-promote admit " + std::to_string(i));
    }
  }
  const StatsResponse stats = rc.stats();
  EXPECT_EQ(stats.role, Role::kPrimary);
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.flows, mirror.flow_count());
}

TEST(Replication, StaleExPrimaryIsFencedAndRejected) {
  const Campus campus = make_campus(2, 4);
  TestDaemon a(campus.net);  // the original primary (epoch 1)
  TestDaemon b(campus.net, replica_config(a.path()));

  engine::AnalysisEngine mirror(campus.net);
  Client ac = a.connect();
  const std::vector<gmf::Flow> flows = make_flows(campus, 0x5CA1E, 8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(ac.admit(flows[static_cast<std::size_t>(i)]).has_value(),
              mirror.try_admit(flows[static_cast<std::size_t>(i)]).has_value());
  }
  ASSERT_TRUE(await_caught_up(b.server(), 1, 3));

  // Operator promotes b while a is still alive (the split-brain attempt).
  Client bc = b.connect();
  ASSERT_EQ(bc.promote(), 2u);

  // A new replica of b follows the promoted history...
  TestDaemon c(campus.net, replica_config(b.path()));
  for (std::size_t i = 3; i < 6; ++i) {
    ASSERT_EQ(bc.admit(flows[i]).has_value(),
              mirror.try_admit(flows[i]).has_value());
  }
  ASSERT_TRUE(await_caught_up(c.server(), 2, b.server().commit_seq()));

  // ...and when that replica is repointed at the stale ex-primary, the
  // ex-primary learns of the higher epoch from the subscribe, self-fences
  // and answers NOT_PRIMARY — the replica keeps its promoted history.
  ReplicationClient* ccli = c.server().replication_client();
  ASSERT_NE(ccli, nullptr);
  const std::uint64_t seq_before = c.server().commit_seq();
  Client cc = c.connect();
  (void)cc.repoint("unix:" + a.path());
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  while (!a.server().fenced() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(a.server().fenced())
      << "ex-primary must self-fence on seeing a higher-epoch subscriber";
  EXPECT_EQ(c.server().epoch(), 2u) << "no rollback";
  EXPECT_EQ(c.server().commit_seq(), seq_before);

  // The fenced ex-primary now refuses mutations too.
  EXPECT_THROW((void)ac.admit(flows[6]), NotPrimaryError);

  // Point c back at the live primary: the stream resumes cleanly.
  (void)cc.repoint("unix:" + b.path());
  ASSERT_EQ(bc.admit(flows[7]).has_value(),
            mirror.try_admit(flows[7]).has_value());
  ASSERT_TRUE(await_caught_up(c.server(), 2, b.server().commit_seq()));
  Client cfinal = c.connect();
  EXPECT_EQ(cfinal.stats().flows, mirror.flow_count());
}

// A primary that does NOT implement fencing (a buggy or older build)
// must still be unable to roll a promoted replica back: the client side
// of the fence rejects stale subscribe answers and stale deltas on its
// own.  Exercised against a scripted mock primary speaking raw frames.
TEST(Replication, ClientRejectsStaleAnswersFromNonFencingPrimary) {
  Listener listener = Listener::listen_unix(fresh_socket_path());
  std::atomic<bool> mock_stop{false};
  std::atomic<int> sessions{0};
  std::thread mock([&] {
    while (!mock_stop.load(std::memory_order_acquire)) {
      Socket peer = listener.accept(100);
      if (!peer.valid()) continue;
      const int session = sessions.fetch_add(1);
      try {
        std::optional<std::string> frame = recv_frame(peer);
        if (!frame) continue;
        (void)decode_request(*frame);  // the SUBSCRIBE
        if (session == 0) {
          // Stale full sync: epoch 1 against a replica at epoch 3.
          SyncFullResponse full;
          full.epoch = 1;
          full.commit_seq = 7;
          full.history = 0xBAD;
          send_frame(peer, encode_response(Response{full}));
        } else {
          // Journal catch-up accepted at the replica's exact position,
          // followed by a delta stamped with a stale epoch.
          send_frame(peer,
                     encode_response(Response{SubscribeResponse{3, 5}}));
          DeltaResponse delta;
          delta.kind = DeltaKind::kBatch;
          delta.epoch = 1;
          delta.seq = 5;
          delta.ops.push_back(DeltaOp{DeltaKind::kRemove, gmf::Flow{}, 0});
          send_frame(peer, encode_response(Response{delta}));
          // Hold the stream open until the client reacts and drops it.
          std::string sink;
          (void)recv_frame_idle(peer, sink, 100);
        }
      } catch (const std::exception&) {
        // A dropped mock connection is fine — the client reconnects.
      }
    }
  });

  ReplicationClientConfig cfg;
  cfg.primary_addr = "unix:" + listener.unix_path();
  cfg.backoff_initial_ms = 5;
  cfg.backoff_max_ms = 20;
  cfg.backoff_seed = 7;
  std::atomic<bool> full_sync_applied{false};
  std::atomic<std::uint64_t> applied{0};
  ReplicationHooks hooks;
  hooks.full_sync = [&](const SyncFullResponse&) {
    full_sync_applied.store(true);
  };
  hooks.apply = [&](const DeltaResponse& d) {
    if (d.epoch < 3) return ApplyResult::kStale;
    applied.fetch_add(1);
    return ApplyResult::kApplied;
  };
  hooks.position = [] { return ReplicaPosition{3, 5, 0xFEED}; };
  hooks.stopped = [] { return false; };
  ReplicationClient client(cfg, std::move(hooks));
  client.start();

  const auto deadline = std::chrono::steady_clock::now() + 15s;
  while (client.stale_rejects() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  client.stop();
  mock_stop.store(true, std::memory_order_release);
  mock.join();

  EXPECT_GE(client.stale_rejects(), 2u)
      << "stale full sync and stale delta must both be rejected";
  EXPECT_FALSE(full_sync_applied.load())
      << "a stale checkpoint must never be installed";
  EXPECT_EQ(applied.load(), 0u);
}

}  // namespace
}  // namespace gmfnet::rpc
