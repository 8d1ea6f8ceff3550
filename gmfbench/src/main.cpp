// gmfbench: one run of one workload against a real gmfnetd.
//
//   gmfbench --workload NAME --seed N --seconds S --trace 0|1
//            --daemon PATH/TO/gmfnetd --out-dir DIR
//
// The seed names world_count() generated worlds.  Each world is set up once,
// timed: generate it, write its scenario (or, for tree_churn, the mirror's
// checkpoint), spawn gmfnetd on it and wait for the first STATS answer.
// That daemon then serves the world's share of the measured phase and is
// stopped.  setup_s is the median over the worlds; the other metrics pool
// their samples.  Untraced runs print every end-to-end metric; traced runs
// (--trace 1) print the per-layer metrics.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  Any verdict-oracle disagreement makes the run incorrect and
// the exit status 1.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "engine/analysis_engine.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "oracle.hpp"
#include "rpc/client.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "worlds.hpp"

namespace gmfbench {
namespace {

namespace rpc = gmfnet::rpc;

/// Worlds per run, each with its own seed, daemon and timed set-up: the
/// pooled numbers vary far less from seed to seed than one world's.  Mesh
/// worlds differ the most in cost, and a pooled p99 rests on the heaviest
/// few: resampling measured mesh mutation costs put the ten-run spread of
/// that p99 at 0.14 with 30 worlds and 0.07 with 90.
int world_count(Workload w) {
  return w == Workload::kMeshWhatIf ? 90 : 30;
}

/// Each run draws its world seeds from [seed * kSeedStride, next run's).
constexpr std::uint64_t kSeedStride = 1000;
constexpr int kReaders = 2;

/// Static worlds: share of the measured phase given to the what-if
/// readers; the rest times ADMIT/REMOVE pairs on the same world.  A mesh
/// mutation costs as much as a probe, so mesh_whatif splits its time
/// evenly; at a quarter its mutation p99 rested on ~1,000 samples.
double read_share(Workload w) {
  return w == Workload::kMeshWhatIf ? 0.5 : 0.75;
}

/// tree_churn: the writer's mean open-loop rate (mutations per second).
/// Arrivals are Poisson at this mean (see poisson_due), so some land while
/// a commit is running and coalesce with the next.  At 25/s a 30 s run's
/// mutation p99 rested on 750 samples and spread by 17% from seed to seed.
constexpr double kChurnRate = 50.0;

struct Args {
  Workload workload = Workload::kCampusWhatIf;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string out_dir = ".";
  std::string socket;  ///< the daemon's Unix socket, in out_dir
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gmfbench: %s\nusage: gmfbench --workload "
               "campus_whatif|mesh_whatif|tree_churn --seed N --seconds S "
               "--trace 0|1 --daemon GMFNETD --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage("unknown workload " + v);
      a.workload = *w;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--daemon") {
      a.daemon = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown option " + k);
    }
  }
  if (!have_workload || a.daemon.empty()) usage("--workload and --daemon are required");
  a.socket = a.out_dir + "/gmfnetd.sock";
  if (a.socket.size() >= 100) usage("--out-dir too long for a Unix socket path");
  return a;
}

/// Moves the calling thread onto the highest-numbered CPU it may use, so
/// the client threads and daemons started after it share that one CPU.
/// Returns the CPU, or -1 when the affinity cannot be set.
///
/// On a shared virtual machine a vCPU that goes idle between requests must
/// be rescheduled by the host on every wake-up, and the host's load then
/// decides the request latency: unpinned campus throughput fell from 2641
/// to 1048 probes/s between runs as host steal went from 1% to 18%.  One
/// always-busy CPU is not descheduled at every wake-up, and its numbers
/// repeat.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &set)) --cpu;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Scripted mutations per tree_churn world: its share of the run at the
/// writer's rate.
std::size_t churn_ops(const Args& a) {
  return static_cast<std::size_t>(
      std::llround(kChurnRate * a.seconds / world_count(a.workload)));
}

/// One timed set-up: generate, write the boot file, spawn, first STATS.
std::unique_ptr<Daemon> set_up(const Args& a, std::uint64_t world_seed,
                               double& seconds) {
  const Clock::time_point t0 = Clock::now();
  const World w = make_world(a.workload, world_seed, churn_ops(a));
  std::vector<std::string> args;
  if (a.workload == Workload::kTreeChurn) {
    gmfnet::engine::AnalysisEngine mirror(w.network);
    for (const auto& f : w.residents) mirror.add_flow(f);
    const std::string path = a.out_dir + "/boot.ckpt";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    mirror.save(out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path);
    args = {"--restore", path};
  } else {
    const std::string path = a.out_dir + "/boot.scn";
    std::ofstream out(path, std::ios::trunc);
    out << scenario_text(w);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path);
    args = {"--scenario", path};
  }
  auto d = std::make_unique<Daemon>(a.daemon, args, a.socket,
                                    a.out_dir + "/gmfnetd.log");
  (void)rpc::Client::connect_unix(d->socket()).stats();
  seconds = secs(Clock::now() - t0);
  return d;
}

void print_metric(const std::string& name, double v, const std::string& unit,
                  const std::string& note = {}) {
  std::printf("%-44s %14.4f %-10s%s\n", name.c_str(), v, unit.c_str(),
              note.c_str());
}

std::string tail_note(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf, " (p%.2f of %zu samples)", 100 * t.tail_q,
                t.count);
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Everything measured on the worlds of one run, pooled.
struct Pool {
  std::vector<double> setup_s;
  std::vector<double> whatif_us;         ///< untraced probes
  std::vector<double> whatif_traced_us;  ///< traced probes (traced run)
  std::vector<double> mutation_us;
  std::vector<double> lag_us;
  std::vector<double> peak_rss_mb;
  double read_s = 0;
  double daemon_cpu_us = 0;
  HostCpu host;  ///< host CPU ticks during the measured phases
  std::size_t probes = 0;
  std::size_t mutations = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t frames = 0;     ///< request frames the daemons served
  std::uint64_t coalesced = 0;  ///< mutations folded into group commits
  std::size_t mismatches = 0;
  std::string first_mismatch;
  std::vector<Span> spans;
  std::vector<Metric> layers;   ///< traced run: in-process layer metrics
  /// Traced run: untraced client what-if p50 on the replayed world, the
  /// client side of rpc.wire_residual_us.
  double layers_client_p50_us = 0;
};

/// A world and the mirror's expectations for every request the clients
/// will send to it.
struct Prepared {
  std::uint64_t seed = 0;
  World world;
  Plan plan;
};

/// Prepares the worlds of the run.  World seeds are taken in order from
/// seed * kSeedStride on, skipping worlds whose resident set is not
/// schedulable: a daemon that admitted its residents never holds one, and
/// a what-if against it is answered "no" for every candidate.  Planning
/// runs on up to one thread per core, before any daemon runs, so nothing
/// measured competes with it.
std::vector<Prepared> prepare(const Args& a) {
  const int worlds = world_count(a.workload);
  std::vector<Prepared> out(static_cast<std::size_t>(worlds));
  for (std::uint64_t s = a.seed * kSeedStride, w = 0; w < out.size(); ++s) {
    if (s == (a.seed + 1) * kSeedStride) {
      throw std::runtime_error("too few schedulable worlds for this seed");
    }
    World world = make_world(a.workload, s, churn_ops(a));
    if (!residents_schedulable(world)) continue;
    out[w].seed = s;
    out[w++].world = std::move(world);
  }
  std::vector<std::string> errors(out.size());
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  const unsigned n = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&a, &out, &errors, &next, worlds] {
      for (int w = next++; w < worlds; w = next++) {
        try {
          Prepared& p = out[static_cast<std::size_t>(w)];
          p.plan = a.workload == Workload::kTreeChurn
                       ? plan_churn(p.world, churn_ops(a))
                       : plan_static(p.world, 20'000);
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(w)] = e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return out;
}

/// Sets up one world and drives it for `len`, adding to `pool`.
void run_world(const Args& a, const Prepared& prep, Clock::duration len,
               bool trace_layers, Pool& pool) {
  const bool churn = a.workload == Workload::kTreeChurn;
  const World& world = prep.world;
  const Plan& plan = prep.plan;
  const std::uint64_t world_seed = prep.seed;
  Oracle oracle(plan);

  double setup = 0;
  std::unique_ptr<Daemon> daemon = set_up(a, world_seed, setup);
  pool.setup_s.push_back(setup);

  std::optional<rpc::Client> control =
      rpc::Client::connect_unix(daemon->socket());
  const rpc::StatsResponse st0 = control->stats();
  const double cpu0 = daemon->cpu_us();
  const HostCpu host0 = host_cpu();

  const Clock::time_point epoch = Clock::now();
  const Clock::time_point start = epoch + std::chrono::milliseconds(20);
  const Clock::duration read_len =
      churn ? len
            : std::chrono::duration_cast<Clock::duration>(len * read_share(a.workload));
  // The traced run traces the second half of the read phase; the first
  // half is its untraced reference for the tracing overhead.
  const Clock::time_point trace_from =
      a.trace ? start + read_len / 2 : Clock::time_point::max();

  std::atomic<bool> writer_done{false};
  std::vector<ReaderResult> readers(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    ReaderConfig rc;
    rc.socket = &daemon->socket();
    rc.world = &world;
    rc.plan = &plan;
    rc.oracle = &oracle;
    rc.offset = static_cast<std::size_t>(r) * plan.usable_probes.size() / kReaders;
    rc.start_at = start;
    rc.stop_at = start + read_len;
    rc.stop = churn ? &writer_done : nullptr;
    rc.trace_from = trace_from;
    rc.epoch = epoch;
    rc.request_base = static_cast<std::uint64_t>(r + 1) << 40;
    threads.emplace_back([rc, &readers, r] {
      readers[static_cast<std::size_t>(r)] = run_reader(rc);
    });
  }

  WriterConfig wc;
  WriterResult writer;
  Clock::time_point read_end = start + read_len;
  try {
    const std::unique_ptr<Channel> channel =
        make_daemon_channel(daemon->socket(), world, plan);
    wc.ops = plan.ops.size();
    if (churn) {
      wc.due = poisson_due(plan.ops.size(), len,
                           world_seed ^ 0x6a09e667f3bcc908ull);
      wc.start = start;
    } else {
      // Static worlds: the closed-loop writer follows the read phase.
      for (std::thread& t : threads) t.join();
      threads.clear();
      wc.start = Clock::now();
      wc.stop_at = start + len;
      for (const Op& op : plan.ops) wc.boundary.push_back(op.boundary);
    }
    writer = run_writer(*channel, wc);
  } catch (const std::exception& e) {
    oracle.fail(std::string("writer: ") + e.what());
    ++pool.attempted;
    ++pool.failed;
  }
  writer_done.store(true, std::memory_order_release);
  if (churn) read_end = Clock::now();
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < writer.replies.size(); ++i) {
    if (!writer.replies[i].failed) oracle.check_op(i, writer.replies[i].ok);
  }
  const double cpu1 = daemon->cpu_us();
  const HostCpu host1 = host_cpu();
  const rpc::StatsResponse st1 = control->stats();
  oracle.check_final(control->save_checkpoint());
  pool.peak_rss_mb.push_back(daemon->peak_rss_mb());
  control.reset();
  if (!daemon->stop()) oracle.fail("gmfnetd did not shut down cleanly");

  std::vector<double> world_untraced_us;
  for (ReaderResult& r : readers) {
    pool.attempted += r.attempted;
    pool.failed += r.failed;
    for (const ReaderSample& s : r.samples) {
      if (s.start >= trace_from) {
        pool.whatif_traced_us.push_back(s.latency_us);
      } else {
        pool.whatif_us.push_back(s.latency_us);
        world_untraced_us.push_back(s.latency_us);
      }
      ++pool.probes;
    }
    merge_spans(pool.spans, std::move(r.spans));
  }
  pool.attempted += writer.sent;
  pool.failed += writer.failed;
  pool.mutations += writer.replies.size();
  pool.mutation_us.insert(pool.mutation_us.end(), writer.latency_us.begin(),
                          writer.latency_us.end());
  pool.lag_us.insert(pool.lag_us.end(), writer.lag_us.begin(),
                     writer.lag_us.end());
  pool.read_s += secs(read_end - start);
  pool.daemon_cpu_us += cpu1 - cpu0;
  pool.host.total += host1.total - host0.total;
  pool.host.steal += host1.steal - host0.steal;
  // Both STATS frames count themselves; the first one is outside the delta.
  pool.frames += st1.frames_served - st0.frames_served - 1;
  pool.coalesced += st1.coalesced_commits - st0.coalesced_commits;

  if (trace_layers) {
    Tracer tracer(true, epoch);
    std::ostringstream boot;
    gmfnet::engine::AnalysisEngine mirror(world.network);
    for (const auto& f : world.residents) mirror.add_flow(f);
    mirror.save(boot);
    pool.layers = measure_layers(world, plan, scenario_text(world),
                                 boot.str(), oracle, tracer);
    pool.layers_client_p50_us = median(world_untraced_us);
    merge_spans(pool.spans, tracer.take());
  }

  if (oracle.mismatches() > 0 && pool.mismatches == 0) {
    pool.first_mismatch = oracle.first_mismatch();
  }
  pool.mismatches += oracle.mismatches();
}

int run(const Args& a) {
  const unsigned hw = std::thread::hardware_concurrency();
  // Planning uses every core; everything measured runs on one.
  const std::vector<Prepared> worlds = prepare(a);
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) std::fprintf(stderr, "gmfbench: cannot pin to one CPU; running unpinned\n");
  std::printf("{\"bench\": \"gmfbench\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"worlds\": %d, "
              "\"hw_threads\": %u, \"pinned_cpu\": %d, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, world_count(a.workload), hw, cpu, GMFBENCH_COMPILER,
              GMFBENCH_BUILD_TYPE);

  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(a.seconds / world_count(a.workload)));
  Pool pool;
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    run_world(a, worlds[w], slice, a.trace && w == 0, pool);
  }

  const Tail wt = summarize(pool.whatif_us);
  const Tail mt = summarize(pool.mutation_us);
  const double ops =
      static_cast<double>(std::max<std::size_t>(pool.probes + pool.mutations, 1));
  const double error_frac =
      static_cast<double>(pool.failed) /
      static_cast<double>(std::max<std::size_t>(pool.attempted, 1));

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics.push_back({"setup_s", median(pool.setup_s), "s"});
    metrics.push_back({"whatif_qps",
                       static_cast<double>(pool.probes) / pool.read_s,
                       "probes/s"});
    metrics.push_back({"whatif_p50_us", wt.p50, "us"});
    metrics.push_back({"whatif_p99_us", wt.tail, "us"});
    metrics.push_back({"mutation_p50_us", mt.p50, "us"});
    metrics.push_back({"mutation_p99_us", mt.tail, "us"});
    metrics.push_back({"daemon_cpu_us_per_op", pool.daemon_cpu_us / ops, "us"});
    metrics.push_back({"daemon_peak_rss_mb", median(pool.peak_rss_mb), "MiB"});
    for (const Metric& m : metrics) {
      const std::string note = m.name == "whatif_p99_us"     ? tail_note(wt)
                               : m.name == "mutation_p99_us" ? tail_note(mt)
                                                             : std::string();
      print_metric(m.name, m.value, m.unit, note);
    }
  } else {
    metrics = pool.layers;
    // Both sides come from the replayed world's own probes.
    metrics.push_back({"rpc.wire_residual_us",
                       pool.layers_client_p50_us - replay_request_us(pool.spans),
                       "us"});
    metrics.push_back({"rpc.server.frames_per_op",
                       static_cast<double>(pool.frames) / ops, "frames/op"});
    metrics.push_back({"rpc.server.coalesced_frac",
                       static_cast<double>(pool.coalesced) /
                           static_cast<double>(std::max<std::size_t>(pool.mutations, 1)),
                       "ratio"});
    metrics.push_back({"bench.generator_lag_p99_us",
                       summarize(pool.lag_us).tail, "us"});
    metrics.push_back({"bench.tracing_overhead_frac",
                       median(pool.whatif_traced_us) / wt.p50 - 1.0, "ratio"});
    const std::string path = a.out_dir + "/spans-" +
                             workload_name(a.workload) + "-" +
                             std::to_string(a.seed) + ".tsv";
    if (!write_spans(pool.spans, path)) {
      ++pool.mismatches;
      pool.first_mismatch = "cannot write " + path;
    }
    for (const Metric& m : metrics) print_metric(m.name, m.value, m.unit);
    print_metric("rpc.client.what_if_p50_us", pool.layers_client_p50_us, "us",
                 " (untraced, replayed world)");
  }
  // Time the hypervisor took from this machine's CPUs while the worlds
  // ran.  Pinned runs keep it low, but when it is high the host is busy
  // and the pinned CPU runs slower too.
  const double steal_frac = static_cast<double>(pool.host.steal) /
                            static_cast<double>(std::max(pool.host.total, 1ull));
  if (a.trace) metrics.push_back({"bench.host_steal_frac", steal_frac, "ratio"});
  print_metric("bench.host_steal_frac", steal_frac, "ratio");
  print_metric("error_frac", error_frac, "ratio",
               " (" + std::to_string(pool.failed) + " of " +
                   std::to_string(pool.attempted) + " operations failed)");

  const bool correct = pool.mismatches == 0 && pool.attempted > 0;
  if (!correct) {
    std::fprintf(stderr, "gmfbench: %zu oracle disagreement(s); first: %s\n",
                 pool.mismatches, pool.first_mismatch.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(pool.attempted);
  json += ", \"failed\": " + std::to_string(pool.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gmfbench

int main(int argc, char** argv) {
  const gmfbench::Args args = gmfbench::parse_args(argc, argv);
  try {
    return gmfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gmfbench: %s\n", e.what());
    return 1;
  }
}
