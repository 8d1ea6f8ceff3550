#include "worlds.hpp"

#include <stdexcept>
#include <utility>

#include "core/priority.hpp"
#include "io/scenario_io.hpp"
#include "net/shortest_path.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfbench {

using gmfnet::Rng;
using gmfnet::Time;
namespace gmf = gmfnet::gmf;
namespace net = gmfnet::net;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "campus_whatif") return Workload::kCampusWhatIf;
  if (name == "mesh_whatif") return Workload::kMeshWhatIf;
  if (name == "tree_churn") return Workload::kTreeChurn;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCampusWhatIf:
      return "campus_whatif";
    case Workload::kMeshWhatIf:
      return "mesh_whatif";
    case Workload::kTreeChurn:
      return "tree_churn";
  }
  return "?";
}

namespace {

constexpr gmfnet::ethernet::LinkSpeedBps kSpeed = 100'000'000;

// campus_whatif: 4 star cells of 8 hosts; every cell pairs its hosts into
// 4 one-way calls, each carrying 8 VoIP flows — 128 residents in 16
// link-disjoint domains, the world the ROADMAP measured the wire gap on.
constexpr int kCells = 4;
constexpr int kHostsPerCell = 8;
constexpr int kFlowsPerPair = 8;
constexpr int kCampusProbes = 64;

// mesh_whatif: the ROADMAP's solver re-measure family.
constexpr int kMeshSwitches = 24;
constexpr int kMeshHosts = 48;
constexpr int kMeshExtraLinks = 6;
constexpr int kMeshFlows = 60;
constexpr double kMeshUtilization = 0.7;
// A world's slice reaches about 12 candidates per reader (the readers
// start half the list apart) and 12 admit/remove pairs.
constexpr int kMeshProbes = 32;

// tree_churn: a depth-3 binary switch tree with 6 hosts per leaf.
constexpr int kTreeDepth = 3;
constexpr int kTreeHostsPerLeaf = 6;
constexpr int kTreeFixed = 24;
constexpr int kTreePool = 12;
constexpr int kTreeProbes = 6;

gmf::Flow camera_flow(std::string name, net::Route route) {
  // A 25 fps camera: one 20 kB I-frame then three 3 kB P-frames.
  std::vector<gmf::FrameSpec> frames;
  for (int k = 0; k < 4; ++k) {
    gmf::FrameSpec fs;
    fs.min_separation = Time::ms(40);
    fs.deadline = Time::ms(100);
    fs.jitter = Time::ms(1);
    fs.payload_bits = (k == 0 ? 20000 : 3000) * 8;
    frames.push_back(fs);
  }
  return gmf::Flow(std::move(name), std::move(route), std::move(frames),
                   /*priority=*/1);
}

World make_campus(World w) {
  Rng rng(w.seed);
  // pairs[cell][p] = (src, dst) hosts of call pair p.
  std::vector<std::vector<std::pair<net::NodeId, net::NodeId>>> pairs;
  std::vector<net::NodeId> switches;
  for (int cell = 0; cell < kCells; ++cell) {
    const net::NodeId sw = w.network.add_switch("sw" + std::to_string(cell));
    switches.push_back(sw);
    std::vector<net::NodeId> hosts;
    for (int h = 0; h < kHostsPerCell; ++h) {
      const net::NodeId host = w.network.add_endhost(
          "c" + std::to_string(cell) + "h" + std::to_string(h));
      w.network.add_duplex_link(host, sw, kSpeed);
      hosts.push_back(host);
    }
    rng.shuffle(hosts);
    pairs.emplace_back();
    for (int p = 0; p < kHostsPerCell / 2; ++p) {
      pairs.back().emplace_back(hosts[static_cast<std::size_t>(2 * p)],
                                hosts[static_cast<std::size_t>(2 * p + 1)]);
    }
  }
  const auto call = [&](const std::string& name, int cell, int pair) {
    const auto& [a, b] =
        pairs[static_cast<std::size_t>(cell)][static_cast<std::size_t>(pair)];
    return gmfnet::workload::make_voip_flow(
        name, net::Route({a, switches[static_cast<std::size_t>(cell)], b}),
        Time::ms(20), /*priority=*/5);
  };
  int n = 0;
  for (int k = 0; k < kFlowsPerPair; ++k) {
    for (int cell = 0; cell < kCells; ++cell) {
      for (int p = 0; p < kHostsPerCell / 2; ++p) {
        w.residents.push_back(call("call" + std::to_string(n++), cell, p));
      }
    }
  }
  w.fixed_residents = w.residents.size();
  for (int i = 0; i < kCampusProbes; ++i) {
    const int cell = static_cast<int>(rng.next_below(kCells));
    const int pair = static_cast<int>(rng.next_below(kHostsPerCell / 2));
    w.probes.push_back(call("probe" + std::to_string(i), cell, pair));
  }
  return w;
}

World make_mesh(World w) {
  Rng rng(w.seed);
  net::RandomNetwork rn = net::make_random_network(
      kMeshSwitches, kMeshHosts, kMeshExtraLinks, kSpeed, rng);
  gmfnet::workload::TasksetParams params;
  params.num_flows = kMeshFlows;
  params.total_utilization = kMeshUtilization;
  auto residents =
      gmfnet::workload::generate_taskset(rn.net, rn.hosts, params, rng);
  // Candidates come from the same generator, each carrying a resident's
  // average utilization share.
  params.num_flows = kMeshProbes;
  params.total_utilization = kMeshUtilization * kMeshProbes / kMeshFlows;
  auto probes = gmfnet::workload::generate_taskset(rn.net, rn.hosts, params, rng);
  if (!residents || !probes) {
    throw std::runtime_error("mesh_whatif: generator could not route flows");
  }
  // Deadline-monotonic over residents and candidates together, so every
  // candidate slots into the residents' priority order.
  std::vector<gmf::Flow> all = std::move(residents->flows);
  for (gmf::Flow& f : probes->flows) all.push_back(std::move(f));
  gmfnet::core::assign_priorities(all,
                                  gmfnet::core::PriorityScheme::kDeadlineMonotonic);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i < static_cast<std::size_t>(kMeshFlows)) {
      all[i].set_name("m" + std::to_string(i));
      w.residents.push_back(std::move(all[i]));
    } else {
      all[i].set_name("probe" + std::to_string(i - kMeshFlows));
      w.probes.push_back(std::move(all[i]));
    }
  }
  w.fixed_residents = w.residents.size();
  w.network = std::move(rn.net);
  return w;
}

World make_tree(World w, std::size_t arrivals) {
  Rng rng(w.seed);
  net::TreeNetwork tree =
      net::make_tree_network(kTreeDepth, kTreeHostsPerLeaf, kSpeed);
  // VoIP legs and camera feeds (every fourth flow, so each world carries
  // the same mix) between seeded host pairs: routes through the tree share
  // uplinks, so domains merge as flows arrive and split as they leave.
  int made = 0;
  const auto flow = [&](const std::string& name) {
    for (;;) {
      const auto a = rng.next_below(tree.hosts.size());
      const auto b = rng.next_below(tree.hosts.size());
      if (a == b) continue;
      auto route = net::shortest_route(tree.net, tree.hosts[a], tree.hosts[b]);
      if (!route) continue;
      if (made++ % 4 == 3) return camera_flow(name, std::move(*route));
      return gmfnet::workload::make_voip_flow(name, std::move(*route),
                                              Time::ms(20), /*priority=*/5);
    }
  };
  for (int i = 0; i < kTreeFixed; ++i) {
    w.residents.push_back(flow("base" + std::to_string(i)));
  }
  w.fixed_residents = w.residents.size();
  for (int i = 0; i < kTreePool; ++i) {
    w.residents.push_back(flow("pool" + std::to_string(i)));
  }
  for (int i = 0; i < kTreeProbes; ++i) {
    w.probes.push_back(flow("probe" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < arrivals; ++i) {
    w.arrivals.push_back(flow("churn" + std::to_string(i)));
  }
  w.network = std::move(tree.net);
  return w;
}

}  // namespace

World make_world(Workload wl, std::uint64_t seed, std::size_t arrivals) {
  World w;
  w.workload = wl;
  w.seed = seed;
  switch (wl) {
    case Workload::kCampusWhatIf:
      return make_campus(std::move(w));
    case Workload::kMeshWhatIf:
      return make_mesh(std::move(w));
    case Workload::kTreeChurn:
      return make_tree(std::move(w), arrivals);
  }
  throw std::logic_error("make_world: unknown workload");
}

std::string scenario_text(const World& world) {
  gmfnet::workload::Scenario sc;
  sc.network = world.network;
  sc.flows = world.residents;
  return gmfnet::io::format_scenario(sc);
}

}  // namespace gmfbench
