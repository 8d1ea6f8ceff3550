// Seeded world generator for the three gmfbench workloads.
//
// Everything the daemon sees is built here from the workload name and the
// seed, using only the library's public generators (make_random_network,
// make_tree_network, generate_taskset, make_voip_flow, assign_priorities):
// the same (workload, seed) always yields the same network, residents,
// probe candidates and arrivals, byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gmf/flow.hpp"
#include "net/network.hpp"

namespace gmfbench {

enum class Workload { kCampusWhatIf, kMeshWhatIf, kTreeChurn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

struct World {
  Workload workload = Workload::kCampusWhatIf;
  std::uint64_t seed = 0;
  gmfnet::net::Network network;
  /// Boot resident set, in global flow-id order.
  std::vector<gmfnet::gmf::Flow> residents;
  /// residents[0, fixed_residents) stay for the whole run; the rest form
  /// the churn pool the writer removes first-in first-out.
  std::size_t fixed_residents = 0;
  /// What-if candidates the readers cycle through.
  std::vector<gmfnet::gmf::Flow> probes;
  /// Flows the churn writer admits, in order (tree_churn only).
  std::vector<gmfnet::gmf::Flow> arrivals;
};

/// Builds the world.  `arrivals` sizes the churn arrival list (ignored by
/// the static what-if worlds).
[[nodiscard]] World make_world(Workload w, std::uint64_t seed,
                               std::size_t arrivals);

/// The world's network and residents in the gmfnet scenario format.
[[nodiscard]] std::string scenario_text(const World& world);

}  // namespace gmfbench
