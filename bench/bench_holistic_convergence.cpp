// Experiment E8: convergence behaviour of the holistic fixed point
// ("Putting it all together"): Gauss-Seidel sweeps to convergence and wall
// time vs. utilization on the Figure-1 topology.
//
//   $ ./bench_holistic_convergence [trials]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/holistic.hpp"
#include "core/priority.hpp"
#include "net/topology.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/taskset_gen.hpp"

using namespace gmfnet;

int main(int argc, char** argv) {
  const int trials = argc > 1 ? std::atoi(argv[1]) : 20;
  std::printf("=== E8: holistic fixed-point convergence "
              "(%d task sets per level, Figure-1 topology) ===\n\n",
              trials);

  const auto fig = net::make_figure1_network(100'000'000);
  const std::vector<net::NodeId> hosts = {fig.host0, fig.host1, fig.host2,
                                          fig.host3};

  Table t("Sweeps to convergence and wall time");
  t.set_columns({"utilization", "converged", "sweeps (mean/max)", "ms"});
  CsvWriter csv({"utilization", "converged_frac", "sweeps_mean",
                 "sweeps_max", "ms"});

  for (const double util : {0.1, 0.3, 0.5, 0.7, 0.85}) {
    OnlineStats sweeps;
    double ms = 0;
    int converged = 0, total = 0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(0xc0ffee + static_cast<std::uint64_t>(trial) * 31 +
              static_cast<std::uint64_t>(util * 1000));
      workload::TasksetParams params;
      params.num_flows = 10;
      params.total_utilization = util;
      params.deadline_factor_lo = 2.0;
      params.deadline_factor_hi = 4.0;
      auto ts = workload::generate_taskset(fig.net, hosts, params, rng);
      if (!ts) continue;
      core::assign_priorities(ts->flows,
                              core::PriorityScheme::kDeadlineMonotonic);
      const core::AnalysisContext ctx(fig.net, ts->flows);
      ++total;

      const auto t0 = std::chrono::steady_clock::now();
      const core::HolisticResult r = core::analyze_holistic(ctx);
      const auto t1 = std::chrono::steady_clock::now();
      ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r.converged) {
        ++converged;
        sweeps.add(r.sweeps);
      }
    }
    const double frac =
        total ? static_cast<double>(converged) / total : 0.0;
    t.add_row({Table::fixed(util, 2), Table::fixed(frac, 2),
               Table::fixed(sweeps.mean(), 1) + " / " +
                   Table::num(sweeps.max()),
               Table::fixed(ms, 1)});
    csv.begin_row();
    csv.add(util);
    csv.add(frac);
    csv.add(sweeps.mean());
    csv.add(sweeps.max());
    csv.add(ms);
  }
  t.print();
  csv.save("bench_holistic_convergence.csv");
  std::printf("\nCSV written to bench_holistic_convergence.csv\n");
  return 0;
}
