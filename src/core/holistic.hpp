// Holistic analysis ("Putting it all together", §3.5): iterate the Figure-6
// algorithm over all flows, feeding each stage's response time back as the
// downstream generalized jitter, until the jitter map reaches a fixed point.
//
// The outer loop is plain Gauss-Seidel: flows are analysed in id order
// against the live map, so each sweep sees its predecessors' fresh jitters.
// The sweep operator is monotone and the climb starts from below (the
// initial map or a warm start, see WarmStartView), so the first unchanged
// sweep lands on the least fixed point.
#pragma once

#include <cstddef>
#include <vector>

#include "core/context.hpp"
#include "core/end_to_end.hpp"

namespace gmfnet::core {

/// Typed non-owning warm-start handle: seed the iteration from a previously
/// converged map instead of JitterMap::initial(ctx).
///
/// Lifetime contract: the view borrows the map — the referenced JitterMap
/// must outlive every solve the view is passed to, and must not be mutated
/// while a solve reads it.  The solve copies the map's state on entry
/// (copy-on-write, one pointer per flow), so the borrow ends when the call
/// returns.
///
/// Soundness contract: seeding is sound whenever the seed lies at or below
/// the least fixed point of the sweep operator — e.g. the converged map of
/// the same flow set minus some flows (interference only grew, so the old
/// fixed point is a valid under-approximation and the iteration converges
/// to the *same* least fixed point, in far fewer sweeps).
class WarmStartView {
 public:
  /// Disengaged: the solve starts from JitterMap::initial(ctx).
  WarmStartView() = default;
  /// Borrows `seed` (not owned; see the lifetime contract above).
  explicit WarmStartView(const JitterMap& seed) : map_(&seed) {}

  [[nodiscard]] bool engaged() const { return map_ != nullptr; }
  /// The borrowed seed; only meaningful when engaged().
  [[nodiscard]] const JitterMap& map() const { return *map_; }

 private:
  const JitterMap* map_ = nullptr;
};

struct HolisticOptions {
  HopOptions hop;       ///< per-hop options (horizon, ablations)
  int max_sweeps = 64;  ///< fixed-point sweep cap
};

struct HolisticResult {
  /// True when the jitter map reached a fixed point with every per-hop
  /// analysis converging.
  bool converged = false;
  /// True when `converged` and every frame of every flow meets its deadline
  /// — the admission controller's verdict.
  bool schedulable = false;
  int sweeps = 0;                 ///< sweeps executed (including the last,
                                  ///< unchanged one when converged)
  std::vector<FlowResult> flows;  ///< per-flow results of the final sweep
  JitterMap jitters;              ///< the fixed-point jitter map

  /// Worst end-to-end bound of a flow (Time::max() if it diverged).
  [[nodiscard]] gmfnet::Time worst_response(FlowId i) const {
    return flows[static_cast<std::size_t>(i.v)].worst_response();
  }
};

/// For each flow, the ids of all other flows sharing at least one route
/// link with it — the exact read-set of its per-sweep analysis (every
/// interferer of every stage lives on one of the flow's route links).  The
/// sweep skip logic of solve_holistic and the engine's incremental runs
/// re-analyse a flow only when it or a neighbor changed in the window since
/// its last analysis.
[[nodiscard]] std::vector<std::vector<FlowId>> link_neighbors(
    const AnalysisContext& ctx);

/// Counters of one solve (engine instrumentation).
struct IncrementalStats {
  std::size_t flow_analyses = 0;  ///< per-flow per-sweep analyses executed
  std::size_t sweeps = 0;         ///< sweeps executed
};

/// One solve, described as a request.  This is the single solver entry
/// point: whole-set analyses and the engine's restricted shard/probe solves
/// are the same request with different dirty sets.
struct SolveRequest {
  /// Flows to (re-)analyse, indexed by flow id; null means every flow of
  /// the context (a whole-set solve).  When non-null, clean (false) flows
  /// are never analysed or written — their entries in `start` must already
  /// sit at the (unchanged) fixed point, which makes the run bit-identical
  /// to a whole-set solve on the same context (both reach the unique least
  /// fixed point; see WarmStartView).  Borrowed; must outlive the call.
  const std::vector<bool>* dirty = nullptr;
  /// Seed map.  Whole-set requests may leave it disengaged (the initial
  /// map); restricted requests must engage it (std::logic_error otherwise —
  /// clean flows' fixed points cannot be conjured from nothing).
  WarmStartView start;
};

/// Runs the holistic fixed point described by `req` under `opts`.
///
/// Whole-set requests (`req.dirty == nullptr`) finalize `schedulable` over
/// all flows.  Restricted requests leave clean flows' `flows` entries
/// default-constructed and `schedulable` false: the caller owns adopting
/// its cached FlowResults for clean flows and finalizing the verdict
/// (skipped when `converged` is false).
[[nodiscard]] HolisticResult solve_holistic(const AnalysisContext& ctx,
                                            const SolveRequest& req,
                                            const HolisticOptions& opts,
                                            IncrementalStats* stats = nullptr);

/// Whole-set convenience wrapper: solve_holistic with every flow dirty,
/// seeded from `start` (the initial map when disengaged).
[[nodiscard]] HolisticResult analyze_holistic(const AnalysisContext& ctx,
                                              const HolisticOptions& opts = {},
                                              WarmStartView start = {});

}  // namespace gmfnet::core
