#include "core/holistic.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmfnet::core {

std::vector<std::vector<FlowId>> link_neighbors(const AnalysisContext& ctx) {
  const std::size_t n = ctx.flow_count();
  std::vector<std::vector<FlowId>> out(n);
  for (std::size_t f = 0; f < n; ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    std::vector<FlowId>& nb = out[f];
    for (const LinkRef l : ctx.route_links(id)) {
      for (const FlowId j : ctx.flows_on_link(l)) {
        if (j != id) nb.push_back(j);
      }
    }
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return out;
}

namespace {

// Sweep-to-sweep change tracking: re-analysing flow f is the identity
// whenever neither f's own entries nor any read-set neighbor's entries
// changed since f's previous analysis (the analysis is a deterministic
// function of exactly those entries).  Each sweep therefore records, per
// flow, whether its own entries actually changed — replacing the full
// `jitters == before` JitterMap comparison — and the next sweep skips flows
// whose inputs are clean, reusing their previous FlowResult verbatim.
// Results stay bit-identical to always-re-analyse sweeps; only redundant
// work is dropped (in particular the final, unchanged sweep that merely
// confirms convergence).

/// True when `changed[f]` or any of f's neighbors' flags is set.
bool inputs_dirty(const std::vector<char>& changed,
                  const std::vector<std::vector<FlowId>>& neighbors,
                  std::size_t f) {
  if (changed[f]) return true;
  for (const FlowId j : neighbors[f]) {
    if (changed[static_cast<std::size_t>(j.v)]) return true;
  }
  return false;
}

}  // namespace

HolisticResult solve_holistic(const AnalysisContext& ctx,
                              const SolveRequest& req,
                              const HolisticOptions& opts,
                              IncrementalStats* stats) {
  const bool whole_set = req.dirty == nullptr;
  if (!whole_set && !req.start.engaged()) {
    throw std::logic_error(
        "solve_holistic: a restricted request needs an engaged warm start "
        "(clean flows' fixed points cannot be conjured from nothing)");
  }

  HolisticResult out;
  out.jitters =
      req.start.engaged() ? req.start.map() : JitterMap::initial(ctx);
  out.flows.resize(ctx.flow_count());

  // The dirty id set, ascending — the Gauss-Seidel analysis order.
  std::vector<FlowId> dirty_ids;
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    if (whole_set || (f < req.dirty->size() && (*req.dirty)[f])) {
      dirty_ids.push_back(FlowId(static_cast<std::int32_t>(f)));
    }
  }

  // Per-flow change flags over the dirty set (clean flows never change —
  // they are not analysed).  A dirty flow is re-analysed only when it or a
  // read-set neighbor changed since its previous analysis; a skipped
  // re-analysis would have been the identity, so results stay bit-identical
  // to always-re-analyse sweeps.  Whole-set solves precompute the neighbor
  // table (every flow is walked every sweep); restricted solves walk the
  // read-set on the fly over the flow's route links — probes must not pay
  // an all-flows neighbor table for a small dirty component.
  std::vector<char> changed(ctx.flow_count(), 0);
  for (const FlowId id : dirty_ids) {
    changed[static_cast<std::size_t>(id.v)] = 1;
  }
  std::vector<std::vector<FlowId>> neighbors;
  if (whole_set) neighbors = link_neighbors(ctx);
  const auto flow_inputs_dirty = [&](FlowId id) {
    const auto f = static_cast<std::size_t>(id.v);
    if (!neighbors.empty()) return inputs_dirty(changed, neighbors, f);
    if (changed[f]) return true;
    for (const LinkRef l : ctx.route_links(id)) {
      for (const FlowId j : ctx.flows_on_link(l)) {
        if (changed[static_cast<std::size_t>(j.v)]) return true;
      }
    }
    return false;
  };

  // A sweep writes only the analysed (dirty) flows' own entries, so the
  // convergence snapshot/compare stays proportional to the flows actually
  // analysed instead of the whole map.  One snapshot map serves every
  // sweep: adopt_flow overwrites the slot, so carrying the map across
  // sweeps saves the per-sweep slot-vector allocation on probe hot paths.
  JitterMap before;
  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    bool diverged = false;
    for (const FlowId id : dirty_ids) {
      if (sweep > 0 && !flow_inputs_dirty(id)) {
        changed[static_cast<std::size_t>(id.v)] = 0;
        continue;
      }
      before.adopt_flow(out.jitters, id, id);
      FlowResult& fr = out.flows[static_cast<std::size_t>(id.v)];
      fr = analyze_flow_end_to_end(ctx, out.jitters, id, opts.hop);
      changed[static_cast<std::size_t>(id.v)] =
          out.jitters.flow_equals(before, id) ? 0 : 1;
      if (stats != nullptr) ++stats->flow_analyses;
      if (!fr.all_converged()) diverged = true;
    }
    out.sweeps = sweep + 1;
    if (stats != nullptr) ++stats->sweeps;

    if (diverged) {
      // Any per-hop divergence means the jitters would grow without bound:
      // report unschedulable immediately.
      out.converged = false;
      out.schedulable = false;
      return out;
    }

    bool unchanged = true;
    for (const FlowId id : dirty_ids) {
      if (changed[static_cast<std::size_t>(id.v)]) {
        unchanged = false;
        break;
      }
    }
    if (unchanged) {
      out.converged = true;
      break;
    }
  }

  if (!out.converged) {
    // Sweep cap reached without a fixed point: treat as unschedulable (the
    // monotone jitters were still growing).
    out.schedulable = false;
    return out;
  }

  if (whole_set) {
    out.schedulable = true;
    for (const FlowResult& fr : out.flows) {
      if (!fr.schedulable()) {
        out.schedulable = false;
        break;
      }
    }
  }
  // Restricted solves leave schedulable false: the caller adopts its cached
  // FlowResults for the clean flows and finalizes the verdict over the
  // complete vector.
  return out;
}

HolisticResult analyze_holistic(const AnalysisContext& ctx,
                                const HolisticOptions& opts,
                                WarmStartView start) {
  SolveRequest req;
  req.start = start;
  return solve_holistic(ctx, req, opts);
}

}  // namespace gmfnet::core
