#include "engine/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace gmfnet::engine {

const gmf::Flow& EngineSnapshot::flow(std::size_t index) const {
  const FlowLoc& loc = locs_.at(index);
  return shards_[loc.shard].ctx->flow(
      net::FlowId(static_cast<std::int32_t>(loc.local)));
}

std::vector<gmf::Flow> EngineSnapshot::flows() const {
  std::vector<gmf::Flow> out;
  out.reserve(locs_.size());
  for (std::size_t g = 0; g < locs_.size(); ++g) out.push_back(flow(g));
  return out;
}

// --------------------------------------------------------- WhatIfResult --

namespace {

[[noreturn]] void throw_missing_payload(const char* what) {
  throw std::logic_error(std::string(what) +
                         " what-if result does not carry this flow's result");
}

}  // namespace

const core::FlowResult& WhatIfResult::flow_result(net::FlowId global) const {
  if (payload_ == Payload::kNone) throw_missing_payload("verdict-only");
  if (payload_ == Payload::kCandidate) {
    if (global.v < 0 ||
        static_cast<std::size_t>(global.v) + 1 != total_flows_) {
      throw_missing_payload("candidate-only");
    }
    return candidate_;
  }
  if (full_) return full_->flows.at(static_cast<std::size_t>(global.v));
  if (!base_) return result().flows.at(static_cast<std::size_t>(global.v));
  const auto it =
      std::lower_bound(to_global_.begin(), to_global_.end(), global,
                       [](net::FlowId a, net::FlowId b) { return a.v < b.v; });
  if (it != to_global_.end() && it->v == global.v) {
    const auto f = static_cast<std::size_t>(it - to_global_.begin());
    // Clean probe flows are identical to the published entries; only the
    // dirty component carries probe-fresh results.
    if (dirty_[f]) return local_.flows[f];
  }
  return base_->flows.at(static_cast<std::size_t>(global.v));
}

const core::HolisticResult& WhatIfResult::result() const {
  if (payload_ == Payload::kNone) throw_missing_payload("verdict-only");
  if (payload_ == Payload::kCandidate) throw_missing_payload("candidate-only");
  if (full_) return *full_;
  if (!base_) {
    // Default-constructed value (or a cold probe that stored the complete
    // global-order result in local_).
    full_ = std::make_shared<const core::HolisticResult>(local_);
    return *full_;
  }
  core::HolisticResult r;
  r.converged = converged_;
  r.sweeps = sweeps_;
  // Untouched flows are adopted wholesale from the published global result:
  // one flows-vector copy plus one copy-on-write pointer per flow — paid
  // only here, never on the probe hot path.
  r.flows = base_->flows;
  r.flows.resize(total_flows_);
  r.jitters = base_->jitters;
  for (std::size_t f = 0; f < to_global_.size(); ++f) {
    if (!dirty_[f]) continue;
    const auto g = static_cast<std::size_t>(to_global_[f].v);
    r.flows[g] = local_.flows[f];
    r.jitters.adopt_flow(local_.jitters,
                         net::FlowId(static_cast<std::int32_t>(f)),
                         net::FlowId(static_cast<std::int32_t>(g)));
  }
  r.schedulable = admissible;
  full_ = std::make_shared<const core::HolisticResult>(std::move(r));
  return *full_;
}

WhatIfResult WhatIfResult::from_full(bool admissible,
                                     core::HolisticResult full) {
  WhatIfResult out;
  out.admissible = admissible;
  out.converged_ = full.converged;
  out.sweeps_ = full.sweeps;
  out.total_flows_ = full.flows.size();
  out.full_ = std::make_shared<const core::HolisticResult>(std::move(full));
  return out;
}

WhatIfResult WhatIfResult::candidate_only(bool admissible, bool converged,
                                          int sweeps, std::size_t flow_count,
                                          core::FlowResult candidate) {
  if (flow_count == 0) {
    throw std::logic_error("candidate-only what-if result needs a candidate");
  }
  WhatIfResult out = verdict_only(admissible, converged, sweeps, flow_count);
  out.candidate_ = std::move(candidate);
  out.payload_ = Payload::kCandidate;
  return out;
}

WhatIfResult WhatIfResult::verdict_only(bool admissible, bool converged,
                                        int sweeps, std::size_t flow_count) {
  WhatIfResult out;
  out.admissible = admissible;
  out.converged_ = converged;
  out.sweeps_ = sweeps;
  out.total_flows_ = flow_count;
  out.payload_ = Payload::kNone;
  return out;
}

// ---------------------------------------------------------------- probes --

EngineSnapshot::Probe EngineSnapshot::run_cold_probe(
    const gmf::Flow& candidate) const {
  // Some component never converged: there is no fixed point to warm-start
  // from, so run the whole set + candidate cold, in global order —
  // bit-identical to the from-scratch analysis.
  Probe p(core::AnalysisContext::empty_clone(*empty_ctx_));
  p.rs.ran = true;
  p.base_converged = false;
  p.rs.full = true;
  for (std::size_t g = 0; g < locs_.size(); ++g) {
    const FlowLoc& loc = locs_[g];
    p.ctx.adopt_flow_deferred(*shards_[loc.shard].ctx,
                              net::FlowId(static_cast<std::int32_t>(loc.local)));
    p.to_global.push_back(net::FlowId(static_cast<std::int32_t>(g)));
  }
  p.ctx.recompute_all_aggregates();
  p.ctx.add_flow(candidate);
  p.to_global.push_back(net::FlowId(static_cast<std::int32_t>(locs_.size())));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    p.touched.push_back(static_cast<std::uint32_t>(s));
  }
  p.local = core::solve_holistic(p.ctx, core::SolveRequest{}, opts_);
  p.rs.sweeps = static_cast<std::size_t>(p.local.sweeps);
  p.dirty.assign(p.ctx.flow_count(), true);
  return p;
}

EngineSnapshot::Probe EngineSnapshot::run_probe(
    const gmf::Flow& candidate) const {
  // Surface malformed candidates before any assembly work.
  candidate.validate(network());

  for (const ShardView& s : shards_) {
    if (!s.result || !s.result->converged) return run_cold_probe(candidate);
  }

  // The shards the candidate's route links already belong to; the probe
  // world is exactly their union + the candidate.
  std::vector<std::uint32_t> touched;
  if (!sharded_ && !shards_.empty()) {
    touched.push_back(0);
  } else {
    for (const net::LinkRef l : candidate.route().links()) {
      const auto it = link_shard_.find(l);
      if (it != link_shard_.end()) touched.push_back(it->second);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }

  // Assemble the residents-only base in the canonical global-id order (see
  // merge_order): the Gauss-Seidel sweep order inside the probed component
  // — and every per-link flow list, floating-point aggregate and envelope
  // merge — matches the one-context engine exactly.
  const std::vector<MergeEnt> srcs = merge_order(
      touched, [this](std::uint32_t part) -> const std::vector<net::FlowId>& {
        return shards_[part].to_global;
      });
  const auto assemble = [&]() -> core::AnalysisContext {
    // Single touched domain (the common case): one context copy.
    if (touched.size() == 1) return *shards_[touched.front()].ctx;
    core::AnalysisContext base =
        core::AnalysisContext::empty_clone(*empty_ctx_);
    // Bulk adoption: register every flow, then recompute each link's
    // aggregates once — O(flows) aggregate work instead of the per-adopt
    // quadratic, bit-identical (the recompute sums from scratch in flow-id
    // order, exactly like add_flows).
    for (const MergeEnt& m : srcs) {
      base.adopt_flow_deferred(*shards_[m.shard].ctx,
                               net::FlowId(static_cast<std::int32_t>(m.local)));
    }
    base.recompute_all_aggregates();
    return base;
  };
  Probe p(assemble());
  p.rs.ran = true;
  p.touched = std::move(touched);

  // Warm start: every resident sits at its shard's converged fixed point;
  // only the candidate (and transitively its component) is dirty.
  core::JitterMap start;
  p.to_global.reserve(srcs.size() + 1);
  for (std::size_t pos = 0; pos < srcs.size(); ++pos) {
    const MergeEnt& m = srcs[pos];
    start.adopt_flow(shards_[m.shard].result->jitters,
                     net::FlowId(static_cast<std::int32_t>(m.local)),
                     net::FlowId(static_cast<std::int32_t>(pos)));
    p.to_global.push_back(m.global);
  }
  const std::size_t residents = p.ctx.flow_count();
  const net::FlowId cand_local = p.ctx.add_flow(candidate);
  p.to_global.push_back(net::FlowId(static_cast<std::int32_t>(locs_.size())));
  seed_source_jitters(p.ctx, cand_local, start);

  p.dirty = dirty_closure(p.ctx, std::vector<bool>(p.ctx.flow_count(), false),
                          {}, residents);

  core::IncrementalStats is;
  core::SolveRequest req;
  req.dirty = &p.dirty;
  req.start = core::WarmStartView(start);
  p.local = core::solve_holistic(p.ctx, req, opts_, &is);
  p.rs.flow_analyses = is.flow_analyses;
  p.rs.sweeps = is.sweeps;
  for (std::size_t pos = 0; pos < residents; ++pos) {
    if (!p.dirty[pos]) ++p.rs.flow_results_reused;
  }
  return p;
}

void EngineSnapshot::complete_local(Probe& p) const {
  for (std::size_t f = 0; f < p.to_global.size(); ++f) {
    if (p.dirty[f]) continue;
    const FlowLoc& loc = locs_[static_cast<std::size_t>(p.to_global[f].v)];
    p.local.flows[f] = shards_[loc.shard].result->flows[loc.local];
  }
  finalize_schedulable(p.local);
}

bool EngineSnapshot::probe_admissible(const Probe& p) const {
  if (!p.base_converged) return p.local.schedulable;
  if (!p.local.converged) return false;
  // Untouched shards keep their published verdicts; p.touched is ascending,
  // so one two-pointer sweep covers all shards.
  std::size_t t = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (t < p.touched.size() &&
        p.touched[t] == static_cast<std::uint32_t>(s)) {
      ++t;
      continue;
    }
    if (!shards_[s].result->schedulable) return false;
  }
  // The probed component: dirty flows from the probe's solve, clean flows
  // from their shard's committed result — flag reads only, no copies.  The
  // candidate (last, always dirty) takes the first branch.
  for (std::size_t f = 0; f < p.to_global.size(); ++f) {
    if (p.dirty[f]) {
      if (!p.local.flows[f].schedulable()) return false;
    } else {
      const FlowLoc& loc = locs_[static_cast<std::size_t>(p.to_global[f].v)];
      if (!shards_[loc.shard].result->flows[loc.local].schedulable()) {
        return false;
      }
    }
  }
  return true;
}

WhatIfResult EngineSnapshot::finish_probe(Probe&& p) const {
  const bool admissible = probe_admissible(p);
  if (!p.base_converged) {
    // The cold whole-set run is already the full result in global order.
    return WhatIfResult::from_full(admissible, std::move(p.local));
  }
  WhatIfResult out;
  out.admissible = admissible;
  out.base_ = global_;
  out.converged_ = p.local.converged;
  out.sweeps_ = p.local.sweeps;
  out.local_ = std::move(p.local);
  out.to_global_ = std::move(p.to_global);
  out.dirty_ = std::move(p.dirty);
  out.total_flows_ = locs_.size() + 1;
  return out;
}

WhatIfResult EngineSnapshot::what_if(const gmf::Flow& candidate) const {
  return finish_probe(run_probe(candidate));
}

WhatIfResult EngineSnapshot::what_if(const gmf::Flow& candidate,
                                     ProbeScratch& /*scratch*/) const {
  return what_if(candidate);
}

}  // namespace gmfnet::engine
