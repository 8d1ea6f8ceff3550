#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <thread>
#include <utility>

namespace gmfnet::engine {

AnalysisEngine::AnalysisEngine(net::Network network, core::HolisticOptions opts,
                               bool shard_by_domain)
    : empty_ctx_(std::make_shared<const core::AnalysisContext>(
          std::move(network))),
      opts_(opts),
      shard_by_domain_(shard_by_domain) {
  assemble_and_publish();  // publish the (empty) world
}

const gmf::Flow& AnalysisEngine::flow(std::size_t index) const {
  const FlowLoc& loc = locs_.at(index);
  return shards_[loc.shard].ctx->flow(
      net::FlowId(static_cast<std::int32_t>(loc.local)));
}

EngineStats AnalysisEngine::stats() const {
  EngineStats out;
  out.evaluations = stats_.evaluations.v.load(std::memory_order_relaxed);
  out.full_runs = stats_.full_runs.v.load(std::memory_order_relaxed);
  out.incremental_runs =
      stats_.incremental_runs.v.load(std::memory_order_relaxed);
  out.flow_analyses = stats_.flow_analyses.v.load(std::memory_order_relaxed);
  out.flow_results_reused =
      stats_.flow_results_reused.v.load(std::memory_order_relaxed);
  out.sweeps = stats_.sweeps.v.load(std::memory_order_relaxed);
  return out;
}

void AnalysisEngine::reset_stats() {
  stats_.evaluations.v.store(0, std::memory_order_relaxed);
  stats_.full_runs.v.store(0, std::memory_order_relaxed);
  stats_.incremental_runs.v.store(0, std::memory_order_relaxed);
  stats_.flow_analyses.v.store(0, std::memory_order_relaxed);
  stats_.flow_results_reused.v.store(0, std::memory_order_relaxed);
  stats_.sweeps.v.store(0, std::memory_order_relaxed);
}

void AnalysisEngine::record_run(const RunStats& rs) {
  if (!rs.ran) return;
  stats_.evaluations.v.fetch_add(1, std::memory_order_relaxed);
  if (rs.full) {
    stats_.full_runs.v.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.incremental_runs.v.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.flow_analyses.v.fetch_add(rs.flow_analyses,
                                   std::memory_order_relaxed);
  stats_.flow_results_reused.v.fetch_add(rs.flow_results_reused,
                                         std::memory_order_relaxed);
  stats_.sweeps.v.fetch_add(rs.sweeps, std::memory_order_relaxed);
}

std::vector<std::uint32_t> AnalysisEngine::touched_shards(
    const std::vector<net::LinkRef>& links) const {
  std::vector<std::uint32_t> out;
  if (!shard_by_domain_) {
    // Single-domain mode: everything lives in shard 0.
    for (std::uint32_t i = 0; i < shards_.size(); ++i) out.push_back(i);
    return out;
  }
  for (const net::LinkRef l : links) {
    const auto it = link_shard_.find(l);
    if (it != link_shard_.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint32_t AnalysisEngine::merge_shards(
    const std::vector<std::uint32_t>& parts) {
  Shard merged;
  core::AnalysisContext ctx = core::AnalysisContext::empty_clone(*empty_ctx_);

  // The merged cache keeps every part's warm state: flows a part's
  // converged cache covers are adopted at their (unchanged) fixed point;
  // uncovered flows — parts never solved, or flows added since a part's
  // last solve — get a padded entry seeded with the holistic initial state
  // and their route links dirtied, so the next run restarts exactly them
  // (plus closure) instead of the whole merged domain going cold.  A part
  // whose cache exists but did not converge invalidates the merge (its
  // entries are mid-iteration): the merged shard then solves cold, the same
  // as the pre-shard engine's invalid cache.
  bool converged = true;
  bool sched = true;
  for (const std::uint32_t pi : parts) {
    if (shards_[pi].cache) {
      converged &= shards_[pi].cache->converged;
      sched &= shards_[pi].cache->schedulable;
    }
  }

  // Merge in the canonical global-id order (see merge_order): the
  // Gauss-Seidel sweep order inside a merged component matches the
  // one-context engine's exactly.
  const std::vector<MergeEnt> ents = merge_order(
      parts, [this](std::uint32_t part) -> const std::vector<net::FlowId>& {
        return shards_[part].to_global;
      });

  core::HolisticResult cache;
  cache.converged = converged;
  cache.schedulable = sched;
  std::vector<std::size_t> uncovered;
  for (std::size_t pos = 0; pos < ents.size(); ++pos) {
    const MergeEnt& e = ents[pos];
    const Shard& part = shards_[e.shard];
    ctx.adopt_flow_deferred(*part.ctx,
                            net::FlowId(static_cast<std::int32_t>(e.local)));
    merged.to_global.push_back(e.global);
    if (part.cache_valid() && e.local < part.cache->flows.size()) {
      cache.flows.push_back(part.cache->flows[e.local]);
      cache.jitters.adopt_flow(part.cache->jitters,
                               net::FlowId(static_cast<std::int32_t>(e.local)),
                               net::FlowId(static_cast<std::int32_t>(pos)));
    } else {
      cache.flows.emplace_back();
      uncovered.push_back(pos);
    }
  }
  // All parts registered: one aggregate pass per link (see
  // adopt_flow_deferred), bit-identical to per-adopt recomputation.
  ctx.recompute_all_aggregates();
  // With no covered flow at all there is no warm state to keep: leave the
  // cache null so the run goes (and is counted) cold.
  const bool any_covered = uncovered.size() < ents.size();
  if (any_covered) {
    for (const std::size_t pos : uncovered) {
      const net::FlowId local(static_cast<std::int32_t>(pos));
      seed_source_jitters(ctx, local, cache.jitters);
      for (const net::LinkRef l : ctx.route_links(local)) {
        merged.dirty_links.insert(l);
      }
    }
  }
  for (const std::uint32_t pi : parts) {
    Shard& part = shards_[pi];
    if (part.cache) {
      cache.sweeps = std::max(cache.sweeps, part.cache->sweeps);
    }
    merged.dirty_links.insert(part.dirty_links.begin(),
                              part.dirty_links.end());
    merged.removal_pending |= part.removal_pending;
  }
  merged.ctx = std::make_shared<const core::AnalysisContext>(std::move(ctx));
  if (any_covered) {
    merged.cache =
        std::make_shared<const core::HolisticResult>(std::move(cache));
  }

  // parts is ascending: erase back-to-front so indices stay valid, then
  // renumber the survivors and index the merged shard that absorbed the
  // erased parts' flows and links.
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  renumber_shards(parts);
  shards_.push_back(std::move(merged));
  const auto merged_idx = static_cast<std::uint32_t>(shards_.size() - 1);
  index_shard(merged_idx);
  return merged_idx;
}

bool AnalysisEngine::split_if_disconnected(std::uint32_t idx) {
  Shard& s = shards_[idx];
  const core::AnalysisContext& ctx = *s.ctx;
  const std::size_t n = ctx.flow_count();
  if (n <= 1) return false;

  // Union-find (path halving) over local flow ids via shared links.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  for (std::size_t f = 0; f < n; ++f) {
    for (const net::LinkRef l :
         ctx.route_links(net::FlowId(static_cast<std::int32_t>(f)))) {
      for (const net::FlowId j : ctx.flows_on_link(l)) {
        unite(static_cast<std::uint32_t>(f),
              static_cast<std::uint32_t>(j.v));
      }
    }
  }

  // Components in first-appearance (local id) order: each part's flows keep
  // their relative local order, preserving per-link flow order.
  std::vector<std::vector<std::uint32_t>> members;
  std::map<std::uint32_t, std::size_t> comp_of_root;
  for (std::size_t f = 0; f < n; ++f) {
    const std::uint32_t r = find(static_cast<std::uint32_t>(f));
    const auto it = comp_of_root.find(r);
    if (it == comp_of_root.end()) {
      comp_of_root.emplace(r, members.size());
      members.push_back({static_cast<std::uint32_t>(f)});
    } else {
      members[it->second].push_back(static_cast<std::uint32_t>(f));
    }
  }
  if (members.size() <= 1) return false;

  const bool cache_full =
      s.cache && s.cache->converged && s.cache->flows.size() == n;
  std::vector<Shard> parts;
  parts.reserve(members.size());
  for (const std::vector<std::uint32_t>& m : members) {
    Shard part;
    core::AnalysisContext pctx = core::AnalysisContext::empty_clone(*empty_ctx_);
    for (const std::uint32_t f : m) {
      pctx.adopt_flow_deferred(ctx, net::FlowId(static_cast<std::int32_t>(f)));
      part.to_global.push_back(s.to_global[f]);
    }
    pctx.recompute_all_aggregates();
    if (cache_full) {
      // The parent fixed point restricted to a disconnected component is
      // exactly that component's fixed point.
      core::HolisticResult c;
      c.converged = true;
      c.sweeps = s.cache->sweeps;
      bool sched = true;
      for (std::size_t k = 0; k < m.size(); ++k) {
        c.flows.push_back(s.cache->flows[m[k]]);
        c.jitters.adopt_flow(s.cache->jitters,
                             net::FlowId(static_cast<std::int32_t>(m[k])),
                             net::FlowId(static_cast<std::int32_t>(k)));
        sched &= c.flows.back().schedulable();
      }
      c.schedulable = sched;
      part.cache = std::make_shared<const core::HolisticResult>(std::move(c));
    }
    for (std::size_t k = 0; k < m.size(); ++k) {
      for (const net::LinkRef l :
           pctx.route_links(net::FlowId(static_cast<std::int32_t>(k)))) {
        if (s.dirty_links.count(l) != 0) part.dirty_links.insert(l);
      }
    }
    part.removal_pending = s.removal_pending && !part.dirty_links.empty();
    part.ctx = std::make_shared<const core::AnalysisContext>(std::move(pctx));
    parts.push_back(std::move(part));
  }
  shards_[idx] = std::move(parts.front());
  for (std::size_t k = 1; k < parts.size(); ++k) {
    shards_.push_back(std::move(parts[k]));
  }
  return true;
}

void AnalysisEngine::index_shard(std::uint32_t sid) {
  const Shard& s = shards_[sid];
  for (std::uint32_t l = 0; l < s.to_global.size(); ++l) {
    locs_[static_cast<std::size_t>(s.to_global[l].v)] = FlowLoc{sid, l};
    for (const net::LinkRef link :
         s.ctx->route_links(net::FlowId(static_cast<std::int32_t>(l)))) {
      link_shard_[link] = sid;
    }
  }
}

void AnalysisEngine::renumber_shards(const std::vector<std::uint32_t>& erased) {
  // remap[old position] -> new position after the erasures.
  const std::size_t old_count = shards_.size() + erased.size();
  std::vector<std::uint32_t> remap(old_count, 0);
  std::size_t gone = 0;
  for (std::uint32_t i = 0; i < old_count; ++i) {
    if (gone < erased.size() && erased[gone] == i) {
      ++gone;  // remap stays 0; the caller re-indexes the absorbing shard
    } else {
      remap[i] = i - static_cast<std::uint32_t>(gone);
    }
  }
  for (FlowLoc& fl : locs_) fl.shard = remap[fl.shard];
  for (auto& [link, sid] : link_shard_) sid = remap[sid];
}

net::FlowId AnalysisEngine::add_flow(gmf::Flow flow) {
  flow.validate(network());
  const net::FlowId global(static_cast<std::int32_t>(locs_.size()));

  const std::vector<std::uint32_t> touched =
      touched_shards(flow.route().links());
  std::uint32_t target;
  if (touched.empty()) {
    target = static_cast<std::uint32_t>(shards_.size());
    Shard fresh;
    fresh.ctx = std::make_shared<const core::AnalysisContext>(
        core::AnalysisContext::empty_clone(*empty_ctx_));
    shards_.push_back(std::move(fresh));
  } else if (touched.size() == 1) {
    target = touched.front();
  } else {
    // The new flow bridges several domains: union them first.
    target = merge_shards(touched);
  }

  Shard& s = shards_[target];
  core::AnalysisContext work = *s.ctx;
  const net::FlowId local = work.add_flow(std::move(flow));
  for (const net::LinkRef l : work.route_links(local)) {
    s.dirty_links.insert(l);
    link_shard_[l] = target;
  }
  s.ctx = std::make_shared<const core::AnalysisContext>(std::move(work));
  s.to_global.push_back(global);
  locs_.push_back(FlowLoc{target, static_cast<std::uint32_t>(local.v)});
  global_ = nullptr;
  lean_snap_.reset();
  return global;
}

bool AnalysisEngine::remove_flow(std::size_t index) {
  if (index >= locs_.size()) return false;
  const FlowLoc loc = locs_[index];
  Shard& s = shards_[loc.shard];
  const net::FlowId local(static_cast<std::int32_t>(loc.local));
  const std::vector<net::LinkRef> touched_links = s.ctx->route_links(local);

  core::AnalysisContext work = *s.ctx;
  work.remove_flow(loc.local);
  s.ctx = std::make_shared<const core::AnalysisContext>(std::move(work));
  s.to_global.erase(s.to_global.begin() +
                    static_cast<std::ptrdiff_t>(loc.local));
  if (s.cache && loc.local < s.cache->flows.size()) {
    // Keep the cache parallel to the shifted local ids; the surviving
    // entries remain the converged state of their (clean) components.
    core::HolisticResult c = *s.cache;
    c.flows.erase(c.flows.begin() + static_cast<std::ptrdiff_t>(loc.local));
    c.jitters.erase_flow(local);
    s.cache = std::make_shared<const core::HolisticResult>(std::move(c));
  }
  for (const net::LinkRef l : touched_links) s.dirty_links.insert(l);
  s.removal_pending = true;

  // Global ids above the removed one shift down by one, in every shard —
  // flat integer passes (forced by the index-shifting removal contract);
  // all structural rework stays domain-local.
  for (Shard& sh : shards_) {
    for (net::FlowId& g : sh.to_global) {
      if (static_cast<std::size_t>(g.v) > index) g = net::FlowId(g.v - 1);
    }
  }
  locs_.erase(locs_.begin() + static_cast<std::ptrdiff_t>(index));

  // Links that lost their last flow leave the link->shard map.
  for (const net::LinkRef l : touched_links) {
    if (s.ctx->flows_on_link(l).empty()) link_shard_.erase(l);
  }

  if (s.flow_count() == 0) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(loc.shard));
    renumber_shards({loc.shard});
  } else {
    // Locals above the removed one shifted down within the shard.
    for (std::uint32_t l = loc.local;
         l < shards_[loc.shard].to_global.size(); ++l) {
      locs_[static_cast<std::size_t>(shards_[loc.shard].to_global[l].v)] =
          FlowLoc{loc.shard, l};
    }
    if (shard_by_domain_) {
      // Rebuild-on-remove: the removal may have disconnected the domain.
      const std::size_t before_split = shards_.size();
      if (split_if_disconnected(loc.shard)) {
        index_shard(loc.shard);
        for (auto k = static_cast<std::uint32_t>(before_split);
             k < shards_.size(); ++k) {
          index_shard(k);
        }
      }
    }
  }
  global_ = nullptr;
  lean_snap_.reset();
  return true;
}

void AnalysisEngine::ensure_pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>();
}

void AnalysisEngine::assemble_and_publish() {
  core::HolisticResult g;
  g.converged = true;
  g.sweeps = 0;
  g.flows.resize(locs_.size());
  bool sched = true;
  for (const Shard& s : shards_) {
    // Every shard holds a result here: evaluate() solves all dirty shards
    // before assembling, and a run always installs one (even diverged).
    g.converged &= s.cache->converged;
    sched &= s.cache->schedulable;
    g.sweeps = std::max(g.sweeps, s.cache->sweeps);
    for (std::size_t l = 0; l < s.to_global.size(); ++l) {
      const auto gid = static_cast<std::size_t>(s.to_global[l].v);
      g.flows[gid] = s.cache->flows[l];
      g.jitters.adopt_flow(s.cache->jitters,
                           net::FlowId(static_cast<std::int32_t>(l)),
                           net::FlowId(static_cast<std::int32_t>(gid)));
    }
  }
  g.schedulable = g.converged && sched;
  global_ = std::make_shared<const core::HolisticResult>(std::move(g));
  std::atomic_store(&published_, build_snapshot());
  lean_snap_.reset();
}

std::shared_ptr<const EngineSnapshot> AnalysisEngine::build_snapshot() const {
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->empty_ctx_ = empty_ctx_;
  snap->opts_ = opts_;
  snap->sharded_ = shard_by_domain_;
  snap->shards_.reserve(shards_.size());
  for (const Shard& s : shards_) {
    snap->shards_.push_back(
        EngineSnapshot::ShardView{s.ctx, s.cache, s.to_global});
  }
  snap->locs_ = locs_;
  snap->link_shard_ = link_shard_;
  snap->global_ = global_;
  return snap;
}

bool AnalysisEngine::solve_dirty() {
  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].needs_run()) dirty.push_back(i);
  }
  if (dirty.empty()) return false;

  std::vector<RunStats> rs(dirty.size());
  if (dirty.size() > 1 && std::thread::hardware_concurrency() > 1) {
    // Independent domains: fan the dirty shards over the pool.  Shard runs
    // are Gauss-Seidel (no nested pools) and touch disjoint state.
    ensure_pool();
    pool_->parallel_for(dirty.size(), [&](std::size_t k) {
      rs[k] = shards_[dirty[k]].run(opts_);
    });
  } else {
    // One dirty shard — or one hardware thread: the pool round trip buys
    // nothing, solve inline on the writer thread.
    for (std::size_t k = 0; k < dirty.size(); ++k) {
      rs[k] = shards_[dirty[k]].run(opts_);
    }
  }
  for (const RunStats& r : rs) record_run(r);

  // Flows of untouched shards are adopted verbatim at assembly.
  std::size_t run_flows = 0;
  for (const std::size_t i : dirty) run_flows += shards_[i].flow_count();
  stats_.flow_results_reused.v.fetch_add(locs_.size() - run_flows,
                                         std::memory_order_relaxed);

  // A run installs fresh shard caches: any lean snapshot's ShardViews now
  // point at stale state.
  lean_snap_.reset();
  return true;
}

const core::HolisticResult& AnalysisEngine::evaluate() {
  const bool ran = solve_dirty();
  if (!ran && global_ != nullptr) return *global_;
  assemble_and_publish();
  return *global_;
}

std::shared_ptr<const EngineSnapshot> AnalysisEngine::snapshot() {
  (void)evaluate();
  return published();
}

WhatIfResult AnalysisEngine::what_if(const gmf::Flow& candidate) {
  (void)evaluate();
  const std::shared_ptr<const EngineSnapshot> snap = published();
  EngineSnapshot::Probe probe = snap->run_probe(candidate);
  // Untouched shards' flows enter the full result verbatim: count them as
  // reused alongside the clean flows of the probed component.
  probe.rs.flow_results_reused += flow_count() + 1 - probe.to_global.size();
  record_run(probe.rs);
  return snap->finish_probe(std::move(probe));
}

std::optional<core::HolisticResult> AnalysisEngine::try_admit(
    gmf::Flow candidate) {
  (void)evaluate();
  if (!try_admit_lean(candidate)) return std::nullopt;
  return evaluate();
}

const core::FlowResult* AnalysisEngine::try_admit_lean(
    const gmf::Flow& candidate) {
  // With no commit pending (global result current) the published snapshot
  // is the current state: probe it and build nothing.  Otherwise converge
  // the pending state and probe a writer-private snapshot of it, reused
  // until the next mutation.
  std::shared_ptr<const EngineSnapshot> snap;
  if (global_ != nullptr) {
    snap = published();
  } else {
    (void)solve_dirty();
    if (!lean_snap_) lean_snap_ = build_snapshot();
    snap = lean_snap_;
  }
  EngineSnapshot::Probe probe = snap->run_probe(candidate);
  // Untouched shards' flows enter the full result verbatim: count them as
  // reused alongside the clean flows of the probed component.
  probe.rs.flow_results_reused += flow_count() + 1 - probe.to_global.size();
  record_run(probe.rs);
  if (!snap->probe_admissible(probe)) return nullptr;
  // An accepted probe is committed wholesale as a merged shard: its context
  // already holds the candidate, its result needs the clean flows.
  snap->complete_local(probe);
  commit_probe(std::move(probe));
  // The committed shard is converged and holds the candidate last.
  return &shards_.back().cache->flows.back();
}

void AnalysisEngine::commit_probe(EngineSnapshot::Probe probe) {
  assert(probe.base_converged);
  Shard merged;
  merged.to_global = std::move(probe.to_global);
  merged.ctx =
      std::make_shared<const core::AnalysisContext>(std::move(probe.ctx));
  merged.cache =
      std::make_shared<const core::HolisticResult>(std::move(probe.local));
  // probe.touched is ascending: erase back-to-front, renumber survivors,
  // then index the committed shard (which includes the new candidate, so
  // locs_ grows by one first).
  for (auto it = probe.touched.rbegin(); it != probe.touched.rend(); ++it) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  renumber_shards(probe.touched);
  locs_.push_back(FlowLoc{});
  shards_.push_back(std::move(merged));
  index_shard(static_cast<std::uint32_t>(shards_.size() - 1));
  // The next evaluate() assembles and publishes: the committed shard is
  // converged, so it re-solves nothing.
  global_ = nullptr;
  lean_snap_.reset();
}

std::vector<WhatIfResult> AnalysisEngine::evaluate_batch(
    const std::vector<gmf::Flow>& candidates) {
  (void)evaluate();
  std::vector<WhatIfResult> out(candidates.size());
  if (candidates.empty()) return out;

  // Surface validation errors to the caller before any analysis runs.
  for (const gmf::Flow& c : candidates) c.validate(network());

  const std::shared_ptr<const EngineSnapshot> snap = published();
  ensure_pool();
  pool_->parallel_for(candidates.size(), [&](std::size_t i) {
    EngineSnapshot::Probe probe = snap->run_probe(candidates[i]);
    probe.rs.flow_results_reused +=
        snap->flow_count() + 1 - probe.to_global.size();
    record_run(probe.rs);
    out[i] = snap->finish_probe(std::move(probe));
  });
  return out;
}

}  // namespace gmfnet::engine
