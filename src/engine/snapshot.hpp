// EngineSnapshot: an immutable, published view of the engine's committed
// world — every shard's context and converged fixed point, the global flow
// index, and the assembled whole-set result.
//
// RCU-style concurrency: the writer thread publishes a new snapshot (one
// atomic shared_ptr swap) after every committed mutation; reader threads
// load the pointer and run what-if probes against the snapshot with no
// locking whatsoever — every byte reachable from a snapshot is immutable,
// all shared state is either const or copy-on-write (a probe's writes
// clone before touching anything shared), so N operator threads issue
// concurrent what-ifs while the writer keeps admitting.  A reader's view
// is consistent-but-possibly-stale: it sees the resident set as of the
// last publication, never a half-applied mutation.
//
// A probe touches only the shards the candidate's route links belong to:
// it assembles a fresh probe context from those shards (one context copy
// for a single touched domain, a bulk merge in canonical order for
// several), warm-starts from their converged jitters, and solves just the
// candidate's dirty component.  The context is dropped when the probe
// returns, or handed to the engine's commit path when the probe is an
// admission; nothing is cached between probes.  Results are bit-identical
// to a from-scratch whole-set analysis (tests/test_engine_shard.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/holistic.hpp"
#include "engine/shard.hpp"
#include "gmf/flow.hpp"
#include "net/network.hpp"

namespace gmfnet::engine {

class AnalysisEngine;
class EngineSnapshot;

/// Empty compatibility type for the two-argument what_if overload; gmfbench
/// is its only caller.
class ProbeScratch {};

/// Outcome of one non-committing what-if admission probe.
///
/// Copy-free by construction: instead of materializing the full-set
/// HolisticResult per probe (a deep copy of every resident's FlowResult
/// plus the jitter map), the probe returns the verdict, its component-local
/// solve, and a COW handle to the published global result.  Cheap accessors
/// (worst_response, converged, sweeps) answer directly from those pieces;
/// result() assembles — and caches — the full HolisticResult only when a
/// caller actually wants all of it.
///
/// A value carries one of three payloads.  In-process probes (and
/// from_full) carry the whole world.  The detailed RPC wire form carries
/// the candidate's own FlowResult only (candidate_only): flow_result() and
/// worst_response() answer for the candidate, flow_count() - 1, and throw
/// std::logic_error for any other flow, as result() does.  Verdict-only
/// values carry no per-flow payload at all.  The verdict and the summary
/// accessors (converged, sweeps, flow_count) work on all three.
///
/// Thread safety: a WhatIfResult value is NOT safe to share between
/// threads without synchronization (result() caches lazily); the underlying
/// published state it references is immutable and safely shared.
class WhatIfResult {
 public:
  WhatIfResult() = default;

  /// True when the combined set is schedulable — the admission verdict.
  bool admissible = false;

  /// True when the probe's fixed point converged.
  [[nodiscard]] bool converged() const { return converged_; }
  /// Sweeps the probe's solve executed.
  [[nodiscard]] int sweeps() const { return sweeps_; }
  /// Flows in the probed world (residents + candidate; the candidate is
  /// the last flow id).
  [[nodiscard]] std::size_t flow_count() const { return total_flows_; }

  /// Per-flow result by global flow id, without materializing the full
  /// result: flows in the probe's dirty component come from the probe's
  /// solve, everything else from the shared published state.  Throws
  /// std::logic_error for flows the value carries no result for.
  [[nodiscard]] const core::FlowResult& flow_result(net::FlowId global) const;
  /// Worst end-to-end bound of a flow (Time::max() if it diverged).
  [[nodiscard]] gmfnet::Time worst_response(net::FlowId global) const {
    return flow_result(global).worst_response();
  }

  /// Full holistic result of resident set + candidate, bit-identical to a
  /// from-scratch run.  Materialized on first call and cached; prefer the
  /// accessors above on hot paths.  Throws std::logic_error unless the
  /// value carries the whole world.
  [[nodiscard]] const core::HolisticResult& result() const;

  /// Wraps an already-complete result (cold whole-set runs).
  [[nodiscard]] static WhatIfResult from_full(bool admissible,
                                              core::HolisticResult full);

  /// The detailed wire form: the verdict, the summary accessors and the
  /// candidate's own FlowResult (flow id flow_count - 1, so flow_count
  /// must be at least 1).  O(candidate) to ship, where the whole world
  /// is O(residents).
  [[nodiscard]] static WhatIfResult candidate_only(bool admissible,
                                                   bool converged, int sweeps,
                                                   std::size_t flow_count,
                                                   core::FlowResult candidate);

  /// A verdict-only value: carries the admission verdict and the summary
  /// accessors (converged, sweeps, flow_count) but no per-flow payload —
  /// flow_result()/result() throw std::logic_error.  The wire form for
  /// probes that asked for verdicts only (WhatIfBatchRequest.verdict_only).
  [[nodiscard]] static WhatIfResult verdict_only(bool admissible,
                                                bool converged, int sweeps,
                                                std::size_t flow_count);

  /// False for verdict-only values; true when at least the candidate's
  /// FlowResult is carried.
  [[nodiscard]] bool detailed() const { return payload_ != Payload::kNone; }

 private:
  friend class EngineSnapshot;

  /// Which per-flow results the value carries (see the class comment).
  enum class Payload : std::uint8_t { kWorld, kCandidate, kNone };

  /// Published global result the untouched flows are shared from (null for
  /// default-constructed and from_full values).
  std::shared_ptr<const core::HolisticResult> base_;
  /// The probe's component-local solve (probe-local flow ids).
  core::HolisticResult local_;
  /// Probe-local id -> global id, ascending (candidate last).
  std::vector<net::FlowId> to_global_;
  /// Probe-local dirty flags (true for the candidate's component).
  std::vector<bool> dirty_;
  std::size_t total_flows_ = 0;
  bool converged_ = false;
  int sweeps_ = 0;
  /// Lazily materialized full result (result() cache; set eagerly by
  /// from_full).
  mutable std::shared_ptr<const core::HolisticResult> full_;
  /// The candidate's result of a candidate-only value.
  core::FlowResult candidate_;
  Payload payload_ = Payload::kWorld;
};

class EngineSnapshot {
 public:
  [[nodiscard]] std::size_t flow_count() const { return locs_.size(); }
  [[nodiscard]] const gmf::Flow& flow(std::size_t index) const;
  /// The resident flows in global order (copies; for verification code).
  [[nodiscard]] std::vector<gmf::Flow> flows() const;
  /// Assembled whole-set result as of publication.
  [[nodiscard]] const core::HolisticResult& result() const { return *global_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Which shard (by position) the flow at `index` lives in.  Throws
  /// std::out_of_range on a bad index.
  [[nodiscard]] std::size_t shard_of(std::size_t index) const {
    return locs_.at(index).shard;
  }
  [[nodiscard]] const net::Network& network() const {
    return empty_ctx_->network();
  }

  /// Lock-free what-if probe: the verdict for resident set + `candidate`
  /// (candidate is the last flow id), bit-identical to a from-scratch run,
  /// computed against this snapshot without touching the engine.  Safe to
  /// call from any number of threads concurrently.  Throws std::logic_error
  /// on malformed candidates.
  [[nodiscard]] WhatIfResult what_if(const gmf::Flow& candidate) const;

  /// Forwards to what_if(candidate); gmfbench is its only caller.
  [[nodiscard]] WhatIfResult what_if(const gmf::Flow& candidate,
                                     ProbeScratch& scratch) const;

 private:
  friend class AnalysisEngine;

  EngineSnapshot() = default;

  /// One shard's committed state (shared with the engine's Shard).
  struct ShardView {
    std::shared_ptr<const core::AnalysisContext> ctx;
    std::shared_ptr<const core::HolisticResult> result;
    std::vector<net::FlowId> to_global;
  };

  /// Everything a probe computed, in probe-local flow ids — enough for the
  /// engine to commit the probe as a merged shard without re-solving.
  struct Probe {
    explicit Probe(core::AnalysisContext c) : ctx(std::move(c)) {}

    /// Touched shards' flows (global-id order) + candidate last.
    core::AnalysisContext ctx;
    /// The probe's solve.  Dirty flows hold fresh results; clean entries
    /// stay default-constructed until complete_local fills them in — the
    /// schedulable verdict reads clean flows from their shards instead.
    core::HolisticResult local;
    /// Probe-local id -> global id (candidate maps to flow_count()).
    std::vector<net::FlowId> to_global;
    /// Snapshot shard indices the candidate's route touched (ascending).
    std::vector<std::uint32_t> touched;
    /// Probe-local dirty closure (true for the candidate's component).
    std::vector<bool> dirty;
    /// False when some shard's base was not converged: `local` is then a
    /// cold whole-set run in global order and `touched` covers every shard.
    bool base_converged = true;
    RunStats rs;
  };

  /// Runs the probe: assembles the touched shards' residents + the
  /// candidate into a fresh context and solves the candidate's dirty
  /// component, warm-started from the shards' converged fixed points.
  [[nodiscard]] Probe run_probe(const gmf::Flow& candidate) const;
  /// Cold whole-set + candidate run in global order, for snapshots with a
  /// diverged shard (no fixed point to warm-start from).
  [[nodiscard]] Probe run_cold_probe(const gmf::Flow& candidate) const;
  /// The admission verdict of a finished probe (converged, every untouched
  /// shard schedulable, probed component schedulable).
  [[nodiscard]] bool probe_admissible(const Probe& p) const;
  /// Fills the clean flows of `p.local` with their shards' committed
  /// results and finalizes its verdict — the commit path installs the probe
  /// as a shard, so its result must be complete.
  void complete_local(Probe& p) const;
  /// Wraps a finished probe into the copy-free WhatIfResult.
  [[nodiscard]] WhatIfResult finish_probe(Probe&& probe) const;

  /// Template context sharing the network + CIRC table (cheap empty clone).
  std::shared_ptr<const core::AnalysisContext> empty_ctx_;
  core::HolisticOptions opts_;
  /// False = single-domain mode: probes always touch every shard.
  bool sharded_ = true;
  std::vector<ShardView> shards_;
  std::vector<FlowLoc> locs_;
  /// Directed link -> owning shard (links with at least one resident flow).
  std::map<net::LinkRef, std::uint32_t> link_shard_;
  std::shared_ptr<const core::HolisticResult> global_;
};

}  // namespace gmfnet::engine
