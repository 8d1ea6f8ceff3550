// AnalysisEngine: the long-lived, incremental, sharded admission-control
// core.
//
// The holistic analysis converges to a unique least fixed point per
// link-sharing component, so disjoint locality domains are analytically
// independent.  The engine exploits that twice over:
//
//  * Locality-domain sharding.  The resident set is partitioned into the
//    connected components of the link-sharing graph, maintained
//    incrementally as flows come and go: an add unions the domains its
//    route touches (merging shards when it bridges them), a removal
//    rebuilds the touched shard's partition and splits it when the
//    component fell apart.  Each shard owns its own AnalysisContext, dirty
//    set and warm JitterMap (engine/shard.hpp), so an admission touching
//    one domain re-analyses only that shard — the work is proportional to
//    the touched domain, not the resident count — and a full-set
//    evaluation fans the dirty shards over a thread pool.
//
//  * RCU-style published snapshots.  After every commit group the engine
//    publishes an immutable EngineSnapshot (engine/snapshot.hpp) by
//    a single atomic shared_ptr swap.  Reader threads load the snapshot
//    (`published()`) and run `EngineSnapshot::what_if` probes against it
//    with zero engine locking — all snapshot state is immutable or
//    copy-on-write — so N operator threads issue concurrent what-ifs while
//    the writer thread keeps admitting.  Readers see the world as of the
//    last publication: consistent, possibly one commit group stale.
//
//  * Warm-started fixed point.  Re-analysis seeds the holistic iteration
//    from the previously converged JitterMap instead of zeros.  The sweep
//    operator is monotone and adding a flow only adds interference, so the
//    old fixed point under-approximates the new one and the iteration
//    reaches the *same* least fixed point in near-minimal sweeps (a
//    one-flow delta typically converges in 2).  After a removal the
//    affected component restarts from the initial map (its fixed point may
//    shrink); unaffected components keep their converged state either way.
//
// Results are bit-identical to a from-scratch AnalysisContext +
// analyze_holistic run on the same flow set: both iterations converge to
// the unique least fixed point, per-flow results are pure functions of
// (context, fixed point), and shard-local contexts preserve the global
// per-link flow order, so even the floating-point link aggregates match.
// tests/test_engine_equivalence.cpp and tests/test_engine_shard.cpp check
// this property over randomized scenarios, including concurrent readers.
//
// Threading contract: ONE writer thread drives the mutating API (add_flow,
// remove_flow, evaluate, what_if, try_admit, try_admit_lean,
// evaluate_batch).  Any number of reader threads may concurrently call
// published() / stats() and probe the returned snapshots.  evaluate_batch
// parallelises internally.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/holistic.hpp"
#include "engine/shard.hpp"
#include "engine/snapshot.hpp"
#include "gmf/flow.hpp"
#include "net/network.hpp"
#include "util/thread_pool.hpp"

namespace gmfnet::engine {

/// Instrumentation counters (monotonic since construction or the last
/// reset()).  Materialized from relaxed atomics: safe to read while
/// concurrent probes record, though each counter is only individually
/// consistent mid-flight.  At quiescence `evaluations == full_runs +
/// incremental_runs` (every solver run is exactly one of the two); a read
/// racing a probe's record may transiently see the sum off by the in-flight
/// runs.
struct EngineStats {
  std::size_t evaluations = 0;       ///< solver runs executed (shards+probes)
  std::size_t full_runs = 0;         ///< cold runs (no usable warm cache)
  std::size_t incremental_runs = 0;  ///< warm dirty-component runs
  std::size_t flow_analyses = 0;     ///< per-flow per-sweep analyses run
  std::size_t flow_results_reused = 0;  ///< cached FlowResults reused
  std::size_t sweeps = 0;            ///< total sweeps executed
};

class AnalysisEngine {
 public:
  /// The engine owns warm starting and its parallelism: it fans shards and
  /// batch probes over a pool sized to the hardware concurrency.
  /// `shard_by_domain = false` forces the whole resident set into a single
  /// shard (the pre-shard behaviour; kept for benchmarking the sharded path
  /// against it).
  explicit AnalysisEngine(net::Network network,
                          core::HolisticOptions opts = {},
                          bool shard_by_domain = true);

  // -- resident-set mutation (lazy: no analysis happens here) ---------------

  /// Validates and appends `flow` unconditionally (no admission test; use
  /// try_admit for gated admission).  Throws std::logic_error on malformed
  /// flows.  Dirties only the flow's locality domain.
  net::FlowId add_flow(gmf::Flow flow);

  /// Removes the resident flow at `index` (ids above shift down by one).
  /// Returns false when `index` is out of range, leaving all state
  /// untouched.  Dirties only the removed flow's domain, splitting it when
  /// the removal disconnected it.
  bool remove_flow(std::size_t index);

  // -- queries --------------------------------------------------------------

  [[nodiscard]] std::size_t flow_count() const { return locs_.size(); }
  [[nodiscard]] const gmf::Flow& flow(std::size_t index) const;
  [[nodiscard]] const net::Network& network() const {
    return empty_ctx_->network();
  }
  [[nodiscard]] EngineStats stats() const;
  /// Zeroes every counter (writer thread only).
  void reset_stats();

  /// The solve options every shard and probe solve runs under (as passed
  /// to the constructor or restore()).
  [[nodiscard]] const core::HolisticOptions& options() const { return opts_; }

  /// Current number of locality domains (shards).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Which shard (by position) the flow at `index` currently lives in.
  /// Positions are not stable across mutations; use for introspection.
  /// Throws std::out_of_range on a bad index.
  [[nodiscard]] std::size_t shard_of(std::size_t index) const {
    return locs_.at(index).shard;
  }

  // -- analysis -------------------------------------------------------------

  /// Holistic result for the resident set.  Incremental: only dirty shards
  /// are re-solved (fanned over a thread pool when several are dirty),
  /// warm-started from their cached fixed points; the fresh snapshot is
  /// published.  The returned reference stays valid until the next engine
  /// call.
  const core::HolisticResult& evaluate();

  /// What-if: result of resident set + `candidate`, without committing
  /// anything.  Runs against the published snapshot (evaluating first when
  /// stale).  Throws std::logic_error on malformed candidates.
  WhatIfResult what_if(const gmf::Flow& candidate);

  /// Tests `candidate` against the resident set; on acceptance it joins the
  /// set and the full result is returned, on rejection the set is unchanged
  /// and std::nullopt is returned.  A commit group of one: evaluate(),
  /// try_admit_lean(), evaluate().
  std::optional<core::HolisticResult> try_admit(gmf::Flow candidate);

  // -- commit groups --------------------------------------------------------
  //
  // Every gated admission commits through try_admit_lean.  A commit group
  // is K × try_admit_lean()/remove_flow() followed by ONE evaluate(): the
  // O(resident) global-result assembly + snapshot publication is paid once
  // per group instead of once per mutation.  Verdicts are bit-identical to
  // running the same mutations one at a time, each followed by evaluate():
  // a probe runs against the exact same shard contexts and converged
  // caches, it merely skips materializing the whole-set result between
  // commits.  Readers keep seeing the last published snapshot until the
  // group's evaluate().

  /// Gated admission without publishing: on acceptance the candidate joins
  /// the set (adopting the probe's converged state — no re-analysis), but
  /// the global result and published snapshot stay stale until the next
  /// evaluate().  Returns the admitted flow's FlowResult as of this commit
  /// (bit-identical to try_admit(candidate)->flows.back() on the same
  /// world; valid until the next engine call), or null when the candidate
  /// was rejected.  Throws std::logic_error on malformed candidates.
  const core::FlowResult* try_admit_lean(const gmf::Flow& candidate);

  /// Independent what-if probes for every candidate against the *same*
  /// published snapshot, fanned over a thread pool; candidates are not
  /// committed and do not see each other.  out[i] corresponds to
  /// candidates[i].  Throws std::logic_error if any candidate is malformed
  /// (before any analysis runs).
  std::vector<WhatIfResult> evaluate_batch(
      const std::vector<gmf::Flow>& candidates);

  // -- persistence (io/checkpoint.{hpp,cpp}) --------------------------------

  /// Writes a versioned binary checkpoint of the complete engine state —
  /// network, resident flows (global-id order), the shard partition, and
  /// every shard's converged fixed point — to `os`.  Evaluates first, so the
  /// checkpoint always holds a fully solved world.  Writer thread only.
  /// Throws std::runtime_error on stream write failure.
  void save(std::ostream& os);

  /// Rebuilds an engine from a checkpoint written by save(): shards, flow
  /// locations and the link index are reconstructed directly from the
  /// stream, the cached fixed points are installed verbatim, and a fresh
  /// EngineSnapshot is published — WITHOUT running the solver.  The restored
  /// engine answers published()->what_if(...) probes immediately and
  /// bit-identically to the pre-save engine, and stats().evaluations stays 0
  /// until the first post-restore mutation is evaluated.
  ///
  /// `opts` must agree with the saving engine's options on every field the
  /// cached fixed points depend on (hop.horizon, hop.charge_self_circ,
  /// max_sweeps — all fingerprinted in the stream); a mismatch is rejected,
  /// since the persisted state would silently misanswer under different
  /// analysis semantics.  Throws io::CheckpointError on truncated,
  /// corrupted, forward-incompatible or semantically invalid streams.
  static AnalysisEngine restore(std::istream& is,
                                core::HolisticOptions opts = {});

  /// restore() for callers that need the engine on the heap (the engine is
  /// neither copyable nor movable — atomic counters — so a prvalue cannot
  /// be re-seated after construction).  The RPC server's RESTORE handler
  /// swaps engines behind an atomic shared_ptr; this is its entry point.
  static std::unique_ptr<AnalysisEngine> restore_unique(
      std::istream& is, core::HolisticOptions opts = {});

  // -- snapshots ------------------------------------------------------------

  /// Evaluates (if stale) and returns the freshly published snapshot
  /// (writer thread only — it may solve dirty shards).
  std::shared_ptr<const EngineSnapshot> snapshot();

  /// The last published snapshot: safe to call from any thread, never
  /// null.  May lag behind uncommitted add_flow/remove_flow calls until the
  /// writer evaluates.  The read path takes no engine lock — publication is
  /// an atomic shared_ptr swap.  (std::atomic_load over
  /// std::atomic<shared_ptr>: identical semantics, but the free functions'
  /// pthread-based implementation is ThreadSanitizer-transparent, while
  /// libstdc++'s _Sp_atomic lock-bit protocol is not.)
  [[nodiscard]] std::shared_ptr<const EngineSnapshot> published() const {
    return std::atomic_load(&published_);
  }

 private:
  /// Parsed checkpoint payload (filled by io/checkpoint.cpp).  The
  /// restoring constructor below rebuilds shard contexts / locs_ /
  /// link_shard_ from it and publishes, without ever invoking the solver.
  struct RestoredShard {
    std::vector<net::FlowId> to_global;  ///< ascending global ids
    core::HolisticResult cache;          ///< the shard's persisted result
  };
  struct RestoredState {
    net::Network network;
    bool shard_by_domain = true;
    std::vector<gmf::Flow> flows;  ///< resident set, global-id order
    std::vector<RestoredShard> shards;
  };
  /// Restore path: validates the partition (every flow in exactly one
  /// shard, no link owned by two shards, caches parallel to contexts) and
  /// throws std::logic_error on violations.  Defined in io/checkpoint.cpp.
  AnalysisEngine(RestoredState&& st, core::HolisticOptions opts);
  /// Strict checkpoint-stream parse shared by restore / restore_unique
  /// (defined in io/checkpoint.cpp); throws io::CheckpointError.
  static RestoredState parse_checkpoint(std::istream& is,
                                        const core::HolisticOptions& opts);

  /// One counter per cache line: batch probes on different pool workers
  /// fold RunStats concurrently, and unpadded adjacent atomics would
  /// false-share — every fetch_add bouncing the whole stats block between
  /// cores.
  struct alignas(64) PaddedCounter {
    std::atomic<std::size_t> v{0};
  };
  struct AtomicStats {
    PaddedCounter evaluations;
    PaddedCounter full_runs;
    PaddedCounter incremental_runs;
    PaddedCounter flow_analyses;
    PaddedCounter flow_results_reused;
    PaddedCounter sweeps;
  };

  /// Shard indices (ascending, deduped) owning the given route links; all
  /// shards in single-domain mode.
  [[nodiscard]] std::vector<std::uint32_t> touched_shards(
      const std::vector<net::LinkRef>& links) const;

  /// Merges the given shards (ascending indices) into one, preserving each
  /// part's local order; returns the merged shard's index.
  std::uint32_t merge_shards(const std::vector<std::uint32_t>& parts);

  /// Splits shard `idx` into its link-sharing components if the last
  /// removal disconnected it (rebuild-on-remove).  New parts are appended
  /// at the end of shards_ (existing shard positions are untouched);
  /// returns true when a split happened.
  bool split_if_disconnected(std::uint32_t idx);

  /// Points locs_ and link_shard_ at shard `sid`'s current contents
  /// (O(shard), used after domain-local surgery).
  void index_shard(std::uint32_t sid);

  /// Fixes locs_/link_shard_ shard references after erasing the given
  /// positions (ascending) from shards_ — a flat renumbering pass, no
  /// per-flow route walks.  Entries pointing at erased shards are left for
  /// a follow-up index_shard of whichever shard absorbed their flows.
  void renumber_shards(const std::vector<std::uint32_t>& erased);

  /// Solves every dirty shard (fanned over the pool when several are
  /// dirty), folding run stats; returns true when any shard ran.  Factored
  /// out of evaluate() so try_admit_lean can converge the world without
  /// assembling/publishing it.
  bool solve_dirty();

  /// Assembles the global result from the shard caches and publishes a
  /// fresh snapshot.
  void assemble_and_publish();

  /// A snapshot of the current shard state carrying `global_` (null while
  /// a commit is pending: probes never read it).
  [[nodiscard]] std::shared_ptr<const EngineSnapshot> build_snapshot() const;

  /// Installs a successful probe as a committed merged shard (candidate
  /// included).  The global result goes stale until the next evaluate().
  void commit_probe(EngineSnapshot::Probe probe);

  /// Folds one run's counters into the stats (relaxed atomics).
  void record_run(const RunStats& rs);

  /// Creates the pool (one worker per hardware thread) on first use.
  void ensure_pool();

  std::shared_ptr<const core::AnalysisContext> empty_ctx_;
  core::HolisticOptions opts_;
  bool shard_by_domain_;
  std::vector<Shard> shards_;
  std::vector<FlowLoc> locs_;  ///< global flow id -> (shard, local)
  std::map<net::LinkRef, std::uint32_t> link_shard_;
  /// Assembled whole-set result of the last evaluation (null = stale).
  std::shared_ptr<const core::HolisticResult> global_;
  /// Writer-private snapshot backing probes while a commit is pending
  /// (global_ null); built on demand, dropped by every mutation and every
  /// publication.
  std::shared_ptr<const EngineSnapshot> lean_snap_;
  /// Accessed only via std::atomic_load / std::atomic_store.
  std::shared_ptr<const EngineSnapshot> published_;
  std::unique_ptr<ThreadPool> pool_;  ///< lazy; batch + shard fan-out
  AtomicStats stats_;
};

}  // namespace gmfnet::engine
