// The verdict oracle: an in-process mirror AnalysisEngine built from the
// same generated inputs as the daemon decides, ahead of the measured
// phase, what every request must answer.
//
// It checks only what the daemon's answer promises in every response
// shape: the admission verdict and the candidate's own worst-response
// bound, the verdict of each scripted admit, and the final resident world
// (flow count plus every flow's worst response).  Any disagreement fails
// the run; it is never folded into a metric.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/snapshot.hpp"
#include "worlds.hpp"

namespace gmfbench {

/// One scripted mutation, in send order.
struct Op {
  enum class Kind : std::uint8_t { kAdmit, kRemove };
  Kind kind = Kind::kAdmit;
  /// kAdmit: index of the flow in op_flows() of the world.
  std::uint32_t flow = 0;
  /// kRemove: resident index at the time the op applies.
  std::uint64_t index = 0;
  /// Expected answer: admitted / removed.
  bool expect_ok = false;
  /// True when the world after this op equals the world the plan's final
  /// expectation describes, so a writer may stop here.
  bool boundary = false;
};

struct ProbeExpect {
  bool admissible = false;
  /// Every worst-response bound (ps) the candidate may legitimately get:
  /// one value on a static world, one per reachable commit point under
  /// churn.  Sorted, unique.
  std::vector<std::int64_t> worst_ps;
};

struct Plan {
  std::vector<Op> ops;
  std::vector<ProbeExpect> probe_expect;   ///< parallel to World::probes
  std::vector<std::size_t> usable_probes;  ///< probes the readers may send
  std::size_t final_flows = 0;
  std::vector<std::int64_t> final_worst_ps;
};

/// True when the world's resident set is schedulable, as every world an
/// admission controller built by admitting its flows is.
[[nodiscard]] bool residents_schedulable(const World& w);

/// The flows Op::flow indexes: arrivals under churn, probes otherwise.
[[nodiscard]] const std::vector<gmfnet::gmf::Flow>& op_flows(const World& w);

/// Static worlds: expectations of every probe, and an admit-then-remove
/// mutation script (at least `min_ops` ops) that returns to the boot world
/// after every pair.
[[nodiscard]] Plan plan_static(const World& w, std::size_t min_ops);

/// tree_churn: an arrival/departure script of `ops` mutations (admit the
/// next arrival, remove the oldest churn flow, alternating), replayed on
/// the mirror.  Only probes whose verdict is the same at every commit point
/// are usable.  Throws std::runtime_error when none is.
[[nodiscard]] Plan plan_churn(const World& w, std::size_t ops);

class Oracle {
 public:
  explicit Oracle(const Plan& plan) : plan_(plan) {}

  /// Reader threads call this concurrently.
  void check_probe(std::size_t probe, const gmfnet::engine::WhatIfResult& r);
  void check_op(std::size_t op, bool ok);
  /// Restores `checkpoint` in-process and compares it with the plan's
  /// final world.
  void check_final(const std::string& checkpoint);
  /// Records a disagreement found elsewhere.
  void fail(const std::string& message);

  [[nodiscard]] std::size_t mismatches() const {
    return mismatches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string first_mismatch() const;

 private:
  const Plan& plan_;
  std::atomic<std::size_t> mismatches_{0};
  mutable std::mutex mu_;
  std::string first_;
};

}  // namespace gmfbench
