#include "oracle.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "engine/analysis_engine.hpp"

namespace gmfbench {

namespace engine = gmfnet::engine;
namespace core = gmfnet::core;
using gmfnet::net::FlowId;

namespace {

std::vector<std::int64_t> worst_list(const core::HolisticResult& r) {
  std::vector<std::int64_t> out;
  out.reserve(r.flows.size());
  for (const core::FlowResult& f : r.flows) out.push_back(f.worst_response().ps());
  return out;
}

std::int64_t candidate_worst(const engine::WhatIfResult& r) {
  const auto id = static_cast<std::int32_t>(r.flow_count() - 1);
  return r.worst_response(FlowId(id)).ps();
}

std::unique_ptr<engine::AnalysisEngine> boot_mirror(const World& w) {
  auto eng = std::make_unique<engine::AnalysisEngine>(w.network);
  for (const gmfnet::gmf::Flow& f : w.residents) eng->add_flow(f);
  (void)eng->evaluate();
  return eng;
}

}  // namespace

bool residents_schedulable(const World& w) {
  return boot_mirror(w)->evaluate().schedulable;
}

const std::vector<gmfnet::gmf::Flow>& op_flows(const World& w) {
  return w.workload == Workload::kTreeChurn ? w.arrivals : w.probes;
}

Plan plan_static(const World& w, std::size_t min_ops) {
  Plan plan;
  const auto eng = boot_mirror(w);
  const auto snap = eng->published();
  for (std::size_t i = 0; i < w.probes.size(); ++i) {
    const engine::WhatIfResult r = snap->what_if(w.probes[i]);
    plan.probe_expect.push_back({r.admissible, {candidate_worst(r)}});
    plan.usable_probes.push_back(i);
  }
  plan.final_flows = eng->flow_count();
  plan.final_worst_ps = worst_list(snap->result());
  for (std::size_t i = 0; plan.ops.size() < min_ops; ++i) {
    const std::size_t p = i % w.probes.size();
    const bool ok = plan.probe_expect[p].admissible;
    plan.ops.push_back({Op::Kind::kAdmit, static_cast<std::uint32_t>(p), 0, ok,
                        /*boundary=*/!ok});
    if (ok) {
      plan.ops.push_back(
          {Op::Kind::kRemove, 0, w.residents.size(), true, true});
    }
  }
  return plan;
}

Plan plan_churn(const World& w, std::size_t ops) {
  Plan plan;
  const auto eng = boot_mirror(w);
  std::vector<std::string> order;  // mirror resident names, global order
  for (const auto& f : w.residents) order.push_back(f.name());
  std::vector<std::string> fifo(order.begin() + static_cast<std::ptrdiff_t>(
                                                    w.fixed_residents),
                                order.end());

  const std::size_t k = w.probes.size();
  std::vector<bool> stable(k, true);
  std::vector<bool> verdict(k);
  std::vector<std::vector<std::int64_t>> worst(k);
  engine::ProbeScratch scratch;
  const auto observe = [&](bool first) {
    const auto snap = eng->published();
    for (std::size_t i = 0; i < k; ++i) {
      const engine::WhatIfResult r = snap->what_if(w.probes[i], scratch);
      if (first) verdict[i] = r.admissible;
      if (r.admissible != verdict[i]) stable[i] = false;
      worst[i].push_back(candidate_worst(r));
    }
  };
  observe(true);

  std::size_t next_arrival = 0;
  for (std::size_t n = 0; n < ops; ++n) {
    Op op;
    if (n % 2 == 1 && !fifo.empty()) {
      const auto it = std::find(order.begin(), order.end(), fifo.front());
      op.kind = Op::Kind::kRemove;
      op.index = static_cast<std::uint64_t>(it - order.begin());
      op.expect_ok = eng->remove_flow(static_cast<std::size_t>(op.index));
      (void)eng->evaluate();
      order.erase(it);
      fifo.erase(fifo.begin());
    } else {
      if (next_arrival >= w.arrivals.size()) {
        throw std::logic_error("plan_churn: arrival list too short");
      }
      const gmfnet::gmf::Flow& f = w.arrivals[next_arrival];
      op.kind = Op::Kind::kAdmit;
      op.flow = static_cast<std::uint32_t>(next_arrival++);
      op.expect_ok = eng->try_admit(f).has_value();
      if (op.expect_ok) {
        order.push_back(f.name());
        fifo.push_back(f.name());
      }
    }
    plan.ops.push_back(op);
    observe(false);
  }
  if (!plan.ops.empty()) plan.ops.back().boundary = true;

  for (std::size_t i = 0; i < k; ++i) {
    std::sort(worst[i].begin(), worst[i].end());
    worst[i].erase(std::unique(worst[i].begin(), worst[i].end()),
                   worst[i].end());
    plan.probe_expect.push_back({verdict[i], std::move(worst[i])});
    if (stable[i]) plan.usable_probes.push_back(i);
  }
  if (plan.usable_probes.empty()) {
    throw std::runtime_error(
        "tree_churn: no probe keeps its verdict through the script");
  }
  const auto snap = eng->snapshot();
  plan.final_flows = snap->flow_count();
  plan.final_worst_ps = worst_list(snap->result());
  return plan;
}

void Oracle::fail(const std::string& message) {
  if (mismatches_.fetch_add(1, std::memory_order_relaxed) == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    first_ = message;
  }
}

std::string Oracle::first_mismatch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

void Oracle::check_probe(std::size_t probe,
                         const engine::WhatIfResult& r) {
  const ProbeExpect& e = plan_.probe_expect.at(probe);
  if (r.admissible != e.admissible) {
    fail("probe " + std::to_string(probe) + ": verdict " +
         (r.admissible ? "admissible" : "inadmissible") +
         " disagrees with the mirror");
    return;
  }
  const std::int64_t got = candidate_worst(r);
  if (!std::binary_search(e.worst_ps.begin(), e.worst_ps.end(), got)) {
    fail("probe " + std::to_string(probe) + ": worst response " +
         std::to_string(got) + " ps is none of the mirror's bounds");
  }
}

void Oracle::check_op(std::size_t op, bool ok) {
  const Op& o = plan_.ops.at(op);
  if (ok != o.expect_ok) {
    fail("op " + std::to_string(op) + " (" +
         (o.kind == Op::Kind::kAdmit ? "admit" : "remove") + "): daemon said " +
         (ok ? "yes" : "no") + ", mirror says " + (o.expect_ok ? "yes" : "no"));
  }
}

void Oracle::check_final(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  const auto eng = engine::AnalysisEngine::restore_unique(in);
  const auto snap = eng->published();
  if (snap->flow_count() != plan_.final_flows) {
    fail("final world: " + std::to_string(snap->flow_count()) +
         " resident flows, mirror has " + std::to_string(plan_.final_flows));
    return;
  }
  if (worst_list(snap->result()) != plan_.final_worst_ps) {
    fail("final world: per-flow worst responses differ from the mirror");
  }
}

}  // namespace gmfbench
