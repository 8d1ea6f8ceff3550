#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>

#include "core/context.hpp"
#include "core/egress.hpp"
#include "core/first_hop.hpp"
#include "core/holistic.hpp"
#include "core/ingress.hpp"
#include "engine/analysis_engine.hpp"
#include "io/scenario_io.hpp"
#include "rpc/protocol.hpp"
#include "stats.hpp"

namespace gmfbench {

namespace core = gmfnet::core;
namespace engine = gmfnet::engine;
namespace rpc = gmfnet::rpc;
using gmfnet::net::FlowId;
using Clock = std::chrono::steady_clock;

namespace {

// Each section repeats its call at least kMinReps times and then until its
// time slice is used, so small worlds get many samples and big ones stay
// bounded.
constexpr std::size_t kMinReps = 5;
constexpr auto kSlice = std::chrono::milliseconds(300);

template <typename F>
void repeat(std::size_t max_reps, F&& f) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < max_reps; ++i) {
    if (i >= kMinReps && Clock::now() - t0 > kSlice) break;
    f(i);
  }
}

double p50(const std::vector<Span>& spans, const char* name) {
  return median(durations_us(spans, name));
}

std::vector<FlowId> component_of(const core::AnalysisContext& ctx,
                                 FlowId start) {
  const auto nbrs = core::link_neighbors(ctx);
  std::vector<bool> seen(ctx.flow_count(), false);
  std::vector<FlowId> out{start};
  seen[static_cast<std::size_t>(start.v)] = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const FlowId j : nbrs[static_cast<std::size_t>(out[i].v)]) {
      if (!seen[static_cast<std::size_t>(j.v)]) {
        seen[static_cast<std::size_t>(j.v)] = true;
        out.push_back(j);
      }
    }
  }
  return out;
}

}  // namespace

double replay_request_us(const std::vector<Span>& spans) {
  return p50(spans, "rpc.protocol.decode_request") +
         p50(spans, "engine.snapshot.what_if") +
         p50(spans, "engine.snapshot.result") +
         p50(spans, "rpc.protocol.encode_response") +
         p50(spans, "rpc.protocol.decode_response");
}

std::vector<Metric> measure_layers(const World& world, const Plan& plan,
                                   const std::string& scenario,
                                   const std::string& checkpoint,
                                   Oracle& oracle, Tracer& tracer) {
  std::vector<Metric> m;
  tracer.set_enabled(true);
  const auto add = [&m](std::string name, double v, std::string unit) {
    m.push_back({std::move(name), v, std::move(unit)});
  };
  const core::HolisticOptions opts;
  const std::vector<std::size_t>& usable = plan.usable_probes;
  const auto probe = [&](std::size_t i) -> const gmfnet::gmf::Flow& {
    return world.probes[usable[i % usable.size()]];
  };

  // ---------------------------------------------------------------- io --
  // Each result outlives its span, so teardown is not charged to the call.
  repeat(50, [&](std::size_t) {
    gmfnet::workload::Scenario parsed;
    Tracer::Scope s(tracer, "io.scenario.parse", 0);
    parsed = gmfnet::io::parse_scenario(scenario);
  });
  repeat(50, [&](std::size_t) {
    std::istringstream in(checkpoint);
    std::unique_ptr<engine::AnalysisEngine> restored;
    Tracer::Scope s(tracer, "io.checkpoint.restore", 0);
    restored = engine::AnalysisEngine::restore_unique(in);
  });

  // ------------------------------------------------------ core.context --
  repeat(50, [&](std::size_t) {
    std::optional<core::AnalysisContext> built;
    Tracer::Scope s(tracer, "core.context.build", 0);
    built.emplace(world.network, world.residents);
  });
  core::AnalysisContext ctx(world.network, world.residents);
  repeat(2000, [&](std::size_t i) {
    {
      Tracer::Scope s(tracer, "core.context.add_flow", i);
      (void)ctx.add_flow(probe(i));
    }
    Tracer::Scope s(tracer, "core.context.remove_flow", i);
    ctx.remove_flow(ctx.flow_count() - 1);
  });

  // ----------------------------------------------------- core.holistic --
  core::IncrementalStats cold_stats;
  int cold_sweeps = 0;
  repeat(20, [&](std::size_t) {
    core::IncrementalStats st;
    core::HolisticResult r;
    {
      Tracer::Scope s(tracer, "core.holistic.cold_solve", 0);
      r = core::solve_holistic(ctx, core::SolveRequest{}, opts, &st);
    }
    cold_stats = st;
    cold_sweeps = r.sweeps;
  });

  // --------------------------------------- engine.snapshot, rpc.protocol --
  const auto mirror = std::make_unique<engine::AnalysisEngine>(world.network);
  for (const auto& f : world.residents) mirror->add_flow(f);
  const auto snap = mirror->snapshot();
  engine::ProbeScratch scratch;
  std::vector<double> req_bytes, resp_bytes, sweeps;
  repeat(5000, [&](std::size_t i) {
    Tracer::Scope replay(tracer, "replay.what_if", i);
    std::string req;
    {
      Tracer::Scope s(tracer, "rpc.protocol.encode_request", i);
      req = rpc::encode_request(rpc::WhatIfBatchRequest{{probe(i)}, false});
    }
    {
      Tracer::Scope s(tracer, "rpc.protocol.decode_request", i);
      (void)rpc::decode_request(req);
    }
    engine::WhatIfResult wi;
    {
      Tracer::Scope s(tracer, "engine.snapshot.what_if", i);
      wi = snap->what_if(probe(i), scratch);
    }
    {
      Tracer::Scope s(tracer, "engine.snapshot.result", i);
      (void)wi.result();
    }
    sweeps.push_back(wi.sweeps());
    oracle.check_probe(usable[i % usable.size()], wi);
    std::string resp;
    {
      rpc::WhatIfBatchResponse out;
      out.results.push_back(std::move(wi));
      Tracer::Scope s(tracer, "rpc.protocol.encode_response", i);
      resp = rpc::encode_response(out);
    }
    {
      Tracer::Scope s(tracer, "rpc.protocol.decode_response", i);
      (void)rpc::decode_response(resp);
    }
    req_bytes.push_back(static_cast<double>(req.size()));
    resp_bytes.push_back(static_cast<double>(resp.size()));
  });
  repeat(2000, [&](std::size_t i) {
    engine::ProbeScratch fresh;
    Tracer::Scope s(tracer, "engine.snapshot.what_if_fresh", i);
    (void)snap->what_if(probe(i), fresh);
  });

  // ---------------------------------------------------------- core.hop --
  // A probe analyses some flows of its component once per sweep and skips
  // the ones whose inputs did not move.  Its hop time is estimated as the
  // mean hop time of one flow analysis (every hop call of every component
  // flow, once, at the converged jitter map, divided by the component's
  // size) times the analyses the probe really ran (EngineStats delta of
  // the mirror's own what_if of the same candidate).
  std::vector<double> hop_probe_us, calls_per_probe, iterations;
  const std::size_t hop_probes = std::min<std::size_t>(usable.size(), 4);
  for (std::size_t p = 0; p < hop_probes; ++p) {
    const std::size_t before_analyses = mirror->stats().flow_analyses;
    (void)mirror->what_if(probe(p));
    const double analyses = static_cast<double>(
        mirror->stats().flow_analyses - before_analyses);

    std::vector<gmfnet::gmf::Flow> flows = world.residents;
    flows.push_back(probe(p));
    const core::AnalysisContext pctx(world.network, std::move(flows));
    const core::HolisticResult conv = core::analyze_holistic(pctx, opts);
    const FlowId cand(static_cast<std::int32_t>(pctx.flow_count() - 1));
    const std::vector<FlowId> comp = component_of(pctx, cand);
    double pass_us = 0;
    std::size_t calls = 0;
    const auto timed = [&](const char* name, auto&& call) {
      const std::size_t before = tracer.spans().size();
      core::HopResult h;
      {
        Tracer::Scope s(tracer, name, p);
        h = call();
      }
      pass_us += static_cast<double>(tracer.spans()[before].duration_ns()) / 1e3;
      iterations.push_back(static_cast<double>(h.iterations));
      ++calls;
    };
    for (const FlowId f : comp) {
      const gmfnet::net::Route& route = pctx.flow(f).route();
      for (std::size_t k = 0; k < pctx.flow(f).frame_count(); ++k) {
        timed("core.hop.first_hop", [&] {
          return core::analyze_first_hop(pctx, conv.jitters, f, k, opts.hop);
        });
        for (std::size_t n = 1; n + 1 < route.node_count(); ++n) {
          const auto node = route.node_at(n);
          timed("core.hop.ingress", [&] {
            return core::analyze_ingress(pctx, conv.jitters, f, k, node,
                                         opts.hop);
          });
          timed("core.hop.egress", [&] {
            return core::analyze_egress(pctx, conv.jitters, f, k, node,
                                        opts.hop);
          });
        }
      }
    }
    const double per_analysis = analyses / static_cast<double>(comp.size());
    hop_probe_us.push_back(pass_us * per_analysis);
    calls_per_probe.push_back(static_cast<double>(calls) * per_analysis);
  }

  // ------------------------------------------------------ engine.commit --
  // The daemon's boot engine replays the head of the mutation script.
  std::istringstream boot(checkpoint);
  const auto eng = engine::AnalysisEngine::restore_unique(boot);
  const engine::EngineStats s0 = eng->stats();
  const std::vector<gmfnet::gmf::Flow>& op_flow = op_flows(world);
  std::vector<double> shards;
  std::size_t replayed = 0;
  repeat(plan.ops.size(), [&](std::size_t i) {
    const Op& op = plan.ops[i];
    bool ok = false;
    if (op.kind == Op::Kind::kAdmit) {
      Tracer::Scope s(tracer, "engine.commit.try_admit", i);
      ok = eng->try_admit(op_flow[op.flow]).has_value();
    } else {
      Tracer::Scope s(tracer, "engine.commit.remove_evaluate", i);
      ok = eng->remove_flow(static_cast<std::size_t>(op.index));
      (void)eng->evaluate();
    }
    oracle.check_op(i, ok);
    shards.push_back(static_cast<double>(eng->shard_count()));
    ++replayed;
  });
  const engine::EngineStats s1 = eng->stats();
  const double analyses =
      static_cast<double>(s1.flow_analyses - s0.flow_analyses);
  const double reused =
      static_cast<double>(s1.flow_results_reused - s0.flow_results_reused);

  const std::vector<Span>& sp = tracer.spans();
  const double what_if_us = p50(sp, "engine.snapshot.what_if");
  const double fresh_us = p50(sp, "engine.snapshot.what_if_fresh");
  std::vector<double> share;
  for (const double h : hop_probe_us) share.push_back(h / what_if_us);

  add("rpc.protocol.encode_request_us", p50(sp, "rpc.protocol.encode_request"), "us");
  add("rpc.protocol.decode_request_us", p50(sp, "rpc.protocol.decode_request"), "us");
  add("rpc.protocol.request_bytes", median(req_bytes), "bytes");
  add("rpc.protocol.encode_response_us", p50(sp, "rpc.protocol.encode_response"), "us");
  add("rpc.protocol.decode_response_us", p50(sp, "rpc.protocol.decode_response"), "us");
  add("rpc.protocol.response_bytes", median(resp_bytes), "bytes");
  add("engine.snapshot.what_if_us", what_if_us, "us");
  add("engine.snapshot.what_if_fresh_us", fresh_us, "us");
  add("engine.snapshot.scratch_gain", fresh_us / what_if_us, "ratio");
  add("engine.snapshot.probe_sweeps", mean(sweeps), "count");
  add("engine.snapshot.result_us", p50(sp, "engine.snapshot.result"), "us");
  add("engine.commit.try_admit_us", p50(sp, "engine.commit.try_admit"), "us");
  add("engine.commit.remove_evaluate_us", p50(sp, "engine.commit.remove_evaluate"), "us");
  add("engine.commit.flow_analyses_per_mutation",
      replayed == 0 ? 0 : analyses / static_cast<double>(replayed), "count");
  add("engine.commit.results_reused_frac",
      analyses + reused == 0 ? 0 : reused / (analyses + reused), "ratio");
  add("engine.commit.shards", median(shards), "count");
  add("core.context.build_us", p50(sp, "core.context.build"), "us");
  add("core.context.add_flow_us", p50(sp, "core.context.add_flow"), "us");
  add("core.context.remove_flow_us", p50(sp, "core.context.remove_flow"), "us");
  add("core.holistic.cold_solve_us", p50(sp, "core.holistic.cold_solve"), "us");
  add("core.holistic.sweeps", cold_sweeps, "count");
  add("core.holistic.flow_analyses",
      static_cast<double>(cold_stats.flow_analyses), "count");
  add("core.hop.first_hop_us", p50(sp, "core.hop.first_hop"), "us");
  add("core.hop.ingress_us", p50(sp, "core.hop.ingress"), "us");
  add("core.hop.egress_us", p50(sp, "core.hop.egress"), "us");
  add("core.hop.calls_per_probe", median(calls_per_probe), "count");
  add("core.hop.iterations_per_call", mean(iterations), "count");
  add("core.hop.share_of_probe", median(share), "ratio");
  add("io.scenario.parse_us", p50(sp, "io.scenario.parse"), "us");
  add("io.checkpoint.restore_us", p50(sp, "io.checkpoint.restore"), "us");
  add("io.checkpoint.bytes", static_cast<double>(checkpoint.size()), "bytes");
  return m;
}

}  // namespace gmfbench
