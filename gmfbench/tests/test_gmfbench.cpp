// Tests of the benchmark's own machinery: span self time, the tail
// percentile rule, scheduled-send-time accounting, generator determinism
// and the verdict oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>

#include "engine/analysis_engine.hpp"
#include "load.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "worlds.hpp"

namespace gmfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      span("parent", 0, 100, -1),
      span("a", 10, 30, 0),
      span("b", 20, 50, 0),    // overlaps a: [10, 50) counted once
      span("c", 90, 120, 0),   // runs past the parent: only [90, 100)
      span("grandchild", 12, 18, 1),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SpanSelfTime, TracerNestsScopesAndMergeRebasesParents) {
  Tracer t(true, Clock::now());
  {
    Tracer::Scope outer(t, "outer", 7);
    Tracer::Scope inner(t, "inner", 7);
  }
  { Tracer::Scope next(t, "next", 8); }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, -1);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);

  std::vector<Span> all = {span("x", 0, 1, -1)};
  merge_spans(all, t.take());
  EXPECT_EQ(all[2].parent, 1);

  Tracer off(false, Clock::now());
  { Tracer::Scope s(off, "ignored", 0); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(TailRule, ReportsTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supported_quantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(supported_quantile(5000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(supported_quantile(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(supported_quantile(100, 0.99), 0.90);
  EXPECT_DOUBLE_EQ(supported_quantile(15, 0.99), 0.5);

  for (const std::size_t n : {21u, 100u, 500u, 999u, 1000u, 4321u}) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    const Tail t = summarize(v);
    EXPECT_EQ(t.count, n);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > t.tail; }));
    EXPECT_GE(beyond, kTailBeyond) << n;
    if (n >= 1000) {
      EXPECT_DOUBLE_EQ(t.tail_q, 0.99);
    } else {
      EXPECT_EQ(beyond, kTailBeyond) << n;
    }
  }
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
}

/// Answers every request the moment it was sent.
class InstantChannel final : public Channel {
 public:
  void send(std::size_t) override { ++pending_; }
  bool receive(Clock::time_point deadline, Reply& reply) override {
    if (pending_ == 0) {
      std::this_thread::sleep_until(deadline);
      return false;
    }
    --pending_;
    reply = {false, true};
    return true;
  }

 private:
  std::size_t pending_ = 0;
};

TEST(OpenLoopWriter, ChargesAClientStallToEveryOpItDelayed) {
  using std::chrono::milliseconds;
  InstantChannel ch;
  WriterConfig cfg;
  cfg.ops = 40;
  for (std::size_t i = 0; i < cfg.ops; ++i) cfg.due.push_back(milliseconds(2 * i));
  cfg.start = Clock::now() + milliseconds(5);
  constexpr std::size_t kStalled = 5;
  constexpr double kStallUs = 30'000;
  cfg.before_send = [](std::size_t i) {
    if (i == kStalled) std::this_thread::sleep_for(milliseconds(30));
  };
  const WriterResult r = run_writer(ch, cfg);
  ASSERT_EQ(r.sent, 40u);
  ASSERT_EQ(r.latency_us.size(), 40u);
  EXPECT_EQ(r.failed, 0u);

  // The stalled op and the ops due during the stall were sent late, and
  // each one's latency counts from when it was due, not when it went out.
  EXPECT_GE(r.latency_us[kStalled], kStallUs);
  for (std::size_t i = kStalled + 1; i < kStalled + 14; ++i) {
    const double due_after_stall_start = 2'000.0 * static_cast<double>(i - kStalled);
    EXPECT_GE(r.latency_us[i], kStallUs - due_after_stall_start) << i;
    EXPECT_GE(r.lag_us[i], kStallUs - due_after_stall_start - 1'000) << i;
  }
  for (std::size_t i = 0; i < r.sent; ++i) {
    EXPECT_GE(r.latency_us[i], r.lag_us[i]) << i;
  }
  // Once the backlog drained the writer is back on schedule.
  EXPECT_LT(r.lag_us.back(), kStallUs / 2);
}

TEST(OpenLoopWriter, PoissonScheduleIsSeededSortedAndBursty) {
  using std::chrono::milliseconds;
  const auto a = poisson_due(200, milliseconds(8000), 11);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, poisson_due(200, milliseconds(8000), 11));
  EXPECT_NE(a, poisson_due(200, milliseconds(8000), 12));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front().count(), 0);
  EXPECT_LT(a.back(), milliseconds(8000));
  // Mean gap 40 ms, but exponential gaps put some requests within a few
  // milliseconds of the previous one.
  std::size_t close = 0;
  for (std::size_t i = 1; i < a.size(); ++i) close += a[i] - a[i - 1] < milliseconds(4);
  EXPECT_GE(close, 5u);
}

TEST(ClosedLoopWriter, StopsOnlyAtABoundaryOp) {
  InstantChannel ch;
  WriterConfig cfg;
  cfg.ops = 1000;
  cfg.start = Clock::now();
  cfg.stop_at = Clock::now();
  cfg.boundary.assign(1000, false);
  cfg.boundary[6] = true;
  const WriterResult r = run_writer(ch, cfg);
  EXPECT_EQ(r.sent, 7u);
}

TEST(Generator, SameSeedSameInputsAndOtherSeedsDiffer) {
  for (const Workload w : {Workload::kCampusWhatIf, Workload::kMeshWhatIf,
                           Workload::kTreeChurn}) {
    const World a = make_world(w, 7, 20);
    const World b = make_world(w, 7, 20);
    const World c = make_world(w, 8, 20);
    EXPECT_EQ(scenario_text(a), scenario_text(b)) << workload_name(w);
    EXPECT_EQ(a.probes, b.probes) << workload_name(w);
    EXPECT_EQ(a.arrivals, b.arrivals) << workload_name(w);
    EXPECT_EQ(a.fixed_residents, b.fixed_residents) << workload_name(w);
    EXPECT_NE(scenario_text(a), scenario_text(c)) << workload_name(w);
    EXPECT_FALSE(a.probes.empty());
    EXPECT_EQ(parse_workload(workload_name(w)), w);
  }
  EXPECT_EQ(make_world(Workload::kTreeChurn, 7, 20).arrivals.size(), 20u);

  const World t = make_world(Workload::kTreeChurn, 3, 12);
  const Plan p1 = plan_churn(t, 12);
  const Plan p2 = plan_churn(t, 12);
  ASSERT_EQ(p1.ops.size(), 12u);
  for (std::size_t i = 0; i < p1.ops.size(); ++i) {
    EXPECT_EQ(p1.ops[i].kind, p2.ops[i].kind);
    EXPECT_EQ(p1.ops[i].index, p2.ops[i].index);
    EXPECT_EQ(p1.ops[i].expect_ok, p2.ops[i].expect_ok);
  }
  EXPECT_EQ(p1.usable_probes, p2.usable_probes);
  EXPECT_EQ(p1.final_worst_ps, p2.final_worst_ps);
}

TEST(Oracle, AcceptsTheMirrorsAnswersAndFailsOnAFlippedExpectation) {
  const World w = make_world(Workload::kCampusWhatIf, 1, 0);
  const Plan plan = plan_static(w, 4);
  gmfnet::engine::AnalysisEngine eng(w.network);
  for (const auto& f : w.residents) eng.add_flow(f);
  const auto snap = eng.snapshot();
  const gmfnet::engine::WhatIfResult r = snap->what_if(w.probes[0]);
  std::ostringstream ckpt;
  eng.save(ckpt);

  Oracle ok(plan);
  ok.check_probe(0, r);
  ok.check_op(0, plan.ops[0].expect_ok);
  ok.check_final(ckpt.str());
  EXPECT_EQ(ok.mismatches(), 0u) << ok.first_mismatch();

  Plan flipped = plan;
  flipped.probe_expect[0].admissible = !flipped.probe_expect[0].admissible;
  Oracle verdict(flipped);
  verdict.check_probe(0, r);
  EXPECT_EQ(verdict.mismatches(), 1u);

  Plan bound = plan;
  bound.probe_expect[0].worst_ps = {bound.probe_expect[0].worst_ps[0] + 1};
  Oracle worst(bound);
  worst.check_probe(0, r);
  EXPECT_EQ(worst.mismatches(), 1u);

  Plan admit = plan;
  admit.ops[0].expect_ok = !admit.ops[0].expect_ok;
  Oracle op(admit);
  op.check_op(0, plan.ops[0].expect_ok);
  EXPECT_EQ(op.mismatches(), 1u);

  Plan world = plan;
  world.final_worst_ps.back() += 1;
  Oracle fin(world);
  fin.check_final(ckpt.str());
  EXPECT_EQ(fin.mismatches(), 1u);
  EXPECT_FALSE(fin.first_mismatch().empty());
}

}  // namespace
}  // namespace gmfbench
