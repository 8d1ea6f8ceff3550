// The traced in-process replay: the same generated inputs the daemon got,
// pushed through each layer's public functions one call at a time under
// spans, so every per-layer number comes from a span around the call that
// does the work.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "oracle.hpp"
#include "trace.hpp"
#include "worlds.hpp"

namespace gmfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Times io, core.context, core.holistic, core.hop, engine.snapshot,
/// engine.commit and rpc.protocol in-process.  `checkpoint` is the boot
/// checkpoint of the world (the mirror's save).  Spans are recorded into
/// `tracer`; scripted commits are checked against `oracle`.
[[nodiscard]] std::vector<Metric> measure_layers(const World& world,
                                                 const Plan& plan,
                                                 const std::string& scenario,
                                                 const std::string& checkpoint,
                                                 Oracle& oracle,
                                                 Tracer& tracer);

/// The replayed work of one what-if request (median per call, µs): the
/// daemon's decode of the request, the probe, the result materialisation,
/// the response encode, and the client's decode.
[[nodiscard]] double replay_request_us(const std::vector<Span>& spans);

}  // namespace gmfbench
