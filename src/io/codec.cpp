#include "io/codec.hpp"

#include <utility>
#include <vector>

namespace gmfnet::io::codec {

void encode_network(ByteWriter& w, const net::Network& net) {
  w.u64(net.node_count());
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const net::Node& n = net.node(net::NodeId(static_cast<std::int32_t>(i)));
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.str(n.name);
    w.time(n.sw.croute);
    w.time(n.sw.csend);
    w.i32(n.sw.processors);
  }
  w.u64(net.links().size());
  for (const net::Link& l : net.links()) {
    w.i32(l.src.v);
    w.i32(l.dst.v);
    w.i64(l.speed_bps);
    w.time(l.prop);
  }
}

net::Network decode_network(ByteReader& r) {
  net::Network net;
  const std::size_t nodes = r.count(1 + 8 + 8 + 8 + 4);
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::uint8_t kind = r.u8();
    std::string name = r.str();
    net::SwitchParams sw;
    sw.croute = r.time();
    sw.csend = r.time();
    sw.processors = r.i32();
    switch (kind) {
      case static_cast<std::uint8_t>(net::NodeKind::kEndHost):
        net.add_endhost(std::move(name));
        break;
      case static_cast<std::uint8_t>(net::NodeKind::kSwitch):
        net.add_switch(std::move(name), sw);
        break;
      case static_cast<std::uint8_t>(net::NodeKind::kRouter):
        net.add_router(std::move(name));
        break;
      default:
        throw WireError("unknown node kind");
    }
  }
  const std::size_t links = r.count(4 + 4 + 8 + 8);
  for (std::size_t i = 0; i < links; ++i) {
    const net::NodeId src(r.i32());
    const net::NodeId dst(r.i32());
    const std::int64_t speed = r.i64();
    const gmfnet::Time prop = r.time();
    net.add_link(src, dst, speed, prop);  // throws on invalid link data
  }
  return net;
}

void encode_flow(ByteWriter& w, const gmf::Flow& f) {
  w.str(f.name());
  w.u64(f.route().node_count());
  for (const net::NodeId n : f.route().nodes()) w.i32(n.v);
  w.i64(f.priority());
  w.u8(f.rtp() ? 1 : 0);
  w.u64(f.frame_count());
  for (const gmf::FrameSpec& fr : f.frames()) {
    w.time(fr.min_separation);
    w.time(fr.deadline);
    w.time(fr.jitter);
    w.i64(fr.payload_bits);
  }
}

gmf::Flow decode_flow(ByteReader& r) {
  std::string name = r.str();
  const std::size_t hops = r.count(4);
  std::vector<net::NodeId> nodes;
  nodes.reserve(hops);
  for (std::size_t i = 0; i < hops; ++i) nodes.emplace_back(r.i32());
  const std::int64_t priority = r.i64();
  const bool rtp = r.boolean();
  const std::size_t nframes = r.count(8 * 4);
  std::vector<gmf::FrameSpec> frames;
  frames.reserve(nframes);
  for (std::size_t k = 0; k < nframes; ++k) {
    gmf::FrameSpec fs;
    fs.min_separation = r.time();
    fs.deadline = r.time();
    fs.jitter = r.time();
    fs.payload_bits = r.i64();
    frames.push_back(fs);
  }
  return gmf::Flow(std::move(name), net::Route(std::move(nodes)),
                   std::move(frames), priority, rtp);
}

void encode_stage_key(ByteWriter& w, const core::StageKey& k) {
  w.u8(static_cast<std::uint8_t>(k.kind));
  w.i32(k.a.v);
  w.i32(k.b.v);
}

core::StageKey decode_stage_key(ByteReader& r) {
  const std::uint8_t kind = r.u8();
  core::StageKey k;
  switch (kind) {
    case static_cast<std::uint8_t>(core::StageKey::Kind::kLink):
      k.kind = core::StageKey::Kind::kLink;
      break;
    case static_cast<std::uint8_t>(core::StageKey::Kind::kIngress):
      k.kind = core::StageKey::Kind::kIngress;
      break;
    default:
      throw WireError("unknown stage kind");
  }
  k.a = net::NodeId(r.i32());
  k.b = net::NodeId(r.i32());
  return k;
}

void encode_jitter_map(ByteWriter& w, const core::JitterMap& m) {
  w.u64(m.flow_slots());
  for (std::size_t f = 0; f < m.flow_slots(); ++f) {
    const net::FlowId id(static_cast<std::int32_t>(f));
    if (!m.has_entries(id)) {
      w.u8(0);
      continue;
    }
    w.u8(1);
    const core::JitterMap::StageEntries entries = m.stage_entries(id);
    w.u64(entries.size());
    for (const auto& [stage, frames] : entries) {
      encode_stage_key(w, stage);
      w.u64(frames.size());
      for (const gmfnet::Time t : frames) w.time(t);
    }
  }
}

core::JitterMap decode_jitter_map(ByteReader& r) {
  core::JitterMap m;
  const std::size_t slots = r.count(1);
  m.resize_slots(slots);
  for (std::size_t f = 0; f < slots; ++f) {
    if (!r.boolean()) continue;
    const net::FlowId id(static_cast<std::int32_t>(f));
    const std::size_t stages = r.count(1 + 4 + 4 + 8);
    for (std::size_t s = 0; s < stages; ++s) {
      const core::StageKey key = decode_stage_key(r);
      const std::size_t nframes = r.count(8);
      std::vector<gmfnet::Time> frames;
      frames.reserve(nframes);
      for (std::size_t k = 0; k < nframes; ++k) frames.push_back(r.time());
      m.set_stage_frames(id, key, std::move(frames));
    }
  }
  return m;
}

void encode_holistic_result(ByteWriter& w, const core::HolisticResult& res) {
  w.u8(res.converged ? 1 : 0);
  w.u8(res.schedulable ? 1 : 0);
  w.i32(res.sweeps);
  w.u64(res.flows.size());
  for (const core::FlowResult& fr : res.flows) {
    w.u64(fr.frames.size());
    for (const core::FrameResult& frame : fr.frames) {
      w.time(frame.response);
      w.u8(frame.converged ? 1 : 0);
      w.u8(frame.meets_deadline ? 1 : 0);
      w.u64(frame.stages.size());
      for (const core::StageResponse& st : frame.stages) {
        encode_stage_key(w, st.stage);
        w.time(st.hop.response);
        w.u8(st.hop.converged ? 1 : 0);
        w.time(st.hop.busy_period);
        w.i64(st.hop.instances);
        w.i64(st.hop.iterations);
      }
    }
  }
  encode_jitter_map(w, res.jitters);
}

core::HolisticResult decode_holistic_result(ByteReader& r) {
  core::HolisticResult res;
  res.converged = r.boolean();
  res.schedulable = r.boolean();
  res.sweeps = r.i32();
  const std::size_t nflows = r.count(8);
  for (std::size_t f = 0; f < nflows; ++f) {
    core::FlowResult fr;
    const std::size_t nframes = r.count(8 + 1 + 1 + 8);
    for (std::size_t k = 0; k < nframes; ++k) {
      core::FrameResult frame;
      frame.response = r.time();
      frame.converged = r.boolean();
      frame.meets_deadline = r.boolean();
      const std::size_t nstages = r.count(1 + 4 + 4 + 8 + 1 + 8 + 8 + 8);
      for (std::size_t s = 0; s < nstages; ++s) {
        core::StageResponse st;
        st.stage = decode_stage_key(r);
        st.hop.response = r.time();
        st.hop.converged = r.boolean();
        st.hop.busy_period = r.time();
        st.hop.instances = r.i64();
        st.hop.iterations = r.i64();
        frame.stages.push_back(std::move(st));
      }
      fr.frames.push_back(std::move(frame));
    }
    res.flows.push_back(std::move(fr));
  }
  res.jitters = decode_jitter_map(r);
  return res;
}

}  // namespace gmfnet::io::codec
