#include "rpc/protocol.hpp"

#include <cstring>
#include <utility>

#include "io/codec.hpp"

namespace gmfnet::rpc {
namespace {

// ------------------------------------------------------- body encodings --

void encode_engine_stats(io::ByteWriter& w, const engine::EngineStats& s) {
  w.u64(s.evaluations);
  w.u64(s.full_runs);
  w.u64(s.incremental_runs);
  w.u64(s.flow_analyses);
  w.u64(s.flow_results_reused);
  w.u64(s.sweeps);
}

engine::EngineStats decode_engine_stats(io::ByteReader& r) {
  engine::EngineStats s;
  s.evaluations = static_cast<std::size_t>(r.u64());
  s.full_runs = static_cast<std::size_t>(r.u64());
  s.incremental_runs = static_cast<std::size_t>(r.u64());
  s.flow_analyses = static_cast<std::size_t>(r.u64());
  s.flow_results_reused = static_cast<std::size_t>(r.u64());
  s.sweeps = static_cast<std::size_t>(r.u64());
  return s;
}

// What-if wire flags: bit 0 = admissible, bit 1 = detailed (a full
// HolisticResult follows; otherwise the lean converged/sweeps/flow_count
// triple does).
constexpr std::uint8_t kWhatIfAdmissible = 1u << 0;
constexpr std::uint8_t kWhatIfDetailed = 1u << 1;

void encode_what_if(io::ByteWriter& w, const engine::WhatIfResult& wi) {
  std::uint8_t flags = wi.admissible ? kWhatIfAdmissible : 0;
  if (wi.detailed()) flags |= kWhatIfDetailed;
  w.u8(flags);
  if (wi.detailed()) {
    // The wire carries the full result; materializing it here (server side,
    // once per encoded probe) keeps the probe hot path itself copy-free.
    io::codec::encode_holistic_result(w, wi.result());
  } else {
    w.u8(wi.converged() ? 1 : 0);
    w.u64(static_cast<std::uint64_t>(wi.sweeps()));
    w.u64(wi.flow_count());
  }
}

engine::WhatIfResult decode_what_if(io::ByteReader& r) {
  // Sequence the reads explicitly: C++ leaves function-argument evaluation
  // order unspecified, and all read from the same stream.
  const std::uint8_t flags = r.u8();
  if ((flags & ~(kWhatIfAdmissible | kWhatIfDetailed)) != 0) {
    throw ProtocolError("invalid what-if flags " + std::to_string(flags));
  }
  const bool admissible = (flags & kWhatIfAdmissible) != 0;
  if ((flags & kWhatIfDetailed) != 0) {
    return engine::WhatIfResult::from_full(
        admissible, io::codec::decode_holistic_result(r));
  }
  const bool converged = r.boolean();
  const auto sweeps = static_cast<int>(r.u64());
  const auto flows = static_cast<std::size_t>(r.u64());
  return engine::WhatIfResult::verdict_only(admissible, converged, sweeps,
                                            flows);
}

Role decode_role(io::ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v != static_cast<std::uint8_t>(Role::kPrimary) &&
      v != static_cast<std::uint8_t>(Role::kReplica)) {
    throw ProtocolError("invalid role value " + std::to_string(v));
  }
  return static_cast<Role>(v);
}

/// A DELTA frame is a checkpoint or a commit group; admit/remove appear
/// only as ops inside a group.
DeltaKind decode_delta_kind(io::ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v != static_cast<std::uint8_t>(DeltaKind::kRestore) &&
      v != static_cast<std::uint8_t>(DeltaKind::kBatch)) {
    throw ProtocolError("invalid delta kind " + std::to_string(v));
  }
  return static_cast<DeltaKind>(v);
}

/// Bodiless messages still carry one reserved zero byte, so every valid
/// frame has a non-empty body and a zero body length is always rejected as
/// a framing violation (not a legal empty message).
void encode_reserved(io::ByteWriter& w) { w.u8(0); }

void decode_reserved(io::ByteReader& r, const char* what) {
  if (r.u8() != 0) {
    throw ProtocolError(std::string(what) + ": reserved byte must be zero");
  }
}

struct BodyEncoder {
  io::ByteWriter& w;

  void operator()(const AdmitRequest& m) { io::codec::encode_flow(w, m.flow); }
  void operator()(const RemoveRequest& m) { w.u64(m.index); }
  void operator()(const WhatIfBatchRequest& m) {
    w.u8(m.verdict_only ? 1 : 0);
    w.u64(m.candidates.size());
    for (const gmf::Flow& f : m.candidates) io::codec::encode_flow(w, f);
  }
  void operator()(const StatsRequest&) { encode_reserved(w); }
  void operator()(const SaveCheckpointRequest&) { encode_reserved(w); }
  void operator()(const RestoreRequest& m) { w.str(m.checkpoint); }
  void operator()(const ShutdownRequest&) { encode_reserved(w); }
  void operator()(const SubscribeRequest& m) {
    w.u64(m.epoch);
    w.u64(m.next_seq);
    w.u64(m.history);
  }
  void operator()(const PromoteRequest&) { encode_reserved(w); }
  void operator()(const RoleRequest&) { encode_reserved(w); }
  void operator()(const RepointRequest& m) { w.str(m.primary_addr); }
  void operator()(const AdmitBatchRequest& m) {
    w.u64(m.flows.size());
    for (const gmf::Flow& f : m.flows) io::codec::encode_flow(w, f);
  }

  void operator()(const AdmitResponse& m) {
    w.u8(m.result.has_value() ? 1 : 0);
    if (m.result) io::codec::encode_holistic_result(w, *m.result);
  }
  void operator()(const RemoveResponse& m) { w.u8(m.removed ? 1 : 0); }
  void operator()(const WhatIfBatchResponse& m) {
    w.u64(m.results.size());
    for (const engine::WhatIfResult& wi : m.results) encode_what_if(w, wi);
  }
  void operator()(const StatsResponse& m) {
    encode_engine_stats(w, m.stats);
    w.u64(m.flows);
    w.u64(m.shards);
    w.u8(static_cast<std::uint8_t>(m.role));
    w.u64(m.epoch);
    w.u64(m.commit_seq);
    w.u64(m.uptime_ms);
    w.u64(m.active_connections);
    w.u64(m.frames_served);
    w.u64(m.coalesced_commits);
    w.u64(m.pipelined_hwm);
  }
  void operator()(const SaveCheckpointResponse& m) { w.str(m.checkpoint); }
  void operator()(const RestoreResponse& m) { w.u64(m.flows); }
  void operator()(const ShutdownResponse&) { encode_reserved(w); }
  void operator()(const SubscribeResponse& m) {
    w.u64(m.epoch);
    w.u64(m.next_seq);
  }
  void operator()(const SyncFullResponse& m) {
    w.u64(m.epoch);
    w.u64(m.commit_seq);
    w.u64(m.history);
    w.str(m.checkpoint);
  }
  void operator()(const DeltaResponse& m) {
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u64(m.epoch);
    w.u64(m.seq);
    w.u64(m.flows_after);
    // Only the active payload rides the wire (tagged union by `kind`).
    if (m.kind == DeltaKind::kRestore) {
      w.str(m.checkpoint);
      return;
    }
    w.u64(m.ops.size());
    for (const DeltaOp& op : m.ops) {
      w.u8(static_cast<std::uint8_t>(op.kind));
      if (op.kind == DeltaKind::kAdmit) {
        io::codec::encode_flow(w, op.flow);
      } else {
        w.u64(op.index);
      }
    }
  }
  void operator()(const PromoteResponse& m) { w.u64(m.epoch); }
  void operator()(const RoleResponse& m) {
    w.u8(static_cast<std::uint8_t>(m.role));
    w.u8(m.fenced ? 1 : 0);
    w.u64(m.epoch);
    w.u64(m.commit_seq);
    w.str(m.primary_addr);
    w.u8(m.connected ? 1 : 0);
    w.u64(m.full_syncs);
    w.u64(m.deltas_applied);
    w.u64(m.subscribers);
    w.u64(m.journal_begin);
    w.u64(m.journal_end);
  }
  void operator()(const NotPrimaryResponse& m) {
    w.str(m.primary_addr);
    w.u64(m.epoch);
  }
  void operator()(const AdmitBatchResponse& m) {
    w.u64(m.admitted.size());
    for (const std::uint8_t v : m.admitted) w.u8(v != 0 ? 1 : 0);
    w.u64(m.flows_after);
  }
  void operator()(const ErrorResponse& m) { w.str(m.message); }
};

Request decode_request_body(MsgType type, io::ByteReader& r) {
  switch (type) {
    case MsgType::kAdmitRequest:
      return AdmitRequest{io::codec::decode_flow(r)};
    case MsgType::kRemoveRequest:
      return RemoveRequest{r.u64()};
    case MsgType::kWhatIfBatchRequest: {
      WhatIfBatchRequest m;
      m.verdict_only = r.boolean();
      const std::size_t n = r.count(8 + 8 + 8 + 1 + 8);  // min encoded flow
      m.candidates.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        m.candidates.push_back(io::codec::decode_flow(r));
      }
      return m;
    }
    case MsgType::kStatsRequest:
      decode_reserved(r, "STATS");
      return StatsRequest{};
    case MsgType::kSaveCheckpointRequest:
      decode_reserved(r, "SAVE_CHECKPOINT");
      return SaveCheckpointRequest{};
    case MsgType::kRestoreRequest:
      return RestoreRequest{r.str()};
    case MsgType::kShutdownRequest:
      decode_reserved(r, "SHUTDOWN");
      return ShutdownRequest{};
    case MsgType::kSubscribeRequest: {
      SubscribeRequest m;
      m.epoch = r.u64();
      m.next_seq = r.u64();
      m.history = r.u64();
      return m;
    }
    case MsgType::kPromoteRequest:
      decode_reserved(r, "PROMOTE");
      return PromoteRequest{};
    case MsgType::kRoleRequest:
      decode_reserved(r, "ROLE");
      return RoleRequest{};
    case MsgType::kRepointRequest:
      return RepointRequest{r.str()};
    case MsgType::kAdmitBatchRequest: {
      AdmitBatchRequest m;
      const std::size_t n = r.count(8 + 8 + 8 + 1 + 8);  // min encoded flow
      m.flows.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        m.flows.push_back(io::codec::decode_flow(r));
      }
      return m;
    }
    default:
      throw ProtocolError("response-typed frame where a request was expected");
  }
}

Response decode_response_body(MsgType type, io::ByteReader& r) {
  switch (type) {
    case MsgType::kAdmitResponse: {
      AdmitResponse m;
      if (r.boolean()) m.result = io::codec::decode_holistic_result(r);
      return m;
    }
    case MsgType::kRemoveResponse:
      return RemoveResponse{r.boolean()};
    case MsgType::kWhatIfBatchResponse: {
      WhatIfBatchResponse m;
      // Min encoded what-if: flags + lean converged/sweeps/flow_count.
      const std::size_t n = r.count(1 + 1 + 8 + 8);
      m.results.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        m.results.push_back(decode_what_if(r));
      }
      return m;
    }
    case MsgType::kStatsResponse: {
      StatsResponse m;
      m.stats = decode_engine_stats(r);
      m.flows = r.u64();
      m.shards = r.u64();
      m.role = decode_role(r);
      m.epoch = r.u64();
      m.commit_seq = r.u64();
      m.uptime_ms = r.u64();
      m.active_connections = r.u64();
      m.frames_served = r.u64();
      m.coalesced_commits = r.u64();
      m.pipelined_hwm = r.u64();
      return m;
    }
    case MsgType::kSaveCheckpointResponse:
      return SaveCheckpointResponse{r.str()};
    case MsgType::kRestoreResponse:
      return RestoreResponse{r.u64()};
    case MsgType::kShutdownResponse:
      decode_reserved(r, "SHUTDOWN response");
      return ShutdownResponse{};
    case MsgType::kSubscribeResponse: {
      SubscribeResponse m;
      m.epoch = r.u64();
      m.next_seq = r.u64();
      return m;
    }
    case MsgType::kSyncFullResponse: {
      SyncFullResponse m;
      m.epoch = r.u64();
      m.commit_seq = r.u64();
      m.history = r.u64();
      m.checkpoint = r.str();
      return m;
    }
    case MsgType::kDeltaResponse: {
      DeltaResponse m;
      m.kind = decode_delta_kind(r);
      m.epoch = r.u64();
      m.seq = r.u64();
      m.flows_after = r.u64();
      if (m.kind == DeltaKind::kRestore) {
        m.checkpoint = r.str();
        return m;
      }
      const std::size_t n = r.count(1 + 8);  // min op: kind + index
      m.ops.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        DeltaOp op;
        op.kind = static_cast<DeltaKind>(r.u8());
        if (op.kind == DeltaKind::kAdmit) {
          op.flow = io::codec::decode_flow(r);
        } else if (op.kind == DeltaKind::kRemove) {
          op.index = r.u64();
        } else {
          throw ProtocolError("invalid op kind inside batch delta");
        }
        m.ops.push_back(std::move(op));
      }
      return m;
    }
    case MsgType::kPromoteResponse:
      return PromoteResponse{r.u64()};
    case MsgType::kRoleResponse: {
      RoleResponse m;
      m.role = decode_role(r);
      m.fenced = r.boolean();
      m.epoch = r.u64();
      m.commit_seq = r.u64();
      m.primary_addr = r.str();
      m.connected = r.boolean();
      m.full_syncs = r.u64();
      m.deltas_applied = r.u64();
      m.subscribers = r.u64();
      m.journal_begin = r.u64();
      m.journal_end = r.u64();
      return m;
    }
    case MsgType::kNotPrimaryResponse: {
      NotPrimaryResponse m;
      m.primary_addr = r.str();
      m.epoch = r.u64();
      return m;
    }
    case MsgType::kAdmitBatchResponse: {
      AdmitBatchResponse m;
      const std::size_t n = r.count(1);
      m.admitted.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t v = r.u8();
        if (v > 1) {
          throw ProtocolError("invalid admit-batch verdict byte " +
                              std::to_string(v));
        }
        m.admitted.push_back(v);
      }
      m.flows_after = r.u64();
      return m;
    }
    case MsgType::kErrorResponse:
      return ErrorResponse{r.str()};
    default:
      throw ProtocolError("request-typed frame where a response was expected");
  }
}

[[nodiscard]] bool known_type(std::uint32_t t) {
  return (t >= static_cast<std::uint32_t>(MsgType::kAdmitRequest) &&
          t <= static_cast<std::uint32_t>(MsgType::kAdmitBatchRequest)) ||
         (t >= static_cast<std::uint32_t>(MsgType::kAdmitResponse) &&
          t <= static_cast<std::uint32_t>(MsgType::kAdmitBatchResponse)) ||
         t == static_cast<std::uint32_t>(MsgType::kErrorResponse);
}

template <typename Msg>
std::string encode_frame(const Msg& msg, MsgType type) {
  io::ByteWriter body;
  std::visit(BodyEncoder{body}, msg);

  io::ByteWriter frame;
  frame.raw(std::string_view(kMagic, sizeof kMagic));
  frame.u32(kVersion);
  frame.u32(static_cast<std::uint32_t>(type));
  frame.u64(body.bytes().size());
  frame.u64(io::fnv1a(body.bytes()));
  frame.raw(body.bytes());
  return frame.take();
}

/// Splits a whole frame into validated (header, body) and dispatches to
/// `decode_body`; shared by decode_request / decode_response.
template <typename Msg, typename DecodeBody>
Msg decode_frame(std::string_view frame, DecodeBody&& decode_body) {
  if (frame.size() < kHeaderSize) {
    throw ProtocolError("truncated frame (header)");
  }
  const FrameHeader h = decode_frame_header(frame.substr(0, kHeaderSize));
  const std::string_view body = frame.substr(kHeaderSize);
  if (body.size() != h.body_len) {
    throw ProtocolError(body.size() < h.body_len
                            ? "truncated frame (body shorter than declared)"
                            : "trailing bytes after frame body");
  }
  verify_body(h, body);
  try {
    io::ByteReader r(body, "rpc body");
    Msg msg = decode_body(h.type, r);
    if (!r.done()) {
      throw ProtocolError("trailing bytes inside frame body");
    }
    return msg;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    // WireError truncation/enum failures from the shared codecs, plus
    // structural validation from net/gmf builders.
    throw ProtocolError(std::string("malformed message body: ") + e.what());
  }
}

}  // namespace

MsgType type_of(const Request& req) {
  return static_cast<MsgType>(
      static_cast<std::uint32_t>(MsgType::kAdmitRequest) +
      static_cast<std::uint32_t>(req.index()));
}

MsgType type_of(const Response& resp) {
  if (std::holds_alternative<ErrorResponse>(resp)) {
    return MsgType::kErrorResponse;
  }
  return static_cast<MsgType>(
      static_cast<std::uint32_t>(MsgType::kAdmitResponse) +
      static_cast<std::uint32_t>(resp.index()));
}

std::string encode_request(const Request& req) {
  return encode_frame(req, type_of(req));
}

std::string encode_response(const Response& resp) {
  return encode_frame(resp, type_of(resp));
}

FrameHeader decode_frame_header(std::string_view header) {
  if (header.size() < kHeaderSize) {
    throw ProtocolError("truncated frame (header)");
  }
  if (std::memcmp(header.data(), kMagic, sizeof kMagic) != 0) {
    throw ProtocolError("bad magic — not a gmfnet rpc frame");
  }
  io::ByteReader r(header.data() + sizeof kMagic,
                   kHeaderSize - sizeof kMagic, "rpc header");
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version) + " (this build speaks " +
                        std::to_string(kVersion) + ")");
  }
  const std::uint32_t type = r.u32();
  if (!known_type(type)) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  FrameHeader h;
  h.type = static_cast<MsgType>(type);
  h.body_len = r.u64();
  if (h.body_len == 0) {
    throw ProtocolError("zero-length frame body");
  }
  if (h.body_len > kMaxBodyLen) {
    throw ProtocolError("oversized frame body (" +
                        std::to_string(h.body_len) + " bytes, limit " +
                        std::to_string(kMaxBodyLen) + ")");
  }
  h.checksum = r.u64();
  return h;
}

void verify_body(const FrameHeader& header, std::string_view body) {
  if (body.size() != header.body_len) {
    throw ProtocolError("frame body length mismatch");
  }
  if (io::fnv1a(body) != header.checksum) {
    throw ProtocolError("corrupted frame (checksum mismatch)");
  }
}

Request decode_request(std::string_view frame) {
  return decode_frame<Request>(frame, decode_request_body);
}

Response decode_response(std::string_view frame) {
  return decode_frame<Response>(frame, decode_response_body);
}

}  // namespace gmfnet::rpc
