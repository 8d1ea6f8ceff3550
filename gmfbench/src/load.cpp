#include "load.hpp"

#include <poll.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"

namespace gmfbench {

namespace rpc = gmfnet::rpc;

namespace {

constexpr int kRequestTimeoutMs = 30'000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

rpc::Client connect(const std::string& socket) {
  rpc::ClientConfig cfg;
  cfg.request_timeout_ms = kRequestTimeoutMs;
  cfg.max_retries = 0;  // a failed probe counts as failed, not retried
  return rpc::Client::connect_unix(socket, cfg);
}

}  // namespace

ReaderResult run_reader(const ReaderConfig& cfg) {
  ReaderResult out;
  Tracer tracer(false, cfg.epoch);
  const std::vector<std::size_t>& usable = cfg.plan->usable_probes;
  std::optional<rpc::Client> client;
  try {
    client.emplace(connect(*cfg.socket));
  } catch (const std::exception&) {
    // Counted as a failed probe by the first iteration's reconnect.
  }
  std::this_thread::sleep_until(cfg.start_at);
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= cfg.stop_at ||
        (cfg.stop != nullptr && cfg.stop->load(std::memory_order_acquire))) {
      break;
    }
    tracer.set_enabled(t0 >= cfg.trace_from);
    const std::size_t probe = usable[(cfg.offset + i) % usable.size()];
    ++out.attempted;
    try {
      Tracer::Scope span(tracer, "client.what_if", cfg.request_base + i);
      if (!client) client.emplace(connect(*cfg.socket));
      const gmfnet::engine::WhatIfResult r =
          client->what_if(cfg.world->probes[probe]);
      const Clock::time_point t1 = Clock::now();
      out.samples.push_back({t0, us_between(t0, t1)});
      cfg.oracle->check_probe(probe, r);
    } catch (const rpc::RemoteError&) {
      ++out.failed;  // the connection stays usable
    } catch (const std::exception&) {
      ++out.failed;
      client.reset();  // transport or protocol failure: reconnect
    }
  }
  out.spans = tracer.take();
  return out;
}

WriterResult run_writer(Channel& ch, const WriterConfig& cfg) {
  WriterResult out;
  const bool open = !cfg.due.empty();
  if (open && cfg.due.size() != cfg.ops) {
    throw std::invalid_argument("run_writer: one due time per op");
  }
  std::vector<Clock::time_point> due(cfg.ops);
  std::deque<std::size_t> outstanding;
  Clock::time_point next_due = cfg.start + (open ? cfg.due[0] : Clock::duration{});
  std::size_t i = 0;
  bool stopping = false;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (!open && !stopping && outstanding.empty() && i > 0 &&
        now >= cfg.stop_at &&
        (cfg.boundary.empty() || cfg.boundary[i - 1])) {
      stopping = true;
    }
    const bool can_send =
        i < cfg.ops && !stopping &&
        (open ? now >= next_due : outstanding.empty());
    if (can_send) {
      if (!open) next_due = now;
      if (cfg.before_send) cfg.before_send(i);
      due[i] = next_due;
      out.lag_us.push_back(us_between(next_due, Clock::now()));
      ch.send(i);
      outstanding.push_back(i);
      ++i;
      ++out.sent;
      if (open && i < cfg.ops) next_due = cfg.start + cfg.due[i];
      continue;
    }
    if (outstanding.empty()) {
      if (i >= cfg.ops || stopping) break;
      std::this_thread::sleep_until(next_due);
      continue;
    }
    const Clock::time_point wait_until =
        open && i < cfg.ops ? next_due : Clock::time_point::max();
    Reply reply;
    if (!ch.receive(wait_until, reply)) continue;
    now = Clock::now();
    const std::size_t op = outstanding.front();
    outstanding.pop_front();
    out.latency_us.push_back(us_between(due[op], now));
    out.replies.push_back(reply);
    if (reply.failed) ++out.failed;
  }
  return out;
}

std::vector<std::chrono::nanoseconds> poisson_due(
    std::size_t ops, std::chrono::nanoseconds window, std::uint64_t seed) {
  std::vector<std::chrono::nanoseconds> out;
  out.reserve(ops);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < ops; ++i) {
    // SplitMix64: a fixed generator, so schedules do not depend on the
    // standard library's distributions.
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    out.emplace_back(static_cast<std::int64_t>(
        u * static_cast<double>(window.count())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

class DaemonChannel final : public Channel {
 public:
  DaemonChannel(const std::string& socket, const World& world,
                const Plan& plan)
      : sock_(rpc::connect_unix(socket, kRequestTimeoutMs)),
        flows_(op_flows(world)),
        plan_(plan) {
    sock_.set_recv_timeout_ms(kRequestTimeoutMs);
    sock_.set_send_timeout_ms(kRequestTimeoutMs);
  }

  void send(std::size_t op) override {
    const Op& o = plan_.ops.at(op);
    const rpc::Request req =
        o.kind == Op::Kind::kAdmit
            ? rpc::Request{rpc::AdmitRequest{flows_.at(o.flow)}}
            : rpc::Request{rpc::RemoveRequest{o.index}};
    rpc::send_frame(sock_, rpc::encode_request(req));
  }

  bool receive(Clock::time_point deadline, Reply& reply) override {
    pollfd pfd{sock_.fd(), POLLIN, 0};
    if (deadline != Clock::time_point::max()) {
      const auto left = deadline - Clock::now();
      if (left <= Clock::duration::zero()) return false;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
      timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
      if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) return false;
    } else if (!sock_.wait_readable(kRequestTimeoutMs)) {
      throw rpc::TimeoutError("no answer to a scripted mutation");
    }
    const std::optional<std::string> frame = rpc::recv_frame(sock_);
    if (!frame) throw rpc::TransportError("daemon closed the writer link");
    const rpc::Response resp = rpc::decode_response(*frame);
    if (const auto* a = std::get_if<rpc::AdmitResponse>(&resp)) {
      reply = {false, a->result.has_value()};
    } else if (const auto* r = std::get_if<rpc::RemoveResponse>(&resp)) {
      reply = {false, r->removed};
    } else {
      reply = {true, false};
    }
    return true;
  }

 private:
  rpc::Socket sock_;
  const std::vector<gmfnet::gmf::Flow>& flows_;
  const Plan& plan_;
};

}  // namespace

std::unique_ptr<Channel> make_daemon_channel(const std::string& socket,
                                             const World& world,
                                             const Plan& plan) {
  return std::make_unique<DaemonChannel>(socket, world, plan);
}

}  // namespace gmfbench
