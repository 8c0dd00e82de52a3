#include "wire.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "net/client.h"

namespace perfbench {

namespace net = vicinity::net;
namespace core = vicinity::core;

namespace {

constexpr const char* kHost = "127.0.0.1";

double thread_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

void encode_distance(std::uint64_t id, const Pair& p,
                     std::vector<std::uint8_t>& out) {
  net::FrameHeader h;
  h.payload_len = 8;
  h.op = net::Op::kDistance;
  h.request_id = id;
  net::encode_header(h, out);
  net::FrameWriter w(out);
  w.u32(p.s);
  w.u32(p.t);
}

void encode_update(std::uint64_t id, const core::GraphUpdate& u,
                   std::vector<std::uint8_t>& out) {
  net::FrameHeader h;
  h.payload_len = 16;
  h.op = net::Op::kApplyUpdate;
  h.request_id = id;
  net::encode_header(h, out);
  net::FrameWriter w(out);
  w.u8(u.kind == core::UpdateKind::kInsert ? 0 : 1);
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u32(u.u);
  w.u32(u.v);
  w.u32(u.weight);
}

/// Fills `r` from a DISTANCE reply frame.
void read_distance(const net::FrameHeader& h,
                   std::span<const std::uint8_t> payload, WireReply& r) {
  r.answered = true;
  r.status = h.status;
  if (h.status != net::Status::kOk) return;
  net::FrameReader fr(payload);
  r.epoch = fr.u64();
  const net::DistanceRecord rec = net::read_distance_record(fr);
  r.answer = {rec.dist, rec.method, rec.exact};
}

void read_update(const net::FrameHeader& h,
                 std::span<const std::uint8_t> payload, WireUpdate& u) {
  u.ok = h.status == net::Status::kOk;
  if (!u.ok) return;
  net::FrameReader fr(payload);
  u.reply = net::read_update_reply(fr);
}

/// Splits whole frames off the front of a receive buffer; bytes of a
/// partial frame stay for the next recv.
class FrameParser {
 public:
  FrameParser() : buf_(1u << 16) {}

  /// One recv_some() into the buffer; throws on EOF.
  void fill(net::Client& c) {
    if (have_ == buf_.size()) buf_.resize(buf_.size() * 2);
    const std::size_t got =
        c.recv_some(buf_.data() + have_, buf_.size() - have_);
    if (got == 0) throw std::runtime_error("vicinityd closed the connection");
    have_ += got;
  }

  /// Calls fn(header, payload) for every complete frame buffered.
  template <typename Fn>
  void drain(Fn&& fn) {
    std::size_t off = 0;
    while (have_ - off >= net::kFrameHeaderBytes) {
      const net::FrameHeader h = net::decode_header(
          std::span<const std::uint8_t>(buf_.data() + off,
                                        net::kFrameHeaderBytes));
      const std::size_t len = net::kFrameHeaderBytes + h.payload_len;
      if (have_ - off < len) break;
      fn(h, std::span<const std::uint8_t>(
                buf_.data() + off + net::kFrameHeaderBytes, h.payload_len));
      off += len;
    }
    if (off > 0) std::memmove(buf_.data(), buf_.data() + off, have_ - off);
    have_ -= off;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t have_ = 0;
};

}  // namespace

WireLog run_lone(std::uint16_t port, PairCursor& pairs, double seconds,
                 Tracer& tracer, std::uint64_t phase_span) {
  WireLog log;
  net::Client c;
  c.connect(kHost, port);
  const double cpu0 = thread_cpu_us();
  const std::int64_t start = now_ns();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end || log.replies.empty()) {
    WireReply r;
    r.pair = pairs.next();
    const Pair p = pairs.pairs[r.pair];
    const std::int64_t t0 = now_ns();
    const std::uint64_t id = c.send_distance(p.s, p.t);
    const auto raw = c.recv_reply();
    const std::int64_t t1 = now_ns();
    if (!raw) throw std::runtime_error("vicinityd closed the connection");
    read_distance(raw->header, raw->payload, r);
    if (r.status == net::Status::kOk) {
      log.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    tracer.span("net.request", id, phase_span, t0, t1,
                static_cast<std::int64_t>(net::Op::kDistance));
    log.replies.push_back(r);
  }
  log.client_cpu_us = thread_cpu_us() - cpu0;
  return log;
}

WireLog run_lone_updates(std::uint16_t port, UpdateFeed& feed,
                         std::size_t count, Tracer& tracer,
                         std::uint64_t phase_span) {
  WireLog log;
  net::Client c;
  c.connect(kHost, port);
  while (log.updates.size() < count && feed.next < feed.stream.size()) {
    WireUpdate u;
    u.stream_index = feed.next++;
    const core::GraphUpdate& g = feed.stream[u.stream_index];
    const std::int64_t t0 = now_ns();
    const std::uint64_t id = g.kind == core::UpdateKind::kInsert
                                 ? c.send_insert_edge(g.u, g.v, g.weight)
                                 : c.send_remove_edge(g.u, g.v);
    const auto raw = c.recv_reply();
    const std::int64_t t1 = now_ns();
    if (!raw) throw std::runtime_error("vicinityd closed the connection");
    read_update(raw->header, raw->payload, u);
    u.latency_us = static_cast<double>(t1 - t0) / 1e3;
    tracer.span("net.request", id, phase_span, t0, t1,
                static_cast<std::int64_t>(net::Op::kApplyUpdate));
    log.updates.push_back(u);
  }
  return log;
}

WireLog run_closed(std::uint16_t port, PairCursor& pairs, std::size_t window,
                   double seconds, std::size_t min_replies, UpdateFeed& feed,
                   Tracer& tracer, std::uint64_t phase_span) {
  struct Slot {
    std::int64_t sent_ns;
    std::uint32_t pos;  ///< into log.replies, or log.updates when update
    bool update;
  };
  WireLog log;
  net::Client c;
  c.connect(kHost, port);
  std::vector<Slot> slots;  // by request id - 1
  std::vector<std::uint8_t> out;
  FrameParser parser;
  std::size_t inflight = 0;
  std::size_t answered = 0;

  const double cpu0 = thread_cpu_us();
  const std::int64_t start = now_ns();
  log.start_ns = start;
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t reads_sent = 0;
  std::size_t updates_sent = 0;  // of this phase's toggle pair
  bool closing = false;          // time is up: send the pair's second half
  bool stopping = false;
  for (;;) {
    const std::int64_t now = now_ns();
    if (!stopping && now >= end && answered >= min_replies) {
      if (updates_sent == 1) {
        closing = true;
      } else {
        stopping = true;
      }
    }
    if (!stopping && inflight < window) {
      out.clear();
      for (; inflight < window; ++inflight) {
        const std::uint64_t id = slots.size() + 1;
        if (feed.every > 0 && updates_sent < 2 &&
            feed.next + 2 - updates_sent <= feed.stream.size() &&
            (closing || reads_sent >= feed.every * (updates_sent + 1))) {
          encode_update(id, feed.stream[feed.next], out);
          slots.push_back(
              {now, static_cast<std::uint32_t>(log.updates.size()), true});
          log.updates.push_back({feed.next++, false, {}, 0.0});
          ++updates_sent;
        } else {
          ++reads_sent;
          const std::uint32_t i = pairs.next();
          encode_distance(id, pairs.pairs[i], out);
          slots.push_back(
              {now, static_cast<std::uint32_t>(log.replies.size()), false});
          log.replies.push_back({i, net::Status::kOk, false, 0, {}});
        }
      }
      c.send_bytes(out.data(), out.size());
    }
    if (inflight == 0) break;
    parser.fill(c);
    const std::int64_t got = now_ns();
    parser.drain([&](const net::FrameHeader& h,
                     std::span<const std::uint8_t> payload) {
      if (h.request_id == 0 || h.request_id > slots.size()) {
        throw std::runtime_error("reply with an unknown request id");
      }
      const Slot& s = slots[h.request_id - 1];
      const double us = static_cast<double>(got - s.sent_ns) / 1e3;
      if (s.update) {
        WireUpdate& u = log.updates[s.pos];
        read_update(h, payload, u);
        u.latency_us = us;
      } else {
        WireReply& r = log.replies[s.pos];
        read_distance(h, payload, r);
        if (r.status == net::Status::kOk) {
          log.latency_us.push_back(us);
          log.done_ns.push_back(got);
        }
        ++answered;
      }
      tracer.span("net.request", h.request_id, phase_span, s.sent_ns, got,
                  static_cast<std::int64_t>(h.op));
      --inflight;
    });
  }
  log.client_cpu_us = thread_cpu_us() - cpu0;
  return log;
}

WireLog run_open(std::uint16_t port, PairCursor& pairs, double rate,
                 double seconds, std::vector<double>& lateness_us,
                 Tracer& tracer, std::uint64_t phase_span) {
  const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
  WireLog log;
  log.replies.resize(n);
  std::vector<std::uint8_t> frames;
  for (std::size_t i = 0; i < n; ++i) {
    log.replies[i].pair = pairs.next();
    encode_distance(i + 1, pairs.pairs[log.replies[i].pair], frames);
  }
  const std::size_t frame_bytes = frames.size() / n;

  net::Client c;
  c.connect(kHost, port);
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(interval_ns *
                                             static_cast<double>(i));
  };
  std::vector<std::int64_t> sent(n), got(n);
  std::exception_ptr sender_error;
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t d = due(i);
        std::int64_t now = now_ns();
        if (d - now > 200'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(d - now - 100'000));
        }
        while ((now = now_ns()) < d) {
        }
        sent[i] = now;
        c.send_bytes(frames.data() + i * frame_bytes, frame_bytes);
      }
    } catch (...) {
      sender_error = std::current_exception();
    }
  });
  std::exception_ptr receiver_error;
  try {
    FrameParser parser;
    std::size_t answered = 0;
    while (answered < n) {
      parser.fill(c);
      const std::int64_t t = now_ns();
      parser.drain([&](const net::FrameHeader& h,
                       std::span<const std::uint8_t> payload) {
        if (h.request_id == 0 || h.request_id > n) {
          throw std::runtime_error("reply with an unknown request id");
        }
        const std::size_t i = h.request_id - 1;
        read_distance(h, payload, log.replies[i]);
        got[i] = t;
        ++answered;
      });
    }
  } catch (...) {
    // The sender's list is finite, and a dead peer fails its send().
    receiver_error = std::current_exception();
  }
  sender.join();
  if (receiver_error) std::rethrow_exception(receiver_error);
  if (sender_error) std::rethrow_exception(sender_error);

  for (std::size_t i = 0; i < n; ++i) {
    lateness_us.push_back(static_cast<double>(sent[i] - due(i)) / 1e3);
    if (log.replies[i].status == net::Status::kOk) {
      log.latency_us.push_back(static_cast<double>(got[i] - due(i)) / 1e3);
    }
    tracer.span("net.request", i + 1, phase_span, due(i), got[i],
                static_cast<std::int64_t>(net::Op::kDistance));
  }
  return log;
}

}  // namespace perfbench
