// Load generators over loopback through net::Client. Each one drives a
// single connection from the calling thread (the open loop adds one sender
// thread), records every request it sends into a WireLog, and times each
// request from send (or, open loop, from its due time) to reply.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "core/dynamic.h"
#include "net/protocol.h"

namespace perfbench {

/// One APPLY_UPDATE the daemon acknowledged (or refused).
struct WireUpdate {
  std::uint32_t stream_index = 0;  ///< index into the update stream
  bool ok = false;
  vicinity::net::UpdateReply reply;
  double latency_us = 0.0;
};

/// Everything sent over the wire in one phase.
struct WireLog {
  std::vector<WireReply> replies;    ///< one per DISTANCE sent
  std::vector<double> latency_us;    ///< OK DISTANCE round trips
  std::vector<std::int64_t> done_ns; ///< when each of those came back
  std::int64_t start_ns = 0;         ///< phase start
  std::vector<WireUpdate> updates;   ///< one per APPLY_UPDATE sent
  double client_cpu_us = 0.0;        ///< generator thread CPU time
};

/// Where the next request's pair comes from: pairs[(cursor++) % size].
struct PairCursor {
  std::span<const Pair> pairs;
  std::uint64_t cursor = 0;

  std::uint32_t next() {
    return static_cast<std::uint32_t>(cursor++ % pairs.size());
  }
};

/// Where the next update comes from, and how often to send one.
struct UpdateFeed {
  std::span<const vicinity::core::GraphUpdate> stream;
  std::uint32_t next = 0;
  /// A closed-loop phase sends one toggle pair: an update after `every`
  /// DISTANCE requests and its partner after `every` more. 0 = no updates.
  std::size_t every = 0;
};

/// Exactly one request in flight: DISTANCE round trips until `seconds`
/// pass (at least one).
WireLog run_lone(std::uint16_t port, PairCursor& pairs, double seconds,
                 Tracer& tracer, std::uint64_t phase_span);

/// `count` APPLY_UPDATEs one at a time, no concurrent reads, or fewer if
/// the feed runs dry.
WireLog run_lone_updates(std::uint16_t port, UpdateFeed& feed,
                         std::size_t count, Tracer& tracer,
                         std::uint64_t phase_span);

/// Closed loop: `window` DISTANCE requests pipelined on one connection,
/// each reply refilling the window, until `seconds` pass and at least
/// `min_replies` came back. With feed.every > 0, the two APPLY_UPDATE
/// frames of one toggle pair are interleaved on the same connection (see
/// UpdateFeed), the second sent early if time runs out first.
WireLog run_closed(std::uint16_t port, PairCursor& pairs, std::size_t window,
                   double seconds, std::size_t min_replies, UpdateFeed& feed,
                   Tracer& tracer, std::uint64_t phase_span);

/// Open loop at a fixed rate for `seconds`: a sender thread sends each
/// request at its due time whether or not earlier ones were answered; the
/// latency of a request runs from its due time, so a stalled sender or
/// server is charged to every request that waited. `lateness_us` gets how
/// late the sender actually sent each request.
WireLog run_open(std::uint16_t port, PairCursor& pairs, double rate,
                 double seconds, std::vector<double>& lateness_us,
                 Tracer& tracer, std::uint64_t phase_span);

}  // namespace perfbench
