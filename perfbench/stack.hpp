// The packet-level stack as the drill and chaos workloads drive it: the
// repo's SimulationHarness, optionally with every layer boundary timed
// from outside. Timing replaces the harness's demux handlers with copies
// that clock LinkStateRouting::handle and DistributedSession::handle, and
// wraps Simulator::run_until; the demux order and the calls are the
// harness's own, so a timed run is event-for-event the untimed one.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "smrp/harness.hpp"

namespace perfbench {

/// Wall time spent inside each layer of one packet-level run.
struct StackClock {
  double run_s = 0.0;          ///< inside Simulator::run_until
  double routing_s = 0.0;      ///< inside LinkStateRouting::handle
  double smrp_s = 0.0;         ///< inside DistributedSession::handle
  double routing_start_s = 0.0;
  std::uint64_t routing_calls = 0;
  std::uint64_t smrp_calls = 0;
};

/// Route every node's deliveries through timed calls into the two
/// protocol layers (same order as SimulationHarness: routing first).
inline void time_handlers(smrp::proto::SimulationHarness& h, StackClock& clock) {
  const int nodes = h.network().graph().node_count();
  for (smrp::net::NodeId n = 0; n < nodes; ++n) {
    h.network().set_handler(n, [&h, &clock, n](smrp::net::NodeId from,
                                               const smrp::sim::Message& m) {
      const Clock::time_point t0 = Clock::now();
      const bool routed = h.routing().handle(n, from, m);
      const Clock::time_point t1 = Clock::now();
      clock.routing_s += std::chrono::duration<double>(t1 - t0).count();
      ++clock.routing_calls;
      if (routed) return;
      h.session().handle(n, from, m);
      clock.smrp_s += seconds_since(t1);
      ++clock.smrp_calls;
    });
  }
}

/// SimulationHarness::start(), with routing start timed when `clock` is set.
inline void start_stack(smrp::proto::SimulationHarness& h, StackClock* clock) {
  const Clock::time_point t0 = Clock::now();
  h.routing().start();
  if (clock != nullptr) clock->routing_start_s += seconds_since(t0);
  h.session().start();
}

/// Simulator::run_until, timed when `clock` is set.
inline void run_until(smrp::proto::SimulationHarness& h, double until,
                      StackClock* clock) {
  const Clock::time_point t0 = Clock::now();
  h.simulator().run_until(until);
  if (clock != nullptr) clock->run_s += seconds_since(t0);
}

}  // namespace perfbench
