// Packet-level failure drill on the full distributed stack: link-state
// unicast routing + SMRP session agents. A link is cut mid-session and
// the console shows the repair as it happens — detection, expanding-ring
// search, graft, and the data plane coming back.
//
//   $ ./build/examples/failure_drill            # timeline only
//   $ ./build/examples/failure_drill --trace    # plus the control-plane
//                                               # messages since the cut,
//                                               # from telemetry counters
#include <cstring>
#include <iostream>
#include <string_view>

#include "eval/table.hpp"
#include "net/waxman.hpp"
#include "obs/telemetry.hpp"
#include "smrp/harness.hpp"

int main(int argc, char** argv) {
  using namespace smrp;
  const bool want_trace =
      argc > 1 && std::strcmp(argv[1], "--trace") == 0;
  net::Rng rng(42);

  net::WaxmanParams wax;
  wax.node_count = 50;
  const net::Graph g = net::waxman_graph(wax, rng);

  proto::SessionConfig config;
  config.data_interval = 25.0;
  config.refresh_interval = 50.0;
  config.upstream_timeout = 100.0;
  proto::SimulationHarness h(g, /*source=*/0, config);
  h.start();

  std::vector<net::NodeId> members;
  while (members.size() < 8) {
    const auto m = static_cast<net::NodeId>(1 + rng.below(49));
    if (std::find(members.begin(), members.end(), m) == members.end()) {
      h.session().join(m);
      members.push_back(m);
    }
  }
  h.simulator().run_until(2000.0);

  const auto snapshot = h.session().snapshot_tree();
  if (!snapshot) {
    std::cerr << "session did not settle\n";
    return 1;
  }
  std::cout << "t=2000ms: session settled, " << members.size()
            << " members, tree cost " << snapshot->total_cost() << "\n";

  // Cut the busiest source-incident tree link that is not a bridge.
  net::LinkId victim = net::kNoLink;
  int worst = -1;
  for (const net::NodeId child : snapshot->children(0)) {
    const net::LinkId l = snapshot->parent_link(child);
    if (!g.connected_without(l)) continue;
    if (snapshot->subtree_members(child) > worst) {
      worst = snapshot->subtree_members(child);
      victim = l;
    }
  }
  if (victim == net::kNoLink) {
    std::cout << "no cuttable tree link near the source; done\n";
    return 0;
  }
  const auto survivors = snapshot->surviving_after_link(victim);
  std::cout << "t=2000ms: cutting link " << g.link(victim).a << "-"
            << g.link(victim).b << " (disconnects " << worst
            << " member(s))\n";
  // Count the control-plane chatter from the cut on: the network's
  // smrp.sim.{tx,rx,drop}.<MSG> counters start at zero here.
  obs::Telemetry telemetry;
  if (want_trace) h.network().set_telemetry(&telemetry);
  h.network().set_link_up(victim, false);
  const sim::Time fail_at = h.simulator().now();

  // Watch the repair unfold.
  std::vector<net::NodeId> victims;
  for (const net::NodeId m : members) {
    if (!survivors[static_cast<std::size_t>(m)]) victims.push_back(m);
  }
  std::vector<char> reported(victims.size(), 0);
  std::vector<std::pair<sim::Time, net::NodeId>> timeline;
  for (sim::Time t = fail_at; t < fail_at + 5000.0; t += 25.0) {
    h.simulator().run_until(t);
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (reported[i]) continue;
      const sim::Time last = h.session().last_data_at(victims[i]);
      if (last > fail_at) {
        timeline.emplace_back(last, victims[i]);
        reported[i] = 1;
      }
    }
    if (std::all_of(reported.begin(), reported.end(),
                    [](char c) { return c != 0; })) {
      break;
    }
  }
  std::sort(timeline.begin(), timeline.end());
  for (const auto& [at, member] : timeline) {
    std::cout << "t=" << eval::Table::fixed(at, 1) << "ms: member " << member
              << " restored (" << eval::Table::fixed(at - fail_at, 1)
              << "ms after the cut)\n";
  }
  std::cout << "repairs started: " << h.session().repairs_started()
            << ", completed: " << h.session().repairs_completed() << "\n";
  if (want_trace) {
    h.network().set_telemetry(nullptr);
    auto& metrics = telemetry.metrics;
    std::uint64_t drops = 0;
    for (const auto& [name, counter] : metrics.counters()) {
      if (std::string_view(name).starts_with("smrp.sim.drop.")) {
        drops += counter.value();
      }
    }
    std::cout << "\nrepair control traffic since the cut (telemetry):\n"
              << "  REPAIR_QUERY sent: "
              << metrics.counter("smrp.sim.tx.REPAIR_QUERY").value()
              << "\n  REPAIR_RESP sent:  "
              << metrics.counter("smrp.sim.tx.REPAIR_RESP").value()
              << "\n  JOIN_REQ sent:     "
              << metrics.counter("smrp.sim.tx.JOIN_REQ").value()
              << "\n  drops:             " << drops << "\n";
  }

  const auto after = h.session().snapshot_tree();
  if (after) {
    after->validate();
    std::cout << "post-repair tree is valid; cost " << after->total_cost()
              << " (was " << snapshot->total_cost() << ")\n";
  }
  return 0;
}
