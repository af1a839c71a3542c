// `drill`: the full packet-level stack on a 1,000-node Barabási–Albert
// graph. One session; a sequence of persistent cuts, each the
// source-incident tree link carrying the most members, replayed first in
// SMRP mode (local detour) and then in PIM mode (global detour after
// OSPF-lite reconverges), under bench_restoration_time's timer settings.
// At this size SPF reruns in the routing layer are most of the wall.
#include <algorithm>
#include <memory>
#include <iostream>
#include <numeric>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "net/random_graphs.hpp"
#include "stack.hpp"

namespace perfbench {
namespace {

using namespace smrp;

constexpr int kNodes = 1000;
constexpr int kEdgesPerNode = 3;
constexpr int kMembers = 40;
constexpr int kCuts = 2;
constexpr net::NodeId kSource = 0;
constexpr double kSettleMs = 3000.0;
/// Sim time each cut is given before the next one: long enough for PIM's
/// restoration after the dead interval and for routing to reconverge.
constexpr double kPhaseMs = 4000.0;
constexpr double kPollMs = 25.0;  ///< = data interval, see first_payload

proto::SessionConfig session_config(proto::SessionConfig::Mode mode) {
  // bench_restoration_time's asymmetry: data-driven multicast detection is
  // fast, the unicast IGP keeps slow hello/dead timers and an SPF delay.
  proto::SessionConfig config;
  config.mode = mode;
  config.data_interval = 25.0;
  config.refresh_interval = 50.0;
  config.upstream_timeout = 100.0;
  config.state_timeout = 400.0;
  config.repair_retry = 40.0;
  return config;
}

routing::RoutingConfig routing_config() {
  routing::RoutingConfig config;
  config.hello_interval = 500.0;
  config.dead_interval = 2000.0;
  config.spf_delay = 100.0;
  return config;
}

struct ModeRun {
  double wall_s = 0.0;  ///< joins, settle and every cut phase
  std::vector<net::LinkId> cuts;
  std::vector<double> restore_ms;  ///< per restored victim
  std::int64_t victims = 0;
  std::int64_t unrestored = 0;
  std::int64_t bad_routes = 0;
  double reconverge_ms = 0.0;  ///< summed over cuts
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t lsa_floods = 0;
  int repairs = 0;
  StackClock clock;
};

/// The source-incident tree link with the most members below it whose loss
/// leaves the live graph connected; kNoLink when there is none.
net::LinkId worst_cut(const net::Graph& g, const mcast::MulticastTree& tree,
                      const check::Liveness& live) {
  net::LinkId best = net::kNoLink;
  int most = 0;
  for (const net::NodeId child : tree.children(kSource)) {
    const net::LinkId link = tree.parent_link(child);
    if (tree.subtree_members(child) <= most) continue;
    check::Liveness without = live;
    without.banned = link;
    const std::vector<char> seen = check::reachable(g, kSource, without);
    if (std::find(seen.begin(), seen.end(), 0) != seen.end()) continue;
    most = tree.subtree_members(child);
    best = link;
  }
  return best;
}

check::Liveness live_links(const sim::SimNetwork& net) {
  check::Liveness live;
  const int links = net.graph().link_count();
  live.link_up.resize(static_cast<std::size_t>(links));
  for (net::LinkId l = 0; l < links; ++l) {
    live.link_up[static_cast<std::size_t>(l)] = net.link_up(l) ? 1 : 0;
  }
  return live;
}

/// A harness built and started: the set-up half of one mode.
struct Stack {
  proto::SimulationHarness h;
  StackClock clock;
  bool trace;

  Stack(const net::Graph& g, proto::SessionConfig::Mode mode, bool timed)
      : h(g, kSource, session_config(mode), routing_config()), trace(timed) {
    if (trace) time_handlers(h, clock);
    start_stack(h, &clock);
  }
};

/// The timed half of one mode: joins, settle, then the cuts. SMRP mode
/// picks the cuts (returned in `cuts`); PIM mode replays them.
ModeRun drive(Stack& stack, const net::Graph& g,
              const std::vector<net::NodeId>& members,
              const std::vector<net::LinkId>& replay) {
  ModeRun run;
  proto::SimulationHarness& h = stack.h;
  StackClock* clock = stack.trace ? &stack.clock : nullptr;
  const Clock::time_point t0 = Clock::now();
  for (const net::NodeId m : members) h.session().join(m);
  run_until(h, kSettleMs, clock);

  const bool picking = replay.empty();
  for (int k = 0; k < kCuts; ++k) {
    const std::optional<mcast::MulticastTree> tree = h.session().snapshot_tree();
    check::Liveness live = live_links(h.network());
    net::LinkId link = net::kNoLink;
    if (picking) {
      if (tree) link = worst_cut(g, *tree, live);
    } else if (k < static_cast<int>(replay.size())) {
      link = replay[static_cast<std::size_t>(k)];
    }
    if (link == net::kNoLink) break;
    run.cuts.push_back(link);

    // Victims: members whose tree path used the cut link.
    std::vector<net::NodeId> victims;
    if (tree) {
      const std::vector<char> survivors = tree->surviving_after_link(link);
      for (const net::NodeId m : members) {
        if (!survivors[static_cast<std::size_t>(m)]) victims.push_back(m);
      }
    }
    const double cut_at = h.simulator().now();
    h.network().set_link_up(link, false);
    live.link_up[static_cast<std::size_t>(link)] = 0;

    // Poll at the data interval: at most one payload arrives between two
    // polls, so the first fresh last_data_at is the first payload.
    std::vector<double> first(victims.size(), -1.0);
    for (double t = cut_at + kPollMs; t <= cut_at + kPhaseMs + 1e-9;
         t += kPollMs) {
      run_until(h, t, clock);
      for (std::size_t i = 0; i < victims.size(); ++i) {
        const double at = h.session().last_data_at(victims[i]);
        if (first[i] < 0.0 && at > cut_at) first[i] = at;
      }
    }
    const std::vector<char> connected = check::reachable(g, kSource, live);
    run.victims += static_cast<std::int64_t>(victims.size());
    run.unrestored += static_cast<std::int64_t>(
        check::unrestored(victims, connected, first, cut_at).size());
    for (const double at : first) {
      if (at > cut_at) run.restore_ms.push_back(at - cut_at);
    }
    run.reconverge_ms += h.routing().last_table_change() - cut_at;

    // Routing after reconvergence: every router's next hop to the source
    // lies on a shortest path of the surviving graph.
    std::vector<net::NodeId> next_hop(static_cast<std::size_t>(g.node_count()));
    for (net::NodeId n = 0; n < g.node_count(); ++n) {
      next_hop[static_cast<std::size_t>(n)] = h.routing().next_hop(n, kSource);
    }
    run.bad_routes += static_cast<std::int64_t>(
        check::bad_next_hops(g, kSource, live, next_hop).size());
  }
  run.wall_s = seconds_since(t0);
  run.events = h.simulator().processed();
  run.messages = h.network().messages_sent();
  run.lsa_floods = h.routing().lsa_floods();
  run.repairs = h.session().repairs_completed();
  run.clock = stack.clock;
  return run;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

Result run_drill(const Options& opt, Clock::time_point process_start) {
  net::Rng rng(opt.seed);
  net::BarabasiAlbertParams params;
  params.node_count = kNodes;
  params.edges_per_node = kEdgesPerNode;
  const net::Graph g = net::barabasi_albert_graph(params, rng);
  std::vector<net::NodeId> members;
  while (static_cast<int>(members.size()) < kMembers) {
    const auto m = static_cast<net::NodeId>(1 + rng.below(kNodes - 1));
    if (std::find(members.begin(), members.end(), m) == members.end()) {
      members.push_back(m);
    }
  }
  // Set-up ends with the first mode's harness built and routing started
  // (one Dijkstra per router); every later harness is built outside the
  // timed sections too, so rounds time the same work.
  auto next = std::make_unique<Stack>(g, proto::SessionConfig::Mode::kSmrp,
                                      opt.trace);
  Result result;
  const double setup_s = seconds_since(process_start);

  std::vector<Values> rounds;
  std::vector<net::LinkId> first_cuts;
  Values first_quality;
  run_rounds(opt.seconds, [&](int index) {
    if (!next) {
      next = std::make_unique<Stack>(g, proto::SessionConfig::Mode::kSmrp,
                                     opt.trace);
    }
    const ModeRun smrp_run = drive(*next, g, members, {});
    next.reset();
    auto pim = std::make_unique<Stack>(g, proto::SessionConfig::Mode::kPimSpf,
                                       opt.trace);
    const ModeRun pim_run = drive(*pim, g, members, smrp_run.cuts);
    pim.reset();

    Values quality{{"smrp.restore_ms", mean(smrp_run.restore_ms)},
                   {"routing.pim_restore_ms", mean(pim_run.restore_ms)}};
    if (index == 0) {
      first_cuts = smrp_run.cuts;
      first_quality = quality;
    } else if (smrp_run.cuts != first_cuts || quality != first_quality) {
      result.fail("round " + std::to_string(index) +
                  " differs from round 0 on the same inputs");
    }
    for (const ModeRun* run : {&smrp_run, &pim_run}) {
      const char* name = run == &smrp_run ? "smrp" : "pim";
      result.attempted += run->victims;
      result.failed += run->unrestored;
      if (run->unrestored > 0) {
        result.fail(std::string(name) + ": " +
                    std::to_string(run->unrestored) +
                    " connected members not restored");
      }
      if (run->bad_routes > 0) {
        result.fail(std::string(name) + ": " +
                    std::to_string(run->bad_routes) +
                    " next hops off the shortest path");
      }
    }
    if (smrp_run.cuts.empty() || smrp_run.restore_ms.empty() ||
        pim_run.restore_ms.empty()) {
      result.fail("no cut disconnected a member");
    } else if (!(quality["smrp.restore_ms"] <
                 quality["routing.pim_restore_ms"])) {
      result.fail("SMRP restoration not faster than PIM (paper section 1)");
    }

    // Per round: every member joins once per mode, and every cut is one
    // persistent failure repaired per mode.
    const double wall = smrp_run.wall_s + pim_run.wall_s;
    const auto cuts = static_cast<double>(smrp_run.cuts.size() +
                                          pim_run.cuts.size());
    Values v{{"wall_s", wall},
             {"joins_per_s", 2.0 * kMembers / wall},
             {"repairs_per_s", cuts / wall}};
    if (opt.trace) {
      const StackClock& a = smrp_run.clock;
      const StackClock& b = pim_run.clock;
      const double run_s = a.run_s + b.run_s;
      const double handlers = a.routing_s + b.routing_s + a.smrp_s + b.smrp_s;
      const auto events = static_cast<double>(smrp_run.events + pim_run.events);
      v["sim.events"] = events;
      v["sim.messages"] = static_cast<double>(smrp_run.messages + pim_run.messages);
      v["sim.loop_self_s"] = run_s - handlers;
      v["sim.events_per_s"] = events / run_s;
      v["routing.start_s"] = a.routing_start_s + b.routing_start_s;
      v["routing.handle_s"] = a.routing_s + b.routing_s;
      v["routing.handle_calls"] =
          static_cast<double>(a.routing_calls + b.routing_calls);
      v["routing.lsa_floods"] =
          static_cast<double>(smrp_run.lsa_floods + pim_run.lsa_floods);
      v["routing.reconverge_ms"] =
          (smrp_run.reconverge_ms + pim_run.reconverge_ms) /
          static_cast<double>(smrp_run.cuts.size() + pim_run.cuts.size());
      v["smrp.handle_s"] = a.smrp_s + b.smrp_s;
      v["smrp.handle_calls"] = static_cast<double>(a.smrp_calls + b.smrp_calls);
      v["smrp.repairs"] = smrp_run.repairs;
    }
    rounds.push_back(std::move(v));
  });

  const Values med = median_by_key(rounds);
  result.end_to_end = {{"setup_s", setup_s},
                       {"wall_s", med.at("wall_s")},
                       {"peak_rss_mb", peak_rss_mb()},
                       {"joins_per_s", med.at("joins_per_s")},
                       {"repairs_per_s", med.at("repairs_per_s")}};
  for (const auto& [k, val] : med) {
    if (k.find('.') != std::string::npos) result.per_layer[k] = val;
  }
  result.quality = first_quality;
  std::cerr << "drill: " << rounds.size() << " rounds, cuts";
  for (const net::LinkId l : first_cuts) std::cerr << ' ' << l;
  std::cerr << '\n';
  return result;
}

}  // namespace perfbench
