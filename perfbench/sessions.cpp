// `sessions`: analytic, no DES. 150 Zipf-sized SMRP-engine sessions with
// churn run through eval::MultiSessionDriver::run_seeded on a ~10k-node
// transit-stub graph (bench_scale's scale10k shape). Then every session
// takes one worst-case link failure, repaired on copies of its tree by
// repair_session with the local and with the global policy, both through
// the driver's shared RoutingOracle. Path selection, the oracle, tree
// storage and recovery do the work here.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "eval/engine.hpp"
#include "sessions.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"

namespace perfbench {
namespace {

using namespace smrp;

constexpr int kSourcePool = 32;
constexpr std::uint64_t kSessionStreamSeed = 20050628;

eval::MultiSessionParams session_params(int workers) {
  eval::MultiSessionParams p;
  p.sessions = 150;
  p.min_session_size = 2;
  p.max_session_size = 96;
  p.churn_events_per_session = 4.0;
  p.engine = eval::SessionEngine::kSmrp;
  p.shards = workers;
  return p;
}

/// The session's worst-case cut: among the members' worst-case links (the
/// source-incident link on each member's path), the one above the most
/// members. kNoLink for a session without members.
net::LinkId worst_link(const mcast::MulticastTree& t) {
  net::LinkId best = net::kNoLink;
  int most = 0;
  for (const net::NodeId m : t.members()) {
    if (m == t.source()) continue;
    const net::LinkId link = proto::worst_case_failure_link(t, m);
    const net::Link& l = t.graph().link(link);
    const net::NodeId child = l.a == t.source() ? l.b : l.a;
    if (t.subtree_members(child) > most) {
      most = t.subtree_members(child);
      best = link;
    }
  }
  return best;
}

}  // namespace

SessionsInput make_sessions_input(std::uint64_t seed) {
  net::Rng rng(seed);
  net::TransitStubParams params;
  params.transit_nodes = 40;
  params.stubs_per_transit = 8;
  params.stub_size = 31;
  // The seed draws the topology. The sessions' own streams (Zipf sizes,
  // members, churn) come from one fixed seed: with only 150 sessions the
  // few largest ones set most of the work, and letting the seed pick them
  // moves joins_per_s by ±20% between seeds, more than any change this
  // benchmark should detect.
  SessionsInput in{net::generate_transit_stub(params, rng), {},
                   eval::trial_seed(kSessionStreamSeed, 1)};
  const auto& core = in.topo.nodes_of_domain[net::kTransitDomain];
  in.pool.assign(core.begin(),
                 core.begin() + std::min<std::ptrdiff_t>(kSourcePool,
                                                         std::ssize(core)));
  return in;
}

SessionsRound sessions_round(const SessionsInput& in, int workers,
                             bool check_all, Result& result) {
  SessionsRound r;
  const net::Graph& g = in.topo.graph;
  const double heap0 = heap_in_use_mb();
  eval::MultiSessionDriver driver(g, session_params(workers));
  const Clock::time_point t0 = Clock::now();
  r.report = driver.run_seeded(in.session_seed, in.pool);
  r.run_seeded_s = seconds_since(t0);
  r.snapshot_mb =
      static_cast<double>(driver.oracle().snapshot_bytes()) / (1024.0 * 1024.0);
  r.tree_mb = heap_in_use_mb() - heap0 - r.snapshot_mb;
  r.before_repair = driver.oracle().stats();

  std::map<net::NodeId, std::vector<double>> sp;  // own Dijkstra per source
  const double d_thresh = session_params(workers).smrp.d_thresh;
  for (int i = 0; i < driver.session_count(); ++i) {
    const mcast::MulticastTree& tree = driver.session_tree(i);
    r.on_tree_nodes += tree.on_tree_count();
    r.sessions.emplace_back(tree.source(), tree.members());
    const net::LinkId link = worst_link(tree);

    if (check_all) {
      const check::TreeView view = check::tree_view(tree);
      auto [it, fresh] = sp.try_emplace(tree.source());
      if (fresh) it->second = check::dijkstra(g, {tree.source()}, {});
      if (!check::bad_shr(view).empty()) {
        result.fail("session " + std::to_string(i) + ": SHR differs from Eq. 1");
      }
      r.over_bound += static_cast<std::int64_t>(
          check::bad_delay(g, view, it->second, d_thresh).size());
    }
    if (link == net::kNoLink) continue;

    for (const proto::DetourPolicy policy :
         {proto::DetourPolicy::kLocal, proto::DetourPolicy::kGlobal}) {
      const bool local = policy == proto::DetourPolicy::kLocal;
      mcast::MulticastTree copy = tree;
      const Clock::time_point t1 = Clock::now();
      const proto::SessionRepairReport rep = proto::repair_session(
          g, copy, proto::Failure::of_link(link), policy, nullptr, nullptr,
          &driver.oracle());
      (local ? r.repair_local_s : r.repair_global_s) += seconds_since(t1);
      r.disconnected += rep.disconnected_members;
      r.repaired += rep.repaired_members;
      r.unrecoverable += rep.unrecoverable_members;
      if (local) {
        r.rd_local_sum += rep.total_recovery_distance;
        r.rd_local_count += static_cast<std::int64_t>(rep.outcomes.size());
      }
      try {
        copy.validate();
      } catch (const std::exception& e) {
        result.fail("session " + std::to_string(i) +
                    ": repaired tree invalid: " + e.what());
      }
      if (check_all) {
        for (const std::string& e :
             check::check_repair(g, check::repair_case(tree, link, rep),
                                 local)) {
          result.fail("session " + std::to_string(i) +
                      (local ? " local: " : " global: ") + e);
        }
      }
    }
  }
  r.oracle = driver.oracle().stats();
  return r;
}

JoinTiming time_joins(const SessionsInput& in, const SessionsRound& round) {
  const net::Graph& g = in.topo.graph;
  JoinTiming out;
  net::RoutingOracle oracle(g);
  const Clock::time_point t0 = Clock::now();
  for (const net::NodeId s : in.pool) static_cast<void>(oracle.spf(s));
  out.spf_ms = 1e3 * seconds_since(t0) / static_cast<double>(in.pool.size());
  std::vector<double> us;
  for (const auto& [source, members] : round.sessions) {
    proto::SmrpTreeBuilder builder(g, source, session_params(1).smrp, &oracle);
    for (const net::NodeId m : members) {
      const Clock::time_point t1 = Clock::now();
      static_cast<void>(builder.join(m));
      us.push_back(1e6 * seconds_since(t1));
    }
  }
  std::sort(us.begin(), us.end());
  if (!us.empty()) {
    out.p50_us = us[us.size() / 2];
    out.p99_us = us[std::min(us.size() - 1, us.size() * 99 / 100)];
  }
  return out;
}

Result run_sessions(const Options& opt, Clock::time_point process_start) {
  const SessionsInput in = make_sessions_input(opt.seed);
  Result result;
  const double setup_s = seconds_since(process_start);

  std::vector<Values> rounds;
  Values first_quality;
  SessionsRound last;
  run_rounds(opt.seconds, [&](int index) {
    // Round 0 is checked in full; later rounds repeat its operations and
    // must reproduce its aggregates exactly.
    SessionsRound r = sessions_round(in, /*workers=*/1, index == 0, result);
    if (index == 0 && r.over_bound > r.report.fallback_joins) {
      // DESIGN.md §6: a join with no candidate inside the delay bound takes
      // the minimum-delay candidate and is counted as a fallback; only those
      // members may sit over the bound.
      result.fail(std::to_string(r.over_bound) +
                  " members over the delay bound, only " +
                  std::to_string(r.report.fallback_joins) + " fallback joins");
    }
    // Operations: successful joins plus the repairs of members the cut left
    // recoverable (check_repair confirms the unrecoverable ones are cut
    // off). A recoverable member the program drops fails that check.
    result.attempted +=
        r.report.join_ops + r.disconnected - r.unrecoverable;

    const Values quality{
        {"smrp.rd_local", r.rd_local_count > 0
                              ? r.rd_local_sum / static_cast<double>(r.rd_local_count)
                              : 0.0},
        {"members", static_cast<double>(r.report.aggregate_members)},
        {"joins", static_cast<double>(r.report.join_ops)},
        {"tree_links", static_cast<double>(r.report.tree_links)},
        {"tree_cost", r.report.total_tree_cost},
        {"lookups", static_cast<double>(r.report.oracle.lookups)},
        {"repaired", static_cast<double>(r.repaired)}};
    if (index == 0) {
      first_quality = quality;
      if (r.repaired == 0) result.fail("no member was disconnected");
    } else if (quality != first_quality) {
      result.fail("round " + std::to_string(index) +
                  " differs from round 0 on the same inputs");
    }
    const double repair_s = r.repair_local_s + r.repair_global_s;
    Values v{{"wall_s", r.run_seeded_s + repair_s},
             {"joins_per_s", static_cast<double>(r.report.join_ops) / r.run_seeded_s},
             {"repairs_per_s", static_cast<double>(r.repaired) / repair_s}};
    if (opt.trace) {
      v["eval.run_seeded_s"] = r.run_seeded_s;
      v["smrp.repair_local_s"] = r.repair_local_s;
      v["smrp.repair_global_s"] = r.repair_global_s;
      v["smrp.repairs"] = static_cast<double>(r.repaired);
      v["net.oracle.lookups"] = static_cast<double>(r.oracle.lookups);
      v["net.oracle.hits"] = static_cast<double>(r.oracle.cache_hits);
      v["net.oracle.full_runs"] = static_cast<double>(r.oracle.full_runs);
      v["net.oracle.incremental"] =
          static_cast<double>(r.oracle.incremental_repairs);
      v["net.oracle.snapshot_mb"] = r.snapshot_mb;
      v["multicast.on_tree_nodes"] = static_cast<double>(r.on_tree_nodes);
      v["multicast.resident_mb"] = r.tree_mb;
      v["multicast.bytes_per_member"] =
          r.tree_mb * 1024.0 * 1024.0 /
          static_cast<double>(r.report.aggregate_members);
      if (index == 0) {
        std::cerr << "sessions: repairs took "
                  << r.oracle.full_runs - r.before_repair.full_runs
                  << " new full SPF runs and "
                  << r.oracle.incremental_repairs -
                         r.before_repair.incremental_repairs
                  << " incremental repairs over " << r.repaired
                  << " repaired members\n";
      }
    }
    rounds.push_back(std::move(v));
    last = std::move(r);
  });

  Values med = median_by_key(rounds);
  if (opt.trace) {
    const JoinTiming joins = time_joins(in, last);
    med["smrp.join_us.p50"] = joins.p50_us;
    med["smrp.join_us.p99"] = joins.p99_us;
    med["net.spf_ms"] = joins.spf_ms;
  }
  result.end_to_end = {{"setup_s", setup_s},
                       {"wall_s", med.at("wall_s")},
                       {"peak_rss_mb", peak_rss_mb()},
                       {"joins_per_s", med.at("joins_per_s")},
                       {"repairs_per_s", med.at("repairs_per_s")}};
  for (const auto& [k, val] : med) {
    if (k.find('.') != std::string::npos) result.per_layer[k] = val;
  }
  result.quality = {{"smrp.rd_local", first_quality["smrp.rd_local"]}};
  std::cerr << "sessions: " << rounds.size() << " rounds, "
            << first_quality["members"] << " members, "
            << first_quality["repaired"] << " repaired, "
            << last.report.fallback_joins << " fallback joins, "
            << last.over_bound << " members over the delay bound\n";
  return result;
}

}  // namespace perfbench
