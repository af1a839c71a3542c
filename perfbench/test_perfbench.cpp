// Tests of the benchmark itself: every output check accepts the program's
// real outputs and rejects a deliberately corrupted copy, and the
// `sessions` aggregates do not depend on the MultiSessionDriver worker
// count.
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>

#include "checks.hpp"
#include "net/random_graphs.hpp"
#include "sessions.hpp"
#include "smrp/harness.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"

namespace perfbench {
namespace {

using namespace smrp;

net::Graph small_graph(std::uint64_t seed) {
  net::Rng rng(seed);
  net::BarabasiAlbertParams params;
  params.node_count = 120;
  params.edges_per_node = 2;
  return net::barabasi_albert_graph(params, rng);
}

/// A 20-member SMRP tree rooted at node 0.
proto::SmrpTreeBuilder small_session(const net::Graph& g) {
  proto::SmrpTreeBuilder builder(g, 0);
  for (net::NodeId m = 5; m < 105; m += 5) static_cast<void>(builder.join(m));
  return builder;
}

TEST(ShrCheck, AcceptsTheProgramsTreeAndRejectsOneOffByOne) {
  const net::Graph g = small_graph(3);
  const proto::SmrpTreeBuilder builder = small_session(g);
  check::TreeView view = check::tree_view(builder.tree());
  EXPECT_TRUE(check::bad_shr(view).empty());

  const net::NodeId victim = builder.tree().members().back();
  view.shr[static_cast<std::size_t>(victim)] += 1;
  EXPECT_EQ(check::bad_shr(view), std::vector<net::NodeId>{victim});
}

TEST(DelayCheck, AcceptsTheProgramsTreeAndRejectsALongerPath) {
  const net::Graph g = small_graph(4);
  const proto::SmrpTreeBuilder builder = small_session(g);
  const std::vector<double> sp = check::dijkstra(g, {0}, {});
  const check::TreeView view = check::tree_view(builder.tree());
  EXPECT_LE(check::bad_delay(g, view, sp, builder.config().d_thresh).size(),
            static_cast<std::size_t>(builder.fallback_join_count()));
  // With no slack at all, any member off its shortest path is flagged.
  std::size_t off_sp = 0;
  for (const net::NodeId m : builder.tree().members()) {
    if (!check::same_weight(builder.tree().delay_to_source(m),
                            sp[static_cast<std::size_t>(m)])) {
      ++off_sp;
    }
  }
  EXPECT_EQ(check::bad_delay(g, view, sp, 0.0).size(), off_sp);
}

TEST(NextHopCheck, AcceptsConvergedRoutingAndRejectsAHopOffTheShortestPath) {
  const net::Graph g = small_graph(5);
  proto::SimulationHarness h(g, 0);
  h.start();
  h.simulator().run_until(1000.0);
  std::vector<net::NodeId> next(static_cast<std::size_t>(g.node_count()));
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    next[static_cast<std::size_t>(n)] = h.routing().next_hop(n, 0);
  }
  const check::Liveness all_up;
  EXPECT_TRUE(check::bad_next_hops(g, 0, all_up, next).empty());

  // Move one router's next hop to a neighbour that is strictly farther.
  const std::vector<double> dist = check::dijkstra(g, {0}, all_up);
  bool moved = false;
  for (net::NodeId n = 1; n < g.node_count() && !moved; ++n) {
    for (const auto& adj : g.neighbors(n)) {
      const double via = g.link(adj.link).weight +
                         dist[static_cast<std::size_t>(adj.neighbor)];
      if (via > dist[static_cast<std::size_t>(n)] + 1e-6) {
        next[static_cast<std::size_t>(n)] = adj.neighbor;
        EXPECT_EQ(check::bad_next_hops(g, 0, all_up, next),
                  std::vector<net::NodeId>{n});
        moved = true;
        break;
      }
    }
  }
  EXPECT_TRUE(moved);
}

check::RepairCase repaired_case(const net::Graph& g, bool local) {
  const proto::SmrpTreeBuilder builder = small_session(g);
  const mcast::MulticastTree& tree = builder.tree();
  const net::LinkId link =
      proto::worst_case_failure_link(tree, tree.members().front());
  mcast::MulticastTree copy = tree;
  const proto::SessionRepairReport report = proto::repair_session(
      g, copy, proto::Failure::of_link(link),
      local ? proto::DetourPolicy::kLocal : proto::DetourPolicy::kGlobal);
  return check::repair_case(tree, link, report);
}

TEST(RepairCheck, AcceptsBothPoliciesAndRejectsAnRdOffByOneLinkWeight) {
  const net::Graph g = small_graph(6);
  for (const bool local : {true, false}) {
    check::RepairCase c = repaired_case(g, local);
    ASSERT_FALSE(c.repairs.empty());
    EXPECT_TRUE(check::check_repair(g, c, local).empty());
  }
  check::RepairCase c = repaired_case(g, /*local=*/true);
  check::Repair& r = c.repairs.front();
  const net::LinkId first = *g.link_between(r.path[0], r.path[1]);
  r.rd += g.link(first).weight;
  EXPECT_EQ(check::check_repair(g, c, /*local=*/true).size(), 1u);
  // A global repair may be longer than the nearest detour, never shorter.
  r.rd -= 2.0 * g.link(first).weight;
  EXPECT_EQ(check::check_repair(g, c, /*local=*/false).size(), 1u);
}

TEST(RepairCheck, RejectsADroppedMemberThatCouldReconnect) {
  const net::Graph g = small_graph(7);
  check::RepairCase c = repaired_case(g, /*local=*/true);
  ASSERT_FALSE(c.repairs.empty());
  c.repairs.pop_back();
  EXPECT_FALSE(check::check_repair(g, c, /*local=*/true).empty());
}

TEST(DeliveryCheck, FlagsAConnectedMemberWithoutPayloadOnly) {
  const std::vector<net::NodeId> victims{1, 2, 3};
  const std::vector<char> connected{1, 1, 1, 0};
  const double cut_at = 100.0;
  EXPECT_TRUE(
      check::unrestored(victims, connected, {150.0, 175.0, -1.0}, cut_at) ==
      std::vector<net::NodeId>{});
  // Member 2 connected but silent since before the cut.
  EXPECT_EQ(check::unrestored(victims, connected, {150.0, 90.0, -1.0}, cut_at),
            std::vector<net::NodeId>{2});
}

TEST(Sessions, AggregatesAreTheSameWithOneAndFourWorkers) {
  const SessionsInput in = make_sessions_input(17);
  Result one;
  Result four;
  const SessionsRound a = sessions_round(in, 1, /*check_all=*/true, one);
  const SessionsRound b = sessions_round(in, 4, /*check_all=*/false, four);
  EXPECT_TRUE(one.correct) << (one.errors.empty() ? "" : one.errors.front());
  EXPECT_TRUE(four.correct);
  EXPECT_EQ(a.report.aggregate_members, b.report.aggregate_members);
  EXPECT_EQ(a.report.join_ops, b.report.join_ops);
  EXPECT_EQ(a.report.tree_links, b.report.tree_links);
  EXPECT_EQ(a.report.total_tree_cost, b.report.total_tree_cost);
  EXPECT_EQ(a.report.oracle.lookups, b.report.oracle.lookups);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.rd_local_sum, b.rd_local_sum);
}

}  // namespace
}  // namespace perfbench
