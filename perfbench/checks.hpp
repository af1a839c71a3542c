// Output checks of the benchmark, computed apart from the program: the
// benchmark's own BFS and Dijkstra over the input graph, and Eq. 1 of the
// paper recomputed by walking a tree's parent pointers. The checks read
// the program's outputs as plain data (parent arrays, next hops, recovery
// distances) so the tests can hand them deliberately corrupted copies.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "multicast/tree.hpp"
#include "net/graph.hpp"
#include "smrp/recovery.hpp"

namespace perfbench::check {

using smrp::net::Graph;
using smrp::net::LinkId;
using smrp::net::NodeId;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative tolerance for comparing sums of link weights.
[[nodiscard]] inline bool same_weight(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Which links and nodes are usable; an empty vector means all are up.
struct Liveness {
  std::vector<char> link_up;
  std::vector<char> node_up;
  LinkId banned = smrp::net::kNoLink;  ///< one extra failed link

  [[nodiscard]] bool link_ok(LinkId l) const {
    if (l == banned) return false;
    return link_up.empty() || link_up[static_cast<std::size_t>(l)] != 0;
  }
  [[nodiscard]] bool node_ok(NodeId n) const {
    return node_up.empty() || node_up[static_cast<std::size_t>(n)] != 0;
  }
};

/// Multi-source Dijkstra over the live part of `g`. With `stop_at`
/// non-empty the search ends at the first settled node whose flag is set
/// and returns only that distance in element 0 (kInf if none is reachable).
[[nodiscard]] inline std::vector<double> dijkstra(
    const Graph& g, const std::vector<NodeId>& sources, const Liveness& live,
    const std::vector<char>* stop_at = nullptr) {
  std::vector<double> dist(static_cast<std::size_t>(g.node_count()), kInf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (const NodeId s : sources) {
    if (!live.node_ok(s)) continue;
    dist[static_cast<std::size_t>(s)] = 0.0;
    heap.emplace(0.0, s);
  }
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (stop_at != nullptr && (*stop_at)[static_cast<std::size_t>(u)] != 0) {
      return {d};
    }
    for (const auto& adj : g.neighbors(u)) {
      if (!live.link_ok(adj.link) || !live.node_ok(adj.neighbor)) continue;
      const double nd = d + g.link(adj.link).weight;
      if (nd < dist[static_cast<std::size_t>(adj.neighbor)]) {
        dist[static_cast<std::size_t>(adj.neighbor)] = nd;
        heap.emplace(nd, adj.neighbor);
      }
    }
  }
  if (stop_at != nullptr) return {kInf};
  return dist;
}

/// Nodes reachable from `source` over live links and nodes.
[[nodiscard]] inline std::vector<char> reachable(const Graph& g, NodeId source,
                                                 const Liveness& live) {
  std::vector<char> seen(static_cast<std::size_t>(g.node_count()), 0);
  if (!live.node_ok(source)) return seen;
  std::vector<NodeId> stack{source};
  seen[static_cast<std::size_t>(source)] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const auto& adj : g.neighbors(u)) {
      const auto v = static_cast<std::size_t>(adj.neighbor);
      if (seen[v] || !live.link_ok(adj.link) || !live.node_ok(adj.neighbor)) {
        continue;
      }
      seen[v] = 1;
      stack.push_back(adj.neighbor);
    }
  }
  return seen;
}

/// Routers whose next hop toward `source` is not on a shortest path of
/// the live graph. `next_hop[n]` is the program's answer at router n.
/// Every live router that can reach the source must name a live
/// neighbour `h` with w(n,h) + dist(h) = dist(n); equal-cost ties pass.
[[nodiscard]] inline std::vector<NodeId> bad_next_hops(
    const Graph& g, NodeId source, const Liveness& live,
    const std::vector<NodeId>& next_hop) {
  const std::vector<double> dist = dijkstra(g, {source}, live);
  std::vector<NodeId> bad;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const double dn = dist[static_cast<std::size_t>(n)];
    if (n == source || !live.node_ok(n) || dn == kInf) continue;
    const NodeId h = next_hop[static_cast<std::size_t>(n)];
    const auto link = h == smrp::net::kNoNode ? std::nullopt
                                              : g.link_between(n, h);
    if (!link || !live.link_ok(*link) || !live.node_ok(h) ||
        !same_weight(g.link(*link).weight + dist[static_cast<std::size_t>(h)],
                     dn)) {
      bad.push_back(n);
    }
  }
  return bad;
}

/// A multicast tree as plain data: the program's parent pointers, member
/// flags and the SHR values it reports.
struct TreeView {
  NodeId source = smrp::net::kNoNode;
  std::vector<NodeId> parent;      ///< kNoNode for the source and off-tree
  std::vector<char> on_tree;
  std::vector<char> member;
  std::vector<std::int64_t> shr;   ///< as reported, on-tree nodes only
};

/// The program's tree as plain data.
[[nodiscard]] inline TreeView tree_view(const smrp::mcast::MulticastTree& t) {
  TreeView v;
  v.source = t.source();
  for (NodeId i = 0; i < t.graph().node_count(); ++i) {
    v.parent.push_back(t.parent(i));
    v.on_tree.push_back(t.on_tree(i) ? 1 : 0);
    v.member.push_back(t.is_member(i) ? 1 : 0);
    v.shr.push_back(t.on_tree(i) ? t.shr(i) : 0);
  }
  return v;
}

/// Member count below each node, by walking every member's parent chain.
[[nodiscard]] inline std::vector<std::int64_t> members_below(
    const TreeView& t) {
  std::vector<std::int64_t> n(t.parent.size(), 0);
  for (std::size_t m = 0; m < t.parent.size(); ++m) {
    if (!t.member[m]) continue;
    for (NodeId v = static_cast<NodeId>(m); v != smrp::net::kNoNode;
         v = t.parent[static_cast<std::size_t>(v)]) {
      ++n[static_cast<std::size_t>(v)];
      if (v == t.source) break;
    }
  }
  return n;
}

/// On-tree nodes whose reported SHR differs from Eq. 1: the sum, over the
/// links of the node's path to the source, of the members downstream of
/// each link (= the member count below the link's lower endpoint).
[[nodiscard]] inline std::vector<NodeId> bad_shr(const TreeView& t) {
  const std::vector<std::int64_t> below = members_below(t);
  std::vector<NodeId> bad;
  for (std::size_t v = 0; v < t.parent.size(); ++v) {
    if (!t.on_tree[v]) continue;
    std::int64_t eq1 = 0;
    for (NodeId u = static_cast<NodeId>(v); u != t.source;
         u = t.parent[static_cast<std::size_t>(u)]) {
      if (u == smrp::net::kNoNode) break;
      eq1 += below[static_cast<std::size_t>(u)];
    }
    if (eq1 != t.shr[v]) bad.push_back(static_cast<NodeId>(v));
  }
  return bad;
}

/// Members whose delay along the tree exceeds (1 + d_thresh) times their
/// shortest-path delay from the source (`sp_dist`, own Dijkstra).
[[nodiscard]] inline std::vector<NodeId> bad_delay(
    const Graph& g, const TreeView& t, const std::vector<double>& sp_dist,
    double d_thresh) {
  std::vector<NodeId> bad;
  for (std::size_t m = 0; m < t.parent.size(); ++m) {
    if (!t.member[m]) continue;
    double delay = 0.0;
    for (NodeId u = static_cast<NodeId>(m); u != t.source;) {
      const NodeId p = t.parent[static_cast<std::size_t>(u)];
      const auto link =
          p == smrp::net::kNoNode ? std::nullopt : g.link_between(u, p);
      if (!link) {
        delay = kInf;
        break;
      }
      delay += g.link(*link).weight;
      u = p;
    }
    const double bound = (1.0 + d_thresh) * sp_dist[m];
    if (!(delay <= bound || same_weight(delay, bound))) {
      bad.push_back(static_cast<NodeId>(m));
    }
  }
  return bad;
}

/// One repaired member, in the order the program repaired them.
struct Repair {
  NodeId member = smrp::net::kNoNode;
  double rd = 0.0;                 ///< recovery distance the program reports
  std::vector<NodeId> path;        ///< member → … → reattach node
};

/// A whole-session repair as plain data.
struct RepairCase {
  LinkId failed_link = smrp::net::kNoLink;
  std::vector<char> survivors;     ///< on-tree after the cut, before repair
  std::vector<NodeId> lost;        ///< members the cut disconnected
  std::vector<Repair> repairs;     ///< in repair order
  int unrecoverable = 0;           ///< as reported
};

/// The program's repair of `before` after `link` failed, as plain data.
[[nodiscard]] inline RepairCase repair_case(
    const smrp::mcast::MulticastTree& before, LinkId link,
    const smrp::proto::SessionRepairReport& report) {
  RepairCase c;
  c.failed_link = link;
  c.survivors = before.surviving_after_link(link);
  for (const NodeId m : before.members()) {
    if (!c.survivors[static_cast<std::size_t>(m)]) c.lost.push_back(m);
  }
  for (const smrp::proto::RecoveryOutcome& o : report.outcomes) {
    c.repairs.push_back({o.member, o.recovery_distance, o.restoration_path});
  }
  c.unrecoverable = report.unrecoverable_members;
  return c;
}

/// Replays a repair against the benchmark's own distances. Each member's
/// distance is taken, with the failed link removed, to the on-tree set as
/// it stands when the member is repaired (earlier repairs graft nodes in).
/// Local repairs must match that distance; global repairs may not beat
/// it; a member is unrecoverable exactly when it is infinite. Returns a
/// description of each mismatch.
[[nodiscard]] inline std::vector<std::string> check_repair(
    const Graph& g, const RepairCase& c, bool local) {
  std::vector<std::string> errors;
  Liveness live;
  live.banned = c.failed_link;
  std::vector<char> tree = c.survivors;
  std::vector<char> repaired(tree.size(), 0);
  for (const Repair& r : c.repairs) {
    const double d = dijkstra(g, {r.member}, live, &tree)[0];
    const bool ok = local ? same_weight(r.rd, d)
                          : (r.rd >= d || same_weight(r.rd, d));
    if (d == kInf || !ok) {
      errors.push_back("member " + std::to_string(r.member) + ": RD " +
                       std::to_string(r.rd) + " vs own distance " +
                       std::to_string(d));
    }
    for (const NodeId n : r.path) tree[static_cast<std::size_t>(n)] = 1;
    repaired[static_cast<std::size_t>(r.member)] = 1;
  }
  int unrecoverable = 0;
  for (const NodeId m : c.lost) {
    if (repaired[static_cast<std::size_t>(m)] ||
        tree[static_cast<std::size_t>(m)]) {
      continue;
    }
    ++unrecoverable;
    if (dijkstra(g, {m}, live, &tree)[0] != kInf) {
      errors.push_back("member " + std::to_string(m) +
                       " dropped but reachable from the tree");
    }
  }
  if (unrecoverable != c.unrecoverable) {
    errors.push_back("unrecoverable " + std::to_string(c.unrecoverable) +
                     " reported, " + std::to_string(unrecoverable) + " found");
  }
  return errors;
}

/// Members a cut disconnected that the live graph still connects to the
/// source but that received no payload after the cut.
[[nodiscard]] inline std::vector<NodeId> unrestored(
    const std::vector<NodeId>& victims, const std::vector<char>& connected,
    const std::vector<double>& last_data, double cut_at) {
  std::vector<NodeId> bad;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (connected[static_cast<std::size_t>(victims[i])] && !(last_data[i] > cut_at)) {
      bad.push_back(victims[i]);
    }
  }
  return bad;
}

}  // namespace perfbench::check
