// Wire messages exchanged by the simulated protocols. One central variant
// keeps hop-by-hop delivery type-safe; each protocol handles the subset it
// understands and ignores the rest.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "net/graph.hpp"

namespace smrp::sim {

using net::LinkId;
using net::NodeId;

// ---- Unicast routing (OSPF-lite, src/routing) ------------------------------

/// Neighbor liveness probe, sent periodically on every up link.
struct HelloMsg {};

/// Link-state advertisement: the origin's current view of its own alive
/// adjacencies, flooded network-wide with a sequence number.
struct LsaMsg {
  NodeId origin = net::kNoNode;
  std::uint64_t seq = 0;
  /// (neighbor, weight) pairs for every adjacency the origin considers up.
  std::vector<std::pair<NodeId, double>> adjacencies;
};

// ---- Multicast session control (SMRP + PIM-like baseline) ------------------

/// Explicit join travelling member → … → merge node along a precomputed
/// graft (SMRP) or hop-by-hop toward the source (PIM mode, empty path).
struct JoinReqMsg {
  NodeId member = net::kNoNode;
  /// Explicit graft (member first). Empty for routed (PIM-style) joins.
  std::vector<NodeId> path;
  std::size_t hop_index = 0;  ///< position of the *sender* within path
};

/// Confirmation sent back down when a join reaches an on-tree node.
struct JoinAckMsg {
  NodeId member = net::kNoNode;
};

/// Explicit prune travelling upstream from a departing member.
struct LeaveReqMsg {
  NodeId member = net::kNoNode;
};

/// Periodic downstream-state refresh a child sends its parent: keeps the
/// child's soft state alive and reports N_child so the parent can maintain
/// the per-interface member counts of §3.2.1.
struct StateRefreshMsg {
  int subtree_members = 0;  ///< N of the sending child
  /// Convergence-detection wave (DESIGN.md §13), piggybacked upward: the
  /// instant since which the sender's whole subtree has been quiet, or
  /// negative (routing::kNotQuiet) while anything below is still active.
  double conv_quiet_since = -1.0;
};

/// Periodic upstream-state message a parent sends each child: carries the
/// parent's SHR(S, parent), letting the child compute its own SHR via
/// Eq. 2, plus implicit tree-liveness (a silent parent is a dead parent).
struct ShrUpdateMsg {
  int shr_upstream = 0;  ///< SHR(S, parent)
  /// Convergence-detection verdict propagated downward from the source:
  /// true while the source considers the tree converged (DESIGN.md §13).
  bool conv_converged = false;
};

/// Multicast payload, fanned out source → children → … → members.
struct DataMsg {
  std::uint64_t seq = 0;
};

// ---- SMRP local repair (expanding-ring search) ------------------------------

/// Repair probe flooded with a TTL by a node whose upstream died.
struct RepairQueryMsg {
  NodeId initiator = net::kNoNode;
  std::uint64_t nonce = 0;  ///< dedupes retransmissions across rings
  int ttl = 0;
  /// Nodes visited so far, initiator first (the response retraces it).
  std::vector<NodeId> visited;
};

/// Positive answer from an on-tree node whose own upstream is alive.
struct RepairRespMsg {
  NodeId responder = net::kNoNode;
  std::uint64_t nonce = 0;
  int shr = 0;
  /// initiator → … → responder (the graft the initiator may install).
  std::vector<NodeId> path;
  std::size_t hop_index = 0;  ///< sender's position while retracing back
};

using Message =
    std::variant<HelloMsg, LsaMsg, JoinReqMsg, JoinAckMsg, LeaveReqMsg,
                 StateRefreshMsg, ShrUpdateMsg, DataMsg, RepairQueryMsg,
                 RepairRespMsg>;

/// Upper-case tag of a wire message ("HELLO", "REPAIR_QUERY", ...): the
/// <MSG> suffix of the `smrp.sim.{tx,rx,drop}.<MSG>` telemetry counters.
[[nodiscard]] std::string_view message_name(const Message& message);

}  // namespace smrp::sim
