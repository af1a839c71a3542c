// The `sessions` workload's round, exposed so the tests can run it with
// different MultiSessionDriver worker counts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "eval/multi_session.hpp"
#include "net/transit_stub.hpp"

namespace perfbench {

/// Inputs made from the seed: the topology, the session sources (the first
/// 32 transit-core routers) and the seed of the sessions' random streams.
struct SessionsInput {
  smrp::net::TransitStubTopology topo;
  std::vector<smrp::net::NodeId> pool;
  std::uint64_t session_seed = 0;
};

[[nodiscard]] SessionsInput make_sessions_input(std::uint64_t seed);

struct SessionsRound {
  smrp::eval::MultiSessionReport report;
  double run_seeded_s = 0.0;
  double snapshot_mb = 0.0;  ///< oracle snapshots resident after run_seeded
  double tree_mb = 0.0;      ///< heap growth over run_seeded minus snapshots
  double repair_local_s = 0.0;
  double repair_global_s = 0.0;
  std::int64_t on_tree_nodes = 0;
  std::int64_t disconnected = 0;  ///< both policies
  std::int64_t repaired = 0;      ///< both policies
  std::int64_t unrecoverable = 0;
  std::int64_t over_bound = 0;  ///< members over (1 + d_thresh) x SPF delay
  double rd_local_sum = 0.0;
  std::int64_t rd_local_count = 0;
  smrp::net::RoutingOracle::Stats before_repair;
  smrp::net::RoutingOracle::Stats oracle;  ///< after the repairs
  /// Each session's source and final members, for the join timing pass.
  std::vector<std::pair<smrp::net::NodeId, std::vector<smrp::net::NodeId>>>
      sessions;
};

/// Build and churn every session, then repair each session's worst-case
/// cut with both policies. With `check_all` every output is checked
/// against the benchmark's own computations; failures go to `result`.
SessionsRound sessions_round(const SessionsInput& in, int workers,
                             bool check_all, Result& result);

struct JoinTiming {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double spf_ms = 0.0;  ///< mean full SPF per pool source, fresh oracle
};

/// Times SmrpTreeBuilder::join per call, rebuilding `sessions` member by
/// member over one fresh shared oracle.
[[nodiscard]] JoinTiming time_joins(const SessionsInput& in,
                                    const SessionsRound& round);

}  // namespace perfbench
