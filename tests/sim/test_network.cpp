#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "obs/telemetry.hpp"
#include "testing_topologies.hpp"

namespace smrp::sim {
namespace {

struct Received {
  Time at;
  NodeId from;
  Message message;
};

struct Fixture {
  net::Graph graph = testing::grid3x3();
  Simulator simulator;
  SimNetwork network{simulator, graph};
  std::vector<std::vector<Received>> inbox;

  Fixture() {
    inbox.resize(static_cast<std::size_t>(graph.node_count()));
    for (NodeId n = 0; n < graph.node_count(); ++n) {
      network.set_handler(n, [this, n](NodeId from, const Message& m) {
        inbox[static_cast<std::size_t>(n)].push_back(
            Received{simulator.now(), from, m});
      });
    }
  }
};

TEST(SimNetwork, DeliversToAdjacentNode) {
  Fixture f;
  ASSERT_TRUE(f.network.send(0, 1, DataMsg{7}));
  f.simulator.run_all();
  ASSERT_EQ(f.inbox[1].size(), 1u);
  EXPECT_EQ(f.inbox[1][0].from, 0);
  EXPECT_EQ(std::get<DataMsg>(f.inbox[1][0].message).seq, 7u);
}

TEST(SimNetwork, DeliveryLatencyMatchesConfig) {
  Fixture f;
  const net::LinkId link = f.graph.link_between(0, 1).value();
  f.network.send(0, 1, HelloMsg{});
  f.simulator.run_all();
  ASSERT_EQ(f.inbox[1].size(), 1u);
  EXPECT_DOUBLE_EQ(f.inbox[1][0].at, f.network.link_latency(link));
}

TEST(SimNetwork, RefusesNonAdjacentSend) {
  Fixture f;
  EXPECT_FALSE(f.network.send(0, 8, HelloMsg{}));  // opposite corners
  f.simulator.run_all();
  EXPECT_TRUE(f.inbox[8].empty());
  EXPECT_EQ(f.network.messages_dropped(), 1u);
}

TEST(SimNetwork, DownLinkLosesInFlightMessage) {
  Fixture f;
  const net::LinkId link = f.graph.link_between(0, 1).value();
  f.network.send(0, 1, HelloMsg{});
  // Cut the link before the message lands.
  f.simulator.schedule(f.network.link_latency(link) / 2,
                       [&] { f.network.set_link_up(link, false); });
  f.simulator.run_all();
  EXPECT_TRUE(f.inbox[1].empty());
  EXPECT_EQ(f.network.messages_delivered(), 0u);
  EXPECT_EQ(f.network.messages_dropped(), 1u);
}

TEST(SimNetwork, DownLinkStillDownAtSendTimeDropsAtDelivery) {
  Fixture f;
  const net::LinkId link = f.graph.link_between(0, 1).value();
  f.network.set_link_up(link, false);
  EXPECT_TRUE(f.network.send(0, 1, HelloMsg{}));  // sender can't know yet
  f.simulator.run_all();
  EXPECT_TRUE(f.inbox[1].empty());
}

TEST(SimNetwork, DownReceiverLosesMessage) {
  Fixture f;
  f.network.set_node_up(1, false);
  f.network.send(0, 1, HelloMsg{});
  f.simulator.run_all();
  EXPECT_TRUE(f.inbox[1].empty());
}

TEST(SimNetwork, DownSenderCannotSend) {
  Fixture f;
  f.network.set_node_up(0, false);
  EXPECT_FALSE(f.network.send(0, 1, HelloMsg{}));
}

TEST(SimNetwork, RestoredLinkCarriesTrafficAgain) {
  Fixture f;
  const net::LinkId link = f.graph.link_between(0, 1).value();
  f.network.set_link_up(link, false);
  f.network.set_link_up(link, true);
  f.network.send(0, 1, HelloMsg{});
  f.simulator.run_all();
  EXPECT_EQ(f.inbox[1].size(), 1u);
}

TEST(SimNetwork, BroadcastReachesAllNeighbors) {
  Fixture f;
  EXPECT_EQ(f.network.broadcast(4, HelloMsg{}), 4);  // grid centre
  f.simulator.run_all();
  for (const NodeId n : {1, 3, 5, 7}) {
    EXPECT_EQ(f.inbox[static_cast<std::size_t>(n)].size(), 1u);
  }
  EXPECT_TRUE(f.inbox[0].empty());
}

TEST(SimNetwork, DownSenderBroadcastCountsOneBatchDrop) {
  // Regression: a down sender's broadcast used to run the whole neighbor
  // loop and count one drop per neighbor, skewing the drop counters under
  // node failure. It now short-circuits to a single batch drop.
  Fixture f;
  obs::Telemetry telemetry;
  f.network.set_telemetry(&telemetry);
  f.network.set_node_up(4, false);
  EXPECT_EQ(f.network.broadcast(4, HelloMsg{}), 0);
  f.simulator.run_all();
  EXPECT_EQ(f.network.messages_sent(), 0u);
  EXPECT_EQ(f.network.messages_dropped(), 1u);
  EXPECT_EQ(telemetry.metrics.counter("smrp.sim.drop.HELLO").value(), 1u);
  EXPECT_EQ(telemetry.metrics.counter("smrp.sim.tx.HELLO").value(), 0u);
  for (const NodeId n : {1, 3, 5, 7}) {
    EXPECT_TRUE(f.inbox[static_cast<std::size_t>(n)].empty());
  }
}

// The per-message smrp.sim.{tx,rx,drop}.<MSG> counters are the network's
// send/deliver/drop trace.
TEST(Trace, RecordsSendAndDeliver) {
  Fixture f;
  obs::Telemetry telemetry;
  f.network.set_telemetry(&telemetry);
  ASSERT_TRUE(f.network.send(0, 1, DataMsg{1}));
  f.simulator.run_all();
  // Counted once per outcome, under the payload's own type only.
  const auto& counters = telemetry.metrics.counters();
  EXPECT_EQ(counters.at("smrp.sim.tx.DATA").value(), 1u);
  EXPECT_EQ(counters.at("smrp.sim.rx.DATA").value(), 1u);
  EXPECT_EQ(counters.at("smrp.sim.drop.DATA").value(), 0u);
  EXPECT_EQ(counters.at("smrp.sim.tx.HELLO").value(), 0u);
}

TEST(Trace, RecordsDropsOnDownLink) {
  Fixture f;
  obs::Telemetry telemetry;
  f.network.set_telemetry(&telemetry);
  f.network.set_link_up(f.graph.link_between(0, 1).value(), false);
  EXPECT_TRUE(f.network.send(0, 1, HelloMsg{}));
  f.simulator.run_all();
  // Admitted (tx), then lost on arrival (drop), never delivered (rx).
  const auto& counters = telemetry.metrics.counters();
  EXPECT_EQ(counters.at("smrp.sim.tx.HELLO").value(), 1u);
  EXPECT_EQ(counters.at("smrp.sim.drop.HELLO").value(), 1u);
  EXPECT_EQ(counters.at("smrp.sim.rx.HELLO").value(), 0u);
}

TEST(Messages, MessageNamesCoverEveryAlternative) {
  EXPECT_EQ(message_name(HelloMsg{}), "HELLO");
  EXPECT_EQ(message_name(LsaMsg{}), "LSA");
  EXPECT_EQ(message_name(JoinReqMsg{}), "JOIN_REQ");
  EXPECT_EQ(message_name(JoinAckMsg{}), "JOIN_ACK");
  EXPECT_EQ(message_name(LeaveReqMsg{}), "LEAVE_REQ");
  EXPECT_EQ(message_name(StateRefreshMsg{}), "STATE_REFRESH");
  EXPECT_EQ(message_name(ShrUpdateMsg{}), "SHR_UPDATE");
  EXPECT_EQ(message_name(DataMsg{}), "DATA");
  EXPECT_EQ(message_name(RepairQueryMsg{}), "REPAIR_QUERY");
  EXPECT_EQ(message_name(RepairRespMsg{}), "REPAIR_RESP");
}

TEST(SimNetwork, BroadcastSharesOneEnvelopeAcrossNeighbors) {
  Fixture f;
  EXPECT_EQ(f.network.broadcast(4, DataMsg{9}), 4);
  // One pooled envelope carries the whole fan-out.
  EXPECT_EQ(f.network.pool_stats().envelopes, 1u);
  EXPECT_EQ(f.network.pool_stats().free, 0u);
  f.simulator.run_all();
  for (const NodeId n : {1, 3, 5, 7}) {
    ASSERT_EQ(f.inbox[static_cast<std::size_t>(n)].size(), 1u);
    EXPECT_EQ(std::get<DataMsg>(
                  f.inbox[static_cast<std::size_t>(n)][0].message).seq,
              9u);
  }
  // All references released: the slot is back on the freelist.
  EXPECT_EQ(f.network.pool_stats().free, 1u);
}

TEST(SimNetwork, EnvelopePoolRecyclesAcrossSends) {
  Fixture f;
  for (int i = 0; i < 100; ++i) {
    f.network.send(0, 1, DataMsg{static_cast<std::uint64_t>(i)});
    f.simulator.run_all();
  }
  // Sequential sends reuse one slot; the slab never grows past the peak
  // number of simultaneously in-flight messages.
  EXPECT_EQ(f.network.pool_stats().envelopes, 1u);
  ASSERT_EQ(f.inbox[1].size(), 100u);
  EXPECT_EQ(std::get<DataMsg>(f.inbox[1].back().message).seq, 99u);
}

TEST(SimNetwork, InFlightEnvelopeSurvivesReentrantSends) {
  // A handler that sends while holding the delivered payload by const
  // reference must not have it invalidated by pool growth.
  Fixture f;
  std::vector<std::uint64_t> forwarded;
  f.network.set_handler(1, [&](NodeId, const Message& m) {
    const auto& data = std::get<DataMsg>(m);
    for (int burst = 0; burst < 8; ++burst) {
      f.network.send(1, 2, DataMsg{data.seq + 100});  // grows the pool
    }
    forwarded.push_back(std::get<DataMsg>(m).seq);  // reread after growth
  });
  f.network.send(0, 1, DataMsg{7});
  f.simulator.run_all();
  ASSERT_EQ(forwarded, (std::vector<std::uint64_t>{7}));
  ASSERT_EQ(f.inbox[2].size(), 8u);
  EXPECT_EQ(std::get<DataMsg>(f.inbox[2][0].message).seq, 107u);
}

TEST(SimNetwork, StatsAreConsistent) {
  Fixture f;
  f.network.send(0, 1, HelloMsg{});
  f.network.send(1, 2, HelloMsg{});
  f.network.send(0, 8, HelloMsg{});  // refused
  f.simulator.run_all();
  EXPECT_EQ(f.network.messages_sent(), 2u);
  EXPECT_EQ(f.network.messages_delivered(), 2u);
  EXPECT_EQ(f.network.messages_dropped(), 1u);
}

}  // namespace
}  // namespace smrp::sim
