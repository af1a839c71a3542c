#include "sim/network.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/telemetry.hpp"

namespace smrp::sim {

namespace {

/// Default-constructed instance of each Message alternative, so attach
/// time can resolve every per-type counter name up front.
template <std::size_t... Is>
Message message_prototype(std::size_t index, std::index_sequence<Is...>) {
  Message out = HelloMsg{};
  ((index == Is
        ? (out = std::variant_alternative_t<Is, Message>{}, 0)
        : 0),
   ...);
  return out;
}

}  // namespace

void SimNetwork::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    msg_counters_ = {};
    hop_latency_hist_ = nullptr;
    pool_envelopes_gauge_ = nullptr;
    pool_free_gauge_ = nullptr;
    return;
  }
  static constexpr const char* kKindNames[3] = {"tx", "rx", "drop"};
  for (std::size_t type = 0; type < kMessageTypes; ++type) {
    const Message prototype = message_prototype(
        type, std::make_index_sequence<kMessageTypes>{});
    const std::string suffix(message_name(prototype));
    for (std::size_t kind = 0; kind < 3; ++kind) {
      msg_counters_[kind][type] = &telemetry->metrics.counter(
          "smrp.sim." + std::string(kKindNames[kind]) + "." + suffix);
    }
  }
  hop_latency_hist_ =
      &telemetry->metrics.histogram("smrp.sim.hop_latency_ms");
  pool_envelopes_gauge_ =
      &telemetry->metrics.gauge("smrp.sim.pool_envelopes");
  pool_free_gauge_ =
      &telemetry->metrics.gauge("smrp.sim.pool_envelopes_free");
}

void SimNetwork::count_message(Outcome outcome,
                               const Message& message) noexcept {
  if (telemetry_ == nullptr) return;
  msg_counters_[outcome][message.index()]->add(1);
}

SimNetwork::SimNetwork(Simulator& simulator, const net::Graph& graph,
                       NetworkConfig config)
    : simulator_(&simulator),
      graph_(&graph),
      config_(config),
      handlers_(static_cast<std::size_t>(graph.node_count())),
      link_up_(static_cast<std::size_t>(graph.link_count()), 1),
      node_up_(static_cast<std::size_t>(graph.node_count()), 1),
      loss_rng_(config.loss_seed) {
  if (config_.propagation_per_weight < 0.0 || config_.hop_overhead < 0.0) {
    throw std::invalid_argument("negative latency parameters");
  }
  if (config_.loss_probability < 0.0 || config_.loss_probability >= 1.0) {
    throw std::invalid_argument("loss probability must be in [0, 1)");
  }
}

void SimNetwork::set_handler(NodeId node, Handler handler) {
  if (!graph_->valid_node(node)) throw std::out_of_range("bad node");
  handlers_[static_cast<std::size_t>(node)] = std::move(handler);
}

Time SimNetwork::link_latency(LinkId link) const {
  return config_.hop_overhead +
         config_.propagation_per_weight * graph_->link(link).weight;
}

std::uint32_t SimNetwork::acquire_envelope() {
  if (free_envelope_head_ != kNoEnvelope) {
    const std::uint32_t index = free_envelope_head_;
    free_envelope_head_ = envelopes_[index].next_free;
    --free_envelopes_;
    envelopes_[index].refs = 1;
    return index;
  }
  envelopes_.emplace_back();
  envelopes_.back().refs = 1;
  return static_cast<std::uint32_t>(envelopes_.size() - 1);
}

void SimNetwork::release_envelope(std::uint32_t index) {
  Envelope& envelope = envelopes_[index];
  if (--envelope.refs != 0) return;
  envelope.next_free = free_envelope_head_;
  free_envelope_head_ = index;
  ++free_envelopes_;
}

void SimNetwork::deliver_later(std::uint32_t envelope, NodeId to,
                               LinkId link) {
  if (hop_latency_hist_ != nullptr) {
    hop_latency_hist_->record(link_latency(link));
    pool_envelopes_gauge_->set(static_cast<double>(envelopes_.size()));
    pool_free_gauge_->set(static_cast<double>(free_envelopes_));
  }
  simulator_->schedule(link_latency(link), [this, envelope, to, link] {
    deliver(envelope, to, link);
  });
}

void SimNetwork::deliver(std::uint32_t envelope, NodeId to, LinkId link) {
  Envelope& e = envelopes_[envelope];
  const NodeId from = e.from;
  // Persistent failures kill in-flight traffic too: the message is lost
  // unless the link and both endpoints are up on arrival.
  if (!link_up(link) || !node_up(from) || !node_up(to) ||
      !handlers_[static_cast<std::size_t>(to)]) {
    ++dropped_;
    count_message(kDrop, e.message);
    release_envelope(envelope);
    return;
  }
  ++delivered_;
  count_message(kRx, e.message);
  // The handler may send (and thus grow the pool) reentrantly; envelope
  // storage is a deque, so the payload reference it holds stays valid.
  handlers_[static_cast<std::size_t>(to)](from, e.message);
  release_envelope(envelope);
}

bool SimNetwork::send(NodeId from, NodeId to, Message message) {
  const auto link = graph_->link_between(from, to);
  if (!link || !node_up(from)) {
    ++dropped_;
    count_message(kDrop, message);
    return false;
  }
  ++sent_;
  count_message(kTx, message);
  if (config_.loss_probability > 0.0 &&
      loss_rng_.uniform() < config_.loss_probability) {
    ++dropped_;  // transient loss: vanishes on the wire
    count_message(kDrop, message);
    return true;
  }
  const std::uint32_t envelope = acquire_envelope();
  Envelope& e = envelopes_[envelope];
  e.message = std::move(message);
  e.from = from;
  deliver_later(envelope, to, *link);
  return true;
}

int SimNetwork::broadcast(NodeId from, const Message& message) {
  if (!node_up(from)) {
    // A down node emits nothing: short-circuit the whole fan-out and
    // count one batch drop instead of one per neighbor.
    ++dropped_;
    count_message(kDrop, message);
    return 0;
  }
  std::uint32_t envelope = kNoEnvelope;
  int admitted = 0;
  for (const net::Adjacency& adj : graph_->neighbors(from)) {
    ++sent_;
    count_message(kTx, message);
    if (config_.loss_probability > 0.0 &&
        loss_rng_.uniform() < config_.loss_probability) {
      ++dropped_;  // transient loss: vanishes on the wire
      count_message(kDrop, message);
      continue;
    }
    if (envelope == kNoEnvelope) {
      envelope = acquire_envelope();
      Envelope& e = envelopes_[envelope];
      e.message = message;  // the one copy the whole fan-out shares
      e.from = from;
    } else {
      ++envelopes_[envelope].refs;
    }
    deliver_later(envelope, adj.neighbor, adj.link);
    ++admitted;
  }
  return admitted;
}

void SimNetwork::set_loss_probability(double p) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("loss probability must be in [0, 1)");
  }
  config_.loss_probability = p;
}

void SimNetwork::set_link_up(LinkId link, bool up) {
  if (link < 0 || link >= graph_->link_count()) {
    throw std::out_of_range("bad link");
  }
  link_up_[static_cast<std::size_t>(link)] = up ? 1 : 0;
}

bool SimNetwork::link_up(LinkId link) const {
  return link >= 0 && link < graph_->link_count() &&
         link_up_[static_cast<std::size_t>(link)] != 0;
}

void SimNetwork::set_node_up(NodeId node, bool up) {
  if (!graph_->valid_node(node)) throw std::out_of_range("bad node");
  node_up_[static_cast<std::size_t>(node)] = up ? 1 : 0;
}

bool SimNetwork::node_up(NodeId node) const {
  return graph_->valid_node(node) &&
         node_up_[static_cast<std::size_t>(node)] != 0;
}

}  // namespace smrp::sim
