// `chaos`: a 50-fault soak (the shape of tests/smrp/test_chaos.cpp's, see
// soak_plan) on 16 seeded 60-node Waxman topologies with 12 members each.
// Hardened SMRP runs with telemetry and the `core` expectations attached
// online, and every trial's JSONL trace is exported. Routing is cheap at
// this size; the work is the event core, message dispatch, the protocol
// handlers and `obs`.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "net/waxman.hpp"
#include "obs/expect/checker.hpp"
#include "obs/expect/rules.hpp"
#include "obs/jsonl.hpp"
#include "routing/convergence.hpp"
#include "sim/fault_injection.hpp"
#include "smrp/invariants.hpp"
#include "stack.hpp"

namespace perfbench {
namespace {

using namespace smrp;
namespace expect = obs::expect;

constexpr int kTrials = 16;
constexpr int kNodes = 60;
constexpr int kMembers = 12;
constexpr net::NodeId kSource = 0;
constexpr double kPlanStartMs = 2000.0;
constexpr double kPollMs = 25.0;

struct TrialInput {
  net::Graph graph;
  std::vector<net::NodeId> members;
  sim::FaultPlan plan;
};

/// The soak plan: 49 link flaps and one loss burst, drawn as
/// FaultPlan::randomized draws them (times uniform over a 20 s window,
/// holds in [200, 1500) ms, a 1 s burst at 10% loss), except that a flap is
/// drawn again when, together with the flaps overlapping it in time, it
/// would split the graph. The standard soak's two crash/restarts and its
/// partitions are left out: on these graphs a restarted member sometimes
/// never rejoins, and a member stranded by a partition sometimes stays
/// stranded after the heal (CHANGES.md, FOUND). Either would make the
/// failed share depend on the seed.
sim::FaultPlan soak_plan(const net::Graph& g, net::Rng& rng) {
  const sim::FaultPlan::RandomParams defaults;
  constexpr int kFlaps = 49;
  constexpr double kWindowMs = 20'000.0;
  struct Flap {
    double at;
    double until;
    net::LinkId link;
  };
  std::vector<Flap> flaps;
  for (int attempt = 0; attempt < 100 * kFlaps &&
                        static_cast<int>(flaps.size()) < kFlaps;
       ++attempt) {
    const auto link = static_cast<net::LinkId>(
        rng.below(static_cast<std::uint64_t>(g.link_count())));
    const double at = kPlanStartMs + rng.uniform() * kWindowMs;
    const Flap flap{at, at + rng.uniform(defaults.min_hold, defaults.max_hold),
                    link};
    check::Liveness live;
    live.link_up.assign(static_cast<std::size_t>(g.link_count()), 1);
    live.link_up[static_cast<std::size_t>(flap.link)] = 0;
    for (const Flap& other : flaps) {
      if (other.at < flap.until && flap.at < other.until) {
        live.link_up[static_cast<std::size_t>(other.link)] = 0;
      }
    }
    const std::vector<char> seen = check::reachable(g, kSource, live);
    if (std::find(seen.begin(), seen.end(), 0) == seen.end()) {
      flaps.push_back(flap);
    }
  }
  sim::FaultPlan plan;
  for (const Flap& f : flaps) plan.flap_link(f.at, f.link, f.until - f.at);
  plan.loss_burst(kPlanStartMs + rng.uniform() * kWindowMs,
                  defaults.burst_duration, defaults.burst_loss);
  return plan;
}

/// Counts the bytes of the JSONL export without keeping them.
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// Forwards the telemetry taps to the `core` checker and clocks it.
class TimedChecker final : public obs::SpanObserver, public obs::EventObserver {
 public:
  explicit TimedChecker(expect::ExpectationChecker& inner) : inner_(&inner) {}
  void on_span_closed(const obs::Span& span) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_span_closed(span);
    seconds += seconds_since(t0);
  }
  void on_event(const obs::Event& event) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_event(event);
    seconds += seconds_since(t0);
  }
  double seconds = 0.0;

 private:
  expect::ExpectationChecker* inner_;
};

struct TrialOut {
  double wall_s = 0.0;  ///< the whole trial: build, soak, checker, export
  std::vector<double> gaps_ms;
  int starving = 0;
  std::vector<std::string> errors;
  std::uint64_t trace_bytes = 0;
  double expect_s = 0.0;
  double export_s = 0.0;
  std::uint64_t spans = 0;
  std::uint64_t events = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t messages = 0;
  std::uint64_t lsa_floods = 0;
  int repairs = 0;
  net::RoutingOracle::Stats oracle;
  StackClock clock;
};

/// One soak trial. `observe` attaches telemetry, the checker and the
/// export (the workload as defined); without it the same trial runs bare,
/// which is what the traced run subtracts to get the observability cost.
TrialOut run_trial(const TrialInput& in, bool observe, bool trace) {
  TrialOut out;
  StackClock* clock = trace ? &out.clock : nullptr;
  const Clock::time_point t0 = Clock::now();
  const proto::SessionConfig config;  // hardened, test_chaos defaults
  const routing::RoutingConfig routing_config;
  proto::SimulationHarness h(in.graph, kSource, config, routing_config);
  if (trace) time_handlers(h, out.clock);
  obs::Telemetry telemetry;
  expect::ExpectationChecker checker(expect::RuleSet::smrp_core());
  TimedChecker timed(checker);
  if (observe) {
    h.attach_telemetry(&telemetry);
    if (trace) {
      telemetry.spans.set_observer(&timed);
      telemetry.events.set_observer(&timed);
    } else {
      checker.attach(telemetry);
    }
  }
  sim::ChaosController chaos(h.simulator(), h.network(), in.plan);
  start_stack(h, clock);
  for (const net::NodeId m : in.members) h.session().join(m);
  chaos.arm();
  run_until(h, kPlanStartMs, clock);

  // Gaps as bench_chaos_recovery measures them: more than four data
  // intervals between consecutive payloads at a member.
  const double gap_threshold = 4.0 * config.data_interval;
  std::vector<double> last(in.members.size(), -1.0);
  for (std::size_t i = 0; i < in.members.size(); ++i) {
    last[i] = h.session().last_data_at(in.members[i]);
  }
  double now = kPlanStartMs;
  const auto poll_until = [&](double end) {
    for (; now < end;) {
      now = std::min(now + kPollMs, end);
      run_until(h, now, clock);
      for (std::size_t i = 0; i < in.members.size(); ++i) {
        const double at = h.session().last_data_at(in.members[i]);
        if (at > last[i]) {
          if (last[i] >= 0.0 && at - last[i] > gap_threshold) {
            out.gaps_ms.push_back(at - last[i]);
          }
          last[i] = at;
        }
      }
    }
  };
  // Settle past the service bound, then give the convergence wave its own
  // bound at the settled tree's depth, so it can confirm the last outages
  // (the core rule outage-has-convergence judges the confirmations).
  const double quiet_at = in.plan.quiescent_time();
  poll_until(quiet_at + proto::service_restoration_bound(config, routing_config,
                                                         in.graph));
  int depth = in.graph.node_count() - 1;
  if (const std::optional<mcast::MulticastTree> tree =
          h.session().snapshot_tree()) {
    depth = 0;
    for (const net::NodeId n : tree->on_tree_nodes()) {
      depth = std::max(depth, tree->hops_to_source(n));
    }
  }
  poll_until(now + routing::convergence_detection_bound(
                       config.convergence, config.refresh_interval, depth));

  const proto::InvariantChecker invariants(h.session(), h.network());
  const proto::InvariantReport audit = invariants.audit_quiescent(quiet_at);
  if (!chaos.quiescent()) out.errors.push_back("fault plan did not drain");
  if (!audit.ok()) out.errors.push_back("audit: " + audit.violations.front());

  // Every member that is up and that the benchmark's own BFS still joins
  // to the source must have data from after the plan went quiet.
  check::Liveness live;
  const int links = in.graph.link_count();
  for (net::LinkId l = 0; l < links; ++l) {
    live.link_up.push_back(h.network().link_up(l) ? 1 : 0);
  }
  for (net::NodeId n = 0; n < in.graph.node_count(); ++n) {
    live.node_up.push_back(h.network().node_up(n) ? 1 : 0);
  }
  const std::vector<char> connected = check::reachable(in.graph, kSource, live);
  for (const net::NodeId m : in.members) {
    if (connected[static_cast<std::size_t>(m)] &&
        !(h.session().last_data_at(m) > quiet_at)) {
      ++out.starving;
    }
  }

  if (observe) {
    telemetry.finish(h.simulator().now());
    const expect::ExpectReport report = checker.report();
    if (!report.ok()) {
      out.errors.push_back("core expectations: " +
                           std::to_string(report.total_violations()) +
                           " violations");
    }
    const Clock::time_point e0 = Clock::now();
    CountingBuf counter;
    std::ostream sink(&counter);
    obs::JsonlSink(sink).write_snapshot(telemetry, h.simulator().now(), "chaos");
    sink.flush();
    out.export_s = seconds_since(e0);
    out.trace_bytes = counter.bytes();
    out.expect_s = timed.seconds;
    out.spans = telemetry.spans.spans().size();
    out.events = telemetry.events.size();
    obs::MetricsRegistry& m = telemetry.metrics;
    out.oracle.lookups = m.counter("smrp.routing.lookups").value();
    out.oracle.cache_hits = m.counter("smrp.routing.cache_hit").value();
    out.oracle.incremental_repairs =
        m.counter("smrp.routing.cache_incremental").value();
    out.oracle.full_runs = m.counter("smrp.routing.cache_fallback").value();
  }
  out.wall_s = seconds_since(t0);
  out.sim_events = h.simulator().processed();
  out.messages = h.network().messages_sent();
  out.lsa_floods = h.routing().lsa_floods();
  out.repairs = h.session().repairs_completed();
  return out;
}

}  // namespace

Result run_chaos(const Options& opt, Clock::time_point process_start) {
  net::Rng rng(opt.seed);
  std::vector<TrialInput> inputs;
  for (int t = 0; t < kTrials; ++t) {
    net::WaxmanParams wax;
    wax.node_count = kNodes;
    net::Graph g = net::waxman_graph(wax, rng);
    std::vector<net::NodeId> members;
    while (static_cast<int>(members.size()) < kMembers) {
      const auto m = static_cast<net::NodeId>(1 + rng.below(kNodes - 1));
      if (std::find(members.begin(), members.end(), m) == members.end()) {
        members.push_back(m);
      }
    }
    sim::FaultPlan plan = soak_plan(g, rng);
    inputs.push_back(TrialInput{std::move(g), std::move(members), std::move(plan)});
  }
  Result result;
  const double setup_s = seconds_since(process_start);

  double faults = 0.0;
  for (const TrialInput& in : inputs) faults += in.plan.fault_count();

  std::vector<Values> rounds;
  Values first_quality;
  run_rounds(opt.seconds, [&](int index) {
    std::vector<double> gaps;
    double wall = 0.0;
    std::uint64_t trace_bytes = 0;
    Values layer;
    for (const TrialInput& in : inputs) {
      const TrialOut out = run_trial(in, /*observe=*/true, opt.trace);
      wall += out.wall_s;
      gaps.insert(gaps.end(), out.gaps_ms.begin(), out.gaps_ms.end());
      trace_bytes += out.trace_bytes;
      result.attempted += kMembers;
      result.failed += out.starving;
      if (out.starving > 0) {
        result.fail(std::to_string(out.starving) + " members starving");
      }
      for (const std::string& e : out.errors) result.fail(e);
      if (opt.trace) {
        const StackClock& c = out.clock;
        layer["sim.events"] += static_cast<double>(out.sim_events);
        layer["sim.messages"] += static_cast<double>(out.messages);
        layer["sim.loop_self_s"] += c.run_s - c.routing_s - c.smrp_s;
        layer["run_s"] += c.run_s;
        layer["routing.start_s"] += c.routing_start_s;
        layer["routing.handle_s"] += c.routing_s;
        layer["routing.handle_calls"] += static_cast<double>(c.routing_calls);
        layer["routing.lsa_floods"] += static_cast<double>(out.lsa_floods);
        layer["smrp.handle_s"] += c.smrp_s;
        layer["smrp.handle_calls"] += static_cast<double>(c.smrp_calls);
        layer["smrp.repairs"] += out.repairs;
        layer["obs.expect_s"] += out.expect_s;
        layer["obs.export_s"] += out.export_s;
        layer["obs.spans"] += static_cast<double>(out.spans);
        layer["obs.events"] += static_cast<double>(out.events);
        layer["net.oracle.lookups"] += static_cast<double>(out.oracle.lookups);
        layer["net.oracle.hits"] += static_cast<double>(out.oracle.cache_hits);
        layer["net.oracle.full_runs"] +=
            static_cast<double>(out.oracle.full_runs);
        layer["net.oracle.incremental"] +=
            static_cast<double>(out.oracle.incremental_repairs);
      }
    }
    const double gap_ms =
        gaps.empty() ? 0.0
                     : std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                           static_cast<double>(gaps.size());
    Values quality{{"smrp.gap_ms", gap_ms},
                   {"obs.trace_mb",
                    static_cast<double>(trace_bytes) / (1024.0 * 1024.0)}};
    if (index == 0) {
      first_quality = quality;
      if (gaps.empty()) result.fail("no interruption in any trial");
    } else if (quality != first_quality) {
      result.fail("round " + std::to_string(index) +
                  " differs from round 0 on the same inputs");
    }

    // Per round: 16 x 12 member joins and every plan's faults ridden out.
    Values v{{"wall_s", wall},
             {"joins_per_s", kTrials * kMembers / wall},
             {"repairs_per_s", faults / wall}};
    if (opt.trace) {
      // The same trials with telemetry, checker and export detached.
      double bare_s = 0.0;
      for (const TrialInput& in : inputs) {
        const TrialOut out = run_trial(in, /*observe=*/false, /*trace=*/true);
        bare_s += out.wall_s;
      }
      layer["obs.overhead_s"] = wall - bare_s;
      layer["sim.events_per_s"] = layer["sim.events"] / layer["run_s"];
      layer.erase("run_s");
      v.insert(layer.begin(), layer.end());
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
  std::cerr << "chaos: " << rounds.size() << " rounds\n";
  return result;
}

}  // namespace perfbench
