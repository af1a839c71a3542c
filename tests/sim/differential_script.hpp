// Randomized schedule/cancel/run script machinery for the event-core
// differential suite: the timing wheel and the retained reference heap
// (test_simulator_differential.cpp) run identical scripts and must
// produce bit-identical outcomes.
//
// The script generator leans on the wheel's weak spots on purpose:
// simultaneous-time FIFO ties, delays dead on bucket boundaries, the
// ~1 s near-horizon rollover where events cascade from the far heap,
// cancel churn (live, stale, and cancel-during-fire), and reentrant
// scheduling from inside actions.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/rng.hpp"

namespace smrp::sim::difftest {

struct Op {
  enum class Type : std::uint8_t { kSchedule, kCancel, kRunUntil };
  Type type = Type::kSchedule;
  double value = 0.0;        ///< delay (schedule) or horizon step (run)
  std::uint32_t target = 0;  ///< event ordinal (own for schedule, victim
                             ///< for cancel)
  std::uint32_t nested_start = 0;  ///< ops executed inside the action
  std::uint32_t nested_count = 0;
};

struct Script {
  std::vector<Op> ops;
  std::uint32_t top_count = 0;   ///< ops[0, top_count) run at top level
  std::uint32_t event_count = 0;
};

/// Delay mixture biased toward the wheel's structural boundaries.
inline double pick_delay(net::Rng& rng) {
  const double r = rng.uniform();
  if (r < 0.10) return 0.0;  // immediate: same-time FIFO ties
  if (r < 0.30) {
    // Exact bucket multiples (width 0.5 ms): boundary ties.
    return 0.5 * static_cast<double>(rng.below(64));
  }
  if (r < 0.55) return rng.uniform() * 2.0;       // inside the first buckets
  if (r < 0.75) return rng.uniform() * 100.0;     // mid-wheel
  if (r < 0.90) return 1000.0 + rng.uniform() * 60.0;  // horizon rollover
  return rng.uniform() * 5000.0;                  // far overflow heap
}

inline Script make_script(std::uint64_t seed, std::uint32_t min_events) {
  net::Rng rng(seed);
  Script script;
  // Top-level ops first; nested ranges are appended past top_count and
  // referenced by index, so the layout stays one flat vector.
  std::vector<Op> nested;
  std::vector<Op> top;
  while (script.event_count < min_events) {
    const double r = rng.uniform();
    Op op;
    if (r < 0.70 || script.event_count == 0) {
      op.type = Op::Type::kSchedule;
      op.value = pick_delay(rng);
      op.target = script.event_count++;
      if (rng.uniform() < 0.30) {
        op.nested_count = 1 + static_cast<std::uint32_t>(rng.below(2));
        op.nested_start = static_cast<std::uint32_t>(nested.size());
        for (std::uint32_t i = 0; i < op.nested_count; ++i) {
          Op sub;
          if (rng.uniform() < 0.70) {
            sub.type = Op::Type::kSchedule;
            sub.value = pick_delay(rng);
            sub.target = script.event_count++;
          } else {
            sub.type = Op::Type::kCancel;
            sub.target =
                static_cast<std::uint32_t>(rng.below(script.event_count));
          }
          nested.push_back(sub);
        }
      }
    } else if (r < 0.90) {
      op.type = Op::Type::kCancel;
      op.target = static_cast<std::uint32_t>(rng.below(script.event_count));
    } else {
      op.type = Op::Type::kRunUntil;
      op.value = rng.uniform() * 20.0;
    }
    top.push_back(op);
  }
  script.top_count = static_cast<std::uint32_t>(top.size());
  script.ops = std::move(top);
  // Rebase nested indices past the top-level ops.
  for (Op& op : script.ops) {
    if (op.nested_count != 0) op.nested_start += script.top_count;
  }
  script.ops.insert(script.ops.end(), nested.begin(), nested.end());
  return script;
}

/// Runs a script against one simulator type and records every firing as
/// (event ordinal, firing time) — the byte-comparable outcome. `Sim` only
/// needs the shared core surface: schedule / cancel / run_until /
/// run_all / now / processed / pending.
template <typename Sim>
struct Driver {
  explicit Driver(const Script& s) : script(s) {
    ids.assign(script.event_count, 0);
  }

  void exec(std::uint32_t index) {
    const Op& op = script.ops[index];
    switch (op.type) {
      case Op::Type::kSchedule:
        ids[op.target] = sim.schedule(op.value, [this, index] {
          const Op& self = script.ops[index];
          log.emplace_back(self.target, sim.now());
          for (std::uint32_t i = 0; i < self.nested_count; ++i) {
            exec(self.nested_start + i);
          }
        });
        break;
      case Op::Type::kCancel:
        // May be live, already fired (stale id), or not yet scheduled
        // (id still 0 == kNoEvent): all must be harmless no-ops.
        sim.cancel(ids[op.target]);
        break;
      case Op::Type::kRunUntil:
        sim.run_until(sim.now() + op.value);
        break;
    }
  }

  void run() {
    for (std::uint32_t i = 0; i < script.top_count; ++i) exec(i);
    sim.run_all(20'000'000);
  }

  const Script& script;
  Sim sim;
  std::vector<std::uint64_t> ids;
  std::vector<std::pair<std::uint32_t, double>> log;
};

}  // namespace smrp::sim::difftest
