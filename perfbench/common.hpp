// Shared plumbing of the benchmark program: options, the round loop,
// process memory readings and the result record every workload fills.
//
// A run is: cold set-up (inputs made from the seed), then whole rounds of
// the same operations until --seconds have passed. Every round is checked;
// timings are reported as the median over rounds so one slow round (the
// first after a build, a noisy neighbour) does not move the figure.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Named metric values of one round or one run, by metric name.
using Values = std::map<std::string, double>;

/// Everything one workload run hands back to main().
struct Result {
  bool correct = true;
  std::vector<std::string> errors;  ///< first few check failures, for stderr
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Values end_to_end;  ///< every end-to-end metric
  Values per_layer;   ///< every per-layer metric (traced runs)
  Values quality;     ///< deterministic sim-time / tree figures (both runs)

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-key median over rounds (a key missing from a round counts as 0).
[[nodiscard]] inline Values median_by_key(const std::vector<Values>& rounds) {
  std::map<std::string, std::vector<double>> columns;
  for (const Values& r : rounds) {
    for (const auto& [k, v] : r) columns[k];
  }
  for (const Values& r : rounds) {
    for (auto& [k, col] : columns) {
      const auto it = r.find(k);
      col.push_back(it == r.end() ? 0.0 : it->second);
    }
  }
  Values out;
  for (auto& [k, col] : columns) out[k] = median(std::move(col));
  return out;
}

/// Run `round(index)` until `seconds` have passed since the first round
/// began (always at least one round). Returns the number of rounds.
inline int run_rounds(double seconds, const std::function<void(int)>& round) {
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  do {
    round(rounds++);
  } while (seconds_since(start) < seconds);
  return rounds;
}

/// Process high-water resident set (getrusage), MiB.
[[nodiscard]] double peak_rss_mb();
/// Heap bytes currently allocated (malloc arenas plus mmapped chunks).
[[nodiscard]] double heap_in_use_mb();

/// The three workloads. Each runs set-up and rounds and fills `Result`;
/// `process_start` is taken first thing in main().
Result run_drill(const Options& opt, Clock::time_point process_start);
Result run_chaos(const Options& opt, Clock::time_point process_start);
Result run_sessions(const Options& opt, Clock::time_point process_start);

}  // namespace perfbench
