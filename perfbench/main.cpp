// smrp_perfbench --workload <drill|chaos|sessions> --seed <n>
//                --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: the verdict of the output checks,
// operations attempted and failed, and the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). Human-readable lines before it
// carry the deterministic figures of both kinds of run, so a traced and
// an untraced run of one seed can be compared.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json lists the same names; every run prints all of its kind.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},     {"joins_per_s", "1/s"},
    {"repairs_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.messages", "count"},
    {"sim.loop_self_s", "s"},
    {"sim.events_per_s", "1/s"},
    {"routing.start_s", "s"},
    {"routing.handle_s", "s"},
    {"routing.handle_calls", "count"},
    {"routing.lsa_floods", "count"},
    {"routing.reconverge_ms", "ms"},
    {"routing.pim_restore_ms", "ms"},
    {"smrp.handle_s", "s"},
    {"smrp.handle_calls", "count"},
    {"smrp.repairs", "count"},
    {"smrp.restore_ms", "ms"},
    {"smrp.gap_ms", "ms"},
    {"smrp.rd_local", "weight"},
    {"smrp.join_us.p50", "us"},
    {"smrp.join_us.p99", "us"},
    {"smrp.repair_local_s", "s"},
    {"smrp.repair_global_s", "s"},
    {"net.oracle.lookups", "count"},
    {"net.oracle.hits", "count"},
    {"net.oracle.full_runs", "count"},
    {"net.oracle.incremental", "count"},
    {"net.oracle.snapshot_mb", "MiB"},
    {"net.spf_ms", "ms"},
    {"multicast.on_tree_nodes", "count"},
    {"multicast.resident_mb", "MiB"},
    {"multicast.bytes_per_member", "bytes"},
    {"eval.run_seeded_s", "s"},
    {"obs.expect_s", "s"},
    {"obs.export_s", "s"},
    {"obs.spans", "count"},
    {"obs.events", "count"},
    {"obs.overhead_s", "s"},
    {"obs.trace_mb", "MiB"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "smrp_perfbench: " << why
            << "\nusage: smrp_perfbench --workload drill|chaos|sessions "
               "--seed <n> --seconds <s> --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        opt.workload = value;
        have[0] = true;
        used = value.size();
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, &used);
        have[1] = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value, &used);
        have[2] = true;
        if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have[3] = true;
        used = 1;
      } else {
        usage("unknown flag " + std::string(flag));
      }
      if (used != value.size()) usage("bad value for " + std::string(flag));
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag));
    }
  }
  for (const bool h : have) {
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Result& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (trace) {
    // Layers a workload does not run read 0.
    Values layer = r.per_layer;
    layer.insert(r.quality.begin(), r.quality.end());
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layer.find(spec.name);
      emit(spec, it == layer.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, r.end_to_end.at(spec.name));
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  const Options opt = parse(argc, argv);
  Result result;
  try {
    if (opt.workload == "drill") {
      result = run_drill(opt, process_start);
    } else if (opt.workload == "chaos") {
      result = run_chaos(opt, process_start);
    } else if (opt.workload == "sessions") {
      result = run_sessions(opt, process_start);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "smrp_perfbench: " << opt.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  for (const std::string& e : result.errors) {
    std::cerr << "check failed: " << e << '\n';
  }
  std::cout << opt.workload << " seed " << opt.seed << " deterministic:";
  for (const auto& [name, value] : result.quality) {
    std::cout << ' ' << name << '=' << number(value);
  }
  std::cout << '\n';
  print_json(result, opt.trace);
  return 0;
}
