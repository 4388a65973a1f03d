// The benchmark's three workloads, each in a timed and a traced form.
//
//   sweep      closed loop, one client: SuiteRunner over the pinned 18-run
//              calculate_preferences grid, fresh derived seeds every pass.
//   byzantine  the §7 robust algorithm (election + 3 outer repetitions +
//              final RSelect + OPT) at n=1024, B=32, n/(3B) dishonest.
//   churn      a StreamSession replaying precomputed drift/arrive/depart
//              epoch plans, with occasional burst epochs that force the
//              full-rebuild path.
//
// The timed form measures end-to-end metrics with no tracing; the traced
// form replays the same work through the library's public calls with spans
// (see replay.hpp) and reports per-layer metrics. See colbench/README.md for
// the metric definitions and the layer -> end-to-end mapping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace colbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few-second smoke size (self-test only).
  bool tiny = false;
  /// Chrome trace-event JSON destination for the traced run ("" = none).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Emitted in the final JSON line, in this order.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON line (config label, sample
  /// counts, the per-layer table).
  std::vector<std::string> lines;
  /// First few failed checks, for the error stream.
  std::vector<std::string> errors;

  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Report run_workload(const Options& options);

}  // namespace colbench
