// Traced replay of the library's scenario runner.
//
// run_scenario() runs a scenario as one opaque call. To see where its time
// goes without instrumenting the library, the traced run replays the same
// run through the public calls it is made of — world build, SmallRadius,
// NeighborGraph, cluster_players, cluster_votes, rselect, feige_election,
// error_stats, opt_radius — with a span around each call and counts taken
// at each boundary. The replay is only trusted while it is the same
// program: compare_runs() checks its per-player probe charges, outputs and
// outcome against the library's own code path, and the traced run fails if any
// of them differ (so a later change to the library's orchestration shows up
// here instead of silently skewing the layer table).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/sim/registry.hpp"
#include "trace.hpp"

namespace colbench {

/// Counts recorded at layer boundaries, keyed by per-layer metric name.
using Counters = std::map<std::string, double>;

/// What one scenario run produced, in the form the equivalence check needs.
struct RunProducts {
  std::vector<colscore::BitVector> outputs;
  std::vector<std::uint64_t> probes_by;  // oracle charge per player
  std::uint64_t board_reports = 0;
  std::uint64_t board_vectors = 0;
  /// Filled by traced_run only (library_run leaves it default).
  colscore::ExperimentOutcome outcome;
};

/// Replays run_scenario(scenario, policy) through the library's public
/// calls, recording spans in `tracer` and counts in `counters`. Supports
/// the calculate_preferences and robust algorithms.
RunProducts traced_run(const colscore::Scenario& scenario,
                       const colscore::ExecPolicy& policy, Tracer& tracer,
                       Counters& counters);

/// The same run through the registered algorithm entry (the code
/// run_scenario calls), untraced.
RunProducts library_run(const colscore::Scenario& scenario,
                        const colscore::ExecPolicy& policy);

/// Empty when the replay matches the library run and run_scenario's
/// outcome for the same scenario; otherwise names the first difference.
std::string compare_runs(const RunProducts& traced, const RunProducts& library,
                         const colscore::ExperimentOutcome& suite_outcome);

}  // namespace colbench
