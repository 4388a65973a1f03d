// SuiteRunner coverage: grid parsing/expansion, ordered streaming, and the
// determinism contract — a parallel grid run is byte-identical to the same
// scenarios run serially.
#include "src/sim/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/common/exec_policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/sink.hpp"

namespace colscore {
namespace {

TEST(Grid, ParseAxes) {
  const auto axes = parse_grid("n=256,512 x adversary=hijacker,sleeper");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].key, "n");
  EXPECT_EQ(axes[0].values, (std::vector<std::string>{"256", "512"}));
  EXPECT_EQ(axes[1].key, "adversary");
  EXPECT_EQ(axes[1].values, (std::vector<std::string>{"hijacker", "sleeper"}));
}

TEST(Grid, SeparatorIsOptional) {
  EXPECT_EQ(parse_grid("n=1,2 adversary=a,b"),
            parse_grid("n=1,2 x adversary=a,b"));
  EXPECT_TRUE(parse_grid("").empty());
}

TEST(Grid, ParseRejectsMalformedAxes) {
  EXPECT_THROW(parse_grid("n256,512"), ScenarioError);
  EXPECT_THROW(parse_grid("n="), ScenarioError);
  EXPECT_THROW(parse_grid("n=, ,"), ScenarioError);
  EXPECT_THROW(parse_grid("n=1 x n=2"), ScenarioError);  // repeated axis
}

TEST(Grid, ExpandIsRowMajorWithLastAxisFastest) {
  ScenarioSpec base;
  const auto specs =
      expand_grid(base, parse_grid("n=64,128 x adversary=none,sleeper"));
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].overrides.at("n"), "64");
  EXPECT_EQ(specs[0].adversary, "none");
  EXPECT_EQ(specs[1].overrides.at("n"), "64");
  EXPECT_EQ(specs[1].adversary, "sleeper");
  EXPECT_EQ(specs[2].overrides.at("n"), "128");
  EXPECT_EQ(specs[2].adversary, "none");
  EXPECT_EQ(specs[3].overrides.at("n"), "128");
  EXPECT_EQ(specs[3].adversary, "sleeper");
}

TEST(Grid, WorkloadAndAlgorithmAreSweepable) {
  ScenarioSpec base;
  const auto specs = expand_grid(
      base, parse_grid("workload=planted,chained x algorithm=calc,baseline"));
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].workload, "planted");
  EXPECT_EQ(specs[3].workload, "chained");
  EXPECT_EQ(specs[3].algorithm, "baseline");
}

ScenarioSpec small_base() {
  ScenarioSpec base;
  base.set("n", "48").set("budget", "4").set("diameter", "8")
      .set("dishonest", "4").set("opt", "0");
  return base;
}

/// Runs the grid (a reps= axis included) under `options` and streams the
/// default columns through CsvSink; returns the runs and the CSV text.
std::pair<std::vector<SuiteRun>, std::string> grid_csv(
    const ScenarioSpec& base, const std::string& grid, SuiteOptions options) {
  std::vector<GridAxis> axes = parse_grid(grid);
  options.reps = take_reps_axis(axes);
  const std::vector<ScenarioSpec> specs = expand_grid(base, axes);
  const MetricSchema schema = suite_metric_schema(specs);
  std::ostringstream out;
  SinkConfig config;
  config.stream = &out;
  CsvSink sink(config);
  RecordStream stream(sink, schema, default_columns(false, options.reps > 1));
  options.on_result = [&](const SuiteRun& run) {
    stream.write(make_run_record(run, schema));
  };
  std::vector<SuiteRun> runs = SuiteRunner(options).run(specs);
  stream.finish();
  return {std::move(runs), out.str()};
}

std::string grid_csv(const ScenarioSpec& base, const std::string& grid,
                     std::size_t threads) {
  SuiteOptions options;
  options.threads = threads;
  return grid_csv(base, grid, options).second;
}

TEST(SuiteRunner, ParallelGridIsByteIdenticalToSerial) {
  const std::string grid =
      "adversary=none,random_liar,sleeper x algorithm=calc,baseline";
  const std::string serial = grid_csv(small_base(), grid, /*threads=*/1);
  const std::string parallel = grid_csv(small_base(), grid, /*threads=*/4);
  const std::string parallel_again = grid_csv(small_base(), grid, /*threads=*/3);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, parallel_again);
}

TEST(SuiteRunner, ExplicitPolicyMatchesThreadsDispatch) {
  // options.policy is the seam for callers that own their pool; it must
  // produce the same bytes as the threads-based dispatch it overrides.
  const std::string grid = "adversary=none,sleeper x algorithm=calc";
  const std::string serial = grid_csv(small_base(), grid, /*threads=*/1);

  ThreadPool pool(3);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  SuiteOptions options;
  options.policy = &policy;
  options.threads = 7;  // must be ignored in favour of the explicit policy
  EXPECT_EQ(serial, grid_csv(small_base(), grid, options).second);
}

TEST(SuiteRunner, StreamsResultsInIndexOrder) {
  std::vector<std::size_t> seen;
  SuiteOptions options;
  options.threads = 4;
  options.on_result = [&](const SuiteRun& run) { seen.push_back(run.index); };
  SuiteRunner runner(options);
  const auto results =
      runner.run_grid(small_base(), "adversary=none,sleeper x seed=1,2,3");
  ASSERT_EQ(results.size(), 6u);
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].index, i);
}

TEST(SuiteRunner, DerivedSeedsAreDistinctAndScheduleIndependent) {
  // Two identical cells: derived seeds must differ (by index), and the
  // derivation must not depend on the thread count.
  ScenarioSpec base = small_base();
  const std::vector<ScenarioSpec> specs{base, base};

  SuiteOptions serial_options;
  serial_options.threads = 1;
  const auto serial = SuiteRunner(serial_options).run(specs);
  SuiteOptions parallel_options;
  parallel_options.threads = 2;
  const auto parallel = SuiteRunner(parallel_options).run(specs);

  ASSERT_EQ(serial.size(), 2u);
  EXPECT_NE(serial[0].scenario.seed, serial[1].scenario.seed);
  EXPECT_EQ(serial[0].scenario.seed, parallel[0].scenario.seed);
  EXPECT_EQ(serial[1].scenario.seed, parallel[1].scenario.seed);
  EXPECT_EQ(serial[0].outcome.error.max_error, parallel[0].outcome.error.max_error);
}

TEST(SuiteRunner, RawSeedsRunSpecsUntouched) {
  ScenarioSpec base = small_base();
  base.set("seed", "77");
  SuiteOptions options;
  options.threads = 1;
  options.derive_seeds = false;
  const auto runs = SuiteRunner(options).run({base});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].scenario.seed, 77u);
}

TEST(Grid, TakeRepsAxisExtractsAndValidates) {
  auto axes = parse_grid("n=64,128 x reps=3 x adversary=none,sleeper");
  EXPECT_EQ(take_reps_axis(axes), 3u);
  ASSERT_EQ(axes.size(), 2u);  // reps removed, other axes untouched
  EXPECT_EQ(axes[0].key, "n");
  EXPECT_EQ(axes[1].key, "adversary");

  auto no_reps = parse_grid("n=64,128");
  EXPECT_EQ(take_reps_axis(no_reps), 1u);
  ASSERT_EQ(no_reps.size(), 1u);

  auto multi = parse_grid("reps=2,3");
  EXPECT_THROW(take_reps_axis(multi), ScenarioError);
  auto zero = parse_grid("reps=0");
  EXPECT_THROW(take_reps_axis(zero), ScenarioError);
  auto junk = parse_grid("reps=three");
  EXPECT_THROW(take_reps_axis(junk), ScenarioError);
  auto negative = parse_grid("reps=-2");  // stoull would silently wrap this
  EXPECT_THROW(take_reps_axis(negative), ScenarioError);
}

TEST(SuiteRunner, RepsReplicateEveryCellWithDistinctSeeds) {
  const auto runs =
      SuiteRunner(SuiteOptions{.threads = 1})
          .run_grid(small_base(), "adversary=none,sleeper x reps=3");
  ASSERT_EQ(runs.size(), 6u);  // 2 cells x 3 reps, rep fastest
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    EXPECT_EQ(runs[i].rep, i % 3);
    EXPECT_EQ(runs[i].spec.adversary, i < 3 ? "none" : "sleeper");
    seeds.push_back(runs[i].scenario.seed);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(SuiteRunner, RepsCsvColumnAndParallelDeterminism) {
  auto reps_csv = [&](std::size_t threads) {
    SuiteOptions options;
    options.threads = threads;
    return grid_csv(small_base(), "adversary=none x reps=4", options);
  };
  const auto [serial_runs, serial] = reps_csv(1);
  const auto [parallel_runs, parallel] = reps_csv(3);
  ASSERT_EQ(serial_runs.size(), 4u);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find(",rep,"), std::string::npos);
}

TEST(SuiteRunner, RepsRequireDerivedSeeds) {
  SuiteOptions options;
  options.reps = 2;
  options.derive_seeds = false;
  EXPECT_THROW(SuiteRunner(options).run({small_base()}), ScenarioError);
}

TEST(SuiteRunner, ResolutionErrorsSurfaceBeforeAnyRun) {
  SuiteOptions options;
  std::size_t calls = 0;
  options.on_result = [&](const SuiteRun&) { ++calls; };
  SuiteRunner runner(options);
  EXPECT_THROW(runner.run_grid(small_base(), "adversary=none,martian"),
               ScenarioError);
  EXPECT_EQ(calls, 0u);
}

TEST(SuiteRunner, RegisteredEntriesAreGridSweepable) {
  // End-to-end acceptance: register a workload, sweep it in a grid next to a
  // builtin, and read both back from the streamed CSV.
  WorkloadRegistry::instance().add(
      "suite_twin_blocks", {"two_blocks twin for suite tests",
                            [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                              return two_blocks(sc.n, sc.n, rng);
                            }});
  const auto [runs, csv] = grid_csv(
      small_base(), "workload=two_blocks,suite_twin_blocks", SuiteOptions{});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(csv.find("suite_twin_blocks"), std::string::npos);
  EXPECT_NE(csv.find("two_blocks"), std::string::npos);
}

}  // namespace
}  // namespace colscore
