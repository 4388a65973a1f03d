// Fault-tolerance coverage: FaultPlan parsing, retry-after-throw, exhausted
// retries degrading to status/error rows, post-hoc timeout classification,
// injected sink failures, and shard arithmetic + the shard concatenation
// contract (k shard outputs == the unsharded rows, byte for byte).
#include "src/sim/fault.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/sim/record.hpp"
#include "src/sim/suite.hpp"

namespace colscore {
namespace {

constexpr char kBase[] = "workload=planted n=48 budget=4 dishonest=4 opt=0";

/// Expands `grid` over the tiny base spec.
std::vector<ScenarioSpec> tiny_grid(const std::string& grid) {
  return expand_grid(ScenarioSpec::parse(kBase), parse_grid(grid));
}

// ---- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar) {
  const FaultPlan plan =
      FaultPlan::parse("throw@3, delay@7=0.5x2, sink@4, kill@1, throw@9x1");
  ASSERT_EQ(plan.specs().size(), 5u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kThrow);
  EXPECT_EQ(plan.specs()[0].index, 3u);
  EXPECT_EQ(plan.specs()[0].attempts, 0u);  // every attempt
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(plan.specs()[1].seconds, 0.5);
  EXPECT_EQ(plan.specs()[1].attempts, 2u);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kSinkFail);
  EXPECT_EQ(plan.specs()[2].index, 4u);
  EXPECT_EQ(plan.specs()[3].kind, FaultKind::kKill);
  EXPECT_EQ(plan.specs()[4].attempts, 1u);
  EXPECT_TRUE(plan.has_sink_faults());
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ").empty());
  EXPECT_FALSE(FaultPlan::parse("throw@0").has_sink_faults());
}

TEST(FaultPlanParse, NamesTheBadToken) {
  for (const char* bad : {"explode@3", "throw", "throw@x", "delay@3",
                          "delay@3=abc", "sink@1x2", "throw@1x0"}) {
    try {
      (void)FaultPlan::parse(bad);
      FAIL() << "expected ScenarioError for: " << bad;
    } catch (const ScenarioError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("fault spec token"), std::string::npos) << msg;
      EXPECT_NE(msg.find("throw@I"), std::string::npos) << msg;
    }
  }
}

// ---- run isolation ----------------------------------------------------------

TEST(RunIsolation, RetryRecoversFromATransientThrow) {
  // throw@1x1: run 1's first attempt throws, the retry succeeds.
  const FaultPlan faults = FaultPlan::parse("throw@1x1");
  SuiteOptions options;
  options.threads = 1;
  options.retries = 1;
  options.backoff_s = 0.0;  // no sleep in tests
  options.faults = &faults;
  const std::vector<SuiteRun> runs =
      SuiteRunner(options).run(tiny_grid("adversary=none,sleeper"));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].status, RunStatus::kOk);
  EXPECT_EQ(runs[0].attempts, 1u);
  EXPECT_EQ(runs[1].status, RunStatus::kOk);
  EXPECT_EQ(runs[1].attempts, 2u);
  EXPECT_TRUE(runs[1].error.empty());
  EXPECT_EQ(suite_failure_count(runs), 0u);
}

TEST(RunIsolation, ExhaustedRetriesDegradeToAFailureRow) {
  const FaultPlan faults = FaultPlan::parse("throw@0");
  SuiteOptions options;
  options.threads = 1;
  options.retries = 2;
  options.backoff_s = 0.0;
  options.faults = &faults;
  std::vector<std::size_t> streamed;
  options.on_result = [&](const SuiteRun& run) {
    streamed.push_back(run.index);
  };
  const std::vector<SuiteRun> runs =
      SuiteRunner(options).run(tiny_grid("adversary=none,sleeper"));
  ASSERT_EQ(runs.size(), 2u);
  // The suite did not abort: the failed run became a row and the healthy
  // run still executed and streamed in order.
  EXPECT_EQ(streamed, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(runs[0].status, RunStatus::kFailed);
  EXPECT_EQ(runs[0].attempts, 3u);  // 1 try + 2 retries
  EXPECT_NE(runs[0].error.find("injected fault"), std::string::npos)
      << runs[0].error;
  EXPECT_EQ(runs[1].status, RunStatus::kOk);
  EXPECT_EQ(suite_failure_count(runs), 1u);

  // The failure row carries identity + status/error; result metrics stay
  // absent (never a misleading 0).
  const MetricSchema schema = scenario_metric_schema(runs[0].scenario);
  const RunRecord record = make_run_record(runs[0], schema);
  EXPECT_EQ(record.cell_text(schema.index_of("status")), "failed");
  EXPECT_FALSE(record.value("error").as_string().empty());
  EXPECT_EQ(record.value("workload").as_string(), "planted");
  EXPECT_TRUE(record.value("seed").has_value());
  EXPECT_FALSE(record.value("max_err").has_value());
  EXPECT_FALSE(record.value("total_probes").has_value());
}

TEST(RunIsolation, ChainTooLongForTheUniverseBecomesAFailureRow) {
  // At n=64, budget=8 the chained workload's default 2*budget = 16 links of
  // `diameter` bits each cannot fit 64 objects. The factory reports that as
  // a scenario error: the planted run still completes, and the chained run
  // becomes a failure row naming the workload and the keys involved.
  SuiteOptions options;
  options.threads = 1;
  options.backoff_s = 0.0;
  const std::vector<SuiteRun> runs = SuiteRunner(options).run(
      expand_grid(ScenarioSpec::parse("n=64 budget=8 diameter=8 opt=0"),
                  parse_grid("workload=planted,chained")));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].status, RunStatus::kOk);
  EXPECT_EQ(runs[1].status, RunStatus::kFailed);
  for (const char* key : {"'chained'", "budget=8", "diameter=8", "n=64"})
    EXPECT_NE(runs[1].error.find(key), std::string::npos)
        << key << " missing from: " << runs[1].error;
  EXPECT_EQ(suite_failure_count(runs), 1u);

  // A one-link chain is rejected the same way.
  try {
    (void)run_scenario(Scenario::resolve(
        ScenarioSpec::parse("workload=chained n=64 clusters=1 opt=0")));
    FAIL() << "expected ScenarioError for clusters=1";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'chained'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("clusters=1"), std::string::npos) << msg;
  }
}

TEST(RunIsolation, SlowRunsClassifyAsTimeoutPostHoc) {
  const FaultPlan faults = FaultPlan::parse("delay@0=0.6");
  SuiteOptions options;
  options.threads = 1;
  options.timeout_s = 0.15;
  options.faults = &faults;
  const std::vector<SuiteRun> runs =
      SuiteRunner(options).run(tiny_grid("adversary=none"));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].status, RunStatus::kTimeout);
  EXPECT_NE(runs[0].error.find("timeout_s"), std::string::npos)
      << runs[0].error;
  EXPECT_EQ(suite_failure_count(runs), 1u);
}

// ---- sink faults ------------------------------------------------------------

/// Minimal inner sink counting rows (rows_ is inherited).
struct CountingSink : ResultSink {
  void begin(const MetricSchema&) override {}
  void write(const RunRecord&) override { ++rows_; }
};

TEST(SinkFaults, InjectingSinkFailsTheTargetedWrite) {
  auto inner = std::make_unique<CountingSink>();
  CountingSink* counter = inner.get();
  FaultInjectingSink sink(FaultPlan::parse("sink@1"), std::move(inner));
  MetricSchema schema;
  schema.add({"a", MetricType::kString, "", "test"});
  sink.begin(schema);
  RunRecord record(&schema);
  record.set_string("a", "x");
  sink.write(record);  // write 0 passes through
  EXPECT_EQ(counter->rows_written(), 1u);
  EXPECT_THROW(sink.write(record), FaultInjected);  // write 1 fails
  EXPECT_EQ(counter->rows_written(), 1u);  // the fault fires before the write
}

// ---- sharding ---------------------------------------------------------------

TEST(Sharding, RangesPartitionTheIndexSpace) {
  // Blocks cover [0, total) exactly once, in order, for uneven splits too.
  for (std::size_t total : {0u, 1u, 5u, 18u}) {
    for (std::size_t k : {1u, 2u, 3u, 7u}) {
      std::size_t covered = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto [lo, hi] = shard_range(total, i, k);
        EXPECT_EQ(lo, covered);
        EXPECT_LE(hi, total);
        covered = hi;
      }
      EXPECT_EQ(covered, total);
    }
  }
  EXPECT_THROW((void)shard_range(10, 2, 2), ScenarioError);
}

TEST(Sharding, ParseShardAcceptsIOverK) {
  EXPECT_EQ(parse_shard("0/2"), (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(parse_shard("3/7"), (std::pair<std::size_t, std::size_t>{3, 7}));
  for (const char* bad : {"", "1", "a/2", "1/b", "2/2", "3/2", "-1/2"})
    EXPECT_THROW((void)parse_shard(bad), ScenarioError) << bad;
}

TEST(Sharding, ShardOutputsConcatenateToTheUnshardedRows) {
  const std::vector<ScenarioSpec> specs =
      tiny_grid("adversary=none,sleeper,random_liar");

  auto rows_for = [&](std::size_t index, std::size_t count) {
    SuiteOptions options;
    options.threads = 1;
    options.reps = 2;
    options.shard_index = index;
    options.shard_count = count;
    std::vector<std::string> rows;
    options.on_result = [&](const SuiteRun& run) {
      // Out-of-shard runs must never stream.
      EXPECT_NE(run.status, RunStatus::kSkipped);
      std::ostringstream cell;
      for (const std::string& c :
           suite_row_cells(run, false, /*include_rep=*/true))
        cell << c << ',';
      rows.push_back(cell.str());
    };
    SuiteRunner(options).run(specs);
    return rows;
  };

  const std::vector<std::string> all = rows_for(0, 1);
  ASSERT_EQ(all.size(), 6u);  // 3 cells x 2 reps
  std::vector<std::string> merged;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::vector<std::string> part = rows_for(i, 2);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Identical rows — same derived seeds, same cells — in the same order.
  EXPECT_EQ(merged, all);
}

}  // namespace
}  // namespace colscore
