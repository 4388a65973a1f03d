// Suite-file coverage: parsing the checked-in JSON sweep format, the
// documented validation errors (malformed documents, unknown keys,
// wrong-typed values, reps-axis misuse), and the determinism contract — a
// suite file runs byte-identical to the equivalent grid invocation.
#include "src/sim/suitefile.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace colscore {
namespace {

constexpr char kSmokeText[] = R"({
  "name": "smoke",
  "description": "tiny sweep",
  "base": {"workload": "planted", "budget": 4, "diameter": 8,
           "dishonest": 4, "opt": false},
  "grids": ["n=48,64 x adversary=none,sleeper"],
  "reps": 2,
  "threads": 1,
  "sink": "jsonl",
  "output": "smoke.jsonl"
})";

TEST(SuiteFile, ParsesTheDocumentedFormat) {
  const SuiteFile file = parse_suite_file(kSmokeText, "smoke.json");
  EXPECT_EQ(file.name, "smoke");
  EXPECT_EQ(file.description, "tiny sweep");
  EXPECT_EQ(file.base.workload, "planted");
  EXPECT_EQ(file.base.overrides.at("budget"), "4");
  EXPECT_EQ(file.base.overrides.at("opt"), "0");  // bool -> "0"
  ASSERT_EQ(file.grids.size(), 1u);
  EXPECT_EQ(file.grids[0].size(), 2u);
  EXPECT_EQ(file.reps, 2u);
  EXPECT_EQ(file.threads, 1u);
  EXPECT_EQ(file.sink, "jsonl");
  EXPECT_EQ(file.output, "smoke.jsonl");
  EXPECT_FALSE(file.include_wall);
  EXPECT_TRUE(file.derive_seeds);
  EXPECT_EQ(file.expand().size(), 4u);  // 2 n x 2 adversaries (reps at run time)
}

TEST(SuiteFile, BaseAcceptsASpecString) {
  const SuiteFile file = parse_suite_file(
      R"({"base": "workload=planted n=64 dishonest=4 opt=0",
          "grids": "adversary=none,sleeper"})",
      "spec-string.json");
  EXPECT_EQ(file.base.overrides.at("n"), "64");
  ASSERT_EQ(file.grids.size(), 1u);  // single string promotes to one grid
  EXPECT_EQ(file.expand().size(), 2u);
}

TEST(SuiteFile, MultipleGridsConcatenateInOrder) {
  const SuiteFile file = parse_suite_file(
      R"({"base": {"opt": false, "n": 48, "budget": 4},
          "grids": ["adversary=none,sleeper", "workload=uniform,two_blocks"]})",
      "multi.json");
  const std::vector<ScenarioSpec> specs = file.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].adversary, "none");
  EXPECT_EQ(specs[1].adversary, "sleeper");
  EXPECT_EQ(specs[2].workload, "uniform");
  EXPECT_EQ(specs[3].workload, "two_blocks");
}

TEST(SuiteFile, NoGridsMeansOneRunOfBase) {
  const SuiteFile file =
      parse_suite_file(R"({"base": {"n": 48, "opt": false}})", "single.json");
  EXPECT_EQ(file.expand().size(), 1u);
}

// ---- documented error strings ----------------------------------------------

/// EXPECTs that parsing `text` throws a ScenarioError mentioning every
/// `needle` (all errors are prefixed with the origin label).
void expect_parse_error(const std::string& text,
                        const std::vector<std::string>& needles) {
  try {
    (void)parse_suite_file(text, "bad.json");
    FAIL() << "expected ScenarioError for: " << text;
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("suite file 'bad.json'"), std::string::npos) << msg;
    for (const std::string& needle : needles)
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << msg;
  }
}

TEST(SuiteFile, MalformedJsonNamesTheLine) {
  expect_parse_error("{\n  \"name\": \"x\",\n  oops\n}", {"line 3"});
  expect_parse_error("", {"json"});
}

TEST(SuiteFile, DocumentMustBeAnObject) {
  expect_parse_error("[1, 2]", {"must be an object", "array"});
}

TEST(SuiteFile, UnknownKeysAreRejectedWithTheAcceptedList) {
  expect_parse_error(R"({"grid": "n=1,2"})", {"unknown key \"grid\"", "grids"});
}

TEST(SuiteFile, WrongTypedValuesNameKeyAndKinds) {
  expect_parse_error(R"({"reps": "2"})",
                     {"\"reps\" must be an integer", "got string"});
  expect_parse_error(R"({"reps": 2.5})", {"\"reps\"", "non-negative integer"});
  expect_parse_error(R"({"reps": 0})", {"\"reps\" must be a positive integer"});
  expect_parse_error(R"({"wall": 1})", {"\"wall\" must be a boolean"});
  expect_parse_error(R"({"sink": 3})", {"\"sink\" must be a string"});
  expect_parse_error(R"({"base": 7})",
                     {"\"base\" must be an object or a spec string"});
  expect_parse_error(R"({"base": {"n": [1]}})",
                     {"base key \"n\"", "got array"});
  expect_parse_error(R"({"grids": [42]})", {"\"grids\" entries", "number"});
}

TEST(SuiteFile, RepsAxisInsideAGridPointsAtTheTopLevelKey) {
  expect_parse_error(R"({"base": {"opt": false}, "grids": ["n=48 x reps=3"]})",
                     {"grid 1 sweeps 'reps'", "top-level \"reps\" key"});
}

TEST(SuiteFile, SpecErrorsSurfaceAtParseTimeWithTheFileNamed) {
  // Unknown workload: the registry error comes wrapped with the origin.
  expect_parse_error(R"({"base": {"workload": "martian"}})",
                     {"unknown workload 'martian'"});
  // Wrong-typed override value inside the base spec.
  expect_parse_error(R"({"base": {"n": "abc"}})",
                     {"override 'n=abc'", "unsigned integer"});
  // Unknown override key in a grid axis.
  expect_parse_error(R"({"base": {"opt": false}, "grids": ["frob=1,2"]})",
                     {"unknown override key 'frob'"});
}

TEST(SuiteFile, LoadReportsUnreadablePaths) {
  EXPECT_THROW((void)load_suite_file("/nonexistent/nope.json"), ScenarioError);
}

// ---- running ----------------------------------------------------------------

TEST(SuiteFile, RunsMatchTheEquivalentGridInvocation) {
  const SuiteFile file = parse_suite_file(
      R"({"base": {"workload": "planted", "budget": 4, "diameter": 8,
                   "dishonest": 4, "opt": false},
          "grids": ["n=48 x adversary=none,sleeper"],
          "reps": 2, "threads": 1, "sink": "csv"})",
      "equiv.json");

  std::ostringstream from_file;
  SuiteFileOverrides overrides;
  overrides.stream = &from_file;
  const std::vector<SuiteRun> runs = run_suite_file(file, overrides);
  ASSERT_EQ(runs.size(), 4u);  // 2 cells x 2 reps
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].index, i);

  // The same sweep spelled as a grid over the same base.
  ScenarioSpec base;
  base.set("budget", "4").set("diameter", "8").set("dishonest", "4")
      .set("opt", "0");
  const std::vector<ScenarioSpec> specs =
      expand_grid(base, parse_grid("n=48 x adversary=none,sleeper"));
  const MetricSchema schema = suite_metric_schema(specs);
  std::ostringstream from_grid;
  SinkConfig config;
  config.stream = &from_grid;
  CsvSink sink(config);
  RecordStream stream(sink, schema,
                      default_columns(false, /*include_rep=*/true));
  SuiteOptions options;
  options.threads = 1;
  options.reps = 2;
  options.on_result = [&](const SuiteRun& run) {
    stream.write(make_run_record(run, schema));
  };
  SuiteRunner(options).run(specs);
  stream.finish();

  EXPECT_FALSE(from_file.str().empty());
  EXPECT_EQ(from_file.str(), from_grid.str());
}

TEST(SuiteFile, CliOverridesBeatTheFilesChoices) {
  // The CLI overrides a loaded file by assigning its fields (--sink here).
  SuiteFile file = parse_suite_file(
      R"({"base": {"n": 48, "budget": 4, "opt": false}, "sink": "csv",
          "threads": 1})",
      "override.json");
  std::ostringstream out;
  SuiteFileOverrides overrides;
  overrides.stream = &out;
  file.sink = "jsonl";
  (void)run_suite_file(file, overrides);
  // JSONL, not CSV: first byte is '{' and there is no header line.
  ASSERT_FALSE(out.str().empty());
  EXPECT_EQ(out.str()[0], '{');
  EXPECT_EQ(out.str().find("workload,"), std::string::npos);
}

TEST(SuiteFile, UnknownSinkFailsWithRegisteredAlternatives) {
  const SuiteFile file = parse_suite_file(
      R"({"base": {"n": 48, "opt": false}, "sink": "parquet"})", "sink.json");
  try {
    (void)run_suite_file(file);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown sink 'parquet'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("jsonl"), std::string::npos) << msg;
  }
}

TEST(SuiteFile, CheckedInSmokeSuiteStaysValid) {
  // The CI workflow depends on examples/suites/smoke.json expanding to 8
  // runs; keep the artifact and this expectation in sync. ctest runs from
  // the build directory, so try one level up too.
  std::ifstream in("examples/suites/smoke.json");
  if (!in.is_open()) in.open("../examples/suites/smoke.json");
  if (!in.is_open()) GTEST_SKIP() << "run from the repo root to check";
  std::ostringstream text;
  text << in.rdbuf();
  const SuiteFile file = parse_suite_file(text.str(), "smoke.json");
  EXPECT_EQ(file.expand().size() * file.reps, 8u);
  EXPECT_EQ(file.sink, "jsonl");
}

}  // namespace
}  // namespace colscore
