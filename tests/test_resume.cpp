// Crash/resume coverage — the PR's acceptance tests. A fault-injected suite
// (throws + a timeout) degrades to failure rows and a nonzero failure count;
// --resume re-runs exactly the failed rows and the merged artifact is
// byte-identical to an uninterrupted run, for every file sink. A SIGKILLed
// CLI subprocess leaves the durable PATH.tmp partial artifact, and resuming
// it completes to the same bytes. Torn text tails, schema-mismatched sqlite
// databases, and summarized artifacts are rejected with named errors.
#include "src/sim/resume.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/fault.hpp"
#include "src/sim/suitefile.hpp"

#if defined(__unix__)
#include <csignal>
#include <sys/wait.h>
#endif

namespace colscore {
namespace {

// 18 runs: 6 cells (2 n x 3 adversaries) x 3 reps.
constexpr char kSuiteText[] = R"({
  "name": "resume-acceptance",
  "base": {"workload": "planted", "budget": 4, "dishonest": 4, "opt": false},
  "grids": ["n=48,64 x adversary=none,sleeper,random_liar"],
  "reps": 3,
  "threads": 1
})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

/// Runs the acceptance suite into `path` through `sink`, optionally fault
/// injected, optionally resuming `resume_from`.
std::vector<SuiteRun> run_acceptance(const std::string& sink,
                                     const std::string& path,
                                     const std::string& faults = "",
                                     const std::string& resume_from = "") {
  SuiteFile file = parse_suite_file(kSuiteText, "resume.json");
  file.sink = sink;
  file.output = path;
  if (!faults.empty()) {
    file.faults = faults;
    file.timeout_s = 0.15;
  }
  SuiteFileOverrides overrides;
  if (!resume_from.empty()) overrides.resume = resume_from;
  return run_suite_file(file, overrides);
}

/// The acceptance contract for one sink: 2 throws + 1 manufactured timeout
/// leave 15 ok rows + 3 failure rows and a nonzero failure count; resume
/// re-runs only those 3 and the merged artifact is byte-identical to a
/// clean run's.
void check_sink_resume_equivalence(const std::string& sink,
                                   const std::string& suffix) {
  const std::string clean = temp_path("resume_clean" + suffix);
  const std::string faulty = temp_path("resume_faulty" + suffix);

  ASSERT_EQ(suite_failure_count(run_acceptance(sink, clean)), 0u);

  const std::vector<SuiteRun> first =
      run_acceptance(sink, faulty, "throw@3,throw@11,delay@7=0.6");
  ASSERT_EQ(first.size(), 18u);
  EXPECT_EQ(suite_failure_count(first), 3u);
  EXPECT_EQ(first[3].status, RunStatus::kFailed);
  EXPECT_EQ(first[11].status, RunStatus::kFailed);
  EXPECT_EQ(first[7].status, RunStatus::kTimeout);

  const std::vector<SuiteRun> second =
      run_acceptance(sink, faulty, "", faulty);
  EXPECT_EQ(suite_failure_count(second), 0u);
  // Exactly the 3 failed runs re-ran; the 15 complete rows were replayed.
  std::size_t reran = 0;
  for (const SuiteRun& run : second)
    if (run.status != RunStatus::kSkipped) ++reran;
  EXPECT_EQ(reran, 3u);

  EXPECT_EQ(read_file(faulty), read_file(clean)) << sink;
  std::remove(clean.c_str());
  std::remove(faulty.c_str());
}

TEST(ResumeEquivalence, JsonlMergesByteIdentical) {
  check_sink_resume_equivalence("jsonl", ".jsonl");
}

TEST(ResumeEquivalence, CsvMergesByteIdentical) {
  check_sink_resume_equivalence("csv", ".csv");
}

#if defined(COLSCORE_HAVE_SQLITE)
TEST(ResumeEquivalence, SqliteMergesByteIdentical) {
  check_sink_resume_equivalence("sqlite", ".sqlite");
}
#endif

// ---- torn tails -------------------------------------------------------------

class ResumeTornTail : public testing::TestWithParam<const char*> {};

TEST_P(ResumeTornTail, TruncatedLastLineIsReRun) {
  const std::string sink = GetParam();
  const std::string path = temp_path("resume_torn." + sink);
  const std::string clean = temp_path("resume_torn_clean." + sink);
  ASSERT_EQ(suite_failure_count(run_acceptance(sink, clean)), 0u);
  ASSERT_EQ(suite_failure_count(run_acceptance(sink, path)), 0u);

  // Crash mid-write: chop the final row somewhere inside, newline lost.
  const std::string full = read_file(path);
  const std::size_t cut = full.rfind('\n', full.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, cut + 1 + 20);  // 20 bytes of the torn row
  }

  const std::vector<SuiteRun> resumed = run_acceptance(sink, path, "", path);
  EXPECT_EQ(suite_failure_count(resumed), 0u);
  std::size_t reran = 0;
  for (const SuiteRun& run : resumed)
    if (run.status != RunStatus::kSkipped) ++reran;
  EXPECT_EQ(reran, 1u);  // only the torn row
  EXPECT_EQ(read_file(path), read_file(clean));
  std::remove(path.c_str());
  std::remove(clean.c_str());
}

INSTANTIATE_TEST_SUITE_P(TextSinks, ResumeTornTail,
                         testing::Values("jsonl", "csv"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---- named rejections -------------------------------------------------------

TEST(ResumeErrors, MissingArtifactIsNamed) {
  try {
    (void)run_acceptance("jsonl", temp_path("resume_missing.jsonl"), "",
                         "/nonexistent/prior.jsonl");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("resume '"), std::string::npos)
        << e.what();
  }
}

TEST(ResumeErrors, ForeignArtifactRowsAreNamed) {
  // An artifact from a *different* sweep must not silently merge.
  const std::string path = temp_path("resume_foreign.jsonl");
  {
    SuiteFile other = parse_suite_file(
        R"({"base": {"workload": "planted", "n": 96, "budget": 4,
                     "dishonest": 4, "opt": false},
            "reps": 3, "threads": 1})",
        "other.json");
    other.sink = "jsonl";
    other.output = path;
    (void)run_suite_file(other);
  }
  try {
    (void)run_acceptance("jsonl", path, "", path);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(
        std::string(e.what()).find("does not correspond to any planned run"),
        std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ResumeErrors, SummarizedArtifactsCannotResume) {
  SuiteFile summarized = parse_suite_file(kSuiteText, "resume.json");
  summarized.sink = "jsonl";
  summarized.output = temp_path("resume_summary.jsonl");
  summarized.summary = SummaryStat::kMean;
  SuiteFileOverrides overrides;
  overrides.resume = "whatever.jsonl";
  try {
    (void)run_suite_file(summarized, overrides);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("summar"), std::string::npos)
        << e.what();
  }
}

#if defined(COLSCORE_HAVE_SQLITE)
TEST(ResumeErrors, MismatchedSqliteTableIsNamed) {
  // A pre-existing `runs` table with foreign columns must be rejected by
  // name, not silently interleaved (satellite: sqlite hardening).
  const std::string path = temp_path("resume_mismatch.sqlite");
  {
    SinkConfig config;
    config.path = path;
    MetricSchema foreign;
    foreign.add({"alpha", MetricType::kString, "", "test"});
    SqliteSink sink(config);
    sink.begin(foreign);
    sink.finish();
  }
  try {
    (void)run_acceptance("sqlite", temp_path("resume_mm_out.sqlite"), "",
                         path);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does not match the suite schema"), std::string::npos)
        << msg;
  }
  std::remove(path.c_str());
}
#endif

// ---- crash durability (SIGKILL a real subprocess) ---------------------------

#if defined(COLSCORE_CLI_PATH) && defined(__unix__)
TEST(CrashDurability, KilledCliLeavesAResumableTmpArtifact) {
  const std::string out = temp_path("resume_kill.csv");
  const std::string clean = temp_path("resume_kill_clean.csv");
  const std::string args =
      std::string(COLSCORE_CLI_PATH) +
      " --scenario 'workload=planted n=48 budget=4 dishonest=4 opt=0'"
      " --grid 'adversary=none,sleeper,random_liar' --threads 1 --sink csv";

  ASSERT_EQ(std::system((args + " --out " + clean).c_str()), 0);

  // kill@2: the process SIGKILLs itself as run 2 starts — no cleanup, no
  // rename; rows 0..1 must already be durable in PATH.tmp.
  const int status = std::system(("COLSCORE_FAULTS='kill@2' " + args +
                                  " --out " + out + " >/dev/null 2>&1")
                                     .c_str());
  // std::system goes through sh -c: depending on the shell, the child's
  // SIGKILL surfaces as a signal status or as exit code 128+9.
  const bool killed =
      (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ||
      (WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL);
  ASSERT_TRUE(killed) << status;
  std::ifstream tmp(out + ".tmp");
  EXPECT_TRUE(tmp.is_open()) << "durable partial artifact missing";
  tmp.close();

  ASSERT_EQ(std::system(
                (args + " --out " + out + " --resume " + out).c_str()),
            0);
  EXPECT_EQ(read_file(out), read_file(clean));
  std::remove(out.c_str());
  std::remove(clean.c_str());
}
#endif

}  // namespace
}  // namespace colscore
