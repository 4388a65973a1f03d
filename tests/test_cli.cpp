// End-to-end checks on the real colscore_cli binary. A sink-mode --grid
// sweep and the same sweep written as a --suite file both run through
// run_suite_file, so their rows must be byte-identical; malformed numeric
// flags must print usage (exit 2) instead of aborting or being silently
// accepted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__unix__)
#include <sys/wait.h>
#endif

namespace colscore {
namespace {

#if defined(COLSCORE_CLI_PATH) && defined(__unix__)

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
  return path;
}

/// Runs `colscore_cli ARGS` through the shell with stdout and stderr
/// redirected to the given files; returns the exit code (-1 when the
/// process did not exit normally).
int run_cli(const std::string& args, const std::string& out,
            const std::string& err) {
  const int status = std::system((std::string(COLSCORE_CLI_PATH) + " " +
                                  args + " >" + out + " 2>" + err)
                                     .c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, GridSweepMatchesTheSuiteFileByteForByte) {
  const std::string suite = temp_path("cli_sweep.json");
  {
    std::ofstream file(suite);
    file << R"({
  "base": {"workload": "planted", "budget": 4, "diameter": 8,
           "dishonest": 4, "opt": false},
  "grids": ["n=48,64 x adversary=none,sleeper"],
  "reps": 2,
  "sink": "jsonl"
})";
  }
  const std::string from_suite = temp_path("cli_suite.jsonl");
  const std::string from_grid = temp_path("cli_grid.jsonl");
  const std::string err = temp_path("cli_sweep.err");

  ASSERT_EQ(run_cli("--suite " + suite + " --out " + from_suite, "/dev/null",
                    err),
            0)
      << read_file(err);
  ASSERT_EQ(run_cli("--sink jsonl --out " + from_grid +
                        " --workload planted --budget 4 --diameter 8"
                        " --dishonest 4 --no-opt"
                        " --grid 'n=48,64 x adversary=none,sleeper x reps=2'",
                    "/dev/null", err),
            0)
      << read_file(err);

  const std::string rows = read_file(from_suite);
  EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 8);  // 2 x 2 x 2 reps
  EXPECT_EQ(read_file(from_grid), rows);
  for (const std::string& path : {suite, from_suite, from_grid, err})
    std::remove(path.c_str());
}

TEST(Cli, MalformedNumericFlagsPrintUsage) {
  const std::string out = temp_path("cli_usage.out");
  const std::string err = temp_path("cli_usage.err");
  // -1 (padded or not) would wrap to 2^64-1 threads or retries, nan would
  // silently disable the timeout, and inf would make any retry sleep
  // forever.
  for (const char* flag :
       {"--threads -1", "--threads ' -1'", "--retries ' -1'",
        "--timeout-s nan", "--backoff-s inf"}) {
    EXPECT_EQ(run_cli(std::string(flag) + " --n 16 --budget 2 --no-opt", out,
                      err),
              2)
        << flag;
    EXPECT_NE(read_file(out).find("usage:"), std::string::npos) << flag;
    EXPECT_EQ(read_file(err).find("aborted:"), std::string::npos) << flag;
  }
  std::remove(out.c_str());
  std::remove(err.c_str());
}

#endif

}  // namespace
}  // namespace colscore
