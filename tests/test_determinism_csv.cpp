// Fixed-seed golden outputs for the full protocol pipeline.
//
// These two rows were captured from the seed CLI (`colscore_cli --scenario
// ... --csv`, wall-time column excluded) before the BitMatrix storage /
// tiled-kernel rewrite landed. The whole pipeline — mix_keys seed
// derivations, probe-charging order, tie-break coins, tournament outcomes —
// is observable through them, so any refactor that perturbs per-seed
// behaviour fails here byte-for-byte.
#include <gtest/gtest.h>

#include <sstream>

#include "src/sim/suitefile.hpp"
#include "test_util.hpp"

namespace colscore {
namespace {

std::string run_to_csv(const std::string& scenario_text) {
  SuiteFile file;
  file.base = ScenarioSpec::parse(scenario_text);
  file.threads = 1;
  file.derive_seeds = false;  // single runs keep their literal seed
  std::ostringstream out;
  SuiteFileOverrides overrides;
  overrides.stream = &out;
  (void)run_suite_file(file, overrides);
  return out.str();
}

constexpr char kHeader[] =
    "workload,algorithm,adversary,n,budget,diameter,dishonest,seed,max_err,"
    "mean_err,max_probes,honest_max_probes,total_probes,board_reports,"
    "err_over_opt,status,error\n";

TEST(DeterminismCsv, SleeperSeed3ByteIdentical) {
  // Golden shared with the sink tests (tests/test_util.hpp): all sinks must
  // emit these exact cells.
  const std::string csv = run_to_csv(testutil::kGoldenScenario);
  EXPECT_EQ(csv,
            std::string(kHeader) + std::string(testutil::kGoldenRow) + "\n");
}

TEST(DeterminismCsv, RandomLiarSeed11ByteIdentical) {
  const std::string csv = run_to_csv(
      "workload=planted n=192 budget=4 dishonest=12 adversary=random_liar "
      "seed=11 opt=1");
  EXPECT_EQ(csv, std::string(kHeader) +
                     "planted,calculate_preferences,random_liar,192,4,16,12,11,"
                     "8,4.06667,1942,1942,340000,69120,0.5,ok,\n");
}

}  // namespace
}  // namespace colscore
