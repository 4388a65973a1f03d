// Tests for the small common utilities: CSV both ways, strict number
// parsing, logging levels, math helpers, and the protocol environment glue.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "src/common/csv.hpp"
#include "src/common/log.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/parse.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

TEST(Csv, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b", "c"});
  w.row({"1", "2", "3"});
  EXPECT_EQ(os.str(), "a,b,c\n1,2,3\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os, {"x", "y"});
  w.row({"has,comma", "has\"quote"});
  EXPECT_EQ(os.str(), "x,y\n\"has,comma\",\"has\"\"quote\"\n");
  // split_csv_row inverts the quoting and keeps a trailing empty cell.
  EXPECT_EQ(split_csv_row("\"has,comma\",\"has\"\"quote\","),
            (std::vector<std::string>{"has,comma", "has\"quote", ""}));
  EXPECT_FALSE(split_csv_row("\"unterminated"));
  EXPECT_FALSE(split_csv_row("\"closed\"junk"));
}

TEST(Csv, RowWidthEnforced) {
  std::ostringstream os;
  CsvWriter w(os, {"only"});
  EXPECT_DEATH(w.row({"a", "b"}), "width");
}

TEST(Parse, U64TakesOnlyPlainDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "+1", " 1", "1 ", "-1", " -1", "-0",
                          "18446744073709551616", "12x", "0x10", "1e3", "3.5"})
    EXPECT_FALSE(parse_u64(bad)) << "'" << bad << "'";
}

TEST(Parse, F64TakesDecimalAndTheFormattersNonFiniteSpellings) {
  EXPECT_EQ(parse_f64("0.25"), 0.25);
  EXPECT_EQ(parse_f64("-3"), -3.0);
  EXPECT_EQ(parse_f64("1e-300"), 1e-300);
  EXPECT_TRUE(std::signbit(parse_f64("-0").value()));
  EXPECT_TRUE(std::isnan(parse_f64("nan").value()));
  EXPECT_EQ(parse_f64("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_f64("-inf"), -std::numeric_limits<double>::infinity());
  for (const char* bad : {"", "+1", " 1", "1 ", "0.5x", "0x1p3", "1e400"})
    EXPECT_FALSE(parse_f64(bad)) << "'" << bad << "'";
}

TEST(Log, LevelGate) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Below-threshold messages are cheap no-ops (no observable effect, but the
  // call must be safe from any thread).
  log_debug("dropped ", 42);
  log_info("dropped too");
  set_log_level(before);
}

TEST(Log, SetAndRestore) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(before);
  EXPECT_EQ(log_level(), before);
}

TEST(MathUtil, Log2Ceil) {
  EXPECT_EQ(log2_ceil(0), 1u);
  EXPECT_EQ(log2_ceil(1), 1u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(1024), 10u);
  EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(MathUtil, LnClamped) {
  EXPECT_DOUBLE_EQ(ln_clamped(1), 1.0);
  EXPECT_DOUBLE_EQ(ln_clamped(2), 1.0);  // ln 2 < 1 clamps
  EXPECT_NEAR(ln_clamped(1024), 6.93147, 1e-4);
}

TEST(MathUtil, CeilSize) {
  EXPECT_EQ(ceil_size(0.0), 1u);
  EXPECT_EQ(ceil_size(0.2), 1u);
  EXPECT_EQ(ceil_size(1.0), 1u);
  EXPECT_EQ(ceil_size(1.1), 2u);
  EXPECT_EQ(ceil_size(7.9), 8u);
}

TEST(ProtocolEnv, OwnProbeChargesHonestOnly) {
  testutil::Harness h(identical_clusters(4, 8, 1, Rng(1)));
  h.population.set_behavior(1, std::make_unique<Inverter>());
  (void)h.env.own_probe(0, 3);
  (void)h.env.own_probe(1, 3);
  EXPECT_EQ(h.oracle.probes_by(0), 1u);
  EXPECT_EQ(h.oracle.probes_by(1), 0u);
}

TEST(ProtocolEnv, OwnProbeAlwaysTruthful) {
  // own_probe is a player privately learning its own bit — even for a liar
  // the returned value is its true preference (lying happens at report
  // time, not at probe time).
  testutil::Harness h(identical_clusters(4, 8, 1, Rng(2)));
  h.population.set_behavior(1, std::make_unique<Inverter>());
  EXPECT_EQ(h.env.own_probe(1, 5), h.world.matrix.preference(1, 5));
}

TEST(ProtocolEnv, LocalRngStableAcrossCalls) {
  testutil::Harness h(identical_clusters(2, 4, 1, Rng(3)));
  Rng a = h.env.local_rng(0, 42);
  Rng b = h.env.local_rng(0, 42);
  EXPECT_EQ(a(), b());
  Rng c = h.env.local_rng(1, 42);
  Rng d = h.env.local_rng(0, 43);
  EXPECT_NE(a(), c());
  EXPECT_NE(b(), d());
}

TEST(ProtocolEnv, FreshPhaseNeverRepeats) {
  testutil::Harness h(identical_clusters(2, 4, 1, Rng(4)));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(h.env.fresh_phase());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(ProtocolEnv, SharedRngComesFromBeacon) {
  testutil::Harness h(identical_clusters(2, 4, 1, Rng(5)));
  Rng direct = h.beacon.rng_for(7);
  Rng via = h.env.shared_rng(7);
  EXPECT_EQ(direct(), via());
}

}  // namespace
}  // namespace colscore
