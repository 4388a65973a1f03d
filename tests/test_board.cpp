#include <gtest/gtest.h>

#include <thread>

#include "src/board/bulletin_board.hpp"
#include "src/board/probe_oracle.hpp"
#include "src/board/shared_random.hpp"
#include "src/common/exec_policy.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {
namespace {

PreferenceMatrix small_matrix() {
  PreferenceMatrix m(4, 6);
  m.set(0, 0, true);
  m.set(1, 1, true);
  m.set(2, 2, true);
  m.set(3, 3, true);
  return m;
}

TEST(ProbeOracle, ReturnsOwnTruthAndCharges) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  EXPECT_TRUE(oracle.probe(0, 0));
  EXPECT_FALSE(oracle.probe(0, 1));
  EXPECT_TRUE(oracle.probe(1, 1));
  EXPECT_EQ(oracle.probes_by(0), 2u);
  EXPECT_EQ(oracle.probes_by(1), 1u);
  EXPECT_EQ(oracle.probes_by(2), 0u);
  EXPECT_EQ(oracle.total_probes(), 3u);
  EXPECT_EQ(oracle.max_probes(), 2u);
}

TEST(ProbeOracle, AdversaryPeekIsFree) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  EXPECT_TRUE(oracle.adversary_peek(2, 2));
  EXPECT_EQ(oracle.total_probes(), 0u);
}

TEST(ProbeOracle, ResetCounts) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  oracle.probe(0, 0);
  oracle.reset_counts();
  EXPECT_EQ(oracle.total_probes(), 0u);
}

TEST(ProbeOracle, HardBudgetAborts) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m, ProbeOracle::BudgetMode::kHard, 2);
  oracle.probe(0, 0);
  oracle.probe(0, 1);
  EXPECT_DEATH(oracle.probe(0, 2), "budget");
}

TEST(ProbeOracle, ConcurrentProbesCountExactly) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  ExecPolicy::process_default().par_for(
      0, 1000, [&](std::size_t) { oracle.probe(0, 0); });
  EXPECT_EQ(oracle.probes_by(0), 1000u);
}

TEST(BulletinBoard, ReportRoundTrip) {
  BulletinBoard board;
  board.post_report(1, 10, 5, true);
  board.post_report(1, 11, 5, false);
  board.post_report(2, 12, 5, true);  // different channel

  const auto reports = board.reports_for(1, 5);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].author, 10u);
  EXPECT_TRUE(reports[0].value);
  EXPECT_EQ(reports[1].author, 11u);
  EXPECT_FALSE(reports[1].value);

  EXPECT_TRUE(board.reports_for(1, 6).empty());
  EXPECT_EQ(board.reports_for(2, 5).size(), 1u);
  EXPECT_EQ(board.report_count(), 3u);
}

TEST(BulletinBoard, AppendOnlyPreservesHonestRecords) {
  // A dishonest player posting to the same channel/object cannot alter the
  // honest entry — there is no mutation API, and records keep their author.
  BulletinBoard board;
  board.post_report(7, /*author=*/1, /*object=*/3, true);
  board.post_report(7, /*author=*/666, /*object=*/3, false);
  const auto reports = board.reports_for(7, 3);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].author, 1u);
  EXPECT_TRUE(reports[0].value);  // unchanged
}

TEST(BulletinBoard, VectorChannel) {
  BulletinBoard board;
  BitVector v(8);
  v.set(3, true);
  board.post_vector(42, 0, v);
  board.post_vector(42, 1, v);
  BitVector w(8);
  board.post_vector(42, 2, w);

  const auto posts = board.vectors(42);
  ASSERT_EQ(posts.size(), 3u);
  EXPECT_EQ(board.vector_count(), 3u);

  const auto by_support = board.vectors_by_support(42);
  ASSERT_EQ(by_support.size(), 2u);
  EXPECT_EQ(by_support[0].support, 2u);
  EXPECT_EQ(by_support[0].vector, v);
  EXPECT_EQ(by_support[1].support, 1u);
  EXPECT_EQ(by_support[1].vector, w);
}

TEST(BulletinBoard, SupportTieBreaksByFirstAppearance) {
  BulletinBoard board;
  BitVector a(4), b(4);
  b.set(0, true);
  board.post_vector(1, 0, a);
  board.post_vector(1, 1, b);
  const auto by_support = board.vectors_by_support(1);
  ASSERT_EQ(by_support.size(), 2u);
  EXPECT_EQ(by_support[0].vector, a);
}

TEST(BulletinBoard, AllReportsCollectsChannel) {
  BulletinBoard board;
  for (ObjectId o = 0; o < 10; ++o) board.post_report(9, 0, o, o % 2 == 0);
  const auto all = board.all_reports(9);
  EXPECT_EQ(all.size(), 10u);
}

TEST(BulletinBoard, ConcurrentPostsAllLand) {
  BulletinBoard board;
  ExecPolicy::process_default().par_for(0, 2000, [&](std::size_t i) {
    board.post_report(3, static_cast<PlayerId>(i), static_cast<ObjectId>(i % 16),
                      true);
  });
  EXPECT_EQ(board.report_count(), 2000u);
  std::size_t total = 0;
  for (ObjectId o = 0; o < 16; ++o) total += board.reports_for(3, o).size();
  EXPECT_EQ(total, 2000u);
}

TEST(HonestBeacon, DeterministicPerPhase) {
  HonestBeacon a(5), b(5);
  EXPECT_EQ(a.seed_for(1), b.seed_for(1));
  EXPECT_NE(a.seed_for(1), a.seed_for(2));
  EXPECT_TRUE(a.honest());
}

TEST(HonestBeacon, DifferentRootsDiffer) {
  HonestBeacon a(5), b(6);
  EXPECT_NE(a.seed_for(1), b.seed_for(1));
}

TEST(GrindingBeacon, NoObjectiveIsPredictable) {
  GrindingBeacon g(7, 1, nullptr);
  EXPECT_FALSE(g.honest());
  EXPECT_EQ(g.seed_for(3), g.seed_for(3));
}

TEST(GrindingBeacon, GrindsTowardObjective) {
  // Objective: prefer seeds whose low byte is large. With enough attempts the
  // beacon should find a seed with a high low-byte.
  GrindingBeacon g(7, 256, [](std::uint64_t seed, std::uint64_t) {
    return static_cast<double>(seed & 0xff);
  });
  const std::uint64_t chosen = g.seed_for(11);
  EXPECT_GE(chosen & 0xff, 200u);
}

TEST(GrindingBeacon, RngForMatchesSeed) {
  HonestBeacon h(9);
  Rng direct(h.seed_for(4));
  Rng via = h.rng_for(4);
  EXPECT_EQ(direct(), via());
}

}  // namespace
}  // namespace colscore
