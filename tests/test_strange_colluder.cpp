// Tests for the Lemma 13 optimal voting attack: colluders that spend their
// votes exclusively on "strange" objects (where the honest cluster is
// split), siding with the honest minority.
#include <gtest/gtest.h>

#include "src/core/calculate_preferences.hpp"
#include "src/metrics/error.hpp"
#include "src/sim/registry.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

TEST(StrangeColluder, HonestOutsideVotePhase) {
  const World w = planted_clusters(32, 64, 2, 8, Rng(1));
  StrangeObjectColluder colluder(w.matrix, 8);
  Rng rng(2);
  for (ObjectId o = 0; o < 10; ++o) {
    const bool truth = w.matrix.preference(5, o);
    EXPECT_EQ(colluder.report(5, o, truth, {Phase::kSample, 0}, rng), truth);
    EXPECT_EQ(colluder.report(5, o, truth, {Phase::kClusterGraph, 0}, rng), truth);
  }
}

TEST(StrangeColluder, TruthfulOnSettledObjects) {
  // Identical clusters have NO strange objects (the honest side is
  // unanimous everywhere), so the attack degenerates to honesty.
  const World w = identical_clusters(32, 64, 2, Rng(3));
  StrangeObjectColluder colluder(w.matrix, 0);
  Rng rng(4);
  for (ObjectId o = 0; o < 64; ++o) {
    const bool truth = w.matrix.preference(5, o);
    EXPECT_EQ(colluder.report(5, o, truth, {Phase::kVote, 0}, rng), truth);
  }
  EXPECT_EQ(colluder.strange_objects(5), 0u);
}

TEST(StrangeColluder, FindsStrangeObjectsOnPlanted) {
  // Strange objects need a genuine intra-cluster split: with diameter 48
  // over only 64 objects, members disagree on ~19% of coordinates, so a
  // constant fraction of objects have a >1:5 honest minority.
  const World w = planted_clusters(64, 64, 2, 48, Rng(5));
  StrangeObjectColluder colluder(w.matrix, 48);
  Rng rng(6);
  (void)colluder.report(3, 0, w.matrix.preference(3, 0), {Phase::kVote, 0}, rng);
  EXPECT_GT(colluder.strange_objects(3), 0u);
  // Lemma 13's counting argument: strange objects are O(D).
  EXPECT_LE(colluder.strange_objects(3), 4 * 48u);
}

TEST(StrangeColluder, VotesWithMinorityOnStrangeObjects) {
  // Hand-built split: 9 players like object 0, 3 dislike it (ratio 3 <= 5).
  PreferenceMatrix m(12, 4);
  for (PlayerId p = 0; p < 9; ++p) m.set(p, 0, true);
  World w;
  w.matrix = m;
  StrangeObjectColluder colluder(m, /*diameter=*/4);
  Rng rng(7);
  // The colluder (any member) must vote 0 (the minority side) on object 0.
  EXPECT_FALSE(colluder.report(0, 0, /*truth=*/true, {Phase::kVote, 0}, rng));
}

TEST(StrangeColluder, ProtocolHoldsAtToleranceBound) {
  // The headline check: even the optimal voting attack cannot push honest
  // error past O(D) when the colluders are at most n/(3B) (Lemma 13).
  Scenario config;
  config.n = 256;
  config.budget = 8;
  config.diameter = 12;
  config.adversary = "strange_colluder";
  config.dishonest = config.n / (3 * config.budget);
  config.seed = 8;
  config.compute_opt = false;
  const ExperimentOutcome out = run_scenario(config);
  EXPECT_LE(out.error.max_error, 4 * 12u);
}

TEST(StrangeColluder, StrongerThanSleeperNeverWeakerThanBound) {
  // The strange-object attack targets exactly the votes that can flip;
  // compare both at the same corruption level — both must stay within the
  // Lemma 12/13 envelope, and the protocol must not collapse under either.
  for (const char* adv : {"sleeper", "strange_colluder"}) {
    Scenario config;
    config.n = 192;
    config.budget = 8;
    config.diameter = 12;
    config.adversary = adv;
    config.dishonest = config.n / (3 * config.budget);
    config.seed = 9;
    config.compute_opt = false;
    const ExperimentOutcome out = run_scenario(config);
    EXPECT_LE(out.error.max_error, 4 * 12u) << adv;
  }
}

TEST(StrangeColluder, ParallelVotePhaseIsSafe) {
  // The plan is built lazily from object-parallel vote loops; this exercises
  // the synchronized initialization under the thread pool.
  Harness h(planted_clusters(128, 128, 4, 12, Rng(10)));
  for (PlayerId p = 10; p < 15; ++p)
    h.population.set_behavior(
        p, std::make_unique<StrangeObjectColluder>(h.world.matrix, 12));
  Params params = Params::practical(4);
  const ProtocolResult r = calculate_preferences(h.env, params, 11);
  const auto honest = h.population.honest_players();
  const auto errors = hamming_errors(h.world.matrix, r.outputs, honest);
  EXPECT_LE(*std::max_element(errors.begin(), errors.end()), 4 * 12u);
}

TEST(ExperimentOutcome, BoardTrafficAccounted) {
  Scenario config;
  config.n = 96;
  config.budget = 4;
  config.diameter = 8;
  config.seed = 12;
  config.compute_opt = false;
  const ExperimentOutcome out = run_scenario(config);
  EXPECT_GT(out.board_reports, 0u);   // vote-phase reports
  EXPECT_GT(out.board_vectors, 0u);   // ZeroRadius/SmallRadius publications
}

}  // namespace
}  // namespace colscore
