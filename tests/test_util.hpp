// Shared fixtures for protocol tests: bundles world + population + oracle +
// board + beacon into a ready ProtocolEnv.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/model/generators.hpp"
#include "src/protocols/env.hpp"

namespace colscore::testutil {

// Fixed-seed golden pinned by test_determinism_csv and reused by the sink
// tests: one scenario, one byte-exact suite row (wall column excluded).
// Captured from the seed CLI before the BitMatrix rewrite; update both
// expectations by updating this one constant.
inline constexpr char kGoldenScenario[] =
    "workload=planted n=128 budget=4 dishonest=8 adversary=sleeper seed=3 "
    "opt=1";
inline constexpr char kGoldenRow[] =
    "planted,calculate_preferences,sleeper,128,4,16,8,3,8,3.94167,1310,1310,"
    "152489,32256,0.533333,ok,";

struct Harness {
  World world;
  Population population;
  ProbeOracle oracle;
  BulletinBoard board;
  HonestBeacon beacon;
  ProtocolEnv env;

  Harness(World w, std::uint64_t seed = 0xbeac0ULL,
          const ExecPolicy& policy = ExecPolicy::process_default())
      : world(std::move(w)),
        population(world.n_players()),
        oracle(world.matrix),
        beacon(seed),
        env(oracle, board, population, beacon, mix_keys(seed, 0x10ca1ULL),
            policy) {
    oracle.bind_policy(env.policy);  // env.policy outlives the oracle binding
  }

  std::vector<PlayerId> all_players() const {
    std::vector<PlayerId> out(world.n_players());
    for (PlayerId p = 0; p < out.size(); ++p) out[p] = p;
    return out;
  }
  std::vector<ObjectId> all_objects() const {
    std::vector<ObjectId> out(world.n_objects());
    for (ObjectId o = 0; o < out.size(); ++o) out[o] = o;
    return out;
  }
};

}  // namespace colscore::testutil
