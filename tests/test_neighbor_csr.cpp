// Neighbor-graph construction against a brute-force oracle.
//
// The tiled, early-exit, CSR-scattered build must produce exactly the edge
// set the definition gives: for every pair p < q that is alive, an edge iff
// hamming(z[p], z[q]) <= tau. Neighbor lists must come out ascending (the
// binary-search has_edge and the peel's visiting order rely on it), degrees
// must agree with the lists, and the layout must not depend on the thread
// schedule.

#include "src/protocols/neighbor_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/model/generators.hpp"

namespace colscore {
namespace {

/// n players in `groups` tight clusters: members of a group differ in ~2
/// bits, distinct groups differ in ~dim/2. Mirrors the planted workload the
/// suite benches use.
std::vector<BitVector> planted_z(std::size_t n, std::size_t groups,
                                 std::size_t dim, Rng rng) {
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < groups; ++g)
    centers.push_back(random_bitvector(dim, rng));
  std::vector<BitVector> z;
  for (std::size_t i = 0; i < n; ++i) {
    BitVector v = centers[i % groups];
    v.flip(rng.below(dim));
    v.flip(rng.below(dim));
    z.push_back(std::move(v));
  }
  return z;
}

/// Roughly a third of the players departed.
BitVector random_alive(std::size_t n, Rng rng) {
  BitVector alive(n, true);
  for (std::size_t p = 0; p < n; ++p)
    if (rng.below(3) == 0) alive.set(p, false);
  return alive;
}

/// The definition, pair by pair: the ascending neighbor list of every player.
std::vector<std::vector<std::uint32_t>> oracle_lists(
    const std::vector<BitVector>& z, std::size_t tau, const BitVector* alive) {
  const std::size_t n = z.size();
  const auto is_alive = [&](std::size_t p) {
    return alive == nullptr || alive->get(p);
  };
  std::vector<std::vector<std::uint32_t>> lists(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = p + 1; q < n; ++q)
      if (is_alive(p) && is_alive(q) && z[p].hamming(z[q]) <= tau) {
        lists[p].push_back(static_cast<std::uint32_t>(q));
        lists[q].push_back(static_cast<std::uint32_t>(p));
      }
  for (auto& list : lists) std::sort(list.begin(), list.end());
  return lists;
}

void expect_matches_oracle(const NeighborGraph& g,
                           const std::vector<BitVector>& z, std::size_t tau,
                           const BitVector* alive = nullptr) {
  ASSERT_EQ(g.size(), z.size());
  const auto want = oracle_lists(z, tau, alive);
  for (PlayerId p = 0; p < g.size(); ++p) {
    const std::span<const std::uint32_t> nb = g.neighbors(p);
    EXPECT_EQ(std::vector<std::uint32_t>(nb.begin(), nb.end()), want[p])
        << "p=" << p;
    EXPECT_EQ(g.degree(p), want[p].size()) << "p=" << p;
    for (PlayerId q = 0; q < g.size(); ++q)
      EXPECT_EQ(g.has_edge(p, q),
                std::binary_search(want[p].begin(), want[p].end(), q))
          << "p=" << p << " q=" << q;
  }
}

void expect_same_lists(const NeighborGraph& a, const NeighborGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (PlayerId p = 0; p < a.size(); ++p) {
    const std::span<const std::uint32_t> x = a.neighbors(p);
    const std::span<const std::uint32_t> y = b.neighbors(p);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end())) << "p=" << p;
  }
}

TEST(NeighborCsr, EdgeSetMatchesOracleOnFixedSeeds) {
  // Tight (sparse), medium and loose (dense) thresholds on the same inputs.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<BitVector> z = planted_z(96, 8, 256, Rng(seed));
    for (const std::size_t tau : {0ul, 8ul, 40ul, 140ul}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " tau=" << tau);
      expect_matches_oracle(NeighborGraph(z, tau), z, tau);
    }
  }
}

TEST(NeighborCsr, EdgeSetMatchesOracleWithAliveMask) {
  // Wide rows make the tiles small, so the sweep spans several of them.
  for (const std::uint64_t seed : {4ull, 5ull, 6ull}) {
    const std::vector<BitVector> z = planted_z(200, 6, 4096, Rng(seed));
    const BitVector alive = random_alive(z.size(), Rng(seed + 100));
    const std::vector<ConstBitRow> views(z.begin(), z.end());
    for (const std::size_t tau : {8ul, 48ul}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " tau=" << tau);
      const NeighborGraph g(views, tau, ExecPolicy::serial(), &alive);
      EXPECT_EQ(g.alive_count(), alive.popcount());
      expect_matches_oracle(g, z, tau, &alive);
      for (PlayerId p = 0; p < g.size(); ++p)
        if (!alive.get(p)) {
          EXPECT_EQ(g.degree(p), 0u) << "departed p=" << p;
        }
    }
  }
}

TEST(NeighborCsr, NeighborListsAscendingAndDegreesAgree) {
  // The scatter relies on tile-order generation producing sorted rows with
  // no sort call; has_edge's binary search needs that invariant. n spans
  // several tiles so the cross-tile mirror entries are exercised.
  const std::vector<BitVector> z = planted_z(600, 10, 4096, Rng(7));
  const NeighborGraph g(z, 36);
  std::size_t total = 0;
  for (PlayerId p = 0; p < g.size(); ++p) {
    const std::span<const std::uint32_t> nb = g.neighbors(p);
    EXPECT_EQ(g.degree(p), nb.size()) << "p=" << p;
    for (std::size_t i = 1; i < nb.size(); ++i)
      EXPECT_LT(nb[i - 1], nb[i]) << "p=" << p;
    for (const std::uint32_t q : nb) EXPECT_NE(q, p) << "self loop";
    total += nb.size();
  }
  EXPECT_GT(total, 0u) << "planted input should produce edges";
  EXPECT_EQ(total % 2, 0u) << "every edge is listed at both endpoints";
}

TEST(NeighborCsr, SerialBuildEqualsPooledBuild) {
  // The parallel tile sweep must not leak schedule into the CSR layout.
  const std::vector<BitVector> z = planted_z(600, 10, 4096, Rng(5));
  const std::vector<ConstBitRow> views(z.begin(), z.end());
  const BitVector alive = random_alive(z.size(), Rng(55));
  ThreadPool pool(4);
  for (const BitVector* mask : {static_cast<const BitVector*>(nullptr), &alive}) {
    const NeighborGraph serial(views, 48, ExecPolicy::serial(), mask);
    const NeighborGraph pooled(views, 48, ExecPolicy::pool(pool), mask);
    expect_same_lists(serial, pooled);
  }
}

TEST(NeighborCsr, DegenerateSizes) {
  const std::vector<BitVector> none;
  const NeighborGraph g0(none, 4);
  EXPECT_EQ(g0.size(), 0u);

  const std::vector<BitVector> one{BitVector(64)};
  const NeighborGraph g1(one, 4);
  expect_matches_oracle(g1, one, 4);
  EXPECT_TRUE(g1.neighbors(0).empty());

  // Two players at distance 3: an edge exactly when tau >= 3, and never
  // when either endpoint has departed.
  std::vector<BitVector> two{BitVector(64), BitVector(64)};
  two[1].flip(0);
  two[1].flip(10);
  two[1].flip(63);
  for (const std::size_t tau : {2ul, 3ul}) {
    expect_matches_oracle(NeighborGraph(two, tau), two, tau);
    EXPECT_EQ(NeighborGraph(two, tau).has_edge(0, 1), tau >= 3);
  }
  const std::vector<ConstBitRow> views(two.begin(), two.end());
  BitVector alive(2, true);
  alive.set(1, false);
  const NeighborGraph masked(views, 3, ExecPolicy::serial(), &alive);
  expect_matches_oracle(masked, two, 3, &alive);
  EXPECT_FALSE(masked.has_edge(0, 1));
}

}  // namespace
}  // namespace colscore
