// Microbenchmark for the protocol's dominant O(n^2) path: neighbor-graph
// construction + greedy cluster peeling over a protocol-like z family
// (planted groups with intra-cluster spread, far inter-cluster distances —
// the regime where the early-exit Hamming kernel and pair symmetry pay).
//
// Two pinned regimes since PR 7:
//   * dense (n<=1024, 8 fat clusters, tau=208) — the tiled-kernel acceptance grid.
//   * sparse (n=4096, 256 thin clusters, tau=96, expected degree ~16) — the
//     paper's sublinear-probe regime; the *Baseline variant pins the scalar
//     kernel tier to measure what SIMD dispatch buys.
// Every benchmark labels the SIMD tier it actually dispatched, so BENCH_*.json
// trajectories are comparable across machines. Build Release (-O3) for
// recorded numbers.
#include <benchmark/benchmark.h>

#include <string>

#include "src/common/bitmatrix.hpp"
#include "src/common/simd.hpp"
#include "src/common/exec_policy.hpp"
#include "src/protocols/neighbor_graph.hpp"

namespace colscore {
namespace {

constexpr std::size_t kDim = 4096;     // |S|: sampled coordinates per z-vector

// Dense regime (the PR 2 acceptance grid).
constexpr std::size_t kGroups = 8;     // B planted clusters
constexpr std::size_t kSpread = 40;    // intra-cluster flip count
constexpr std::size_t kTau = 208;      // ~graph_tau_c * ln n edge threshold

// Sparse regime (PR 7): thin clusters, tight threshold — expected degree
// ~n/kSparseGroups - 1 ~ 15, edge density ~1/256.
constexpr std::size_t kSparseN = 4096;
constexpr std::size_t kSparseGroups = 256;
constexpr std::size_t kSparseTau = 96;

BitMatrix make_z_family(std::size_t n, std::size_t groups, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < groups; ++g)
    centers.push_back(random_bitvector(kDim, rng));
  BitMatrix z(n, kDim);
  for (std::size_t i = 0; i < n; ++i) {
    BitVector v = centers[i % groups];
    v.flip_random(rng, kSpread);
    z.row(i) = v;
  }
  return z;
}

// Kernel benches build serially: measure the sweep, not the box's cores.
const ExecPolicy kSerial = ExecPolicy::serial();

std::size_t min_cluster_for(std::size_t n, std::size_t groups) {
  // (n/B) * (1 - cluster_slack) with the default slack of 1/3.
  return std::max<std::size_t>(2, n / groups * 2 / 3);
}

/// "tier=avx512" — the config label every benchmark reports.
std::string config_label() {
  return std::string("tier=") + simd::tier_name(simd::active_tier());
}

void BM_NeighborGraphBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitMatrix z = make_z_family(n, kGroups, 42);
  std::size_t edges = 0;
  for (auto _ : state) {
    const NeighborGraph graph(z, kTau, kSerial);
    edges = 0;
    for (PlayerId p = 0; p < n; ++p) edges += graph.degree(p);
    benchmark::DoNotOptimize(edges);
  }
  state.SetLabel(config_label());
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["pairs_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(n - 1) / 2.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ClusterPlayers(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitMatrix z = make_z_family(n, kGroups, 42);
  const NeighborGraph graph(z, kTau, kSerial);
  std::size_t clusters = 0;
  for (auto _ : state) {
    const Clustering c = cluster_players(graph, min_cluster_for(n, kGroups));
    clusters = c.clusters.size();
    benchmark::DoNotOptimize(clusters);
  }
  state.SetLabel(config_label());
  state.counters["clusters"] = static_cast<double>(clusters);
}

void BM_GraphPlusCluster(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitMatrix z = make_z_family(n, kGroups, 42);
  for (auto _ : state) {
    const NeighborGraph graph(z, kTau, kSerial);
    const Clustering c = cluster_players(graph, min_cluster_for(n, kGroups));
    benchmark::DoNotOptimize(c.clusters.size());
  }
  state.SetLabel(config_label());
}

/// The sparse pinned grid, optionally with a forced scalar tier so the
/// baseline measures the kernels without SIMD dispatch.
void sparse_graph_plus_cluster(benchmark::State& state, bool force_scalar) {
  const simd::Tier saved = simd::active_tier();
  if (force_scalar) simd::set_tier(simd::Tier::kScalar);
  const BitMatrix z = make_z_family(kSparseN, kSparseGroups, 42);
  std::size_t edges = 0;
  for (auto _ : state) {
    const NeighborGraph graph(z, kSparseTau, kSerial);
    edges = 0;
    for (PlayerId p = 0; p < kSparseN; ++p) edges += graph.degree(p);
    const Clustering c =
        cluster_players(graph, min_cluster_for(kSparseN, kSparseGroups));
    benchmark::DoNotOptimize(c.clusters.size());
  }
  state.SetLabel(config_label());
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["pairs_per_s"] = benchmark::Counter(
      static_cast<double>(kSparseN) * static_cast<double>(kSparseN - 1) / 2.0,
      benchmark::Counter::kIsIterationInvariantRate);
  simd::set_tier(saved);
}

// Scalar-tier baseline: the same build and peel without SIMD kernels.
void BM_SparseGraphPlusClusterBaseline(benchmark::State& state) {
  sparse_graph_plus_cluster(state, /*force_scalar=*/true);
}

// The shipped configuration: the best tier the CPU supports.
void BM_SparseGraphPlusCluster(benchmark::State& state) {
  sparse_graph_plus_cluster(state, /*force_scalar=*/false);
}

BENCHMARK(BM_NeighborGraphBuild)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClusterPlayers)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GraphPlusCluster)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseGraphPlusClusterBaseline)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseGraphPlusCluster)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
