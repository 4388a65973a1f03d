// Steady-state streaming throughput (PR 10): epochs/sec of churn maintenance
// over the pinned grid n=2048, 128 planted clusters, flip_rate=1% (2 bits per
// drifting row), 32 epochs, with light population churn (depart=0.2%,
// arrive=25%) so the alive-set path is exercised too.
//
// The epoch plans — fates AND flip bit positions — are precomputed from one
// seeded Rng, so every iteration replays the exact same row evolution; the
// timed region is pure maintenance work:
//   * BM_StreamEpochs          — StreamSession::apply_epoch (incremental
//                                O(k·n) graph deltas + recluster-iff-dirty),
//                                the shipped path.
//   * BM_StreamEpochsRebuildBaseline — the pre-PR 10 answer: a fresh
//                                alive-masked NeighborGraph + cluster_players
//                                from scratch every epoch, so the ratio
//                                isolates incrementality (BENCH_pr10.json
//                                acceptance: >= 5x on epochs_per_s).
// Initial graph construction and row restoration happen under PauseTiming —
// steady state means the build cost is amortized away, exactly the regime the
// churn workload lives in. Labels carry the SIMD tier like every other
// bench. Build Release (-O3) for recorded numbers.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/bitmatrix.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/simd.hpp"
#include "src/protocols/stream.hpp"

namespace colscore {
namespace {

constexpr std::size_t kN = 2048;
constexpr std::size_t kGroups = 128;   // planted clusters, expected degree ~15
constexpr std::size_t kDim = 2048;
constexpr std::size_t kSpread = 40;    // intra-cluster flip count
constexpr std::size_t kTau = 96;       // sparse regime
constexpr std::size_t kMinCluster = kN / kGroups * 2 / 3;
constexpr std::size_t kEpochs = 32;
constexpr double kFlipRate = 0.01;
constexpr std::size_t kFlipBits = 2;
constexpr double kDepartRate = 0.002;
constexpr double kArriveRate = 0.25;

// Maintenance benches run serially: measure the delta path, not the box.
const ExecPolicy kSerial = ExecPolicy::serial();

/// One epoch's precomputed script: the update batch plus the exact bit
/// positions every drifting row flips (replayable, unlike live Rng draws).
struct EpochPlan {
  std::vector<RowUpdate> batch;
  std::vector<std::pair<PlayerId, std::size_t>> flips;  // (player, bit)
};

bool chance(Rng& rng, double p) {
  return static_cast<double>(rng() >> 11) * 0x1p-53 < p;
}

BitMatrix make_z_family(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < kGroups; ++g)
    centers.push_back(random_bitvector(kDim, rng));
  BitMatrix z(kN, kDim);
  for (std::size_t i = 0; i < kN; ++i) {
    BitVector v = centers[i % kGroups];
    v.flip_random(rng, kSpread);
    z.row(i) = v;
  }
  return z;
}

std::vector<EpochPlan> make_plans(std::uint64_t seed) {
  Rng rng(seed);
  BitVector alive(kN, true);
  std::vector<EpochPlan> plans(kEpochs);
  for (EpochPlan& plan : plans) {
    for (PlayerId p = 0; p < kN; ++p) {
      if (alive.get(p)) {
        if (chance(rng, kDepartRate)) {
          alive.set(p, false);
          plan.batch.push_back({p, UpdateKind::kDepart});
        } else if (chance(rng, kFlipRate)) {
          plan.batch.push_back({p, UpdateKind::kFlip});
        }
      } else if (chance(rng, kArriveRate)) {
        alive.set(p, true);
        plan.batch.push_back({p, UpdateKind::kArrive});
      }
    }
    for (const RowUpdate& u : plan.batch)
      if (u.kind == UpdateKind::kFlip)
        for (std::size_t b = 0; b < kFlipBits; ++b)
          plan.flips.emplace_back(u.player, rng.below(kDim));
  }
  return plans;
}

void replay_flips(BitMatrix& z, const EpochPlan& plan) {
  for (const auto& [p, bit] : plan.flips) z.row(p).flip(bit);
}

std::string config_label() {
  return std::string("tier=") + simd::tier_name(simd::active_tier());
}

void BM_StreamEpochs(benchmark::State& state) {
  const BitMatrix pristine = make_z_family(42);
  const std::vector<EpochPlan> plans = make_plans(7);
  std::size_t edges_changed = 0, reclusters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BitMatrix z = pristine;  // every iteration replays the same evolution
    const std::vector<ConstBitRow> views = z.row_views();
    StreamSession session(views, kTau, kMinCluster, kSerial);
    state.ResumeTiming();
    for (const EpochPlan& plan : plans) {
      replay_flips(z, plan);
      session.apply_epoch(plan.batch, kSerial);
    }
    benchmark::DoNotOptimize(session.clustering().clusters.size());
    state.PauseTiming();
    edges_changed = session.totals().edges_changed;
    reclusters = session.totals().reclusters;
    state.ResumeTiming();
  }
  state.SetLabel(config_label());
  state.counters["edges_changed"] = static_cast<double>(edges_changed);
  state.counters["reclusters"] = static_cast<double>(reclusters);
  state.counters["epochs_per_s"] = benchmark::Counter(
      static_cast<double>(kEpochs), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_StreamEpochsRebuildBaseline(benchmark::State& state) {
  const BitMatrix pristine = make_z_family(42);
  const std::vector<EpochPlan> plans = make_plans(7);
  for (auto _ : state) {
    state.PauseTiming();
    BitMatrix z = pristine;
    const std::vector<ConstBitRow> views = z.row_views();
    BitVector alive(kN, true);
    state.ResumeTiming();
    for (const EpochPlan& plan : plans) {
      replay_flips(z, plan);
      for (const RowUpdate& u : plan.batch) {
        if (u.kind == UpdateKind::kDepart) alive.set(u.player, false);
        if (u.kind == UpdateKind::kArrive) alive.set(u.player, true);
      }
      const NeighborGraph graph(views, kTau, kSerial, &alive);
      const Clustering c = cluster_players(graph, kMinCluster);
      benchmark::DoNotOptimize(c.clusters.size());
    }
  }
  state.SetLabel(config_label());
  state.counters["epochs_per_s"] = benchmark::Counter(
      static_cast<double>(kEpochs), benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_StreamEpochs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamEpochsRebuildBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
