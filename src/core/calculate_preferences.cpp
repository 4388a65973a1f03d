#include "src/core/calculate_preferences.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/bitmatrix.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/workspace.hpp"
#include "src/protocols/neighbor_graph.hpp"
#include "src/protocols/select.hpp"
#include "src/protocols/work_share.hpp"

namespace colscore {

namespace {

/// Snapshot of per-player probe counters (for delta accounting).
std::vector<std::uint64_t> probe_snapshot(const ProbeOracle& oracle) {
  std::vector<std::uint64_t> counts(oracle.n_players());
  for (PlayerId p = 0; p < counts.size(); ++p) counts[p] = oracle.probes_by(p);
  return counts;
}

void fill_probe_deltas(ProtocolResult& result, const ProbeOracle& oracle,
                       const std::vector<std::uint64_t>& before) {
  result.probes_by_player.assign(before.size(), 0);
  result.total_probes = 0;
  result.max_probes = 0;
  for (PlayerId p = 0; p < before.size(); ++p) {
    const std::uint64_t delta = oracle.probes_by(p) - before[p];
    result.probes_by_player[p] = delta;
    result.total_probes += delta;
    result.max_probes = std::max(result.max_probes, delta);
  }
}

/// The diameter guesses to iterate. Guesses with sample rate >= 1 are
/// equivalent (S = everything), so they collapse into one full-universe
/// iteration, which also covers the paper's D < log n regime.
std::vector<std::size_t> diameter_guesses(std::size_t n_objects, double sample_rate_c,
                                          double ln_n) {
  std::vector<std::size_t> guesses;
  guesses.push_back(0);  // 0 = full-universe iteration
  const double saturation = sample_rate_c * ln_n;  // rate hits 1 below this D
  for (std::size_t d = 1; (std::size_t{1} << d) <= n_objects; ++d) {
    const std::size_t dd = std::size_t{1} << d;
    if (static_cast<double>(dd) > saturation) guesses.push_back(dd);
  }
  return guesses;
}

}  // namespace

ProtocolResult calculate_preferences(ProtocolEnv& env, const Params& params,
                                     std::uint64_t phase_key) {
  const std::size_t n = env.n_players();
  const std::size_t n_objects = env.n_objects();
  const double ln_n = ln_clamped(n);
  const std::size_t log2n = log2_ceil(n);
  CS_ASSERT(params.budget >= 1, "calculate_preferences: budget >= 1");

  ProtocolResult result;
  const auto before = probe_snapshot(env.oracle);

  std::vector<ObjectId> all_objects(n_objects);
  for (ObjectId o = 0; o < n_objects; ++o) all_objects[o] = o;

  // Easy case (§6.1): B = Ω(n / log n) -> probe everything. One word-level
  // charge per player, written straight into the output row — no uint8
  // staging, no per-bit set.
  if (static_cast<double>(params.budget) * static_cast<double>(log2n) >=
      params.easy_case_factor * static_cast<double>(n)) {
    result.easy_case = true;
    result.outputs.assign(n, BitVector(n_objects));
    env.par_for(0, n, [&](std::size_t p) {
      env.own_probe_row(static_cast<PlayerId>(p), 0, n_objects, result.outputs[p]);
    });
    fill_probe_deltas(result, env.oracle, before);
    return result;
  }

  std::vector<PlayerId> all_players(n);
  for (PlayerId p = 0; p < n; ++p) all_players[p] = p;

  const std::vector<std::size_t> guesses =
      diameter_guesses(n_objects, params.sample_rate_c, ln_n);

  // candidates[g] row p = candidate vector of player p from guess g. Pooled
  // in the per-worker workspace (cp_* group) so grid cells reuse the
  // allocations; live across the whole guess loop, which is why SmallRadius
  // draws its own matrices from the separate sr_* pool.
  std::vector<BitMatrix>& candidates = env.workspace().cp_candidates;
  if (candidates.size() < guesses.size()) candidates.resize(guesses.size());

  const std::size_t min_cluster = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(
             static_cast<double>(n) / static_cast<double>(params.budget) *
             (1.0 - params.cluster_slack))));

  WorkShareParams ws;
  ws.votes_per_object = std::max<std::size_t>(
      params.vote_min,
      static_cast<std::size_t>(params.vote_c * static_cast<double>(log2n)));

  for (std::size_t g = 0; g < guesses.size(); ++g) {
    const std::size_t D = guesses[g];
    const std::uint64_t iter_key = mix_keys(phase_key, 0xd17e8ULL, g);
    IterationInfo info;
    info.diameter_guess = D;

    // Step 1.b: shared-random sample S.
    std::vector<ObjectId> sample;
    if (D == 0) {
      sample = all_objects;  // full-universe iteration (covers D < log n)
    } else {
      const double rate =
          std::min(1.0, params.sample_rate_c * ln_n / static_cast<double>(D));
      Rng srng = env.shared_rng(mix_keys(iter_key, 0x5a3ULL));
      for (ObjectId o = 0; o < n_objects; ++o)
        if (srng.chance(rate)) sample.push_back(o);
      if (sample.empty()) sample.push_back(static_cast<ObjectId>(srng.below(n_objects)));
    }
    info.sample_size = sample.size();

    // Step 1.c: SmallRadius estimates on the sample.
    SmallRadiusParams srp;
    srp.budget = params.budget;
    srp.diameter = ceil_size(params.sr_diameter_c * ln_n);
    srp.repeats = params.sr_repeats;
    srp.subset_scale = params.sr_subset_scale;
    srp.subset_exponent = params.sr_subset_exponent;
    srp.support_divisor = params.sr_support_divisor;
    srp.probes_per_pair = params.sr_probes_per_pair;
    srp.prefilter_probes = params.sr_prefilter_probes;
    srp.max_finalists = params.sr_max_finalists;
    srp.zr = params.zr;
    SmallRadiusResult sr =
        small_radius(all_players, sample, srp, env, mix_keys(iter_key, 1));
    info.sr_candidate_overflow = sr.stats.candidate_overflow;

    // Publication of the z-vectors used for the graph (dishonest players may
    // publish mimicry/garbage here). The family lives in one contiguous
    // BitMatrix so the O(n^2) graph sweep below streams rows through cache.
    // Honest rows are the SmallRadius output verbatim (one word copy, no
    // behaviour call, no RNG — an honest publication never draws from it).
    const std::uint64_t z_channel = mix_keys(iter_key, 0x9a9fULL);
    const ReportContext zctx{Phase::kClusterGraph, z_channel};
    BitMatrix& z = env.workspace().cp_z;
    z.reset(n, sample.size());
    for (PlayerId p = 0; p < n; ++p) {
      if (env.population.is_honest(p)) {
        z.row(p) = sr.outputs[p];
        continue;
      }
      Rng prng = env.local_rng(p, z_channel);
      z.row(p) = env.population.publication(p, sr.outputs[p], sample, zctx, prng);
    }

    // Step 1.d: neighbor graph + clustering. The edge threshold is capped
    // relative to |S| so that at small n it stays below the typical
    // inter-cluster sample distance (see Params::graph_tau_sample_frac).
    const auto tau = static_cast<std::size_t>(
        std::min(params.graph_tau_c * ln_n,
                 params.graph_tau_sample_frac * static_cast<double>(sample.size())));
    const NeighborGraph graph(z, tau, env.policy);
    const Clustering clustering = cluster_players(graph, min_cluster);
    info.clusters = clustering.clusters.size();
    info.min_cluster = clustering.min_cluster_size();
    info.leftovers = clustering.leftovers;
    info.orphans = clustering.orphans;

    // Step 1.e: per-cluster redundant voting over all objects.
    std::vector<BitVector> cluster_prediction(clustering.clusters.size());
    for (std::size_t c = 0; c < clustering.clusters.size(); ++c) {
      cluster_prediction[c] = cluster_votes(clustering.clusters[c], env,
                                            mix_keys(iter_key, 0x707eULL, c), ws);
    }
    candidates[g].reset(n, n_objects);
    env.par_for(0, n, [&](std::size_t p) {
      const std::uint32_t c = clustering.cluster_of[p];
      if (c != Clustering::kNoClusterAssigned)
        candidates[g].row(p) = cluster_prediction[c];
    });

    result.iterations.push_back(info);
  }

  // Step 2: per-player RSelect among the per-guess candidates.
  const std::size_t probes_per_pair = std::max<std::size_t>(
      4, static_cast<std::size_t>(params.rselect_c * static_cast<double>(log2n)));
  result.outputs.assign(n, BitVector(n_objects));
  env.par_for(0, n, [&](std::size_t p) {
    // Zero-copy candidate views into the per-guess matrices: the tournament
    // only reads, so nothing is deep-copied until the winner is extracted.
    std::vector<ConstBitRow> cands;
    cands.reserve(guesses.size());
    for (std::size_t g = 0; g < guesses.size(); ++g)
      cands.push_back(candidates[g].row(p));
    const SelectOutcome sel =
        rselect(static_cast<PlayerId>(p), cands, all_objects, env,
                mix_keys(phase_key, 0xfe1ec7ULL, p), probes_per_pair);
    result.outputs[p] = cands[sel.chosen].to_bitvector();
  });

  fill_probe_deltas(result, env.oracle, before);
  return result;
}

RobustResult robust_calculate_preferences(ProbeOracle& oracle, BulletinBoard& board,
                                          const Population& population,
                                          const RobustParams& params,
                                          std::uint64_t phase_key,
                                          std::uint64_t local_seed,
                                          const ExecPolicy& policy) {
  const std::size_t n = oracle.n_players();
  const std::size_t n_objects = oracle.n_objects();
  RobustResult robust;
  const auto before = probe_snapshot(oracle);

  // candidates[rep][p]
  std::vector<std::vector<BitVector>> candidates;
  candidates.reserve(params.outer_reps);

  for (std::size_t rep = 0; rep < params.outer_reps; ++rep) {
    const std::uint64_t rep_key = mix_keys(phase_key, 0x0b0e5ULL, rep);

    // Elect a leader (beacon-independent: uses only local randomness).
    HonestBeacon election_stub(mix_keys(rep_key, 0x57abULL));
    ProtocolEnv election_env(oracle, board, population, election_stub,
                             local_seed, policy);
    const ElectionResult election =
        feige_election(election_env, mix_keys(rep_key, 0xe1ecULL), params.election);
    robust.elections.push_back(election);

    std::unique_ptr<RandomnessBeacon> beacon;
    if (election.leader_honest) {
      ++robust.honest_leader_reps;
      beacon = std::make_unique<HonestBeacon>(mix_keys(params.beacon_seed, rep_key));
    } else if (params.dishonest_beacon) {
      beacon = params.dishonest_beacon(rep_key, election.leader);
    } else {
      // Predictable bits: the weakest dishonest beacon (no grinding).
      beacon = std::make_unique<GrindingBeacon>(rep_key, 1, nullptr);
    }

    ProtocolEnv env(oracle, board, population, *beacon, local_seed, policy);
    ProtocolResult rep_result =
        calculate_preferences(env, params.inner, mix_keys(rep_key, 0xca1cULL));
    for (const IterationInfo& info : rep_result.iterations)
      robust.result.iterations.push_back(info);
    candidates.push_back(std::move(rep_result.outputs));
  }

  // Final RSelect over the per-repetition candidates (local randomness only,
  // per §7.1 — it must not depend on any possibly-biased beacon).
  std::vector<ObjectId> all_objects(n_objects);
  for (ObjectId o = 0; o < n_objects; ++o) all_objects[o] = o;
  HonestBeacon stub(mix_keys(phase_key, 0xf1a1ULL));
  ProtocolEnv env(oracle, board, population, stub, local_seed, policy);
  const std::size_t probes_per_pair = std::max<std::size_t>(
      4, static_cast<std::size_t>(params.inner.rselect_c *
                                  static_cast<double>(log2_ceil(n))));

  robust.result.outputs.assign(n, BitVector(n_objects));
  policy.par_for(0, n, [&](std::size_t p) {
    std::vector<ConstBitRow> cands;
    cands.reserve(candidates.size());
    for (std::size_t rep = 0; rep < candidates.size(); ++rep)
      cands.push_back(candidates[rep][p]);
    const SelectOutcome sel =
        rselect(static_cast<PlayerId>(p), cands, all_objects, env,
                mix_keys(phase_key, 0x0b57ULL, p), probes_per_pair);
    robust.result.outputs[p] = cands[sel.chosen].to_bitvector();
  });

  fill_probe_deltas(robust.result, oracle, before);
  return robust;
}

}  // namespace colscore
