#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "src/common/bitmatrix.hpp"
#include "src/common/mathutil.hpp"
#include "src/core/calculate_preferences.hpp"
#include "src/metrics/error.hpp"
#include "src/metrics/optimal.hpp"
#include "src/protocols/neighbor_graph.hpp"
#include "src/protocols/select.hpp"
#include "src/protocols/work_share.hpp"

namespace colbench {

using namespace colscore;

namespace {

// ---- mirrors of src/core/calculate_preferences.cpp ------------------------
// Kept line for line with the library; compare_runs() fails the traced run
// the moment they drift apart.

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

std::vector<std::size_t> diameter_guesses(std::size_t n_objects,
                                          double sample_rate_c, double ln_n) {
  std::vector<std::size_t> guesses;
  guesses.push_back(0);
  const double saturation = sample_rate_c * ln_n;
  for (std::size_t d = 1; (std::size_t{1} << d) <= n_objects; ++d) {
    const std::size_t dd = std::size_t{1} << d;
    if (static_cast<double>(dd) > saturation) guesses.push_back(dd);
  }
  return guesses;
}

std::vector<ObjectId> all_objects_of(std::size_t n_objects) {
  std::vector<ObjectId> objects(n_objects);
  std::iota(objects.begin(), objects.end(), ObjectId{0});
  return objects;
}

/// Per-player RSelect over `rows_of(p)` candidates, under one "rselect" span.
template <typename RowsOf>
std::vector<BitVector> traced_rselect(ProtocolEnv& env, std::size_t n,
                                      std::size_t n_objects,
                                      std::uint64_t phase_key, std::uint64_t tag,
                                      std::size_t probes_per_pair,
                                      RowsOf&& rows_of, Tracer& tracer,
                                      Counters& counters) {
  const std::vector<ObjectId> all_objects = all_objects_of(n_objects);
  std::vector<BitVector> outputs(n, BitVector(n_objects));
  std::vector<std::size_t> pairs(n, 0);
  const std::uint64_t probes_before = env.oracle.total_probes();
  {
    Tracer::Scope span(tracer, "rselect");
    env.par_for(0, n, [&](std::size_t p) {
      const std::vector<ConstBitRow> cands = rows_of(p);
      const SelectOutcome sel =
          rselect(static_cast<PlayerId>(p), cands, all_objects, env,
                  mix_keys(phase_key, tag, p), probes_per_pair);
      pairs[p] = sel.pairs_probed;
      outputs[p] = cands[sel.chosen].to_bitvector();
    });
  }
  counters["rselect.probes"] +=
      static_cast<double>(env.oracle.total_probes() - probes_before);
  counters["rselect.pairs_probed"] +=
      static_cast<double>(std::accumulate(pairs.begin(), pairs.end(), 0.0));
  return outputs;
}

ProtocolResult replay_calculate_preferences(ProtocolEnv& env,
                                            const Params& params,
                                            std::uint64_t phase_key,
                                            Tracer& tracer, Counters& counters) {
  const std::size_t n = env.n_players();
  const std::size_t n_objects = env.n_objects();
  const double ln_n = ln_clamped(n);
  const std::size_t log2n = log2_ceil(n);

  ProtocolResult result;
  const auto before = probe_snapshot(env.oracle);
  const std::vector<ObjectId> all_objects = all_objects_of(n_objects);

  // The benchmark's grids never take the easy case (B log n >= n, every
  // player probes everything), so the replay does not mirror it.
  if (static_cast<double>(params.budget) * static_cast<double>(log2n) >=
      params.easy_case_factor * static_cast<double>(n))
    throw ScenarioError("traced replay does not cover the easy case");

  std::vector<PlayerId> all_players(n);
  std::iota(all_players.begin(), all_players.end(), PlayerId{0});
  const std::vector<std::size_t> guesses =
      diameter_guesses(n_objects, params.sample_rate_c, ln_n);
  std::vector<BitMatrix> candidates(guesses.size());

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

    std::vector<ObjectId> sample;
    if (D == 0) {
      sample = all_objects;
    } else {
      const double rate =
          std::min(1.0, params.sample_rate_c * ln_n / static_cast<double>(D));
      Rng srng = env.shared_rng(mix_keys(iter_key, 0x5a3ULL));
      for (ObjectId o = 0; o < n_objects; ++o)
        if (srng.chance(rate)) sample.push_back(o);
      if (sample.empty()) sample.push_back(static_cast<ObjectId>(srng.below(n_objects)));
    }

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
    const std::uint64_t sr_probes = env.oracle.total_probes();
    const std::uint64_t sr_vectors = env.board.vector_count();
    std::optional<SmallRadiusResult> sr;
    {
      Tracer::Scope span(tracer, "small_radius");
      sr.emplace(small_radius(all_players, sample, srp, env, mix_keys(iter_key, 1)));
    }
    counters["small_radius.probes"] +=
        static_cast<double>(env.oracle.total_probes() - sr_probes);
    counters["small_radius.board_vectors"] +=
        static_cast<double>(env.board.vector_count() - sr_vectors);
    counters["small_radius.candidate_overflow"] +=
        static_cast<double>(sr->stats.candidate_overflow);
    counters["small_radius.zr_fallbacks"] += static_cast<double>(sr->stats.zr.fallbacks);

    const std::uint64_t z_channel = mix_keys(iter_key, 0x9a9fULL);
    const ReportContext zctx{Phase::kClusterGraph, z_channel};
    BitMatrix z(n, sample.size());
    for (PlayerId p = 0; p < n; ++p) {
      if (env.population.is_honest(p)) {
        z.row(p) = sr->outputs[p];
        continue;
      }
      Rng prng = env.local_rng(p, z_channel);
      z.row(p) = env.population.publication(p, sr->outputs[p], sample, zctx, prng);
    }

    const auto tau = static_cast<std::size_t>(
        std::min(params.graph_tau_c * ln_n,
                 params.graph_tau_sample_frac * static_cast<double>(sample.size())));
    std::optional<NeighborGraph> graph;
    {
      Tracer::Scope span(tracer, "neighbor_graph");
      graph.emplace(z, tau, GraphBackend::kAuto, env.policy);
    }
    std::size_t degree_sum = 0;
    for (PlayerId p = 0; p < n; ++p) degree_sum += graph->degree(p);
    counters["neighbor_graph.pairs"] += static_cast<double>(n) * static_cast<double>(n - 1) / 2;
    counters["neighbor_graph.edges"] += static_cast<double>(degree_sum / 2);
    counters[graph->backend() == GraphBackend::kCsr ? "builds.csr" : "builds.dense"] += 1;

    std::optional<Clustering> clustering;
    {
      Tracer::Scope span(tracer, "cluster");
      clustering.emplace(cluster_players(*graph, min_cluster));
    }
    counters["cluster.clusters"] += static_cast<double>(clustering->clusters.size());
    counters["cluster.orphans"] += static_cast<double>(clustering->orphans);

    std::vector<BitVector> cluster_prediction(clustering->clusters.size());
    WorkShareStats vote_stats;
    const std::uint64_t ws_probes = env.oracle.total_probes();
    {
      Tracer::Scope span(tracer, "work_share");
      for (std::size_t c = 0; c < clustering->clusters.size(); ++c)
        cluster_prediction[c] = cluster_votes(clustering->clusters[c], env,
                                              mix_keys(iter_key, 0x707eULL, c),
                                              ws, &vote_stats);
    }
    counters["work_share.probes"] +=
        static_cast<double>(env.oracle.total_probes() - ws_probes);
    counters["work_share.reports"] += static_cast<double>(vote_stats.reports);
    counters["work_share.ties"] += static_cast<double>(vote_stats.ties);

    candidates[g].reset(n, n_objects);
    env.par_for(0, n, [&](std::size_t p) {
      const std::uint32_t c = clustering->cluster_of[p];
      if (c != Clustering::kNoClusterAssigned)
        candidates[g].row(p) = cluster_prediction[c];
    });
  }

  const std::size_t probes_per_pair = std::max<std::size_t>(
      4, static_cast<std::size_t>(params.rselect_c * static_cast<double>(log2n)));
  result.outputs = traced_rselect(
      env, n, n_objects, phase_key, 0xfe1ec7ULL, probes_per_pair,
      [&](std::size_t p) {
        std::vector<ConstBitRow> cands;
        for (const BitMatrix& m : candidates) cands.push_back(m.row(p));
        return cands;
      },
      tracer, counters);
  fill_probe_deltas(result, env.oracle, before);
  return result;
}

// ---- mirror of robust_calculate_preferences --------------------------------

struct RobustReplay {
  ProtocolResult result;
  std::size_t honest_leader_reps = 0;
};

RobustReplay replay_robust(ProbeOracle& oracle, BulletinBoard& board,
                           const Population& population,
                           const RobustParams& params, std::uint64_t phase_key,
                           std::uint64_t local_seed, const ExecPolicy& policy,
                           Tracer& tracer, Counters& counters) {
  const std::size_t n = oracle.n_players();
  const std::size_t n_objects = oracle.n_objects();
  RobustReplay robust;
  const auto before = probe_snapshot(oracle);
  std::vector<std::vector<BitVector>> candidates;

  for (std::size_t rep = 0; rep < params.outer_reps; ++rep) {
    const std::uint64_t rep_key = mix_keys(phase_key, 0x0b0e5ULL, rep);
    HonestBeacon election_stub(mix_keys(rep_key, 0x57abULL));
    ProtocolEnv election_env(oracle, board, population, election_stub,
                             local_seed, policy);
    std::optional<ElectionResult> election;
    {
      Tracer::Scope span(tracer, "election");
      election.emplace(feige_election(election_env, mix_keys(rep_key, 0xe1ecULL),
                                      params.election));
    }
    counters["election.rounds"] += static_cast<double>(election->rounds);
    counters["election.reps"] += 1;

    std::unique_ptr<RandomnessBeacon> beacon;
    if (election->leader_honest) {
      ++robust.honest_leader_reps;
      counters["election.honest_leaders"] += 1;
      beacon = std::make_unique<HonestBeacon>(mix_keys(params.beacon_seed, rep_key));
    } else {
      beacon = std::make_unique<GrindingBeacon>(rep_key, 1, nullptr);
    }
    ProtocolEnv env(oracle, board, population, *beacon, local_seed, policy);
    ProtocolResult rep_result = replay_calculate_preferences(
        env, params.inner, mix_keys(rep_key, 0xca1cULL), tracer, counters);
    candidates.push_back(std::move(rep_result.outputs));
  }

  HonestBeacon stub(mix_keys(phase_key, 0xf1a1ULL));
  ProtocolEnv env(oracle, board, population, stub, local_seed, policy);
  const std::size_t probes_per_pair = std::max<std::size_t>(
      4, static_cast<std::size_t>(params.inner.rselect_c *
                                  static_cast<double>(log2_ceil(n))));
  robust.result.outputs = traced_rselect(
      env, n, n_objects, phase_key, 0x0b57ULL, probes_per_pair,
      [&](std::size_t p) {
        std::vector<ConstBitRow> cands;
        for (const auto& rep : candidates) cands.push_back(rep[p]);
        return cands;
      },
      tracer, counters);
  fill_probe_deltas(robust.result, oracle, before);
  return robust;
}

}  // namespace

RunProducts traced_run(const Scenario& scenario, const ExecPolicy& policy,
                       Tracer& tracer, Counters& counters) {
  Tracer::Scope run_span(tracer, "driver");
  WorkerScope worker(policy);
  std::optional<World> world;
  std::optional<Population> pop;
  {
    Tracer::Scope span(tracer, "model.world_build");
    world.emplace(build_scenario_world(scenario, policy));
    pop.emplace(build_scenario_population(scenario, *world));
  }
  ProbeOracle oracle(world->matrix);
  oracle.bind_policy(policy);
  BulletinBoard board;
  Params params = scenario.params;
  params.budget = scenario.budget;
  const std::uint64_t local_seed = mix_keys(scenario.seed, 0x10ca1ULL);

  RunProducts out;
  ExperimentOutcome& outcome = out.outcome;
  ProtocolResult result;
  if (scenario.algorithm == "calculate_preferences") {
    HonestBeacon beacon(mix_keys(scenario.seed, 0xbeacULL));
    ProtocolEnv env(oracle, board, *pop, beacon, local_seed, policy);
    result = replay_calculate_preferences(
        env, params, mix_keys(scenario.seed, 0xca1cULL), tracer, counters);
  } else if (scenario.algorithm == "robust") {
    RobustParams rp;
    rp.inner = params;
    rp.outer_reps = scenario.robust_outer_reps;
    RobustReplay rr = replay_robust(oracle, board, *pop, rp,
                                    mix_keys(scenario.seed, 0x0b57ULL),
                                    local_seed, policy, tracer, counters);
    result = std::move(rr.result);
    outcome.honest_leader_reps = rr.honest_leader_reps;
    outcome.has_leader_reps = true;
  } else {
    throw ScenarioError("traced replay supports calculate_preferences and "
                        "robust, not '" + scenario.algorithm + "'");
  }

  const std::vector<PlayerId> honest = pop->honest_players();
  {
    Tracer::Scope span(tracer, "metrics.error");
    outcome.error = error_stats(world->matrix, result.outputs, honest, policy);
  }
  outcome.honest_players = honest.size();
  outcome.planted_diameter = world->planted_diameter;
  outcome.total_probes = result.total_probes;
  outcome.max_probes = result.max_probes;
  for (PlayerId p : honest)
    outcome.honest_max_probes =
        std::max(outcome.honest_max_probes, result.probes_by_player[p]);
  outcome.iterations = result.iterations;
  outcome.easy_case = result.easy_case;
  outcome.board_reports = board.report_count();
  outcome.board_vectors = board.vector_count();
  if (scenario.compute_opt) {
    Tracer::Scope span(tracer, "metrics.opt");
    const std::size_t group =
        std::max<std::size_t>(2, scenario.n / scenario.budget);
    outcome.opt = opt_radius(world->matrix, group, policy);
    const auto errors =
        hamming_errors(world->matrix, result.outputs, honest, policy);
    outcome.approx_ratio = worst_approx_ratio(errors, honest, outcome.opt);
  }
  counters["board.reports"] += static_cast<double>(outcome.board_reports);
  counters["board.vectors"] += static_cast<double>(outcome.board_vectors);

  out.outputs = std::move(result.outputs);
  out.probes_by = probe_snapshot(oracle);
  out.board_reports = outcome.board_reports;
  out.board_vectors = outcome.board_vectors;
  return out;
}

RunProducts library_run(const Scenario& scenario, const ExecPolicy& policy) {
  // The set-up half of run_scenario (src/sim/registry.cpp), then the
  // registered algorithm entry itself.
  WorkerScope worker(policy);
  const World world = build_scenario_world(scenario, policy);
  const Population pop = build_scenario_population(scenario, world);
  ProbeOracle oracle(world.matrix);
  oracle.bind_policy(policy);
  BulletinBoard board;
  Params params = scenario.params;
  params.budget = scenario.budget;
  const AlgorithmContext ctx{scenario, world, oracle, board, pop, params, policy};
  AlgorithmOutput algo = AlgorithmRegistry::instance().at(scenario.algorithm).run(ctx);

  RunProducts out;
  out.outputs = std::move(algo.result.outputs);
  out.probes_by = probe_snapshot(oracle);
  out.board_reports = board.report_count();
  out.board_vectors = board.vector_count();
  return out;
}

std::string compare_runs(const RunProducts& traced, const RunProducts& library,
                         const ExperimentOutcome& suite) {
  if (traced.probes_by != library.probes_by)
    return "per-player probe charges differ from the library run";
  if (traced.outputs != library.outputs)
    return "output vectors differ from the library run";
  if (traced.board_reports != library.board_reports ||
      traced.board_vectors != library.board_vectors)
    return "board traffic differs from the library run";
  const ExperimentOutcome& t = traced.outcome;
  if (t.total_probes != suite.total_probes || t.max_probes != suite.max_probes ||
      t.honest_max_probes != suite.honest_max_probes)
    return "probe totals differ from run_scenario";
  if (t.error.max_error != suite.error.max_error ||
      t.error.mean_error != suite.error.mean_error)
    return "honest error differs from run_scenario";
  if (t.board_reports != suite.board_reports || t.board_vectors != suite.board_vectors)
    return "board counts differ from run_scenario";
  if (t.honest_leader_reps != suite.honest_leader_reps)
    return "honest leader count differs from run_scenario";
  if (t.opt.max_radius != suite.opt.max_radius || t.approx_ratio != suite.approx_ratio)
    return "OPT bracket differs from run_scenario";
  return {};
}

}  // namespace colbench
