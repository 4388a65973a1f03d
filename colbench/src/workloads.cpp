#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "replay.hpp"
#include "src/common/bitmatrix.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/protocols/stream.hpp"
#include "src/sim/record.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"
#include "trace.hpp"

#ifndef COLBENCH_BUILD_TYPE
#define COLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef COLBENCH_SOURCE_ID
#define COLBENCH_SOURCE_ID "unknown"
#endif

namespace colbench {

using namespace colscore;

namespace {

// Set-up repeats per timed run; setup_s is their median.
constexpr int kSetupReps = 3;
// A timed run repeats its identical work at least this often; each
// operation's time is its fastest repetition (see README.md, "Timing").
constexpr std::size_t kMinRepeats = 3;

// ---- small helpers -----------------------------------------------------------

std::string format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// What produced the numbers: SIMD tier, graph backends, cores, build, code.
std::string config_label(const std::string& backends) {
  return format("config: tier=%s backends=%s nproc=%ld build=%s source=%s",
                simd::tier_name(simd::active_tier()), backends.c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), COLBENCH_BUILD_TYPE,
                COLBENCH_SOURCE_ID);
}

std::string build_counts(const Counters& c) {
  const auto get = [&](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  return format("dense:%.0f,csr:%.0f", get("builds.dense"), get("builds.csr"));
}

void add_end_to_end(Report& r, double rate_per_s, double latency_ms,
                    double latency_ms_tail, const std::vector<double>& setup_s) {
  r.metrics = {
      {"rate_per_s", rate_per_s, "1/s"},
      {"latency_ms", latency_ms, "ms"},
      {"latency_ms_tail", latency_ms_tail, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.lines.push_back(format("rate_per_s=%.4f latency_ms=%.3f latency_ms_tail=%.3f "
                           "setup_s=%.4f (median of %zu set-ups)",
                           rate_per_s, latency_ms, latency_ms_tail,
                           median(setup_s), setup_s.size()));
}

/// Accuracy and probe cost over a set of runs (the paper's quality and
/// cost measures); fed to the per-layer "metrics.*" entries.
struct Accuracy {
  double mean_err_sum = 0.0;
  double max_err = 0.0;
  double max_probes = 0.0;
  double probes_sum = 0.0;
  std::size_t runs = 0;

  void add(const ExperimentOutcome& o) {
    mean_err_sum += o.error.mean_error;
    max_err = std::max(max_err, static_cast<double>(o.error.max_error));
    max_probes = std::max(max_probes, static_cast<double>(o.honest_max_probes));
    probes_sum += static_cast<double>(o.total_probes);
    ++runs;
  }
  double mean_err() const { return ratio(mean_err_sum, static_cast<double>(runs)); }
  double probes_per_run() const { return ratio(probes_sum, static_cast<double>(runs)); }
  std::string line() const {
    return format("accuracy over %zu runs: mean_err=%.4f max_err=%.0f "
                  "max_probes=%.0f probes_per_run=%.1f",
                  runs, mean_err(), max_err, max_probes, probes_per_run());
  }
};

/// The per-layer metrics, identical names for every workload (a layer the
/// workload never enters reports 0), plus the printed layer table.
void add_per_layer(Report& r, const Tracer& tracer, double wall,
                   const Counters& c, const Accuracy& acc, double overhead_frac,
                   double speedup_2t) {
  const std::vector<LayerTime> layers = layer_times(tracer.spans());
  const auto busy = [&](const char* name) { return busy_of(layers, name); };
  const auto self = [&](const char* name) { return self_of(layers, name); };
  const auto count = [&](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  double self_total = 0.0;
  for (const LayerTime& l : layers) self_total += l.self;
  const double epochs = count("stream.epochs");
  const double stream_busy = busy("stream.update") + busy("stream.recluster");

  r.metrics = {
      {"small_radius.busy_s", busy("small_radius"), "s"},
      {"small_radius.share", ratio(busy("small_radius"), wall), "ratio"},
      {"small_radius.probes", count("small_radius.probes"), "probes"},
      {"small_radius.board_vectors", count("small_radius.board_vectors"), "count"},
      {"small_radius.candidate_overflow", count("small_radius.candidate_overflow"), "count"},
      {"small_radius.zr_fallbacks", count("small_radius.zr_fallbacks"), "count"},
      {"work_share.busy_s", busy("work_share"), "s"},
      {"work_share.share", ratio(busy("work_share"), wall), "ratio"},
      {"work_share.probes", count("work_share.probes"), "probes"},
      {"work_share.reports", count("work_share.reports"), "count"},
      {"work_share.ties", count("work_share.ties"), "count"},
      {"rselect.busy_s", busy("rselect"), "s"},
      {"rselect.probes", count("rselect.probes"), "probes"},
      {"rselect.pairs_probed", count("rselect.pairs_probed"), "count"},
      {"election.busy_s", busy("election"), "s"},
      {"election.rounds", count("election.rounds"), "count"},
      {"election.honest_leader_frac",
       ratio(count("election.honest_leaders"), count("election.reps")), "ratio"},
      {"neighbor_graph.build_s", busy("neighbor_graph"), "s"},
      {"neighbor_graph.share", ratio(busy("neighbor_graph"), wall), "ratio"},
      {"neighbor_graph.pairs", count("neighbor_graph.pairs"), "count"},
      {"neighbor_graph.edges", count("neighbor_graph.edges"), "count"},
      {"neighbor_graph.edge_density",
       ratio(count("neighbor_graph.edges"), count("neighbor_graph.pairs")), "ratio"},
      {"cluster.peel_s", busy("cluster"), "s"},
      {"cluster.clusters", count("cluster.clusters"), "count"},
      {"cluster.orphans", count("cluster.orphans"), "count"},
      {"stream.update_s", busy("stream.update"), "s"},
      {"stream.recluster_s", busy("stream.recluster"), "s"},
      {"stream.share", ratio(stream_busy, wall), "ratio"},
      {"stream.rows_updated", count("stream.rows_updated"), "count"},
      {"stream.edges_changed", count("stream.edges_changed"), "count"},
      {"stream.rebuild_frac", ratio(count("stream.rebuilds"), epochs), "ratio"},
      {"stream.recluster_frac", ratio(count("stream.reclusters"), epochs), "ratio"},
      {"model.world_build_s", busy("model.world_build"), "s"},
      {"driver.self_s", self("driver"), "s"},
      {"metrics.error_s", busy("metrics.error"), "s"},
      {"metrics.opt_s", busy("metrics.opt"), "s"},
      {"metrics.mean_err", acc.mean_err(), "objects"},
      {"metrics.max_err", acc.max_err, "objects"},
      {"metrics.max_probes", acc.max_probes, "probes"},
      {"metrics.probes_per_run", acc.probes_per_run(), "probes"},
      {"sim.record_sink_s", busy("sim.record_sink"), "s"},
      {"sim.row_bytes", count("sim.row_bytes"), "bytes"},
      {"suite.overhead_s", busy("suite"), "s"},
      {"board.reports", count("board.reports"), "count"},
      {"board.vectors", count("board.vectors"), "count"},
      {"exec_policy.speedup_2t", speedup_2t, "ratio"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
      {"trace.coverage", ratio(self_total, wall), "ratio"},
  };

  r.lines.push_back(format("traced wall %.4f s, %zu spans, coverage %.4f, "
                           "overhead %.4f, speedup_2t %.3f",
                           wall, tracer.spans().size(), ratio(self_total, wall),
                           overhead_frac, speedup_2t));
  r.lines.push_back(format("%-20s %8s %12s %12s %8s", "layer", "calls",
                           "busy_s", "self_s", "share"));
  std::vector<LayerTime> sorted = layers;
  std::sort(sorted.begin(), sorted.end(),
            [](const LayerTime& a, const LayerTime& b) { return a.self > b.self; });
  for (const LayerTime& l : sorted)
    r.lines.push_back(format("%-20s %8zu %12.6f %12.6f %8.4f", l.name.c_str(),
                             l.calls, l.busy, l.self, ratio(l.self, wall)));
  for (const auto& [key, value] : c)
    r.lines.push_back(format("count %-32s %.0f", key.c_str(), value));
}

void write_trace(Report& r, const Options& o, const Tracer& tracer,
                 const std::string& label) {
  if (o.trace_out.empty()) return;
  if (write_chrome_trace(o.trace_out, tracer.spans(), label))
    r.lines.push_back("trace written to " + o.trace_out);
  else
    r.lines.push_back("could not write trace file " + o.trace_out);
}

// ---- sweep / byzantine: scenario runs through SuiteRunner ------------------

struct SuiteWorkload {
  std::string base;    // base scenario spec
  std::string grid;    // axes expanded over the base (one pass = the grid)
  std::string warmup;  // overrides turning the base into the warm-up run
};

SuiteWorkload suite_workload(const std::string& name, bool tiny) {
  if (name == "sweep") {
    if (tiny)
      return {"workload=planted budget=4 dishonest=2 opt=0",
              "n=64,128 x adversary=none,hijacker,sleeper", "n=128"};
    return {"workload=planted budget=8 dishonest=8 opt=0",
            "n=256,512 x adversary=none,hijacker,sleeper x seed=1,2,3",
            "n=512 adversary=sleeper"};
  }
  if (tiny)
    return {"workload=planted algorithm=robust n=128 budget=4 dishonest=4 opt=1",
            "adversary=strange_colluder,hijacker", "adversary=hijacker reps=1"};
  return {"workload=planted algorithm=robust n=1024 budget=32 dishonest=10 opt=1",
          "adversary=strange_colluder,hijacker", "adversary=hijacker reps=1"};
}

/// Run seeds derive from the benchmark seed: SuiteRunner mixes this salt
/// with each run's grid index and spec seed.
std::uint64_t grid_salt(std::uint64_t seed) { return mix_keys(seed, 0xbe5c4ULL); }

std::uint64_t warmup_salt(std::uint64_t seed) { return mix_keys(seed, 0x3a7dULL); }

/// The correctness gate for one run; empty when it passes.
std::string check_run(const SuiteRun& run) {
  if (run.status != RunStatus::kOk)
    return format("run %zu: status %s: %s", run.index,
                  run_status_name(run.status), run.error.c_str());
  const std::size_t bound = 3 * run.outcome.planted_diameter;
  if (run.outcome.error.max_error > bound)
    return format("run %zu (%s): honest max_err %zu exceeds 3*diameter = %zu",
                  run.index, run.spec.to_string().c_str(),
                  run.outcome.error.max_error, bound);
  return {};
}

std::vector<ScenarioSpec> grid_specs(const SuiteWorkload& w) {
  return expand_grid(ScenarioSpec::parse(w.base), parse_grid(w.grid));
}

ScenarioSpec warmup_spec(const SuiteWorkload& w) {
  return ScenarioSpec::parse(w.base + " " + w.warmup);
}

/// Registry init + grid resolution + one warm-up run that fills the serial
/// policy's workspace arena. Returns its wall time.
double suite_setup(const SuiteWorkload& w, std::uint64_t seed,
                   const ExecPolicy& policy, Report& r) {
  Timer timer;
  SuiteOptions so;
  so.policy = &policy;
  so.seed_salt = warmup_salt(seed);
  SuiteRunner runner(so);
  runner.plan(grid_specs(w));
  const std::vector<SuiteRun> warm = runner.run({warmup_spec(w)});
  const double seconds = timer.seconds();
  ++r.attempted;
  if (std::string why = check_run(warm.front()); !why.empty())
    r.fail(1, "warm-up " + why);
  return seconds;
}

Report timed_suite(const SuiteWorkload& w, const Options& o) {
  Report r;
  r.lines.push_back(config_label("auto (per-build backends: see the --trace 1 run)"));
  std::vector<double> setup;
  ExecPolicy policy = ExecPolicy::serial();
  for (int i = 0; i < kSetupReps; ++i) {
    policy = ExecPolicy::serial();  // a fresh workspace arena each time
    setup.push_back(suite_setup(w, o.seed, policy, r));
  }

  // Every pass reruns the identical grid; a run's time is its fastest
  // pass, which sheds the slowdowns other tenants of the machine impose.
  const std::vector<ScenarioSpec> specs = grid_specs(w);
  std::vector<double> fastest_ms(specs.size(), 0.0);
  std::size_t passes = 0;
  Timer mark;
  SuiteOptions so;
  so.policy = &policy;
  so.seed_salt = grid_salt(o.seed);
  so.on_result = [&](const SuiteRun& run) {
    const double ms = mark.millis();
    double& best = fastest_ms[run.index];
    best = passes == 0 ? ms : std::min(best, ms);
    mark.reset();
  };
  Accuracy acc;
  Timer clock;
  for (; passes < kMinRepeats || clock.seconds() < o.seconds; ++passes) {
    mark.reset();
    for (const SuiteRun& run : SuiteRunner(so).run(specs)) {
      ++r.attempted;
      if (std::string why = check_run(run); !why.empty()) r.fail(1, why);
      if (passes == 0) acc.add(run.outcome);
    }
  }

  // The tail is the mean of the slowest quarter of the grid's runs: one
  // run's time alone would carry that run's noise into the metric.
  double sum_ms = 0.0;
  for (const double ms : fastest_ms) sum_ms += ms;
  std::vector<double> sorted = fastest_ms;
  std::sort(sorted.rbegin(), sorted.rend());
  const std::size_t tail_runs = (sorted.size() + 3) / 4;
  double tail_ms = 0.0;
  for (std::size_t i = 0; i < tail_runs; ++i) tail_ms += sorted[i];
  const auto runs = static_cast<double>(specs.size());
  add_end_to_end(r, runs * 1e3 / sum_ms, sum_ms / runs,
                 tail_ms / static_cast<double>(tail_runs), setup);
  r.lines.push_back(format("%zu passes over %zu runs; per run the fastest pass; "
                           "latency_ms = mean run, tail = mean of the slowest %zu",
                           passes, specs.size(), tail_runs));
  r.lines.push_back(acc.line());
  return r;
}

Report traced_suite(const SuiteWorkload& w, const Options& o) {
  Report r;
  const std::vector<ScenarioSpec> specs = grid_specs(w);
  ExecPolicy policy = ExecPolicy::serial();
  suite_setup(w, o.seed, policy, r);
  SuiteOptions so;
  so.policy = &policy;
  so.seed_salt = grid_salt(o.seed);

  // Untraced pass: the library as the timed run drives it.
  Timer timer;
  const std::vector<SuiteRun> suite_runs = SuiteRunner(so).run(specs);
  const double untraced_wall = timer.seconds();

  // Traced pass over the same runs: plan, replay each run, stream its row.
  std::vector<Scenario> resolved;
  for (const SuiteRun& run : suite_runs) resolved.push_back(run.scenario);
  const MetricSchema schema = suite_metric_schema(resolved);
  const std::vector<std::string> columns = default_columns();
  std::ostringstream rows;
  SinkConfig sink_config;
  sink_config.stream = &rows;
  JsonlSink sink(sink_config);
  RecordStream stream(sink, schema, columns);

  Tracer tracer;
  Counters counters;
  std::vector<RunProducts> traced;
  const double t0 = tracer.now();
  std::vector<SuiteRun> plan;
  {
    Tracer::Scope span(tracer, "suite");
    plan = SuiteRunner(so).plan(specs);
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    tracer.set_run(static_cast<std::uint32_t>(i));
    traced.push_back(traced_run(plan[i].scenario, policy, tracer, counters));
    Tracer::Scope span(tracer, "sim.record_sink");
    SuiteRun row = plan[i];
    row.outcome = traced.back().outcome;
    row.attempts = 1;
    stream.write(make_run_record(row, schema));
  }
  {
    Tracer::Scope span(tracer, "sim.record_sink");
    stream.finish();
  }
  const double traced_wall = tracer.now() - t0;
  counters["sim.row_bytes"] = static_cast<double>(rows.str().size());

  // The replay must be the library's program: same charges, same outputs.
  Accuracy acc;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++r.attempted;
    acc.add(traced[i].outcome);
    if (std::string why = check_run(suite_runs[i]); !why.empty()) {
      r.fail(1, why);
      continue;
    }
    const RunProducts library = library_run(plan[i].scenario, policy);
    if (std::string why = compare_runs(traced[i], library, suite_runs[i].outcome);
        !why.empty())
      r.fail(1, format("traced run %zu: %s", i, why.c_str()));
  }

  // Informational: the same pass on a 2-worker pool.
  ThreadPool pool(2);
  const ExecPolicy pooled = ExecPolicy::pool(pool);
  SuiteOptions so2 = so;
  so2.policy = &pooled;
  {
    SuiteOptions warm = so2;
    warm.seed_salt = warmup_salt(o.seed);
    SuiteRunner(warm).run({warmup_spec(w)});
  }
  timer.reset();
  SuiteRunner(so2).run(specs);
  const double pooled_wall = timer.seconds();

  const std::string label = config_label(build_counts(counters));
  r.lines.push_back(label);
  r.lines.push_back(acc.line());
  add_per_layer(r, tracer, traced_wall, counters, acc,
                traced_wall / untraced_wall - 1.0, untraced_wall / pooled_wall);
  write_trace(r, o, tracer, label);
  return r;
}

// ---- churn: a StreamSession over replayed epoch plans ----------------------

struct ChurnShape {
  std::size_t n;
  std::size_t groups;  // planted clusters in the z family
  std::size_t dim;     // |S|
  std::size_t spread;  // bits flipped off each row's cluster center
  std::size_t tau;     // edge threshold
  std::size_t epochs;  // epochs per round (one plan, replayed every round)
};

constexpr double kFlipRate = 0.01;   // per alive row per epoch
constexpr std::size_t kFlipBits = 2;
constexpr double kDepartRate = 0.002;
constexpr double kArriveRate = 0.25;
constexpr std::size_t kBurstEvery = 32;  // 1 epoch in 32 is a burst
constexpr std::size_t kBurstStride = 6;  // a burst drifts every 6th row

ChurnShape churn_shape(bool tiny) {
  if (tiny) return {256, 16, 512, 20, 96, 64};
  return {2048, 128, 2048, 40, 96, 1024};
}

std::size_t min_cluster_of(const ChurnShape& s) { return s.n / s.groups * 2 / 3; }

struct EpochPlan {
  bool burst = false;
  std::vector<RowUpdate> batch;
  std::vector<std::pair<PlayerId, std::size_t>> flips;  // (player, bit)
};

struct ChurnPlan {
  std::vector<EpochPlan> epochs;
  BitVector final_alive;
  std::size_t bursts = 0;
};

/// Precomputed epochs: fates and flip positions drawn once from the seed,
/// so every round replays the same row evolution. Most epochs drift ~1% of
/// rows; exactly one epoch in kBurstEvery (at seeded positions) is a burst
/// that also drifts every kBurstStride-th row (>= n/8 updates), which sends
/// NeighborGraph::apply_updates down its full-rebuild path.
ChurnPlan make_plan(const ChurnShape& s, std::uint64_t seed) {
  Rng rng(mix_keys(seed, 0xc4a1ULL));
  ChurnPlan plan;
  std::vector<bool> is_burst(s.epochs, false);
  while (plan.bursts < s.epochs / kBurstEvery) {
    const std::size_t e = rng.below(s.epochs);
    if (!is_burst[e]) {
      is_burst[e] = true;
      ++plan.bursts;
    }
  }
  BitVector alive(s.n, true);
  plan.epochs.resize(s.epochs);
  for (std::size_t e = 0; e < s.epochs; ++e) {
    EpochPlan& epoch = plan.epochs[e];
    const bool burst = epoch.burst = is_burst[e];
    const std::size_t lane = rng.below(kBurstStride);
    for (PlayerId p = 0; p < s.n; ++p) {
      if (alive.get(p)) {
        if (rng.chance(kDepartRate)) {
          alive.set(p, false);
          epoch.batch.push_back({p, UpdateKind::kDepart});
        } else if ((burst && p % kBurstStride == lane) || rng.chance(kFlipRate)) {
          epoch.batch.push_back({p, UpdateKind::kFlip});
        }
      } else if (rng.chance(kArriveRate)) {
        alive.set(p, true);
        epoch.batch.push_back({p, UpdateKind::kArrive});
      }
    }
    for (const RowUpdate& u : epoch.batch)
      if (u.kind == UpdateKind::kFlip)
        for (std::size_t b = 0; b < kFlipBits; ++b)
          epoch.flips.emplace_back(u.player, rng.below(s.dim));
    if (burst && epoch.batch.size() < s.n / 8)
      throw std::logic_error("churn plan: a burst epoch touches fewer than n/8 rows");
  }
  plan.final_alive = alive;
  return plan;
}

/// The planted sample-vector family the session streams over.
BitMatrix make_z_family(const ChurnShape& s, std::uint64_t seed) {
  Rng rng(mix_keys(seed, 0x2fa3ULL));
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < s.groups; ++g)
    centers.push_back(random_bitvector(s.dim, rng));
  BitMatrix z(s.n, s.dim);
  for (std::size_t i = 0; i < s.n; ++i) {
    BitVector v = centers[i % s.groups];
    v.flip_random(rng, s.spread);
    z.row(i) = v;
  }
  return z;
}

void replay_flips(BitMatrix& z, const EpochPlan& epoch) {
  for (const auto& [p, bit] : epoch.flips) z.row(p).flip(bit);
}

std::size_t edge_count(const NeighborGraph& g) {
  std::size_t degrees = 0;
  for (PlayerId p = 0; p < g.size(); ++p) degrees += g.degree(p);
  return degrees / 2;
}

/// Empty when graph + clustering `a` equal `b`: alive set, degrees, edge
/// count, every adjacency list, and the clustering.
std::string compare_state(const NeighborGraph& a, const Clustering& ca,
                          const NeighborGraph& b, const Clustering& cb) {
  if (a.size() != b.size() || a.backend() != b.backend()) return "graph shape differs";
  if (a.alive() != b.alive()) return "alive set differs";
  if (edge_count(a) != edge_count(b)) return "edge count differs";
  for (PlayerId p = 0; p < a.size(); ++p) {
    if (a.degree(p) != b.degree(p)) return format("degree of player %u differs", p);
    const bool same = a.backend() == GraphBackend::kDense
                          ? a.row(p) == b.row(p)
                          : std::ranges::equal(a.neighbors(p), b.neighbors(p));
    if (!same) return format("edges of player %u differ", p);
  }
  if (ca.cluster_of != cb.cluster_of || ca.clusters != cb.clusters ||
      ca.leftovers != cb.leftovers || ca.orphans != cb.orphans)
    return "clustering differs";
  return {};
}

/// The churn gate: the session after its last epoch equals a fresh
/// NeighborGraph + cluster_players over the final rows and alive set.
std::string check_session(const StreamSession& session, const BitMatrix& z,
                          const ChurnShape& s, const ChurnPlan& plan) {
  if (session.graph().alive() != plan.final_alive) return "alive set differs from the plan";
  const std::vector<ConstBitRow> views = z.row_views();
  const NeighborGraph fresh(views, s.tau, session.graph().backend(),
                            ExecPolicy::serial(), &plan.final_alive);
  const Clustering clustering = cluster_players(fresh, min_cluster_of(s));
  return compare_state(session.graph(), session.clustering(), fresh, clustering);
}

struct RoundResult {
  double setup_s = 0.0;
  double epochs_s = 0.0;
  std::string mismatch;
  GraphBackend backend = GraphBackend::kAuto;
  StreamTotals totals;
};

/// One library round: build the family and session (timed as set-up), then
/// replay every epoch, appending each epoch's time to `epoch_ms` if given.
RoundResult library_round(const ChurnShape& s, const ChurnPlan& plan,
                          std::uint64_t seed, const ExecPolicy& policy,
                          std::vector<double>* epoch_ms) {
  RoundResult out;
  Timer timer;
  BitMatrix z = make_z_family(s, seed);
  const std::vector<ConstBitRow> views = z.row_views();
  StreamSession session(views, s.tau, min_cluster_of(s), GraphBackend::kAuto, policy);
  out.setup_s = timer.seconds();
  for (const EpochPlan& epoch : plan.epochs) {
    timer.reset();
    replay_flips(z, epoch);
    session.apply_epoch(epoch.batch, policy);
    const double seconds = timer.seconds();
    out.epochs_s += seconds;
    if (epoch_ms != nullptr) epoch_ms->push_back(seconds * 1e3);
  }
  out.mismatch = check_session(session, z, s, plan);
  out.backend = session.graph().backend();
  out.totals = session.totals();
  return out;
}

Report timed_churn(const Options& o) {
  Report r;
  const ChurnShape s = churn_shape(o.tiny);
  const ChurnPlan plan = make_plan(s, o.seed);
  const ExecPolicy policy = ExecPolicy::serial();
  // Every round replays the identical epochs; an epoch's time is its
  // fastest round, which sheds the slowdowns other tenants impose.
  std::vector<double> setup, fastest_ms, round_ms;
  Timer clock;
  GraphBackend backend = GraphBackend::kAuto;
  while (setup.size() < kMinRepeats || clock.seconds() < o.seconds) {
    round_ms.clear();
    const RoundResult round = library_round(s, plan, o.seed, policy, &round_ms);
    if (fastest_ms.empty()) fastest_ms = round_ms;
    for (std::size_t e = 0; e < round_ms.size(); ++e)
      fastest_ms[e] = std::min(fastest_ms[e], round_ms[e]);
    setup.push_back(round.setup_s);
    backend = round.backend;
    r.attempted += s.epochs;
    if (!round.mismatch.empty())
      r.fail(s.epochs, format("round %zu: %s", setup.size(), round.mismatch.c_str()));
  }
  double sum_ms = 0.0, regular_ms = 0.0;
  for (std::size_t e = 0; e < s.epochs; ++e) {
    sum_ms += fastest_ms[e];
    if (!plan.epochs[e].burst) regular_ms += fastest_ms[e];
  }
  r.lines.push_back(config_label(backend_name(backend)));
  add_end_to_end(r, static_cast<double>(s.epochs) * 1e3 / sum_ms,
                 regular_ms / static_cast<double>(s.epochs - plan.bursts),
                 quantile(fastest_ms, 0.99), setup);
  r.lines.push_back(format("%zu rounds of %zu epochs (%zu bursts); per epoch the "
                           "fastest round; latency_ms = mean non-burst epoch, "
                           "tail = p99 epoch",
                           setup.size(), s.epochs, plan.bursts));
  return r;
}

Report traced_churn(const Options& o) {
  Report r;
  const ChurnShape s = churn_shape(o.tiny);
  const ChurnPlan plan = make_plan(s, o.seed);
  const ExecPolicy policy = ExecPolicy::serial();
  library_round(s, plan, o.seed, policy, nullptr);  // warm caches and allocator
  const RoundResult library = library_round(s, plan, o.seed, policy, nullptr);

  // The traced replay of StreamSession: apply_updates, then cluster_players
  // on every epoch whose edge set changed.
  Tracer tracer;
  Counters c;
  const std::size_t min_cluster = min_cluster_of(s);
  const auto count_build = [&](const NeighborGraph& g) {
    const auto alive = static_cast<double>(g.alive_count());
    c["neighbor_graph.pairs"] += alive * (alive - 1) / 2;
    c["neighbor_graph.edges"] += static_cast<double>(edge_count(g));
    c[g.backend() == GraphBackend::kCsr ? "builds.csr" : "builds.dense"] += 1;
  };
  const double t0 = tracer.now();
  std::optional<BitMatrix> z;
  {
    Tracer::Scope span(tracer, "model.world_build");
    z.emplace(make_z_family(s, o.seed));
  }
  const std::vector<ConstBitRow> views = z->row_views();
  std::optional<NeighborGraph> graph;
  {
    Tracer::Scope span(tracer, "neighbor_graph");
    graph.emplace(views, s.tau, GraphBackend::kAuto, policy);
  }
  count_build(*graph);
  std::optional<Clustering> clustering;
  {
    Tracer::Scope span(tracer, "cluster");
    clustering.emplace(cluster_players(*graph, min_cluster));
  }
  c["cluster.clusters"] += static_cast<double>(clustering->clusters.size());
  c["cluster.orphans"] += static_cast<double>(clustering->orphans);
  StreamTotals totals;
  for (std::size_t e = 0; e < plan.epochs.size(); ++e) {
    const EpochPlan& epoch = plan.epochs[e];
    tracer.set_run(static_cast<std::uint32_t>(e));
    Tracer::Scope epoch_span(tracer, "driver");
    replay_flips(*z, epoch);
    const std::int32_t update = tracer.open("stream.update");
    const GraphDelta delta = graph->apply_updates(epoch.batch, views, policy);
    tracer.close(update);
    if (delta.rebuilt) {
      tracer.rename(update, "neighbor_graph");
      count_build(*graph);
      ++totals.rebuilds;
    }
    if (delta.dirty()) {
      Tracer::Scope span(tracer, "stream.recluster");
      clustering.emplace(cluster_players(*graph, min_cluster));
      ++totals.reclusters;
    }
    totals.edges_changed += delta.edges_changed();
    c["stream.rows_updated"] += static_cast<double>(epoch.batch.size());
  }
  const double traced_wall = tracer.now() - t0;
  c["stream.epochs"] = static_cast<double>(plan.epochs.size());
  c["stream.edges_changed"] = static_cast<double>(totals.edges_changed);
  c["stream.rebuilds"] = static_cast<double>(totals.rebuilds);
  c["stream.reclusters"] = static_cast<double>(totals.reclusters);

  // The replay must be StreamSession's program, and both must equal a fresh
  // build over the final rows.
  r.attempted += plan.epochs.size();
  std::string why = library.mismatch;
  if (why.empty() && (totals.edges_changed != library.totals.edges_changed ||
                      totals.rebuilds != library.totals.rebuilds ||
                      totals.reclusters != library.totals.reclusters))
    why = "replay totals differ from StreamSession";
  if (why.empty()) {
    const NeighborGraph fresh(views, s.tau, graph->backend(), policy, &plan.final_alive);
    why = compare_state(*graph, *clustering, fresh, cluster_players(fresh, min_cluster));
  }
  if (!why.empty()) r.fail(plan.epochs.size(), "traced churn: " + why);

  ThreadPool pool(2);
  const ExecPolicy pooled = ExecPolicy::pool(pool);
  library_round(s, plan, o.seed, pooled, nullptr);
  const RoundResult pooled_round = library_round(s, plan, o.seed, pooled, nullptr);

  const std::string label = config_label(build_counts(c));
  r.lines.push_back(label);
  add_per_layer(r, tracer, traced_wall, c, Accuracy{},
                traced_wall / (library.setup_s + library.epochs_s) - 1.0,
                library.epochs_s / pooled_round.epochs_s);
  write_trace(r, o, tracer, label);
  return r;
}

}  // namespace

Report run_workload(const Options& o) {
  if (o.workload == "churn") return o.trace ? traced_churn(o) : timed_churn(o);
  if (o.workload != "sweep" && o.workload != "byzantine")
    throw std::invalid_argument("unknown workload '" + o.workload +
                                "' (expected sweep, byzantine or churn)");
  const SuiteWorkload w = suite_workload(o.workload, o.tiny);
  return o.trace ? traced_suite(w, o) : timed_suite(w, o);
}

}  // namespace colbench
