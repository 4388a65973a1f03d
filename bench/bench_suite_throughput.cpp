// Whole-suite throughput: the tracked perf metric from PR 3 onward.
//
// PR 2 made single kernels fast; the ROADMAP north-star is million-run
// sweeps, so the number that matters is end-to-end runs/sec through
// SuiteRunner — world build, probes, board traffic, clustering, voting,
// select tournaments, metrics — not any one loop. This pins a representative
// grid (n=256,512 x adversary=none,hijacker,sleeper, three seeds, full
// calculate_preferences, OPT off) and times complete suites on one thread.
//
// The acceptance configuration for PR 3 is BM_SuiteThroughput (18 runs);
// tools/bench_to_json.py distills the JSON into BENCH_pr3.json. Build
// Release (-O3 + LTO) for recorded numbers.
//
// Every benchmark here times wall-clock (UseRealTime), so each runs_per_s
// counter is runs / wall seconds. Timing by the main thread's CPU time would
// overstate the rate of any benchmark whose work runs on pool threads.
#include <benchmark/benchmark.h>

#include <array>
#include <sstream>
#include <string>

#include "src/common/exec_policy.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"

namespace colscore {
namespace {

constexpr char kBaseSpec[] =
    "workload=planted budget=8 dishonest=8 opt=0";
constexpr char kGrid[] =
    "n=256,512 x adversary=none,hijacker,sleeper x seed=1,2,3";

std::vector<ScenarioSpec> pinned_specs() {
  return expand_grid(ScenarioSpec::parse(kBaseSpec), parse_grid(kGrid));
}

void BM_SuiteThroughput(benchmark::State& state) {
  const std::vector<ScenarioSpec> specs = pinned_specs();
  SuiteOptions options;
  options.threads = 1;  // single thread: measure work, not the box's cores
  std::size_t runs = 0;
  std::uint64_t total_probes = 0;
  for (auto _ : state) {
    SuiteRunner runner(options);
    const std::vector<SuiteRun> results = runner.run(specs);
    runs = results.size();
    total_probes = 0;
    for (const SuiteRun& r : results) total_probes += r.outcome.total_probes;
    benchmark::DoNotOptimize(total_probes);
  }
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["total_probes"] = static_cast<double>(total_probes);
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsIterationInvariantRate);
}

// The same grid driven through the reps= replication axis (PR 3): 6 cells x
// 3 reps = 18 runs with per-rep derived seeds — the natural stressor for
// multi-seed sweeps, and a check that replication adds no overhead beyond
// the runs themselves.
void BM_SuiteThroughputReps(benchmark::State& state) {
  const std::vector<ScenarioSpec> specs = expand_grid(
      ScenarioSpec::parse(kBaseSpec),
      parse_grid("n=256,512 x adversary=none,hijacker,sleeper"));
  SuiteOptions options;
  options.threads = 1;
  options.reps = 3;
  std::size_t runs = 0;
  for (auto _ : state) {
    SuiteRunner runner(options);
    runs = runner.run(specs).size();
    benchmark::DoNotOptimize(runs);
  }
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsIterationInvariantRate);
}

// The pinned grid streamed through a result sink (PR 4; typed schema since
// PR 5): runs become RunRecords and serialize as JSONL into an in-memory
// buffer, so the number isolates sink overhead on top of BM_SuiteThroughput
// — it must stay noise against the runs themselves (row formatting is
// microseconds per run).
void BM_SuiteThroughputJsonlSink(benchmark::State& state) {
  const std::vector<ScenarioSpec> specs = pinned_specs();
  const MetricSchema schema = [&] {
    std::vector<Scenario> resolved;
    for (const ScenarioSpec& s : specs) resolved.push_back(Scenario::resolve(s));
    return suite_metric_schema(resolved);
  }();
  const std::vector<std::string> columns = default_columns();
  std::size_t runs = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    SinkConfig config;
    config.stream = &out;
    JsonlSink sink(config);
    RecordStream stream(sink, schema, columns);
    SuiteOptions options;
    options.threads = 1;
    options.on_result = [&](const SuiteRun& run) {
      stream.write(make_run_record(run, schema));
    };
    runs = SuiteRunner(options).run(specs).size();
    stream.finish();
    bytes = out.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["row_bytes"] = static_cast<double>(bytes);
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsIterationInvariantRate);
}

// Sparse-regime suite throughput (PR 7): large n, many thin planted
// clusters — the configuration where calculate_preferences' neighbor graphs
// are sparse and the SIMD tiers carry the pair sweep. Two
// seeds keep the wall time sane (a single n=2048 run is seconds); the
// label pins the dispatched tier so trajectories compare across machines.
void BM_SuiteThroughputSparse(benchmark::State& state) {
  const std::vector<ScenarioSpec> specs = expand_grid(
      ScenarioSpec::parse("workload=planted budget=8 dishonest=8 opt=0 "
                          "n=2048 clusters=128"),
      parse_grid("seed=1,2"));
  SuiteOptions options;
  options.threads = 1;
  std::size_t runs = 0;
  for (auto _ : state) {
    SuiteRunner runner(options);
    runs = runner.run(specs).size();
    benchmark::DoNotOptimize(runs);
  }
  state.SetLabel(std::string("tier=") + simd::tier_name(simd::active_tier()));
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsIterationInvariantRate);
}

// Two SuiteRunners on disjoint pools driven concurrently (PR 9): the
// ExecPolicy seam end-to-end — per-suite pools and policy-owned workspace
// arenas, no ambient global state shared between the suites. The label and
// counters carry the policy shape so bench_to_json trajectories can split
// on it.
void BM_SuiteThroughputConcurrent(benchmark::State& state) {
  const std::vector<ScenarioSpec> specs = pinned_specs();
  ThreadPool outer(2);
  ThreadPool pool_a(2);
  ThreadPool pool_b(2);
  const ExecPolicy outer_policy = ExecPolicy::pool(outer);
  const ExecPolicy policy_a = ExecPolicy::pool(pool_a);
  const ExecPolicy policy_b = ExecPolicy::pool(pool_b);
  const std::array<const ExecPolicy*, 2> policies = {&policy_a, &policy_b};
  std::size_t runs = 0;
  for (auto _ : state) {
    std::array<std::size_t, 2> suite_runs = {0, 0};
    outer_policy.par_for(
        0, policies.size(),
        [&](std::size_t s) {
          SuiteOptions options;
          options.policy = policies[s];
          suite_runs[s] = SuiteRunner(options).run(specs).size();
        },
        /*grain=*/1);
    runs = suite_runs[0] + suite_runs[1];
    benchmark::DoNotOptimize(runs);
  }
  state.SetLabel("policy=pool suites=2 workers_per_suite=2");
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["suites"] = static_cast<double>(policies.size());
  state.counters["workers_per_suite"] = 2.0;
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_SuiteThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SuiteThroughputConcurrent)->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_SuiteThroughputSparse)->Unit(benchmark::kMillisecond)
    ->Iterations(1)->UseRealTime();
BENCHMARK(BM_SuiteThroughputReps)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SuiteThroughputJsonlSink)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
