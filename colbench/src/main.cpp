// colbench: the colscore benchmark program.
//
//   colbench --workload sweep|byzantine|churn --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--tiny]
//   colbench --selftest
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the workload
// with spans and reports the per-layer metrics. Human-readable lines come
// first; the last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using colbench::Options;
using colbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "colbench: %s\nusage: colbench --workload sweep|byzantine|churn "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] [--tiny]\n"
               "       colbench --selftest\n",
               why);
  std::exit(2);
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const colbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

/// Self-time arithmetic on a synthetic span tree (overlapping children,
/// a child running past its parent, a grandchild).
int selftest() {
  using colbench::Span;
  // root [0,10]: A [1,4] (with A1 [2,3]), B [3,6] overlapping A, C [8,12]
  // clipped to the root. Root self = 10 - |[1,6] u [8,10]| = 3.
  const Span spans[] = {
      {"root", 0, 10, -1, 0}, {"a", 1, 4, 0, 0},  {"b", 3, 6, 0, 0},
      {"c", 8, 12, 0, 0},     {"a1", 2, 3, 1, 0}, {"a", 20, 21, -1, 1},
  };
  const std::vector<double> self = colbench::self_times(spans);
  const double want[] = {3, 2, 3, 4, 1, 1};
  int bad = 0;
  for (std::size_t i = 0; i < self.size(); ++i)
    if (std::fabs(self[i] - want[i]) > 1e-12) {
      std::fprintf(stderr, "selftest: span %zu self %.6f, want %.6f\n", i, self[i], want[i]);
      ++bad;
    }
  const auto layers = colbench::layer_times(spans);
  if (colbench::busy_of(layers, "a") != 4.0 || colbench::self_of(layers, "a") != 3.0 ||
      colbench::self_of(layers, "root") != 3.0 || layers.size() != 5) {
    std::fprintf(stderr, "selftest: per-layer sums are wrong\n");
    ++bad;
  }
  std::printf(bad == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after an option");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown option " + std::string(arg)).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  try {
    const Report r = colbench::run_workload(o);
    for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
    for (const std::string& error : r.errors) std::fprintf(stderr, "FAILED: %s\n", error.c_str());
    print_json(r);
    std::fflush(stdout);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "colbench: %s\n", e.what());
    return 2;
  }
}
