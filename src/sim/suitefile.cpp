#include "src/sim/suitefile.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/common/json.hpp"
#include "src/common/parse.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/resume.hpp"

namespace colscore {

namespace {

constexpr const char* kAcceptedKeys[] = {
    "name",    "description", "base",    "grids",        "reps",
    "threads", "sink",        "output",  "wall",         "derive_seeds",
    "seed_salt", "columns",   "summary", "retries",      "timeout_s",
    "backoff_s", "faults",
};

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw ScenarioError("suite file '" + origin + "': " + what);
}

[[noreturn]] void wrong_type(const std::string& origin, const char* key,
                             const char* want, const JsonValue& got) {
  fail(origin, std::string("\"") + key + "\" must be " + want + " (got " +
                   got.kind_name() + ")");
}

std::string require_string(const std::string& origin, const char* key,
                           const JsonValue& v) {
  if (!v.is_string()) wrong_type(origin, key, "a string", v);
  return v.text;
}

bool require_bool(const std::string& origin, const char* key,
                  const JsonValue& v) {
  if (!v.is_bool()) wrong_type(origin, key, "a boolean", v);
  return v.boolean;
}

/// A non-negative integer-valued number ("3", not "3.5" or "-1"). Parses the
/// source spelling so large seed salts survive without a double round-trip.
std::uint64_t require_integer(const std::string& origin, const char* key,
                              const JsonValue& v) {
  if (!v.is_number()) wrong_type(origin, key, "an integer", v);
  const std::optional<std::uint64_t> out = parse_u64(v.text);
  if (!out)
    fail(origin, std::string("\"") + key + "\" must be a non-negative "
                     "integer (got " + v.text + ")");
  return *out;
}

/// A non-negative number ("0.25", "3"); doubles are fine here (durations),
/// unlike require_integer's count-valued keys.
double require_number(const std::string& origin, const char* key,
                      const JsonValue& v) {
  if (!v.is_number()) wrong_type(origin, key, "a number", v);
  if (v.number < 0)
    fail(origin, std::string("\"") + key + "\" must be non-negative (got " +
                     v.text + ")");
  return v.number;
}

/// One base-spec value: strings verbatim, numbers by source spelling,
/// booleans as the "1"/"0" the override parser accepts.
std::string override_text(const std::string& origin, const std::string& key,
                          const JsonValue& v) {
  if (v.is_string()) return v.text;
  if (v.is_number()) return v.text;
  if (v.is_bool()) return v.boolean ? "1" : "0";
  fail(origin, "base key \"" + key + "\" must be a string, number, or "
                   "boolean (got " + v.kind_name() + ")");
}

void parse_base(const std::string& origin, const JsonValue& v,
                ScenarioSpec& base) {
  if (v.is_string()) {
    base = ScenarioSpec::parse(v.text);
    return;
  }
  if (!v.is_object())
    wrong_type(origin, "base", "an object or a spec string", v);
  for (const auto& [key, value] : v.members)
    base.set(key, override_text(origin, key, value));
}

std::vector<GridAxis> parse_one_grid(const std::string& origin,
                                     std::size_t index,
                                     const JsonValue& v) {
  if (!v.is_string())
    fail(origin, "\"grids\" entries must be axis strings (entry " +
                     std::to_string(index + 1) + " is " + v.kind_name() + ")");
  std::vector<GridAxis> axes = parse_grid(v.text);
  for (const GridAxis& axis : axes)
    if (axis.key == "reps")
      fail(origin, "grid " + std::to_string(index + 1) +
                       " sweeps 'reps'; replication in a suite file is the "
                       "top-level \"reps\" key");
  return axes;
}

}  // namespace

std::vector<ScenarioSpec> SuiteFile::expand() const {
  if (grids.empty()) return {base};
  std::vector<ScenarioSpec> specs;
  for (const std::vector<GridAxis>& axes : grids) {
    std::vector<ScenarioSpec> expanded = expand_grid(base, axes);
    specs.insert(specs.end(), std::make_move_iterator(expanded.begin()),
                 std::make_move_iterator(expanded.end()));
  }
  return specs;
}

SuiteOptions SuiteFile::options() const {
  SuiteOptions out;
  out.threads = threads;
  out.reps = reps;
  out.derive_seeds = derive_seeds;
  if (seed_salt.has_value()) out.seed_salt = *seed_salt;
  out.retries = retries;
  out.timeout_s = timeout_s;
  out.backoff_s = backoff_s;
  return out;
}

SuiteFile parse_suite_file(std::string_view json_text, std::string origin) {
  SuiteFile file;
  file.origin = std::move(origin);

  JsonValue root;
  try {
    root = json_parse(json_text);
  } catch (const JsonError& e) {
    fail(file.origin, e.what());
  }
  if (!root.is_object())
    fail(file.origin, std::string("the document must be an object (got ") +
                          root.kind_name() + ")");

  for (const auto& [key, value] : root.members) {
    bool accepted = false;
    for (const char* k : kAcceptedKeys)
      if (key == k) { accepted = true; break; }
    if (!accepted) {
      std::string msg = "unknown key \"" + key + "\"; accepted: ";
      bool first = true;
      for (const char* k : kAcceptedKeys) {
        if (!first) msg += ", ";
        msg += k;
        first = false;
      }
      fail(file.origin, msg);
    }

    if (key == "name") file.name = require_string(file.origin, "name", value);
    else if (key == "description")
      file.description = require_string(file.origin, "description", value);
    else if (key == "base") parse_base(file.origin, value, file.base);
    else if (key == "grids") {
      if (value.is_string()) {
        file.grids.push_back(parse_one_grid(file.origin, 0, value));
      } else if (value.is_array()) {
        for (std::size_t i = 0; i < value.items.size(); ++i)
          file.grids.push_back(
              parse_one_grid(file.origin, i, value.items[i]));
      } else {
        wrong_type(file.origin, "grids", "an axis string or an array of them",
                   value);
      }
    } else if (key == "reps") {
      file.reps = static_cast<std::size_t>(
          require_integer(file.origin, "reps", value));
      if (file.reps == 0)
        fail(file.origin, "\"reps\" must be a positive integer (got 0)");
    } else if (key == "threads") {
      file.threads = static_cast<std::size_t>(
          require_integer(file.origin, "threads", value));
    } else if (key == "sink") {
      file.sink = require_string(file.origin, "sink", value);
    } else if (key == "output") {
      file.output = require_string(file.origin, "output", value);
    } else if (key == "wall") {
      file.include_wall = require_bool(file.origin, "wall", value);
    } else if (key == "derive_seeds") {
      file.derive_seeds = require_bool(file.origin, "derive_seeds", value);
    } else if (key == "seed_salt") {
      file.seed_salt = require_integer(file.origin, "seed_salt", value);
    } else if (key == "columns") {
      if (value.is_string()) {
        try {
          file.columns = parse_column_list(value.text);
        } catch (const ScenarioError& e) {
          fail(file.origin, e.what());
        }
      } else if (value.is_array()) {
        for (std::size_t i = 0; i < value.items.size(); ++i) {
          if (!value.items[i].is_string())
            fail(file.origin, "\"columns\" entries must be metric keys "
                              "(entry " + std::to_string(i + 1) + " is " +
                                  value.items[i].kind_name() + ")");
          file.columns.push_back(value.items[i].text);
        }
        if (file.columns.empty())
          fail(file.origin, "\"columns\" must not be an empty array");
      } else {
        wrong_type(file.origin, "columns",
                   "an array of metric keys or one comma-separated string",
                   value);
      }
    } else if (key == "summary") {
      try {
        file.summary =
            parse_summary_stat(require_string(file.origin, "summary", value));
      } catch (const ScenarioError& e) {
        fail(file.origin, e.what());
      }
    } else if (key == "retries") {
      file.retries = static_cast<std::size_t>(
          require_integer(file.origin, "retries", value));
    } else if (key == "timeout_s") {
      file.timeout_s = require_number(file.origin, "timeout_s", value);
    } else if (key == "backoff_s") {
      file.backoff_s = require_number(file.origin, "backoff_s", value);
    } else if (key == "faults") {
      file.faults = require_string(file.origin, "faults", value);
      try {
        (void)FaultPlan::parse(file.faults);
      } catch (const ScenarioError& e) {
        fail(file.origin, e.what());
      }
    }
  }

  // Surface spec/grid/column errors at parse time with the file named, not
  // when the suite starts: a reviewable artifact should fail its review
  // early. Resolutions are validate-and-discard (nothing retained per cell);
  // the schema union resolves one representative per distinct entry triple.
  try {
    const std::vector<ScenarioSpec> specs = file.expand();
    for (const ScenarioSpec& spec : specs) (void)Scenario::resolve(spec);
    if (!file.columns.empty())
      (void)suite_metric_schema(specs).select(file.columns);
  } catch (const ScenarioError& e) {
    fail(file.origin, e.what());
  }
  return file;
}

SuiteFile load_suite_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) throw ScenarioError("suite file '" + path + "': cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_suite_file(text.str(), path);
}

std::vector<SuiteRun> run_suite_file(const SuiteFile& file,
                                     const SuiteFileOverrides& overrides) {
  SuiteOptions options = file.options();
  if (overrides.shard.has_value()) {
    options.shard_index = overrides.shard->first;
    options.shard_count = overrides.shard->second;
  }
  const FaultPlan faults = FaultPlan::parse(file.faults);
  if (!faults.empty()) options.faults = &faults;

  SinkConfig config;
  config.path = file.output;
  config.stream = overrides.stream;

  // The suite's schema (built-ins + every cell's entry metrics, resolved
  // once per distinct entry triple) and the selected columns; selection and
  // per-cell summary run in RecordStream, in front of whichever sink was
  // chosen.
  const std::vector<ScenarioSpec> specs = file.expand();
  const MetricSchema schema = suite_metric_schema(specs);
  const bool include_rep = options.reps > 1;
  std::vector<std::string> columns =
      file.columns.empty() ? default_columns(file.include_wall, include_rep)
                           : file.columns;
  // "wall": true (the CLI's --wall) is an explicit request; honor it
  // alongside an explicit "columns" selection.
  if (file.include_wall && !file.columns.empty() &&
      std::find(columns.begin(), columns.end(), "wall_s") == columns.end())
    columns.push_back("wall_s");

  // Plan before the sink exists: resume must read the prior artifact before
  // a file sink truncates PATH.tmp (resuming onto the same path is
  // the common case).
  std::vector<SuiteRun> runs = SuiteRunner(options).plan(specs);
  std::optional<ResumeContext> resume;
  if (overrides.resume.has_value())
    resume = prepare_resume(file.sink, *overrides.resume, runs, schema,
                            columns, file.summary);

  std::unique_ptr<ResultSink> sink = make_sink(file.sink, config);
  if (faults.has_sink_faults())
    sink = std::make_unique<FaultInjectingSink>(faults, std::move(sink));

  RecordStream stream(*sink, schema, columns,
                      {file.summary, options.reps});
  options.on_result = [&](const SuiteRun& run) {
    // A kSkipped run inside the shard is a resume substitution: replay the
    // prior artifact's row byte-for-byte instead of fabricating one.
    if (run.status == RunStatus::kSkipped && resume.has_value()) {
      const std::ptrdiff_t ri = resume->plan.prior_row[run.index];
      if (ri >= 0) {
        stream.write(widen_prior_row(
            resume->prior.rows[static_cast<std::size_t>(ri)], schema));
        return;
      }
    }
    stream.write(make_run_record(run, schema));
  };
  SuiteRunner(options).execute(runs);
  stream.finish();
  return runs;
}

}  // namespace colscore
