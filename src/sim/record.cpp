#include "src/sim/record.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <set>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/parse.hpp"
#include "src/sim/registry.hpp"
#include "src/sim/suite.hpp"

namespace colscore {

// ---- metric specs -----------------------------------------------------------

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kU64: return "u64";
    case MetricType::kF64: return "f64";
    case MetricType::kSize: return "size";
    case MetricType::kString: return "string";
    case MetricType::kBool: return "bool";
  }
  return "?";
}

std::string format_metric_double(double v, F64Format format) {
  if (format == F64Format::kHistorical) {
    // The seed CLI's formatting: default-precision ostream (%g, 6 significant
    // digits). The determinism goldens pin these bytes.
    std::ostringstream os;
    os << v;
    return os.str();
  }
  // Shortest spelling that parses back to exactly `v` (also how non-finite
  // values render: "nan", "inf", "-inf").
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  CS_ASSERT(ec == std::errc(), "format_metric_double: to_chars failed");
  return std::string(buf, end);
}

// ---- metric values ----------------------------------------------------------

MetricValue MetricValue::of_u64(std::uint64_t v) {
  MetricValue m;
  m.v_ = v;
  return m;
}

MetricValue MetricValue::of_f64(double v) {
  MetricValue m;
  m.v_ = v;
  return m;
}

MetricValue MetricValue::of_bool(bool v) {
  MetricValue m;
  m.v_ = v;
  return m;
}

MetricValue MetricValue::of_string(std::string v) {
  MetricValue m;
  m.v_ = std::move(v);
  return m;
}

std::uint64_t MetricValue::as_u64() const {
  CS_ASSERT(is_u64(), "MetricValue: not a u64");
  return std::get<std::uint64_t>(v_);
}

double MetricValue::as_f64() const {
  CS_ASSERT(is_f64(), "MetricValue: not an f64");
  return std::get<double>(v_);
}

bool MetricValue::as_bool() const {
  CS_ASSERT(is_bool(), "MetricValue: not a bool");
  return std::get<bool>(v_);
}

const std::string& MetricValue::as_string() const {
  CS_ASSERT(is_string(), "MetricValue: not a string");
  return std::get<std::string>(v_);
}

double MetricValue::as_number() const {
  if (is_u64()) return static_cast<double>(as_u64());
  return as_f64();
}

bool MetricValue::matches(MetricType type) const {
  if (!has_value()) return true;
  switch (type) {
    case MetricType::kU64:
    case MetricType::kSize: return is_u64();
    case MetricType::kF64: return is_f64();
    case MetricType::kString: return is_string();
    case MetricType::kBool: return is_bool();
  }
  return false;
}

// ---- the schema -------------------------------------------------------------

void MetricSchema::add(MetricSpec spec) {
  if (spec.key.empty())
    throw ScenarioError("metric key must not be empty");
  if (index_.contains(spec.key))
    throw ScenarioError("duplicate metric key '" + spec.key + "'");
  index_[spec.key] = specs_.size();
  specs_.push_back(std::move(spec));
}

const MetricSpec* MetricSchema::find(std::string_view key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &specs_[it->second];
}

std::size_t MetricSchema::index_of(std::string_view key) const {
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  std::string msg = "unknown column '" + std::string(key) + "'; available: ";
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (i != 0) msg += ", ";
    msg += specs_[i].key;
  }
  throw ScenarioError(msg);
}

std::vector<std::string> MetricSchema::keys() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const MetricSpec& spec : specs_) out.push_back(spec.key);
  return out;
}

MetricSchema MetricSchema::select(std::span<const std::string> keys) const {
  MetricSchema out;
  for (const std::string& key : keys) {
    if (out.find(key) != nullptr)
      throw ScenarioError("column '" + key + "' selected twice");
    out.add(specs_[index_of(key)]);
  }
  return out;
}

// ---- run records ------------------------------------------------------------

RunRecord::RunRecord(const MetricSchema* schema)
    : schema_(schema), values_(schema->size()) {
  CS_ASSERT(schema != nullptr, "RunRecord: null schema");
}

void RunRecord::set_value(std::size_t i, MetricValue value) {
  CS_ASSERT(i < values_.size(), "RunRecord: column index out of range");
  const MetricSpec& spec = schema_->spec(i);
  if (!value.matches(spec.type))
    throw ScenarioError("metric '" + spec.key + "' is declared " +
                        metric_type_name(spec.type) +
                        "; a value of a different kind was stored");
  values_[i] = std::move(value);
}

void RunRecord::set(std::string_view key, MetricValue value) {
  set_value(schema_->index_of(key), std::move(value));
}

void RunRecord::set_u64(std::string_view key, std::uint64_t v) {
  set(key, MetricValue::of_u64(v));
}

void RunRecord::set_size(std::string_view key, std::size_t v) {
  set(key, MetricValue::of_u64(v));
}

void RunRecord::set_f64(std::string_view key, double v) {
  set(key, MetricValue::of_f64(v));
}

void RunRecord::set_bool(std::string_view key, bool v) {
  set(key, MetricValue::of_bool(v));
}

void RunRecord::set_string(std::string_view key, std::string v) {
  set(key, MetricValue::of_string(std::move(v)));
}

const MetricValue& RunRecord::value(std::string_view key) const {
  return values_[schema_->index_of(key)];
}

std::string RunRecord::cell_text(std::size_t i) const {
  CS_ASSERT(i < values_.size(), "RunRecord: column index out of range");
  const MetricValue& v = values_[i];
  if (!v.has_value()) return "";
  const MetricSpec& spec = schema_->spec(i);
  switch (spec.type) {
    case MetricType::kU64:
    case MetricType::kSize: return std::to_string(v.as_u64());
    case MetricType::kF64: return format_metric_double(v.as_f64(), spec.f64_format);
    case MetricType::kString: return v.as_string();
    case MetricType::kBool: return v.as_bool() ? "1" : "0";
  }
  return "";
}

std::vector<std::string> RunRecord::cells() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) out.push_back(cell_text(i));
  return out;
}

std::optional<MetricValue> parse_metric_cell(std::string_view text,
                                             MetricType type) {
  switch (type) {
    case MetricType::kU64:
    case MetricType::kSize:
      if (const auto u = parse_u64(text)) return MetricValue::of_u64(*u);
      return std::nullopt;
    case MetricType::kF64:
      if (const auto d = parse_f64(text)) return MetricValue::of_f64(*d);
      return std::nullopt;
    case MetricType::kString: return MetricValue::of_string(std::string(text));
    case MetricType::kBool:
      if (text != "0" && text != "1") return std::nullopt;
      return MetricValue::of_bool(text == "1");
  }
  return std::nullopt;
}

// ---- entry-published metrics ------------------------------------------------

MetricEmitter::MetricEmitter(std::span<const MetricSpec> declared,
                             std::string label)
    : declared_(declared), label_(std::move(label)) {}

void MetricEmitter::put(std::string_view key, MetricValue value) {
  const MetricSpec* spec = nullptr;
  for (const MetricSpec& s : declared_)
    if (s.key == key) { spec = &s; break; }
  if (spec == nullptr) {
    std::string msg = label_ + " emitted undeclared metric '" +
                      std::string(key) + "'; declared: ";
    if (declared_.empty()) msg += "(none)";
    for (std::size_t i = 0; i < declared_.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += declared_[i].key;
    }
    throw ScenarioError(msg);
  }
  if (!value.matches(spec->type))
    throw ScenarioError(label_ + " emitted metric '" + std::string(key) +
                        "' with the wrong kind (declared " +
                        metric_type_name(spec->type) + ")");
  for (const auto& [seen, unused] : out_)
    if (seen == key)
      throw ScenarioError(label_ + " emitted metric '" + std::string(key) +
                          "' twice");
  out_.emplace_back(std::string(key), std::move(value));
}

void MetricEmitter::u64(std::string_view key, std::uint64_t v) {
  put(key, MetricValue::of_u64(v));
}
void MetricEmitter::size(std::string_view key, std::size_t v) {
  put(key, MetricValue::of_u64(v));
}
void MetricEmitter::f64(std::string_view key, double v) {
  put(key, MetricValue::of_f64(v));
}
void MetricEmitter::boolean(std::string_view key, bool v) {
  put(key, MetricValue::of_bool(v));
}
void MetricEmitter::string(std::string_view key, std::string v) {
  put(key, MetricValue::of_string(std::move(v)));
}

std::vector<std::pair<std::string, MetricValue>> MetricEmitter::take() {
  return std::move(out_);
}

// ---- summary aggregation ----------------------------------------------------

SummaryStat parse_summary_stat(std::string_view text) {
  if (text == "none") return SummaryStat::kNone;
  if (text == "mean") return SummaryStat::kMean;
  if (text == "min") return SummaryStat::kMin;
  if (text == "max") return SummaryStat::kMax;
  throw ScenarioError("unknown summary '" + std::string(text) +
                      "'; accepted: none, mean, min, max");
}

const char* summary_stat_name(SummaryStat stat) {
  switch (stat) {
    case SummaryStat::kNone: return "none";
    case SummaryStat::kMean: return "mean";
    case SummaryStat::kMin: return "min";
    case SummaryStat::kMax: return "max";
  }
  return "?";
}

MetricSchema summarized_schema(const MetricSchema& schema, SummaryStat stat) {
  if (stat != SummaryStat::kMean) return schema;
  MetricSchema out;
  for (const MetricSpec& spec : schema.specs()) {
    MetricSpec s = spec;
    if (!s.run_identity &&
        (s.type == MetricType::kU64 || s.type == MetricType::kSize)) {
      // A mean of integers is fractional; keep it exact in text form.
      s.type = MetricType::kF64;
      s.f64_format = F64Format::kRoundTrip;
    }
    out.add(std::move(s));
  }
  return out;
}

RunRecord summarize_records(const MetricSchema& out_schema,
                            std::span<const RunRecord> cell, SummaryStat stat) {
  CS_ASSERT(!cell.empty(), "summarize_records: empty cell");
  CS_ASSERT(stat != SummaryStat::kNone, "summarize_records: no stat chosen");
  RunRecord agg(&out_schema);
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    // Run-identity columns (seed, rep) name single runs; an aggregated row
    // has none, so they stay absent rather than carrying a fake "mean seed".
    if (out_schema.spec(i).run_identity) continue;
    std::vector<const MetricValue*> present;
    for (const RunRecord& record : cell) {
      CS_ASSERT(record.size() == out_schema.size(),
                "summarize_records: record width mismatch");
      if (record.value(i).has_value()) present.push_back(&record.value(i));
    }
    if (present.empty()) continue;
    const bool numeric =
        std::all_of(present.begin(), present.end(),
                    [](const MetricValue* v) { return v->is_numeric(); });
    if (!numeric) {  // strings/bools: the cell's first value
      agg.set_value(i, *present.front());
      continue;
    }
    if (stat == SummaryStat::kMean) {
      double sum = 0.0;
      for (const MetricValue* v : present) sum += v->as_number();
      agg.set_value(i, MetricValue::of_f64(sum / present.size()));
      continue;
    }
    const bool all_u64 =
        std::all_of(present.begin(), present.end(),
                    [](const MetricValue* v) { return v->is_u64(); });
    if (all_u64) {
      std::uint64_t best = present.front()->as_u64();
      for (const MetricValue* v : present)
        best = stat == SummaryStat::kMin ? std::min(best, v->as_u64())
                                         : std::max(best, v->as_u64());
      agg.set_value(i, MetricValue::of_u64(best));
    } else {
      double best = present.front()->as_number();
      for (const MetricValue* v : present)
        best = stat == SummaryStat::kMin ? std::min(best, v->as_number())
                                         : std::max(best, v->as_number());
      agg.set_value(i, MetricValue::of_f64(best));
    }
  }
  return agg;
}

// ---- schema building / record filling ---------------------------------------

namespace {

/// The built-in columns: the historical CSV shape ("core") plus the run
/// diagnostics the stringly pipeline used to drop ("diagnostic").
const MetricSchema& builtin_schema() {
  static const MetricSchema& schema = *[] {
    auto* s = new MetricSchema();
    const auto core = [&](const char* key, MetricType type, const char* desc,
                          F64Format fmt = F64Format::kRoundTrip) {
      s->add({key, type, desc, "core", fmt});
    };
    const auto diag = [&](const char* key, MetricType type, const char* desc,
                          F64Format fmt = F64Format::kRoundTrip) {
      s->add({key, type, desc, "diagnostic", fmt});
    };
    core("workload", MetricType::kString,
         "workload entry that generated the hidden world");
    core("algorithm", MetricType::kString, "algorithm entry that ran");
    core("adversary", MetricType::kString,
         "adversary entry corrupting the dishonest players");
    core("n", MetricType::kSize, "players (== objects)");
    core("budget", MetricType::kSize, "reference probe budget B");
    core("diameter", MetricType::kSize,
         "planted cluster diameter / chain step");
    core("dishonest", MetricType::kSize, "number of dishonest players");
    s->add({"seed", MetricType::kU64,
            "per-run RNG seed (derived from the run index in suites)", "core",
            F64Format::kRoundTrip, /*run_identity=*/true});
    s->add({"rep", MetricType::kSize,
            "replication id within the grid cell (reps axis)", "core",
            F64Format::kRoundTrip, /*run_identity=*/true});
    core("max_err", MetricType::kSize,
         "maximum Hamming error over honest players");
    core("mean_err", MetricType::kF64,
         "mean Hamming error over honest players", F64Format::kHistorical);
    core("max_probes", MetricType::kU64,
         "most probes charged to any player");
    core("honest_max_probes", MetricType::kU64,
         "most probes charged to any honest player");
    core("total_probes", MetricType::kU64,
         "probes charged across all players");
    core("board_reports", MetricType::kU64,
         "bulletin-board report messages (communication cost)");
    core("err_over_opt", MetricType::kF64,
         "worst error over the empirical OPT radius (0 when OPT is skipped)",
         F64Format::kHistorical);
    core("status", MetricType::kString,
         "run completion status: ok, failed, timeout, or skipped");
    core("error", MetricType::kString,
         "error that exhausted the run's retries (absent for ok runs)");
    core("wall_s", MetricType::kF64,
         "wall-clock seconds for the run (non-deterministic)",
         F64Format::kHistorical);

    diag("honest_players", MetricType::kSize,
         "honest players scored by the error metrics");
    diag("board_vectors", MetricType::kU64,
         "preference vectors published to the bulletin board");
    diag("planted_diameter", MetricType::kSize,
         "true intra-cluster diameter of the generated world");
    diag("honest_leader_reps", MetricType::kSize,
         "robust runs: outer repetitions led by an honest leader (absent "
         "for algorithms without elections)");
    diag("easy_case", MetricType::kBool,
         "whether the easy-case direct-probing path ran");
    diag("iterations", MetricType::kSize,
         "protocol iterations (diameter guesses) executed");
    diag("clusters_last", MetricType::kSize,
         "clusters found by the final iteration");
    diag("min_cluster", MetricType::kSize,
         "smallest nonempty cluster observed across iterations (0: none)");
    diag("cluster_leftovers", MetricType::kSize,
         "players left unclustered, summed over iterations");
    diag("cluster_orphans", MetricType::kSize,
         "orphaned players reassigned after peeling, summed over iterations");
    diag("sr_overflow", MetricType::kSize,
         "SmallRadius candidate-set overflows, summed over iterations");
    diag("opt_max_radius", MetricType::kSize,
         "empirical OPT bracket: max radius (absent when OPT is skipped)");
    diag("opt_mean_radius", MetricType::kF64,
         "empirical OPT bracket: mean radius (absent when OPT is skipped)");
    return s;
  }();
  return schema;
}

/// Appends one entry's declared metrics to `schema`, stamping the origin.
/// Across entries the same key may be re-declared with the same type (the
/// first declaration's spec wins); a type conflict throws.
void add_entry_metrics(MetricSchema& schema, const char* kind,
                       const std::string& name,
                       std::span<const MetricSpec> metrics) {
  for (const MetricSpec& spec : metrics) {
    if (const MetricSpec* existing = schema.find(spec.key)) {
      if (existing->type != spec.type)
        throw ScenarioError("metric '" + spec.key + "' is declared " +
                            metric_type_name(existing->type) + " by " +
                            existing->origin + " but " +
                            metric_type_name(spec.type) + " by " + kind + " '" +
                            name + "'");
      continue;
    }
    MetricSpec stamped = spec;
    stamped.origin = std::string(kind) + " '" + name + "'";
    schema.add(std::move(stamped));
  }
}

void add_scenario_entry_metrics(MetricSchema& schema, const Scenario& sc) {
  add_entry_metrics(schema, "workload", sc.workload,
                    WorkloadRegistry::instance().at(sc.workload).metrics);
  add_entry_metrics(schema, "adversary", sc.adversary,
                    AdversaryRegistry::instance().at(sc.adversary).metrics);
  add_entry_metrics(schema, "algorithm", sc.algorithm,
                    AlgorithmRegistry::instance().at(sc.algorithm).metrics);
}

}  // namespace

bool is_reserved_metric_key(const std::string& key) {
  return builtin_schema().find(key) != nullptr;
}

std::vector<std::string> parse_column_list(std::string_view text) {
  std::vector<std::string> out;
  std::string item;
  // getline never yields the segment after a trailing delimiter, so catch
  // that empty item up front like the interior ones.
  if (!text.empty() && text.back() == ',')
    throw ScenarioError("column list '" + std::string(text) +
                        "' has an empty item");
  std::stringstream in{std::string(text)};
  while (std::getline(in, item, ',')) {
    const std::size_t first = item.find_first_not_of(" \t");
    const std::size_t last = item.find_last_not_of(" \t");
    if (first == std::string::npos)
      throw ScenarioError("column list '" + std::string(text) +
                          "' has an empty item");
    out.push_back(item.substr(first, last - first + 1));
  }
  if (out.empty())
    throw ScenarioError("column list '" + std::string(text) + "' is empty");
  return out;
}

std::vector<std::string> default_columns(bool include_wall, bool include_rep) {
  std::vector<std::string> columns{
      "workload",   "algorithm",  "adversary",    "n",
      "budget",     "diameter",   "dishonest",    "seed",
      "max_err",    "mean_err",   "max_probes",   "honest_max_probes",
      "total_probes", "board_reports", "err_over_opt", "status", "error"};
  if (include_rep) columns.insert(columns.begin() + 8, "rep");
  if (include_wall) columns.push_back("wall_s");
  return columns;
}

MetricSchema scenario_metric_schema(const Scenario& scenario) {
  MetricSchema schema = builtin_schema();
  add_scenario_entry_metrics(schema, scenario);
  return schema;
}

MetricSchema suite_metric_schema(std::span<const Scenario> scenarios) {
  MetricSchema schema = builtin_schema();
  for (const Scenario& sc : scenarios) add_scenario_entry_metrics(schema, sc);
  return schema;
}

MetricSchema suite_metric_schema(std::span<const ScenarioSpec> specs) {
  MetricSchema schema = builtin_schema();
  // Dedupe on the spelled names (aliases may resolve a representative
  // twice — harmless; add_scenario_entry_metrics unions idempotently).
  std::set<std::array<std::string_view, 3>> seen;
  for (const ScenarioSpec& spec : specs)
    if (seen.insert({spec.workload, spec.adversary, spec.algorithm}).second)
      add_scenario_entry_metrics(schema, Scenario::resolve(spec));
  return schema;
}

RunRecord make_run_record(const SuiteRun& run, const MetricSchema& schema) {
  const Scenario& sc = run.scenario;
  const ExperimentOutcome& out = run.outcome;
  RunRecord record(&schema);

  record.set_string("workload", sc.workload);
  record.set_string("algorithm", sc.algorithm);
  record.set_string("adversary", sc.adversary);
  record.set_size("n", sc.n);
  record.set_size("budget", sc.budget);
  record.set_size("diameter", sc.diameter);
  record.set_size("dishonest", sc.dishonest);
  record.set_u64("seed", sc.seed);
  record.set_size("rep", run.rep);
  record.set_string("status", run_status_name(run.status));
  if (!run.error.empty()) record.set_string("error", run.error);
  // Failure rows carry identity + status/error only: a kFailed/kTimeout run
  // has no outcome, and all-absent result cells are unambiguous in every
  // sink (empty CSV cells, JSON null, SQL NULL) where zeros would read as
  // a perfectly-scored run.
  if (run.status != RunStatus::kOk) return record;
  record.set_size("max_err", out.error.max_error);
  record.set_f64("mean_err", out.error.mean_error);
  record.set_u64("max_probes", out.max_probes);
  record.set_u64("honest_max_probes", out.honest_max_probes);
  record.set_u64("total_probes", out.total_probes);
  record.set_u64("board_reports", out.board_reports);
  record.set_f64("err_over_opt", out.approx_ratio);
  record.set_f64("wall_s", out.wall_seconds);

  record.set_size("honest_players", out.honest_players);
  record.set_u64("board_vectors", out.board_vectors);
  record.set_size("planted_diameter", out.planted_diameter);
  // Absent (not 0) for algorithms that elect no leaders, so summaries over
  // mixed sweeps don't dilute the statistic with not-applicable zeros.
  if (out.has_leader_reps)
    record.set_size("honest_leader_reps", out.honest_leader_reps);
  record.set_bool("easy_case", out.easy_case);
  record.set_size("iterations", out.iterations.size());
  std::size_t min_cluster = 0;
  std::size_t leftovers = 0;
  std::size_t orphans = 0;
  std::size_t sr_overflow = 0;
  for (const IterationInfo& info : out.iterations) {
    // An iteration that formed no clusters reports min_cluster 0; skip those
    // consistently (0 stays the "never observed a cluster" sentinel) so the
    // minimum does not depend on iteration order.
    if (info.min_cluster != 0)
      min_cluster = min_cluster == 0 ? info.min_cluster
                                     : std::min(min_cluster, info.min_cluster);
    leftovers += info.leftovers;
    orphans += info.orphans;
    sr_overflow += info.sr_candidate_overflow;
  }
  record.set_size("clusters_last",
                  out.iterations.empty() ? 0 : out.iterations.back().clusters);
  record.set_size("min_cluster", min_cluster);
  record.set_size("cluster_leftovers", leftovers);
  record.set_size("cluster_orphans", orphans);
  record.set_size("sr_overflow", sr_overflow);
  if (!out.opt.radius.empty()) {
    record.set_size("opt_max_radius", out.opt.max_radius);
    record.set_f64("opt_mean_radius", out.opt.mean_radius);
  }

  // Entry-published values last. A suite schema is the union over its cells'
  // entries, so keys another cell declared simply stay absent here.
  for (const auto& [key, value] : out.entry_metrics)
    if (schema.find(key) != nullptr) record.set(key, value);
  return record;
}

}  // namespace colscore
