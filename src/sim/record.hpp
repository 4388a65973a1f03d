// Typed metric schema + structured run records: the one place run results
// become columns.
//
// A `MetricSchema` is an ordered list of `MetricSpec`s — key, value type
// (u64/f64/size/string/bool), description, and the origin that declared it
// ("core", "diagnostic", or a registry entry like "adversary 'sleeper'").
// A `RunRecord` holds one run's typed values against a schema; every sink
// (CSV, JSONL, sqlite) consumes the schema + record directly, so numeric
// columns stay numeric end-to-end (sqlite INTEGER/REAL affinities, native
// JSON numbers) and text rendering happens in exactly one place
// (`RunRecord::cell_text` / `format_metric_double`).
//
// The core columns — the historical 15-column CSV shape plus `rep` and
// `wall_s` — are built-ins; run diagnostics the old string pipeline dropped
// (board_vectors, honest_players, planted_diameter, per-iteration cluster
// stats, ...) are declared optional metrics; and registry entries declare
// their own metrics at registration and publish values through an emit hook
// (see registry.hpp). Column selection (`--columns` / a suite file's
// "columns") and per-cell summary aggregation over reps are expressed here
// once and inherited by every sink (see RecordStream in sink.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace colscore {

struct Scenario;      // registry.hpp
struct ScenarioSpec;  // registry.hpp
struct SuiteRun;      // suite.hpp

/// Thrown for unknown names, malformed specs, bad override values, and
/// schema/column errors. The message always names the offending token and
/// lists the accepted ones. (Defined here, at the bottom of the sim layer,
/// so the schema machinery and the registries share one error type.)
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- metric specs -----------------------------------------------------------

/// Value type of a metric column.
enum class MetricType { kU64, kF64, kSize, kString, kBool };

/// "u64", "f64", "size", "string", "bool" — for --list-columns and errors.
const char* metric_type_name(MetricType type);

/// Float -> text policy. The golden CSV columns (mean_err, err_over_opt,
/// wall_s) pin the seed CLI's default-precision ostream formatting so the
/// determinism goldens stay byte-identical; everything new uses the shortest
/// round-trip spelling so a value survives a text round-trip exactly.
enum class F64Format { kRoundTrip, kHistorical };

/// The single float->text path for every sink and column (satellite: no more
/// per-call-site default-precision ostringstreams).
std::string format_metric_double(double v,
                                 F64Format format = F64Format::kRoundTrip);

/// One declared metric column.
struct MetricSpec {
  std::string key;
  MetricType type = MetricType::kString;
  std::string description;
  /// Who declared it: "core", "diagnostic", or "<kind> '<entry>'".
  std::string origin = "core";
  /// Text rendering for kF64 columns (ignored otherwise).
  F64Format f64_format = F64Format::kRoundTrip;
  /// Identifies a single run (seed, rep): a summary row aggregates a cell's
  /// runs, so these stay absent there — a mean of seeds names no run.
  bool run_identity = false;
};

// ---- metric values ----------------------------------------------------------

/// One typed metric value. Default-constructed = absent (the run never
/// produced the metric): sinks render absence as an empty CSV cell, JSON
/// null, or SQL NULL. kSize values are stored as u64.
class MetricValue {
 public:
  MetricValue() = default;

  static MetricValue of_u64(std::uint64_t v);
  static MetricValue of_f64(double v);
  static MetricValue of_bool(bool v);
  static MetricValue of_string(std::string v);

  bool has_value() const { return !std::holds_alternative<std::monostate>(v_); }
  bool is_u64() const { return std::holds_alternative<std::uint64_t>(v_); }
  bool is_f64() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  /// u64 or f64 — the kinds summary aggregation applies to.
  bool is_numeric() const { return is_u64() || is_f64(); }

  std::uint64_t as_u64() const;
  double as_f64() const;
  bool as_bool() const;
  const std::string& as_string() const;
  /// Numeric view for aggregation (u64 widens to double).
  double as_number() const;

  /// True when this value's kind is storable under `type` (absent values
  /// match every type).
  bool matches(MetricType type) const;

 private:
  std::variant<std::monostate, std::uint64_t, double, bool, std::string> v_;
};

// ---- the schema -------------------------------------------------------------

/// Ordered, key-unique list of metric specs. Copyable; lookups are O(log n)
/// through a side index.
class MetricSchema {
 public:
  MetricSchema() = default;

  /// Appends a spec; throws ScenarioError on an empty or duplicate key.
  void add(MetricSpec spec);

  std::size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }
  const MetricSpec& spec(std::size_t i) const { return specs_[i]; }
  std::span<const MetricSpec> specs() const { return specs_; }

  /// Spec for `key`, nullptr when absent.
  const MetricSpec* find(std::string_view key) const;

  /// Column index of `key`; throws ScenarioError("unknown column 'key';
  /// available: ...") listing every schema key.
  std::size_t index_of(std::string_view key) const;

  /// Keys in column order.
  std::vector<std::string> keys() const;

  /// Projection: the sub-schema holding `keys` in the given order. Unknown
  /// keys throw the index_of error; a repeated key throws naming it.
  MetricSchema select(std::span<const std::string> keys) const;

 private:
  std::vector<MetricSpec> specs_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

// ---- run records ------------------------------------------------------------

/// One run's typed values against a schema. The schema must outlive the
/// record (records are cheap rows; schemas are the long-lived shape).
class RunRecord {
 public:
  explicit RunRecord(const MetricSchema* schema);

  const MetricSchema& schema() const { return *schema_; }
  std::size_t size() const { return values_.size(); }

  /// Setters type-check against the spec and throw ScenarioError on
  /// mismatch (e.g. a string stored under a u64 column).
  void set_value(std::size_t i, MetricValue value);
  void set(std::string_view key, MetricValue value);
  void set_u64(std::string_view key, std::uint64_t v);
  void set_size(std::string_view key, std::size_t v);
  void set_f64(std::string_view key, double v);
  void set_bool(std::string_view key, bool v);
  void set_string(std::string_view key, std::string v);

  const MetricValue& value(std::size_t i) const { return values_[i]; }
  const MetricValue& value(std::string_view key) const;

  /// Canonical text for column i: strings verbatim, u64/size in decimal,
  /// bools as "1"/"0", f64 via format_metric_double with the spec's policy,
  /// absent as "". Every text sink renders through this one path.
  std::string cell_text(std::size_t i) const;
  std::vector<std::string> cells() const;

 private:
  const MetricSchema* schema_;
  std::vector<MetricValue> values_;
};

/// The inverse of RunRecord::cell_text for a present cell: decodes `text` as
/// a value of `type` (decimal u64/size, any f64 spelling the formatter emits
/// including "nan"/"inf"/"-inf", bools "1"/"0", strings verbatim). nullopt
/// when `text` is not a valid spelling of that type.
std::optional<MetricValue> parse_metric_cell(std::string_view text,
                                             MetricType type);

// ---- entry-published metrics ------------------------------------------------

/// Collects the values a registry entry's emit hook publishes, validating
/// each key against the entry's declared metric specs. `label` names the
/// entry in errors ("adversary 'sleeper'").
class MetricEmitter {
 public:
  MetricEmitter(std::span<const MetricSpec> declared, std::string label);

  void u64(std::string_view key, std::uint64_t v);
  void size(std::string_view key, std::size_t v);
  void f64(std::string_view key, double v);
  void boolean(std::string_view key, bool v);
  void string(std::string_view key, std::string v);

  /// The emitted (key, value) pairs, in emit order.
  std::vector<std::pair<std::string, MetricValue>> take();

 private:
  void put(std::string_view key, MetricValue value);

  std::span<const MetricSpec> declared_;
  std::string label_;
  std::vector<std::pair<std::string, MetricValue>> out_;
};

// ---- summary aggregation ----------------------------------------------------

/// Per-cell aggregation over a cell's `reps` adjacent runs: numeric columns
/// (u64/size/f64) aggregate; string/bool columns keep the first run's value
/// (for the spec-derived columns they are identical across a cell anyway);
/// run-identity columns (seed, rep) stay absent — they name single runs.
enum class SummaryStat { kNone, kMean, kMin, kMax };

/// Parses "none"/"mean"/"min"/"max"; throws ScenarioError listing them.
SummaryStat parse_summary_stat(std::string_view text);
const char* summary_stat_name(SummaryStat stat);

/// The schema of summarized rows: kMean widens u64/size columns to f64
/// (round-trip formatted); kMin/kMax keep every type.
MetricSchema summarized_schema(const MetricSchema& schema, SummaryStat stat);

/// Aggregates one cell's records (all on the pre-summary schema) into one
/// record on `out_schema` (= summarized_schema of theirs). Columns absent in
/// every input stay absent.
RunRecord summarize_records(const MetricSchema& out_schema,
                            std::span<const RunRecord> cell, SummaryStat stat);

// ---- schema building / record filling ---------------------------------------

/// True for the built-in core + diagnostic column keys. Registry entries may
/// not shadow these in their metric declarations.
bool is_reserved_metric_key(const std::string& key);

/// Splits "a,b,c" into column keys; throws ScenarioError on empty items.
std::vector<std::string> parse_column_list(std::string_view text);

/// The historical CSV column selection: the 15 golden columns plus
/// `status`/`error` (fault tolerance made run failure a first-class row),
/// `rep` after `seed` when replication is in play, `wall_s` last when
/// requested.
std::vector<std::string> default_columns(bool include_wall = false,
                                         bool include_rep = false);

/// Core + diagnostic columns plus the metrics declared by the resolved
/// entries of `scenario` (origins name the declaring entries).
MetricSchema scenario_metric_schema(const Scenario& scenario);

/// Schema for a whole suite: core + diagnostics + the union of every
/// scenario's entry-declared metrics, in first-seen order. Two entries may
/// declare the same key with the same type (the first declaration's spec
/// wins); conflicting types throw.
MetricSchema suite_metric_schema(std::span<const Scenario> scenarios);

/// Same union built straight from specs: the schema depends only on the
/// (workload, adversary, algorithm) triples, so this resolves one
/// representative per distinct triple — O(distinct triples), not O(cells),
/// for big grids. Resolution errors surface like Scenario::resolve.
MetricSchema suite_metric_schema(std::span<const ScenarioSpec> specs);

/// Fills a typed record for `run`: built-ins and diagnostics from the
/// scenario/outcome, then the run's entry-emitted metrics. Schema keys the
/// run does not produce stay absent (e.g. another cell's entry metrics, or
/// opt_* when OPT was skipped). Runs that did not complete ok carry only
/// the identity columns plus `status`/`error` — every result cell stays
/// absent so a failure row can never be mistaken for a perfect score.
RunRecord make_run_record(const SuiteRun& run, const MetricSchema& schema);

}  // namespace colscore
