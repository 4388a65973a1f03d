// The scenario registry: the open, string-keyed experiment surface.
//
// Every experiment is a (workload, adversary, algorithm) triple plus numeric
// knobs. Each of the three dimensions is a registry mapping a name to a
// factory, a one-line description, and optional default overrides — so a new
// workload, attack, or algorithm is added by *registration*, never by editing
// an enum or a switch statement:
//
//   WorkloadRegistry::instance().add("ring", {
//       "ring of overlapping taste groups",
//       [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
//         return make_ring(sc.n, rng);
//       }});
//
// A `ScenarioSpec` is the declarative form ("workload=planted n=512
// dishonest=20"): three names plus key=value overrides, round-trippable
// through parse()/to_string(). `Scenario::resolve()` validates the names,
// applies registered defaults then user overrides, and yields the numeric
// config that `run_scenario()` executes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/board/bulletin_board.hpp"
#include "src/board/probe_oracle.hpp"
#include "src/common/exec_policy.hpp"
#include "src/core/params.hpp"
#include "src/core/result.hpp"
#include "src/metrics/error.hpp"
#include "src/metrics/optimal.hpp"
#include "src/model/generators.hpp"
#include "src/model/population.hpp"
#include "src/sim/record.hpp"  // MetricSpec/MetricValue/MetricEmitter + ScenarioError

namespace colscore {

struct Scenario;

/// Declarative scenario description: registry names plus key=value overrides.
/// `parse(to_string(spec)) == spec` for every spec.
struct ScenarioSpec {
  std::string workload = "planted";
  std::string adversary = "none";
  std::string algorithm = "calculate_preferences";
  /// Override keys are validated at resolve() time (see Scenario) so specs
  /// can carry keys for entries registered later.
  std::map<std::string, std::string, std::less<>> overrides;

  ScenarioSpec& set(std::string key, std::string value);

  /// Parses "workload=planted adversary=sleeper n=512 dishonest=20"
  /// (whitespace-separated key=value tokens, in any order) onto `base`
  /// (default: a default spec): keys the text does not mention keep base's
  /// values. Throws ScenarioError on malformed tokens.
  static ScenarioSpec parse(std::string_view text, ScenarioSpec base);
  static ScenarioSpec parse(std::string_view text);
  std::string to_string() const;

  bool operator==(const ScenarioSpec&) const = default;
};

/// Resolved, ready-to-run scenario: the numeric configuration after registry
/// defaults and spec overrides are applied. A directly-constructed Scenario
/// skips the registered defaults: it runs exactly the fields it sets.
struct Scenario {
  std::string workload = "planted";
  std::string adversary = "none";
  std::string algorithm = "calculate_preferences";

  std::size_t n = 256;
  std::size_t budget = 8;
  std::uint64_t seed = 1;
  /// Planted intra-cluster diameter (or chain step for chained workloads).
  std::size_t diameter = 16;
  /// 0 = derive: budget clusters of size ~n/budget (chained: 2*budget links).
  std::size_t n_clusters = 0;
  bool zipf_sizes = false;
  /// Number of dishonest players (paper tolerance: n/(3B)).
  std::size_t dishonest = 0;
  std::size_t robust_outer_reps = 3;
  /// Compute the O(n^2) empirical OPT radius (skip for large sweeps).
  bool compute_opt = true;
  bool paper_params = false;
  Params params;  // params.budget is synced to `budget` at run time

  /// Entry-specific overrides (keys declared in the resolved entries' param
  /// schemas), validated and stored verbatim at resolve time. Factories read
  /// them through the typed getters below.
  std::map<std::string, std::string, std::less<>> extra;

  std::size_t extra_size(std::string_view key, std::size_t dflt) const;
  std::uint64_t extra_u64(std::string_view key, std::uint64_t dflt) const;
  double extra_double(std::string_view key, double dflt) const;
  bool extra_bool(std::string_view key, bool dflt) const;
  std::string extra_string(std::string_view key, std::string dflt) const;

  /// Validates the three names against the registries (aliases accepted,
  /// stored canonically) and applies, in order: workload defaults, adversary
  /// defaults, algorithm defaults, then spec.overrides. Override keys must be
  /// built-in (scenario_override_keys) or declared in one of the resolved
  /// entries' param schemas; schema-typed values are validated here, and the
  /// error names the owning entry and the offending key. Unknown names or
  /// override keys throw ScenarioError listing the accepted ones.
  static Scenario resolve(const ScenarioSpec& spec);

  /// The spec that resolves back to this scenario (canonical names, every
  /// non-default knob spelled out).
  ScenarioSpec to_spec() const;
};

/// The override keys accepted by Scenario::resolve, for error messages and
/// docs: n, budget, seed, diameter, clusters, dishonest, reps, zipf, opt,
/// paper_params, plus the Params fields (sample_rate_c, vote_c, ...).
std::vector<std::string> scenario_override_keys();

/// True for the built-in override keys above (core scenario knobs + Params
/// fields). Registry entries may not shadow these in their schemas.
bool is_reserved_override_key(const std::string& key);

/// Validates `value` for a reserved override key (same typed parsing that
/// Scenario::resolve performs). Throws ScenarioError on mismatch.
void validate_reserved_override(const std::string& key, const std::string& value);

// ---- param schemas ----------------------------------------------------------

/// Value type of a schema-declared override.
enum class ParamType { kSize, kU64, kDouble, kBool, kString };

/// One entry-specific override key, declared at registration time. Values are
/// type-checked during Scenario::resolve and land in Scenario::extra; the
/// factory reads them back through the typed Scenario::extra_* getters.
struct ParamSpec {
  std::string key;
  ParamType type = ParamType::kString;
  std::string description;
};

/// Human name for `type` ("an unsigned integer", "a number", ...) — used in
/// the documented validation error strings.
const char* param_type_name(ParamType type);

/// Throws ScenarioError("override 'key=value': expected <type>") unless
/// `value` parses as `spec.type`.
void validate_param_value(const ParamSpec& spec, const std::string& value);

// ---- registry entries -------------------------------------------------------

struct ExperimentOutcome;

/// Everything an entry's metric emit hook can read when publishing values
/// after a run. Valid only for the duration of the hook call; `outcome` is
/// fully built except for `entry_metrics` (being collected) and
/// `wall_seconds` (stamped last).
struct MetricContext {
  const Scenario& scenario;
  const World& world;
  const Population& population;
  const ProbeOracle& oracle;
  const BulletinBoard& board;
  const ProtocolResult& result;
  const ExperimentOutcome& outcome;
};

/// Called once per completed run; values land in
/// ExperimentOutcome::entry_metrics and flow to every sink through the
/// metric schema (src/sim/record.hpp). Keys must be declared in the entry's
/// `metrics` list.
using MetricEmitFn = std::function<void(const MetricContext&, MetricEmitter&)>;

struct WorkloadEntry {
  std::string description;
  /// Builds the hidden world. `rng` is pre-seeded from the scenario seed;
  /// `policy` is the run's execution policy — generators whose construction
  /// itself runs parallel maintenance loops (the churn family's epoch
  /// streaming) spell them policy.par_for, everything else ignores it.
  std::function<World(const Scenario&, Rng&, const ExecPolicy&)> make;
  /// Default spec overrides applied before the user's (user wins).
  std::vector<std::pair<std::string, std::string>> defaults = {};
  /// Entry-specific override keys (typed; validated at resolve time).
  std::vector<ParamSpec> schema = {};
  /// Entry-specific result metrics (declared here; reserved keys — the
  /// built-in/diagnostic columns — are rejected at registration).
  std::vector<MetricSpec> metrics = {};
  /// Publishes the declared metrics after a run; null = nothing to publish.
  MetricEmitFn emit_metrics = nullptr;
};

struct AdversaryEntry {
  std::string description;
  /// Creates one dishonest player's behaviour. `victim` is the stable honest
  /// target (player 0, protected from corruption). Null = no corruption
  /// (the "none" entry).
  std::function<std::unique_ptr<Behavior>(const Scenario&, const World&,
                                          PlayerId victim)>
      make;
  std::vector<std::pair<std::string, std::string>> defaults = {};
  std::vector<ParamSpec> schema = {};
  std::vector<MetricSpec> metrics = {};
  MetricEmitFn emit_metrics = nullptr;
};

/// Everything an algorithm needs to run one scenario.
struct AlgorithmContext {
  const Scenario& scenario;
  const World& world;
  ProbeOracle& oracle;
  BulletinBoard& board;
  const Population& population;
  /// scenario.params with params.budget synced to scenario.budget.
  const Params& params;
  /// Execution policy for the run's parallel loops (run_scenario's).
  const ExecPolicy& policy;
};

struct AlgorithmOutput {
  ProtocolResult result;
  std::size_t honest_leader_reps = 0;  // robust-style algorithms only
  /// True when the algorithm actually elects leaders — lets the
  /// honest_leader_reps column stay absent (not a misleading 0) for
  /// algorithms the statistic does not apply to.
  bool reports_leader_reps = false;
};

struct AlgorithmEntry {
  std::string description;
  std::function<AlgorithmOutput(const AlgorithmContext&)> run;
  std::vector<std::pair<std::string, std::string>> defaults = {};
  std::vector<ParamSpec> schema = {};
  std::vector<MetricSpec> metrics = {};
  MetricEmitFn emit_metrics = nullptr;
};

// ---- registries -------------------------------------------------------------

/// Name -> entry map with alias support. Thread-safe for concurrent lookup;
/// registration is expected at startup (static init or main) but is also
/// guarded. `at()` returns a stable reference (node-based storage).
template <typename Entry>
class Registry {
 public:
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers a new entry. Names are lowercase identifiers. Throws
  /// ScenarioError if `name` (or an alias spelled `name`) is already
  /// registered — accidental double registration silently dropping an entry
  /// is the failure mode this guards against; use replace() to overwrite on
  /// purpose. Entries with defaults/schemas are validated here so a bad
  /// registration fails at startup, not mid-sweep.
  void add(std::string name, Entry entry) {
    validate_name(name);
    validate_entry(name, entry);
    std::lock_guard lock(mutex_);
    if (entries_.contains(name) || aliases_.contains(name))
      throw ScenarioError(kind_ + " '" + name +
                          "' is already registered (use replace() to "
                          "overwrite an existing entry)");
    entries_[std::move(name)] = std::move(entry);
  }

  /// Registers `entry` under `name`, overwriting any existing entry.
  void replace(std::string name, Entry entry) {
    validate_name(name);
    validate_entry(name, entry);
    std::lock_guard lock(mutex_);
    aliases_.erase(name);
    entries_[std::move(name)] = std::move(entry);
  }

  /// Registers `name` as an alternative spelling of `target`.
  void alias(std::string name, std::string target) {
    validate_name(name);
    std::lock_guard lock(mutex_);
    if (!entries_.contains(target))
      throw ScenarioError(kind_ + " alias '" + name + "' targets unknown '" +
                          target + "'");
    aliases_[std::move(name)] = std::move(target);
  }

  bool contains(std::string_view name) const {
    std::lock_guard lock(mutex_);
    return entries_.find(name) != entries_.end() ||
           aliases_.find(name) != aliases_.end();
  }

  /// Canonical name for `name` (resolving aliases); throws if unknown.
  std::string canonical(std::string_view name) const {
    std::lock_guard lock(mutex_);
    if (auto a = aliases_.find(name); a != aliases_.end()) return a->second;
    if (entries_.find(name) != entries_.end()) return std::string(name);
    throw unknown(name);
  }

  /// Entry for `name` (aliases resolved); throws a ScenarioError naming the
  /// registered alternatives if unknown.
  const Entry& at(std::string_view name) const {
    std::lock_guard lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      if (auto a = aliases_.find(name); a != aliases_.end())
        it = entries_.find(a->second);
    }
    if (it == entries_.end()) throw unknown(name);
    return it->second;
  }

  /// Canonical names, sorted.
  std::vector<std::string> names() const {
    std::lock_guard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;
  }

  /// (name, description) pairs, sorted by name — for --list-* output.
  std::vector<std::pair<std::string, std::string>> descriptions() const {
    std::lock_guard lock(mutex_);
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_)
      out.emplace_back(name, entry.description);
    return out;
  }

 private:
  ScenarioError unknown(std::string_view name) const {
    std::string msg = "unknown " + kind_ + " '" + std::string(name) +
                      "'; registered: ";
    bool first = true;
    for (const auto& [known, entry] : entries_) {
      if (!first) msg += ", ";
      msg += known;
      first = false;
    }
    return ScenarioError(msg);
  }

  void validate_name(const std::string& name) const {
    if (name.empty()) throw ScenarioError(kind_ + " name must not be empty");
    for (char c : name)
      if (c == '=' || c == ',' || c == ' ' || c == '\t' || c == '\n')
        throw ScenarioError(kind_ + " name '" + name +
                            "' must not contain '=', ',' or whitespace");
  }

  /// Registration-time checks for entries that declare schemas/defaults:
  /// schema keys must not shadow built-in override keys or repeat, and every
  /// default must be a built-in key or a schema key with a value that parses
  /// as its declared type. Metric declarations get the analogous checks
  /// against the built-in columns. Entry types without those members (e.g.
  /// sinks) skip this.
  void validate_entry(const std::string& name, const Entry& entry) const {
    if constexpr (requires { entry.metrics; }) {
      for (std::size_t i = 0; i < entry.metrics.size(); ++i) {
        const MetricSpec& spec = entry.metrics[i];
        if (spec.key.empty())
          throw ScenarioError(kind_ + " '" + name +
                              "': metric key must not be empty");
        if (is_reserved_metric_key(spec.key))
          throw ScenarioError(kind_ + " '" + name + "': metric key '" +
                              spec.key +
                              "' shadows a built-in result column");
        for (std::size_t j = 0; j < i; ++j)
          if (entry.metrics[j].key == spec.key)
            throw ScenarioError(kind_ + " '" + name +
                                "': metric '" + spec.key +
                                "' is declared twice");
      }
      if (entry.emit_metrics && entry.metrics.empty())
        throw ScenarioError(kind_ + " '" + name +
                            "': emit_metrics set but no metrics declared");
    }
    if constexpr (requires { entry.schema; entry.defaults; }) {
      for (std::size_t i = 0; i < entry.schema.size(); ++i) {
        const ParamSpec& spec = entry.schema[i];
        if (spec.key.empty())
          throw ScenarioError(kind_ + " '" + name +
                              "': schema key must not be empty");
        if (is_reserved_override_key(spec.key))
          throw ScenarioError(kind_ + " '" + name + "': schema key '" +
                              spec.key +
                              "' shadows a built-in override key");
        for (std::size_t j = 0; j < i; ++j)
          if (entry.schema[j].key == spec.key)
            throw ScenarioError(kind_ + " '" + name +
                                "': schema declares key '" + spec.key +
                                "' twice");
      }
      for (const auto& [key, value] : entry.defaults) {
        const ParamSpec* spec = nullptr;
        for (const ParamSpec& s : entry.schema)
          if (s.key == key) { spec = &s; break; }
        try {
          if (spec != nullptr) validate_param_value(*spec, value);
          else if (is_reserved_override_key(key))
            validate_reserved_override(key, value);
          else
            throw ScenarioError("default override '" + key +
                                "' is neither a built-in override key nor "
                                "declared in the entry's schema");
        } catch (const ScenarioError& e) {
          throw ScenarioError(kind_ + " '" + name + "': " + e.what());
        }
      }
    }
  }

  std::string kind_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::map<std::string, std::string, std::less<>> aliases_;
};

/// The three singleton registries. First use registers the built-in entries
/// (every legacy enum value plus its historical CLI aliases).
class WorkloadRegistry : public Registry<WorkloadEntry> {
 public:
  static WorkloadRegistry& instance();

 private:
  WorkloadRegistry() : Registry("workload") {}
};

class AdversaryRegistry : public Registry<AdversaryEntry> {
 public:
  static AdversaryRegistry& instance();

 private:
  AdversaryRegistry() : Registry("adversary") {}
};

class AlgorithmRegistry : public Registry<AlgorithmEntry> {
 public:
  static AlgorithmRegistry& instance();

 private:
  AlgorithmRegistry() : Registry("algorithm") {}
};

// ---- execution --------------------------------------------------------------

struct ExperimentOutcome {
  ErrorStats error;          // over honest players
  OptEstimate opt;           // empirical Definition-1 bracket (if computed)
  double approx_ratio = 0.0; // worst error / opt radius (if computed)
  std::uint64_t max_probes = 0;
  std::uint64_t total_probes = 0;
  std::uint64_t honest_max_probes = 0;
  std::size_t honest_players = 0;
  /// Bulletin-board traffic (§8 communication-cost accounting).
  std::uint64_t board_reports = 0;
  std::uint64_t board_vectors = 0;
  std::size_t planted_diameter = 0;
  std::size_t honest_leader_reps = 0;  // robust runs only
  bool has_leader_reps = false;        // honest_leader_reps applies
  bool easy_case = false;              // direct-probing path ran
  double wall_seconds = 0.0;
  std::vector<IterationInfo> iterations;
  /// Values published by the run's entries' emit hooks (declared keys only);
  /// the schema layer (make_run_record) routes them into every sink.
  std::vector<std::pair<std::string, MetricValue>> entry_metrics;
};

/// Builds the world for `scenario` (deterministic in scenario.seed — also
/// across policies: workload factories are schedule-independent). The
/// one-argument form runs under the process-default policy.
World build_scenario_world(const Scenario& scenario, const ExecPolicy& policy);
World build_scenario_world(const Scenario& scenario);

/// Installs the scenario's adversaries into a fresh population.
Population build_scenario_population(const Scenario& scenario, const World& world);

/// Runs one scenario end-to-end: world, population, algorithm, metrics.
/// Every parallel loop in the run (protocols, metrics) executes under
/// `policy`, and the calling thread is bound to one of the policy's
/// workspace slots for the duration. The one-argument form runs under the
/// process-default policy.
ExperimentOutcome run_scenario(const Scenario& scenario,
                               const ExecPolicy& policy);
ExperimentOutcome run_scenario(const Scenario& scenario);

}  // namespace colscore
