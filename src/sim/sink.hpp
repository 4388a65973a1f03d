// Pluggable result sinks: where suite rows land.
//
// SuiteRunner streams completed runs in run-index order; a ResultSink turns
// that stream into a persistent artifact. Since PR 5 the stream is *typed*:
// begin() receives the MetricSchema and write() a RunRecord, so numeric
// columns stay numeric end-to-end — the sqlite `runs` table gets
// INTEGER/REAL column affinities, JSONL emits native JSON numbers, and all
// text rendering goes through the one shared path
// (RunRecord::cell_text / format_metric_double), never per sink. A
// fixed-seed suite therefore lands the same *values* in every sink by
// construction, and the same bytes wherever the representation is text.
//
// Sinks are a registry like workloads/adversaries/algorithms: registering a
// name and a factory is the whole integration (`colscore_cli --sink NAME`
// and suite files' "sink" key look names up here). Each entry also owns its
// artifact format in the other direction: its reader decodes what the sink
// wrote back into typed rows, which is how --resume picks up a prior run.
// The sqlite sink links the system sqlite3 library and is compiled out —
// absent from the registry, not stubbed — when the toolchain lacks it
// (COLSCORE_HAVE_SQLITE).
//
// Column selection (--columns / a suite file's "columns") and per-cell
// summary aggregation over reps are applied *in front of* the sink by
// RecordStream, so every sink inherits them for free.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/csv.hpp"
#include "src/sim/record.hpp"
#include "src/sim/registry.hpp"

extern "C" {
struct sqlite3;
struct sqlite3_stmt;
}

namespace colscore {

/// Streaming consumer of suite rows. Lifecycle: begin(schema) once, then
/// write() per row (in run-index order — SuiteRunner guarantees it), then
/// finish() once. Rows' records must be shaped like the begin() schema
/// (RecordStream guarantees it).
///
/// Durability / partial-output contract (crash tolerance):
///  - A file sink writes to `PATH.tmp` and atomically renames it to PATH in
///    finish(). PATH therefore only ever holds a *complete* artifact; a
///    crashed or aborted suite leaves PATH.tmp behind instead.
///  - Rows become durable on a fixed cadence: text sinks flush the stream
///    after every row, sqlite commits a transaction every 64 rows. After a
///    crash, PATH.tmp holds every row durable at the last cadence point — in
///    run order with no gaps — and `--resume` accepts PATH or PATH.tmp.
///  - finish() is the explicit success path; call it to observe errors.
///    Destructors without finish() are the *abort* path: they release
///    resources but do not rename, so a failed suite never clobbers a
///    previous complete artifact.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void begin(const MetricSchema& schema) = 0;
  virtual void write(const RunRecord& record) = 0;
  virtual void finish() {}

  std::size_t rows_written() const noexcept { return rows_; }

 protected:
  std::size_t rows_ = 0;
};

/// How a sink factory gets its destination. `stream` (when set) wins over
/// `path`; an empty path means stdout for text sinks and is an error for
/// file-only sinks (sqlite).
struct SinkConfig {
  std::string path;
  std::ostream* stream = nullptr;
};

// ---- selection + summary ----------------------------------------------------

/// The schema-driven plumbing every sink inherits: projects each full
/// RunRecord onto the selected columns, optionally aggregates each grid
/// cell's `reps` adjacent rows into one summary row (mean/min/max of the
/// numeric metrics; first value for strings/bools), and streams the result
/// into the sink. Construction validates the selection against the schema
/// and calls sink.begin() with the output schema; finish() forwards to
/// sink.finish().
class RecordStream {
 public:
  struct Options {
    SummaryStat summary = SummaryStat::kNone;
    /// Rows per summary cell (the suite's reps). Ignored without a summary
    /// stat; the run count must be a multiple of it.
    std::size_t reps = 1;
  };

  RecordStream(ResultSink& sink, const MetricSchema& schema,
               std::span<const std::string> columns, Options options);
  RecordStream(ResultSink& sink, const MetricSchema& schema,
               std::span<const std::string> columns)
      : RecordStream(sink, schema, columns, Options{}) {}

  /// `record` must be on (or shaped like) the full schema passed to the
  /// constructor.
  void write(const RunRecord& record);
  void finish();

 private:
  ResultSink& sink_;
  MetricSchema selected_;  // projection of the full schema, column order
  MetricSchema out_;       // selected_, summarized when a stat is chosen
  std::vector<std::size_t> map_;  // selected index -> full-schema index
  SummaryStat summary_;
  std::size_t reps_;
  std::vector<RunRecord> cell_;  // rows buffered toward one summary row
};

// ---- built-in sinks ---------------------------------------------------------

/// The historical CSV output (CsvWriter underneath): header row, then one
/// comma-separated row per run, cells via RunRecord::cell_text.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(const SinkConfig& config);

  void begin(const MetricSchema& schema) override;
  void write(const RunRecord& record) override;
  void finish() override;

 private:
  std::ofstream file_;
  std::ostream* out_;
  std::string tmp_path_;    // rename tmp_path_ -> final_path_ in finish()
  std::string final_path_;  // empty: stream/stdout, nothing to rename
  std::optional<CsvWriter> writer_;
};

/// JSON Lines: one object per run, keys = column names, values typed —
/// native JSON numbers for u64/size and finite f64 (spelled exactly like
/// the CSV cell), true/false for bools, strings quoted, absent metrics
/// null. Non-finite doubles have no JSON number spelling and are emitted as
/// quoted strings ("nan", "inf", "-inf"). No header line.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(const SinkConfig& config);

  void begin(const MetricSchema& schema) override;
  void write(const RunRecord& record) override;
  void finish() override;

 private:
  std::ofstream file_;
  std::ostream* out_;
  std::string tmp_path_;
  std::string final_path_;
  MetricSchema schema_;
};

#if defined(COLSCORE_HAVE_SQLITE)
/// Sqlite database with a single `runs` table whose columns mirror the
/// schema with real affinities: INTEGER for u64/size/bool, REAL for f64,
/// TEXT for strings; absent metrics are NULL. u64 values are stored as
/// sqlite's signed 64-bit integers (two's-complement bit pattern), so a
/// value >= 2^63 reads back exactly via a cast of sqlite3_column_int64 but
/// *prints* negative in raw SQL. REAL storage has two gaps: sqlite stores a
/// NaN as NULL (so SQL aggregates skip it, and it reads back absent), and
/// it drops the sign of a zero (-0.0 reads back as 0.0).
///
/// The database is built at PATH.tmp (replacing a stale one) and renamed
/// over PATH in finish(), so a re-run reproduces the file and a crash never
/// leaves PATH half-written. Inserts run in transactions of 64 rows: each
/// commit is a durability point for resume. The destructor without finish()
/// rolls the open transaction back and does not rename (the abort path of
/// the partial-output contract).
class SqliteSink : public ResultSink {
 public:
  explicit SqliteSink(const SinkConfig& config);
  ~SqliteSink() override;

  void begin(const MetricSchema& schema) override;
  void write(const RunRecord& record) override;
  void finish() override;

 private:
  void exec(const std::string& sql);

  sqlite3* db_ = nullptr;
  sqlite3_stmt* insert_ = nullptr;
  std::vector<MetricType> types_;
  std::string tmp_path_;
  std::string final_path_;
  bool in_transaction_ = false;
};
#endif  // COLSCORE_HAVE_SQLITE

// ---- sink registry ----------------------------------------------------------

/// Rows a sink's reader decoded from an artifact.
struct SinkRows {
  std::vector<RunRecord> rows;
  /// Partial trailing rows dropped (text sinks: 0 or 1, the one write a
  /// crash can cut mid-row). Sqlite transactions never expose a torn row.
  std::size_t truncated_rows = 0;
};

struct SinkEntry {
  std::string description;
  std::function<std::unique_ptr<ResultSink>(const SinkConfig&)> make;
  /// Decodes the artifact this sink wrote at `path` back into rows on
  /// `schema`, the schema it was written with (the rows point at it). Throws
  /// ScenarioError on a malformed interior row or a header/table that does
  /// not match `schema`. Empty for sinks whose output cannot be read back.
  std::function<SinkRows(const std::string& path, const MetricSchema& schema)>
      read;
};

/// Name -> sink factory + reader. Built-ins: "csv", "jsonl", and "sqlite"
/// when compiled in. Downstream code registers new sinks exactly like
/// workloads.
class SinkRegistry : public Registry<SinkEntry> {
 public:
  static SinkRegistry& instance();

 private:
  SinkRegistry() : Registry("sink") {}
};

/// Factory shorthand: looks `name` up (ScenarioError with the registered
/// alternatives if unknown) and builds the sink for `config`.
std::unique_ptr<ResultSink> make_sink(std::string_view name,
                                      const SinkConfig& config);

}  // namespace colscore
