// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around calls into the library's public functions (the
// library itself carries no instrumentation). Each span has a name (the layer
// it measures), a start and end on the tracer's wall clock, the span that
// caused it, and the id of the run or epoch it belongs to. Spans stay in
// memory until the run ends; then they are summarized per layer and written
// out as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/timer.hpp"

namespace colbench {

struct Span {
  const char* name = "";  // layer name; must outlive the tracer
  double start = 0.0;     // seconds since the tracer's origin
  double end = 0.0;
  std::int32_t parent = -1;  // index into the span list, -1 = top level
  std::uint32_t run = 0;     // spans of one run (or epoch) share this id
};

class Tracer {
 public:
  /// Opens a span under the innermost open one and returns its index.
  std::int32_t open(const char* name);
  void close(std::int32_t id);
  /// Relabels a span once its layer is known (a churn epoch's graph update
  /// is a "neighbor_graph" rebuild or an incremental "stream.update").
  void rename(std::int32_t id, const char* name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }
  void set_run(std::uint32_t run) { run_ = run; }
  double now() const { return clock_.seconds(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t id_;
  };

 private:
  colscore::Timer clock_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t run_ = 0;
};

/// self[i] = length of span i minus the part of it covered by its children
/// (the union of the children's intervals, clipped to the parent).
std::vector<double> self_times(std::span<const Span> spans);

struct LayerTime {
  std::string name;
  double busy = 0.0;  // sum of span lengths
  double self = 0.0;  // sum of self times
  std::size_t calls = 0;
};

/// Busy and self time per span name, in first-seen order. Spans of one name
/// never nest inside each other, so busy time counts no interval twice.
std::vector<LayerTime> layer_times(std::span<const Span> spans);

/// Busy time of one layer (0 when it never ran).
double busy_of(std::span<const LayerTime> layers, const std::string& name);
double self_of(std::span<const LayerTime> layers, const std::string& name);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds; run id and parent index ride in each event's args).
/// Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path, std::span<const Span> spans,
                        const std::string& label);

}  // namespace colbench
