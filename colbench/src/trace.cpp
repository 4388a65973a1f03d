#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace colbench {

std::int32_t Tracer::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.start = clock_.seconds();
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = clock_.seconds();
  // Scopes close in LIFO order, so the closing span is the innermost one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Sweep the children in start order, merging overlaps into [cur_a, cur_b).
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<LayerTime> layer_times(std::span<const Span> spans) {
  const std::vector<double> self = self_times(spans);
  std::vector<LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(layers.begin(), layers.end(), [&](const LayerTime& l) {
      return l.name == spans[i].name;
    });
    if (it == layers.end()) {
      layers.push_back(LayerTime{spans[i].name});
      it = layers.end() - 1;
    }
    it->busy += spans[i].end - spans[i].start;
    it->self += self[i];
    ++it->calls;
  }
  return layers;
}

double busy_of(std::span<const LayerTime> layers, const std::string& name) {
  for (const LayerTime& l : layers)
    if (l.name == name) return l.busy;
  return 0.0;
}

double self_of(std::span<const LayerTime> layers, const std::string& name) {
  for (const LayerTime& l : layers)
    if (l.name == name) return l.self;
  return 0.0;
}

bool write_chrome_trace(const std::string& path, std::span<const Span> spans,
                        const std::string& label) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"otherData\":{\"config\":\"" << label << "\"},\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%u,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, s.run, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace colbench
