// In-memory span recorder for the benchmark's traced runs. The driver opens
// a span around every call it makes into a layer of the program (explore,
// opt, portfolio, dist, server, ...); nothing inside the program is
// instrumented. Spans are kept in memory and written at exit as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open directly.
//
// Span names are "<layer>.<call>"; the layer prefix is what the per-layer
// self-time table groups by. A span's parent is the innermost span open on
// the same thread when it began (or an explicit parent for work a span
// hands to another thread), and `op` ties every span of one benchmark
// operation together.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int parent = -1;  // -1: a root span
  int op = -1;      // -1: not part of a numbered operation
  int tid = 0;
};

class Tracer {
 public:
  /// Recording is off until enabled; disabled spans still time themselves.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when recording is off. `parent`
  /// -2 means "the innermost open span on this thread".
  int begin(const std::string& name, int op, int parent = -2);
  void end(int id);

  /// Durations in seconds of the closed spans called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Sum of durations(name).
  double total(const std::string& name) const;

  /// Writes every closed span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps, args carrying id/parent/op).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

/// RAII span. Always measures its own duration (close() returns it), and
/// records itself when the tracer is enabled.
class Span {
 public:
  explicit Span(const std::string& name, int op = -1, int parent = -2);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; later calls are no-ops. Returns its duration.
  double close();
  int id() const { return id_; }

 private:
  int id_ = -1;
  double start_ = 0.0;
  double end_ = -1.0;
};

}  // namespace perfbench
