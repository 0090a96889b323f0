#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

struct ThreadStack {
  std::vector<int> open;
  int tid = 0;
};

ThreadStack& thread_stack() {
  static std::atomic<int> next_tid{1};
  thread_local ThreadStack s{{}, next_tid.fetch_add(1)};
  return s;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::begin(const std::string& name, int op, int parent) {
  if (!enabled_) return -1;
  ThreadStack& ts = thread_stack();
  SpanRecord r;
  r.name = name;
  r.op = op;
  r.tid = ts.tid;
  r.parent = parent == -2 ? (ts.open.empty() ? -1 : ts.open.back()) : parent;
  r.start_s = now_s();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    r.id = id;
    r.end_s = -1.0;
    spans_.push_back(std::move(r));
  }
  ts.open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  ThreadStack& ts = thread_stack();
  if (!ts.open.empty() && ts.open.back() == id) ts.open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_s = t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& r : spans_)
    if (r.name == name && r.end_s >= 0.0) out.push_back(r.end_s - r.start_s);
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[160];
  for (const SpanRecord& r : spans_) {
    if (r.end_s < 0.0) continue;
    const std::size_t dot = r.name.find('.');
    const std::string cat = r.name.substr(0, dot);
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                  "\"tid\": %d",
                  r.start_s * 1e6, (r.end_s - r.start_s) * 1e6, r.tid);
    f << (first ? "" : ",\n") << "{\"name\": \"" << escape(r.name)
      << "\", \"cat\": \"" << escape(cat) << "\", " << buf
      << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
      << ", \"op\": " << r.op << "}}";
    first = false;
  }
  f << "\n]}\n";
}

Span::Span(const std::string& name, int op, int parent)
    : id_(tracer().begin(name, op, parent)), start_(now_s()) {}

Span::~Span() { close(); }

double Span::close() {
  if (end_ < 0.0) {
    end_ = now_s();
    tracer().end(id_);
  }
  return end_ - start_;
}

}  // namespace perfbench
