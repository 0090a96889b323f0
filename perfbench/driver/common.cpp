#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "report/json.hpp"

namespace perfbench {

namespace {

std::string esc(const std::string& s) { return soctest::json_escape(s); }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

template <class T>
std::string num_list(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + num(static_cast<double>(v[i]));
  return s + "]";
}

}  // namespace

void Raw::op(const std::string& error) {
  ++attempted;
  if (!error.empty()) fail_check(error);
}

void Raw::fail_check(const std::string& error) {
  ++failed;
  if (failures.size() < 10) failures.push_back(error);
}

std::string Raw::to_json() const {
  std::ostringstream os;
  os << "{\"seg_s\": " << num_list(seg_s)
     << ", \"segs_per_unit\": " << segs_per_unit
     << ", \"calib_s\": " << num_list(calib_s)
     << ", \"op_ms\": " << num_list(op_ms)
     << ", \"op_seg\": " << num_list(op_seg)
     << ", \"ops_per_unit\": " << ops_per_unit
     << ", \"ttt_s\": " << num_list(ttt_s)
     << ", \"ttt_seg\": " << num_list(ttt_seg)
     << ", \"makespans\": " << num_list(makespans)
     << ", \"volumes\": " << num_list(volumes)
     << ", \"peak_rss_mb\": " << num(peak_rss_mb)
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    os << (i ? ", " : "") << "\"" << esc(failures[i]) << "\"";
  os << "], \"traced_unit_s\": " << num(traced_unit_s)
     << ", \"layer_values\": {";
  bool first = true;
  for (const auto& [k, v] : layer_values) {
    os << (first ? "" : ", ") << "\"" << esc(k) << "\": " << num(v);
    first = false;
  }
  os << "}, \"layer_samples\": {";
  first = true;
  for (const auto& [k, v] : layer_samples) {
    os << (first ? "" : ", ") << "\"" << esc(k) << "\": " << num_list(v);
    first = false;
  }
  os << "}, \"notes\": {";
  first = true;
  for (const auto& [k, v] : notes) {
    os << (first ? "" : ", ") << "\"" << esc(k) << "\": \"" << esc(v)
       << "\"";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::uint64_t Inputs::u64(const std::string& key) const {
  const JsonValue* v = doc.find(key);
  if (!v) throw std::runtime_error("inputs: missing '" + key + "'");
  return v->as_uint64();
}

const JsonValue& Inputs::array(const std::string& key) const {
  const JsonValue* v = doc.find(key);
  if (!v || !v->is_array())
    throw std::runtime_error("inputs: missing array '" + key + "'");
  return *v;
}

Inputs read_inputs(const std::string& path) {
  Inputs in;
  in.doc = soctest::parse_json(read_file(path));
  if (!in.doc.is_object()) throw std::runtime_error("inputs: not an object");
  return in;
}

std::string stable_report(OptimizationResult r, const SocSpec& soc) {
  r.cpu_seconds = 0.0;
  return soctest::compact_json(soctest::result_to_json(r, soc));
}

std::string check_schedule(const OptimizationResult& r, int num_cores) {
  const auto& es = r.schedule.entries;
  const bool rect = r.backend == soctest::BackendKind::Rect;
  std::vector<int> seen(static_cast<std::size_t>(num_cores), 0);
  std::int64_t last_end = 0;
  for (const auto& e : es) {
    if (e.core < 0 || e.core >= num_cores) return "core index out of range";
    ++seen[static_cast<std::size_t>(e.core)];
    if (e.end < e.start) return "test ends before it starts";
    last_end = std::max(last_end, e.end);
  }
  for (int c = 0; c < num_cores; ++c) {
    const int n = seen[static_cast<std::size_t>(c)];
    if (n == 0) return "core " + std::to_string(c) + " never tested";
    if (n > 1 && !r.scenario.preemptive)
      return "core " + std::to_string(c) + " tested " + std::to_string(n) +
             " times";
  }
  // Fixed buses: a test holds its bus. Rect packings: a test holds the
  // wires [bus, bus + tam_width).
  for (std::size_t i = 0; i < es.size(); ++i) {
    const int lo_i = es[i].bus;
    const int hi_i = lo_i + (rect ? es[i].choice.tam_width : 1);
    for (std::size_t j = i + 1; j < es.size(); ++j) {
      const int lo_j = es[j].bus;
      const int hi_j = lo_j + (rect ? es[j].choice.tam_width : 1);
      if (hi_i <= lo_j || hi_j <= lo_i) continue;
      if (es[i].start < es[j].end && es[j].start < es[i].end)
        return "tests of cores " + std::to_string(es[i].core) + " and " +
               std::to_string(es[j].core) + " overlap on bus " +
               std::to_string(std::max(lo_i, lo_j));
    }
  }
  if (last_end != r.test_time)
    return "largest end " + std::to_string(last_end) + " != test_time " +
           std::to_string(r.test_time);
  return "";
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

double vm_hwm_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CounterDelta counter_delta(const soctest::runtime::RuntimeStats& before,
                           const soctest::runtime::RuntimeStats& after) {
  CounterDelta d;
  const auto& a = after.search;
  const auto& b = before.search;
  d.search.candidates_generated = a.candidates_generated - b.candidates_generated;
  d.search.candidates_pruned = a.candidates_pruned - b.candidates_pruned;
  d.search.candidates_scheduled = a.candidates_scheduled - b.candidates_scheduled;
  d.search.schedule_reuse_hits = a.schedule_reuse_hits - b.schedule_reuse_hits;
  d.search.column_reuse_hits = a.column_reuse_hits - b.column_reuse_hits;
  d.search.columns_computed = a.columns_computed - b.columns_computed;
  d.search.anneal_proposals = a.anneal_proposals - b.anneal_proposals;
  d.search.anneal_memo_hits = a.anneal_memo_hits - b.anneal_memo_hits;
  d.search.anneal_bound_pruned = a.anneal_bound_pruned - b.anneal_bound_pruned;
  d.search.rect_packs = a.rect_packs - b.rect_packs;
  d.search.rect_memo_hits = a.rect_memo_hits - b.rect_memo_hits;
  d.cache_hits = after.table_cache.hits - before.table_cache.hits;
  d.cache_misses = after.table_cache.misses - before.table_cache.misses;
  d.steals = after.pool.steals - before.pool.steals;
  return d;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace perfbench
