// Replay probes of the traced run. They call the same public functions the
// program calls, one at a time on a single lane, on the workload's own
// inputs, so the per-layer numbers come from outside the program.
#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "codec/sparse_cost.hpp"
#include "io/design_loader.hpp"
#include "io/soc_text.hpp"
#include "opt/backend.hpp"
#include "opt/delta_evaluator.hpp"
#include "opt/rect_backend.hpp"
#include "report/json.hpp"
#include "runtime/table_cache.hpp"
#include "server/protocol.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "wrapper/slice_map.hpp"
#include "wrapper/wrapper_design.hpp"

namespace perfbench {

double replay_explore(Ctx& c, const std::vector<const SocSpec*>& socs,
                      const std::vector<int>& bands) {
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  std::set<Key> seen;
  double design_s = 0.0, map_s = 0.0, cost_s = 0.0;
  double geometries = 0.0, care_bits = 0.0;
  Span replay("explore.replay");
  for (std::size_t i = 0; i < socs.size(); ++i) {
    soctest::ExploreOptions e;
    e.max_width = bands[i];
    for (const auto& core : socs[i]->cores) {
      const auto k = soctest::runtime::key_of(core, e);
      if (!seen.insert({k.hash, k.check, k.length}).second) continue;
      Span s("explore.replay_core");
      // Step 1: the direct wrapper design of every width.
      for (int w = 1; w <= e.max_width; ++w) {
        const double t0 = now_s();
        const auto d = soctest::design_wrapper(
            core.spec, std::min(w, core.spec.max_wrapper_chains()));
        design_s += now_s() - t0;
        (void)d;
      }
      // Step 2: every decompressor geometry.
      const int m_cap = std::min(e.max_chains, core.spec.max_wrapper_chains());
      const double core_care = static_cast<double>(core.cubes.total_care_bits());
      for (int m = 2; m <= m_cap; ++m) {
        const double t0 = now_s();
        const soctest::WrapperDesign d = soctest::design_wrapper(core.spec, m);
        const double t1 = now_s();
        const soctest::SliceMap map(d, core.cubes.num_cells());
        const double t2 = now_s();
        const auto cost = soctest::sparse_stream_cost(map, core.cubes);
        const double t3 = now_s();
        (void)cost;
        design_s += t1 - t0;
        map_s += t2 - t1;
        cost_s += t3 - t2;
        geometries += 1;
        care_bits += core_care;
      }
    }
  }
  const double total = replay.close();
  auto& lv = c.raw.layer_values;
  lv["wrapper.design_s"] = design_s;
  lv["wrapper.slice_map_s"] = map_s;
  lv["codec.cost_s"] = cost_s;
  lv["explore.geometries"] = geometries;
  lv["codec.ns_per_care_bit"] = ratio(cost_s * 1e9, care_bits);
  return total;
}

void delta_probe(Ctx& c, const soctest::SocOptimizer& opt,
                 const soctest::OptimizerOptions& o,
                 const OptimizationResult& result) {
  Span probe("opt.delta_probe");
  const auto backend =
      soctest::make_backend(soctest::BackendKind::FixedBus, opt, o);
  std::vector<soctest::TamArchitecture> archs{result.arch};
  for (auto& g : backend->neighbours(result.arch.widths)) {
    soctest::TamArchitecture a;
    a.widths = std::move(g);
    archs.push_back(std::move(a));
  }
  const double n = static_cast<double>(archs.size());
  soctest::DeltaEvaluator ev(opt, o);
  double t0 = now_s();
  ev.prepare(archs);
  const double built = static_cast<double>(ev.counters().columns_computed);
  auto& lv = c.raw.layer_values;
  lv["opt.column_build_us"] = ratio((now_s() - t0) * 1e6, built);
  t0 = now_s();
  int exceeded = 0;
  for (const auto& a : archs) exceeded += ev.bound_exceeds(a, result.test_time);
  lv["sched.bound_check_us"] = (now_s() - t0) * 1e6 / n;
  t0 = now_s();
  std::int64_t sum = 0;
  for (const auto& a : archs) sum += ev.evaluate(a).test_time;
  lv["sched.construct_us"] = (now_s() - t0) * 1e6 / n;
  t0 = now_s();
  for (const auto& a : archs) sum -= ev.evaluate(a).test_time;
  lv["opt.memo_hit_us"] = (now_s() - t0) * 1e6 / n;
  if (sum != 0) c.raw.fail_check("delta probe: memo hit differs from its miss");
  (void)exceeded;
}

void rect_probe(Ctx& c, const soctest::SocOptimizer& opt,
                const soctest::OptimizerOptions& o) {
  Span probe("opt.rect_probe");
  const soctest::RectBackend rb(opt, o);
  const auto starts = rb.starts();
  const double t0 = now_s();
  for (const auto& g : starts) {
    const OptimizationResult r = rb.evaluate(g);
    if (r.test_time < rb.lower_bound(g))
      c.raw.fail_check("rect probe: makespan below its lower bound");
  }
  c.raw.layer_values["opt.rect_eval_us"] =
      (now_s() - t0) * 1e6 / static_cast<double>(starts.size());
}

void io_probes(
    Ctx&, const std::vector<std::string>& design_names,
    const std::vector<std::string>& request_lines,
    const std::vector<std::pair<const SocSpec*, const OptimizationResult*>>&
        results) {
  for (const std::string& name : design_names) {
    SocSpec soc;
    {
      Span s("socgen.load_design");
      soc = soctest::load_design(name);
    }
    std::ostringstream os;
    soctest::write_soc_text(os, soc);
    const std::string text = os.str();
    {
      std::istringstream in(text);
      Span s("io.read_soc_text");
      const SocSpec back = soctest::read_soc_text(in);
      (void)back;
    }
    Span s("runtime.key_of_soc");
    const auto key = soctest::runtime::key_of_soc(soc, {});
    (void)key;
  }
  for (const std::string& line : request_lines) {
    Span s("io.parse_request");
    const auto req = soctest::server::parse_request(line);
    (void)req;
  }
  for (const auto& [soc, r] : results) {
    Span s("report.result_to_json");
    const std::string json =
        soctest::compact_json(soctest::result_to_json(*r, *soc));
    (void)json;
  }
}

void layer_metrics_from_spans(Ctx& c) {
  const Tracer& t = tracer();
  auto& lv = c.raw.layer_values;
  auto& ls = c.raw.layer_samples;
  auto ms = [&](const char* metric, const char* span) {
    std::vector<double> d = t.durations(span);
    if (d.empty() || ls.count(metric)) return;
    for (double& x : d) x *= 1e3;
    ls[metric] = std::move(d);
  };
  auto total = [&](const char* metric, const char* span) {
    if (t.durations(span).empty() || lv.count(metric)) return;
    lv[metric] = t.total(span);
  };
  ms("socgen.load_ms", "socgen.load_design");
  ms("io.soc_text_parse_ms", "io.read_soc_text");
  ms("io.request_parse_ms", "io.parse_request");
  ms("runtime.key_of_soc_ms", "runtime.key_of_soc");
  ms("report.json_ms", "report.result_to_json");
  ms("opt.climb_ms_p50", "opt.optimize");
  total("explore.soc_s", "explore.soc");
  total("opt.climb_s", "opt.optimize");
  total("opt.rect_climb_s", "opt.race_merge_rect");
  total("scenario.capped_s", "scenario.optimize_capped");
  total("scenario.hier_s", "scenario.optimize_hier");

  const auto& a = c.raw.acc;
  auto get = [&](const char* k) {
    const auto it = a.find(k);
    return it == a.end() ? 0.0 : it->second;
  };
  if (get("acc.opt.generated") > 0 && !lv.count("opt.candidates")) {
    lv["opt.candidates"] = get("acc.opt.generated");
    lv["opt.pruned_frac"] =
        ratio(get("acc.opt.pruned"), get("acc.opt.generated"));
    lv["opt.memo_hit_rate"] =
        ratio(get("acc.opt.reuse"), get("acc.opt.reuse") + get("acc.opt.scheduled"));
    lv["opt.column_reuse_rate"] =
        ratio(get("acc.opt.col_hits"),
              get("acc.opt.col_hits") + get("acc.opt.col_built"));
  }
  if (lv.count("opt.rect_climb_s") && !lv.count("opt.rect_packs")) {
    lv["opt.rect_packs"] = get("acc.rect.packs");
    lv["opt.rect_memo_hits"] = get("acc.rect.memo_hits");
  }
  if (lv.count("scenario.capped_s") && !lv.count("scenario.capped_scheduled"))
    lv["scenario.capped_scheduled"] = get("acc.scenario.capped_scheduled");

  // What the spans cannot separate, said once per traced run.
  auto& n = c.raw.notes;
  n["sched.construct_us"] =
      "DeltaEvaluator::evaluate on a cold memo: schedule construction plus "
      "result materialization; construction alone is not a public call";
  n["opt.memo_hit_us"] = "includes copying the memoized result out";
  n["server.compute_ms_p50"] =
      "the daemon's own elapsed_ms, whole milliseconds from accept to "
      "result; queue wait inside the daemon is not visible from outside";
  n["server.client_gap_ms_p50"] =
      "client latency minus elapsed_ms: framing, socket and request parse "
      "together";
  n["dist.worker_rss_mb"] =
      "largest RSS of any reaped child process (RUSAGE_CHILDREN)";
  n["wrapper.design_s"] =
      "wrapper, slice-map and codec times come from a single-lane replay, "
      "not from the multi-lane explore itself";
}

}  // namespace perfbench
