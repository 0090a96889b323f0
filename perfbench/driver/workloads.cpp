#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "calibrate.hpp"
#include "dist/coordinator.hpp"
#include "io/design_loader.hpp"
#include "io/soc_text.hpp"
#include "opt/backend.hpp"
#include "portfolio/portfolio.hpp"
#include "power/power_model.hpp"
#include "runtime/table_cache.hpp"
#include "trace.hpp"

namespace perfbench {

using soctest::ArchMode;
using soctest::ConstraintMode;
using soctest::OptimizerOptions;
using soctest::SocOptimizer;

namespace {

/// Opens a search counter window around one driver call when tracing.
class CounterWindow {
 public:
  CounterWindow() : on_(tracer().enabled()) {
    if (on_) before_ = soctest::runtime::collect_stats();
  }
  CounterDelta close() {
    if (!on_) return {};
    return counter_delta(before_, soctest::runtime::collect_stats());
  }

 private:
  bool on_;
  soctest::runtime::RuntimeStats before_;
};

void add(std::map<std::string, double>& m, const std::string& k, double v) {
  m[k] += v;
}

/// SocOptimizer::optimize with an "opt.optimize" span; its search counters
/// feed the opt.* layer metrics.
OptimizationResult optimize_op(Ctx& c, const SocOptimizer& opt,
                               const OptimizerOptions& o, int op) {
  CounterWindow w;
  Span s("opt.optimize", op);
  OptimizationResult r = opt.optimize(o);
  s.close();
  const CounterDelta d = w.close();
  auto& acc = c.raw.acc;
  add(acc, "acc.opt.generated", static_cast<double>(d.search.candidates_generated));
  add(acc, "acc.opt.pruned", static_cast<double>(d.search.candidates_pruned));
  add(acc, "acc.opt.scheduled", static_cast<double>(d.search.candidates_scheduled));
  add(acc, "acc.opt.reuse", static_cast<double>(d.search.schedule_reuse_hits));
  add(acc, "acc.opt.col_hits", static_cast<double>(d.search.column_reuse_hits));
  add(acc, "acc.opt.col_built", static_cast<double>(d.search.columns_computed));
  return r;
}

/// Binding-but-feasible power cap (bench/exp_scenario_matrix's rule):
/// below the free run's peak, above the largest single core.
double binding_cap(const SocSpec& soc, double free_peak_mw) {
  double floor_mw = 0.0;
  for (const auto& core : soc.cores)
    floor_mw = std::max(floor_mw, soctest::core_peak_power(core.spec));
  return std::max(free_peak_mw * 0.7, floor_mw + 0.1);
}

/// No test overlaps a test of one of its ancestors in the core hierarchy.
std::string check_hierarchy(const OptimizationResult& r, const SocSpec& soc) {
  const auto& parent = soc.hierarchy_parent;
  if (parent.empty()) return "";
  const auto& es = r.schedule.entries;
  for (const auto& a : es)
    for (const auto& b : es) {
      bool ancestor = false;
      for (int p = parent[static_cast<std::size_t>(a.core)]; p >= 0;
           p = parent[static_cast<std::size_t>(p)])
        if (p == b.core) ancestor = true;
      if (ancestor && a.start < b.end && b.start < a.end)
        return "core " + std::to_string(a.core) + " overlaps its ancestor " +
               std::to_string(b.core);
    }
  return "";
}

template <class F>
std::string guarded(F&& f) {
  try {
    return f();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

double children_maxrss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<DaemonRequest> schedule_from(const JsonValue& arr) {
  std::vector<DaemonRequest> out;
  for (const JsonValue& v : arr.items) {
    DaemonRequest r;
    r.kind = v.find("kind")->as_string();
    r.design = v.find("design")->as_string();
    r.width = static_cast<int>(v.find("width")->as_int64());
    out.push_back(std::move(r));
  }
  return out;
}

std::string soc_text_of(const SocSpec& soc) {
  std::ostringstream os;
  soctest::write_soc_text(os, soc);
  return os.str();
}

/// Repeats `unit(rep)`, which returns the seconds of its segments, at least
/// `min_units` times and then while another unit of the last one's length
/// still fits in the run's seconds; in a traced run, then once more as rep
/// -1 with spans recorded. Only reps >= 0 record end-to-end samples.
template <class F>
void repeat_units(Ctx& c, int min_units, F&& unit) {
  warm_up(c.lanes);
  const double deadline = now_s() + c.seconds;
  c.raw.calib_s.push_back(calibrate(c.lanes));
  double last = 0.0;
  int done = 0;
  do {
    last = unit(done++);
  } while (done < min_units || now_s() + last <= deadline);
  if (c.trace) {
    tracer().set_enabled(true);
    CounterWindow w;
    c.raw.traced_unit_s = unit(-1);
    const CounterDelta d = w.close();
    c.raw.layer_values["runtime.table_cache_hit_rate"] =
        ratio(static_cast<double>(d.cache_hits),
              static_cast<double>(d.cache_hits + d.cache_misses));
    c.raw.layer_values["runtime.steals"] = static_cast<double>(d.steals);
  }
}

}  // namespace

SegmentClock::SegmentClock(Ctx& c, bool record)
    : c_(c), record_(record), t0_(now_s()) {}

int SegmentClock::index() const {
  return record_ ? static_cast<int>(c_.raw.seg_s.size()) : -1;
}

void SegmentClock::lap() {
  const double s = now_s() - t0_;
  total_ += s;
  if (record_) {
    c_.raw.seg_s.push_back(s);
    c_.raw.calib_s.push_back(calibrate(c_.lanes));
  }
  t0_ = now_s();
}

// ---------------------------------------------------------------- suite

void search_suite(Ctx& c, const SocSpec& plain, const SocSpec& twin,
                  int width, std::uint64_t portfolio_seed, int sweeps,
                  SegmentClock& clock) {
  soctest::ExploreOptions e;
  e.max_width = std::max(width, 32);
  std::unique_ptr<SocOptimizer> opt, optx;
  {
    Span s("explore.soc");
    opt = std::make_unique<SocOptimizer>(plain, e);
  }
  {
    Span s("explore.soc");
    optx = std::make_unique<SocOptimizer>(twin, e);
  }
  const bool tracing = tracer().enabled();
  auto& lv = c.raw.layer_values;
  auto finish = [&](const char* what, double t0, const OptimizationResult* r,
                    std::string err) {
    if (!err.empty()) err = std::string(what) + ": " + err;
    c.raw.op(err);
    if (clock.recording()) {
      c.raw.op_ms.push_back((now_s() - t0) * 1e3);
      c.raw.op_seg.push_back(clock.index());
      if (r && err.empty()) {
        c.raw.makespans.push_back(static_cast<double>(r->test_time));
        c.raw.volumes.push_back(static_cast<double>(r->data_volume_bits));
      }
    }
    clock.lap();
  };

  OptimizerOptions o;
  o.width = width;

  // 1. --backend race: the fixed-bus climb, then the rect climb beside it.
  {
    const double t0 = now_s();
    OptimizationResult race;
    const std::string err = guarded([&]() -> std::string {
      const OptimizationResult fixed = optimize_op(c, *opt, o, 1);
      OptimizerOptions orace = o;
      orace.backend = soctest::BackendKind::Race;
      CounterWindow w;
      {
        Span s("opt.race_merge_rect", 1);
        race = soctest::race_merge_rect(*opt, orace, fixed);
      }
      const CounterDelta d = w.close();
      add(c.raw.acc, "acc.rect.packs", static_cast<double>(d.search.rect_packs));
      add(c.raw.acc, "acc.rect.memo_hits",
          static_cast<double>(d.search.rect_memo_hits));
      if (soctest::better_result(fixed, race))
        return "race result is worse than the fixed-bus climb";
      return check_schedule(race, plain.num_cores());
    });
    finish("race", t0, &race, err);
  }

  // 2. The K=4 replica-exchange portfolio in this process.
  soctest::PortfolioOptions p;
  p.replicas = 4;
  p.sweeps = sweeps;
  p.proposals_per_sweep = 100;
  p.seed = portfolio_seed;
  OptimizerOptions o4 = o;
  o4.portfolio = 4;
  soctest::PortfolioResult pr;
  double portfolio_s = 0.0;
  {
    std::vector<std::pair<double, std::int64_t>> progress;
    soctest::PortfolioOptions ps = p;
    ps.progress = [&](const soctest::PortfolioProgress& pp) {
      progress.emplace_back(now_s(), pp.incumbent);
    };
    const double t0 = now_s();
    CounterWindow w;
    const std::string err = guarded([&]() -> std::string {
      Span s("portfolio.optimize", 2);
      pr = soctest::optimize_portfolio(*opt, o4, ps);
      portfolio_s = s.close();
      return check_schedule(pr.best, plain.num_cores());
    });
    const CounterDelta d = w.close();
    double ttt = now_s() - t0;
    int to_best = pr.stats.sweeps_completed + 1;  // only the racer got there
    for (std::size_t i = 0; i < progress.size(); ++i)
      if (progress[i].second == pr.best.test_time) {
        ttt = progress[i].first - t0;
        to_best = static_cast<int>(i) + 1;
        break;
      }
    if (clock.recording()) {
      c.raw.ttt_s.push_back(ttt);
      c.raw.ttt_seg.push_back(clock.index());
    }
    if (tracing) {
      lv["portfolio.run_s"] = portfolio_s;
      std::vector<double> sweep_ms;
      double prev = t0;
      for (const auto& [t, inc] : progress) {
        sweep_ms.push_back((t - prev) * 1e3);
        prev = t;
      }
      c.raw.layer_samples["portfolio.sweep_ms_p50"] = sweep_ms;
      lv["portfolio.sweeps_to_best"] = to_best;
      lv["portfolio.swap_accept_rate"] = pr.stats.swap_acceptance();
      lv["portfolio.anneal_memo_hit_rate"] =
          ratio(static_cast<double>(d.search.anneal_memo_hits),
                static_cast<double>(d.search.anneal_proposals));
      lv["portfolio.bound_pruned_frac"] =
          ratio(static_cast<double>(d.search.anneal_bound_pruned),
                static_cast<double>(d.search.anneal_proposals));
    }
    finish("portfolio", t0, &pr.best, err);
  }

  // 3. The same portfolio sharded over 2 spawned workers x 2 lanes.
  {
    soctest::dist::DistOptions d;
    d.workers = 2;
    d.worker_cmd = c.soctest_bin;
    d.worker_jobs = std::max(1, c.lanes / 2);
    d.explore_max_width = e.max_width;
    d.explore_max_chains = e.max_chains;
    const double t0 = now_s();
    soctest::PortfolioResult dr;
    double dist_s = 0.0;
    const std::string err = guarded([&]() -> std::string {
      Span s("dist.optimize", 3);
      dr = soctest::dist::optimize_portfolio_distributed(*opt, o4, p, d);
      dist_s = s.close();
      if (stable_report(dr.best, plain) != stable_report(pr.best, plain))
        return "distributed report differs from the single-process one";
      return "";
    });
    if (tracing) {
      lv["dist.run_s"] = dist_s;
      lv["dist.setup_s"] = dr.stats.dist_setup_seconds;
      lv["dist.sweep_loop_s"] = dr.stats.dist_sweep_seconds;
      lv["dist.overhead_s"] = dist_s - portfolio_s;
      lv["dist.init_soc_bytes"] =
          static_cast<double>(soc_text_of(plain).size());
      lv["dist.worker_rss_mb"] = children_maxrss_mb();
    }
    finish("dist", t0, &dr.best, err);
  }

  // 4. A binding power cap with preemption on the scenario twin.
  OptimizerOptions ox;
  ox.width = width;
  {
    const double t0 = now_s();
    OptimizationResult rc;
    const std::string err = guarded([&]() -> std::string {
      const OptimizationResult free_run = optimize_op(c, *optx, ox, 4);
      const double cap = binding_cap(twin, free_run.peak_power_mw);
      OptimizerOptions oc = ox;
      oc.power_budget_mw = cap;
      oc.preemptive = true;
      CounterWindow w;
      {
        Span s("scenario.optimize_capped", 4);
        rc = optx->optimize(oc);
      }
      add(c.raw.acc, "acc.scenario.capped_scheduled",
          static_cast<double>(w.close().search.candidates_scheduled));
      if (rc.peak_power_mw > cap)
        return "peak power " + std::to_string(rc.peak_power_mw) +
               " exceeds the cap " + std::to_string(cap);
      return check_schedule(rc, twin.num_cores());
    });
    finish("capped", t0, &rc, err);
  }

  // 5. A hierarchical cell on the scenario twin.
  {
    const double t0 = now_s();
    OptimizationResult rh;
    const std::string err = guarded([&]() -> std::string {
      OptimizerOptions oh = ox;
      oh.hierarchical = true;
      {
        Span s("scenario.optimize_hier", 5);
        rh = optx->optimize(oh);
      }
      std::string bad = check_schedule(rh, twin.num_cores());
      return bad.empty() ? check_hierarchy(rh, twin) : bad;
    });
    finish("hier", t0, &rh, err);
  }
}

// ---------------------------------------------------------------- server

namespace {

/// server.* metrics from client timestamps and the stats op.
void server_metrics(Ctx& c, const std::vector<DaemonSample>& samples,
                    const SessionStats& before, const SessionStats& after) {
  auto& ls = c.raw.layer_samples;
  for (const DaemonSample& s : samples) {
    if (!s.error.empty()) continue;
    const double total_ms = (s.done_s - s.sent_s) * 1e3;
    if (s.accepted_s > 0)
      ls["server.accept_ms_p50"].push_back((s.accepted_s - s.sent_s) * 1e3);
    ls["server.compute_ms_p50"].push_back(s.elapsed_ms);
    ls["server.client_gap_ms_p50"].push_back(total_ms - s.elapsed_ms);
    ls["server." + s.kind + "_ms_p50"].push_back(total_ms);
  }
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  c.raw.layer_values["server.session_hit_rate"] = ratio(hits, hits + misses);
  c.raw.layer_values["server.session_evictions"] =
      static_cast<double>(after.evictions - before.evictions);
}

std::map<std::string, std::string> inline_texts(
    const std::vector<DaemonRequest>& schedule) {
  std::map<std::string, std::string> texts;
  for (const DaemonRequest& r : schedule)
    if (r.kind == "inline" && !texts.count(r.design))
      texts[r.design] = soc_text_of(soctest::load_design(r.design));
  return texts;
}

}  // namespace

void server_probe(Ctx& c, const std::vector<DaemonRequest>& schedule) {
  Daemon daemon(c.soctest_bin, c.work_dir + "/probe.sock", c.lanes);
  const auto texts = inline_texts(schedule);
  Connection admin(daemon.sock());
  const SessionStats before = parse_stats(admin.call("{\"op\": \"stats\"}", 30));
  std::vector<DaemonSample> samples;
  {
    Span s("server.probe_loop");
    samples = run_closed_loop(daemon.sock(), schedule, 1, texts, s.id());
  }
  const SessionStats after = parse_stats(admin.call("{\"op\": \"stats\"}", 30));
  for (const DaemonSample& s : samples)
    c.raw.op(s.error.empty() ? "" : "server probe: " + s.error);
  server_metrics(c, samples, before, after);
  daemon.shutdown();
}

// ---------------------------------------------------------- paper_tables

void run_paper_tables(Ctx& c) {
  const std::vector<std::string> names = {"d695",    "d2758",   "System1",
                                          "System2", "System3", "System4"};
  std::vector<SocSpec> socs;
  for (const std::string& n : names) socs.push_back(soctest::load_design(n));
  c.ready();
  if (c.setup_only) return;

  struct Plan {
    int design;
    int width;
    ArchMode mode;
    ConstraintMode constraint;
  };
  // Table 2/3 cells per design, then the Table 1 cells.
  std::vector<std::vector<Plan>> tam_plans(socs.size());
  for (int d = 0; d < static_cast<int>(socs.size()); ++d)
    for (int w : {16, 24, 32, 40, 48, 56, 64})
      for (ArchMode m : {ArchMode::PerCore, ArchMode::NoTdc})
        tam_plans[static_cast<std::size_t>(d)].push_back(
            {d, w, m, ConstraintMode::TamWidth});
  std::vector<Plan> ate_plans;
  for (int d : {0, 1})
    for (int w : {8, 12, 16, 24, 32})
      for (ArchMode m :
           {ArchMode::PerCore, ArchMode::PerTam, ArchMode::FixedWidth4})
        ate_plans.push_back({d, w, m, ConstraintMode::AteChannels});

  // Golden reports the covered cells must reproduce byte for byte.
  std::map<std::pair<int, int>, std::string> golden;
  for (const auto& [d, w] : std::vector<std::pair<int, int>>{
           {0, 16}, {0, 32}, {0, 48}, {2, 24}, {3, 32}, {4, 16}, {5, 40}})
    golden[{d, w}] = read_file(c.golden_dir + "/" + names[static_cast<std::size_t>(d)] +
                               "_w" + std::to_string(w) + ".json");

  std::vector<std::string> reference;  // first repetition's reports
  std::vector<std::pair<const SocSpec*, OptimizationResult>> last;
  std::unique_ptr<SocOptimizer> d695_opt;  // kept for the probes

  auto unit = [&](int rep) -> double {
    soctest::runtime::TableCache::global().clear();
    struct Done {
      const Plan* plan;
      OptimizationResult result;
      std::string error;
    };
    std::vector<Done> results;
    std::vector<std::unique_ptr<SocOptimizer>> opts(socs.size());
    // One segment per design (explore and its Table 2/3 cells), one for the
    // Table 1 cells.
    SegmentClock clock(c, rep >= 0);
    const double t0 = now_s();
    bool answered = false;  // time-to-target is the first plan's answer
    auto plan = [&](const Plan& p, int op) {
      OptimizerOptions o;
      o.width = p.width;
      o.mode = p.mode;
      o.constraint = p.constraint;
      const double s0 = now_s();
      OptimizationResult r;
      std::string error;
      try {
        r = optimize_op(c, *opts[static_cast<std::size_t>(p.design)], o, op);
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      }
      const double s1 = now_s();
      if (clock.recording()) {
        c.raw.op_ms.push_back((s1 - s0) * 1e3);
        c.raw.op_seg.push_back(clock.index());
        if (!answered) {
          c.raw.ttt_s.push_back(s1 - t0);
          c.raw.ttt_seg.push_back(clock.index());
        }
      }
      answered = true;
      results.push_back({&p, std::move(r), std::move(error)});
    };
    int op = 0;
    for (std::size_t d = 0; d < socs.size(); ++d) {
      {
        Span s("explore.soc");
        opts[d] = std::make_unique<SocOptimizer>(socs[d]);
      }
      for (const Plan& p : tam_plans[d]) plan(p, op++);
      clock.lap();
    }
    for (const Plan& p : ate_plans) plan(p, op++);
    clock.lap();

    // Answer checks, outside the timed section.
    last.clear();
    for (std::size_t k = 0; k < results.size(); ++k) {
      const Plan& p = *results[k].plan;
      const OptimizationResult& r = results[k].result;
      const SocSpec& soc = socs[static_cast<std::size_t>(p.design)];
      std::string err = results[k].error;
      if (err.empty()) err = check_schedule(r, soc.num_cores());
      const std::string report = stable_report(r, soc);
      if (reference.size() <= k)
        reference.push_back(report);
      else if (reference[k] != report)
        err = "report changed between repetitions";
      const auto g = golden.find({p.design, p.width});
      if (err.empty() && g != golden.end() && p.mode == ArchMode::PerCore &&
          p.constraint == ConstraintMode::TamWidth &&
          report + "\n" != g->second)
        err = "report differs from golden " + names[static_cast<std::size_t>(p.design)] +
              "_w" + std::to_string(p.width) + ".json";
      if (!err.empty())
        err = names[static_cast<std::size_t>(p.design)] + " W=" +
              std::to_string(p.width) + " " + soctest::to_string(p.mode) +
              ": " + err;
      c.raw.op(err);
      if (rep >= 0) {
        c.raw.makespans.push_back(static_cast<double>(r.test_time));
        c.raw.volumes.push_back(static_cast<double>(r.data_volume_bits));
      }
      last.emplace_back(&soc, r);
    }
    d695_opt = std::move(opts[0]);
    if (rep == 0) c.raw.peak_rss_mb = vm_hwm_mb();
    return clock.total();
  };
  c.raw.ops_per_unit = static_cast<int>(ate_plans.size() + 7 * 2 * socs.size());
  c.raw.segs_per_unit = static_cast<int>(socs.size()) + 1;
  repeat_units(c, 1, unit);
  if (!c.trace) return;

  layer_metrics_from_spans(c);
  std::vector<const SocSpec*> all;
  for (const SocSpec& s : socs) all.push_back(&s);
  const double replay_s =
      replay_explore(c, all, std::vector<int>(socs.size(), 64));
  c.raw.layer_values["runtime.explore_speedup"] =
      ratio(replay_s, c.raw.layer_values["explore.soc_s"]);

  OptimizerOptions o32;
  o32.width = 32;
  const OptimizationResult r32 = d695_opt->optimize(o32);
  delta_probe(c, *d695_opt, o32, r32);
  rect_probe(c, *d695_opt, o32);
  std::vector<std::string> lines;
  for (const auto& plans : tam_plans)
    for (const Plan& p : plans)
      lines.push_back(request_line(
          {"hot", names[static_cast<std::size_t>(p.design)], p.width}, "t", nullptr));
  std::vector<std::pair<const SocSpec*, const OptimizationResult*>> rs;
  for (const auto& [soc, r] : last) rs.emplace_back(soc, &r);
  io_probes(c, names, lines, rs);
  SegmentClock probe_clock(c, false);
  search_suite(c, socs[0], socs[0], 32, c.inputs.u64("portfolio_seed"), 20,
               probe_clock);
  server_probe(c, schedule_from(c.inputs.array("probe_schedule")));
  layer_metrics_from_spans(c);
  const std::string probe =
      "probe: paper_tables does not call this layer in its fixed work; "
      "measured once on ";
  c.raw.notes["opt.rect"] = probe + "d695 W=32";
  c.raw.notes["scenario"] = probe + "d695 W=32 (flat hierarchy)";
  c.raw.notes["portfolio"] = probe + "d695 W=32";
  c.raw.notes["dist"] = probe + "d695 W=32";
  c.raw.notes["server"] = probe + "d695 and System1 through a fresh daemon";
  c.raw.notes["io.request_parse_ms"] =
      probe + "the daemon request line of each Table 2/3 cell";
}

// ---------------------------------------------------------- synth_search

void run_synth_search(Ctx& c) {
  const std::string plain_name = c.inputs.doc.find("plain")->as_string();
  const std::string twin_name = c.inputs.doc.find("twin")->as_string();
  const SocSpec plain = soctest::load_design(plain_name);
  const SocSpec twin = soctest::load_design(twin_name);
  c.ready();
  if (c.setup_only) return;

  const int width = 48;
  const std::uint64_t seed = c.inputs.u64("portfolio_seed");
  const int sweeps = static_cast<int>(c.inputs.u64("sweeps"));
  c.raw.ops_per_unit = 5;  // race, portfolio, dist, capped, hier
  c.raw.segs_per_unit = 5;
  repeat_units(c, 1, [&](int rep) {
    soctest::runtime::TableCache::global().clear();
    SegmentClock clock(c, rep >= 0);
    search_suite(c, plain, twin, width, seed, sweeps, clock);
    if (rep == 0) c.raw.peak_rss_mb = vm_hwm_mb();
    return clock.total();
  });
  if (!c.trace) return;

  layer_metrics_from_spans(c);
  const double replay_s =
      replay_explore(c, {&plain, &twin}, {std::max(width, 32), std::max(width, 32)});
  c.raw.layer_values["runtime.explore_speedup"] =
      ratio(replay_s, c.raw.layer_values["explore.soc_s"]);
  soctest::ExploreOptions e;
  e.max_width = width;
  const SocOptimizer opt(plain, e);
  OptimizerOptions o;
  o.width = width;
  const OptimizationResult r = opt.optimize(o);
  delta_probe(c, opt, o, r);
  rect_probe(c, opt, o);
  io_probes(c, {plain_name, twin_name},
            {request_line({"hot", plain_name, width}, "t", nullptr)},
            {{&plain, &r}});
  server_probe(c, schedule_from(c.inputs.array("probe_schedule")));
  layer_metrics_from_spans(c);
  const std::string probe =
      "probe: synth_search does not call this layer in its fixed work; "
      "measured once on ";
  c.raw.notes["server"] = probe + plain_name + " W=48 through a fresh daemon";
  c.raw.notes["io.request_parse_ms"] =
      probe + "the daemon request line of the race cell";
}

// ------------------------------------------------------------ daemon_mix

void run_daemon_mix(Ctx& c) {
  const std::vector<DaemonRequest> schedule =
      schedule_from(c.inputs.array("schedule"));
  std::vector<std::string> hot;
  for (const JsonValue& v : c.inputs.array("hot").items)
    hot.push_back(v.as_string());

  Daemon daemon(c.soctest_bin, c.work_dir + "/daemon.sock", c.lanes);
  {
    Connection conn(daemon.sock());
    for (const std::string& d : hot) {
      const Connection::Reply r =
          conn.request(request_line({"hot", d, 32}, "setup-" + d, nullptr), 120);
      if (!r.error.empty())
        throw std::runtime_error("hot session " + d + ": " + r.error);
    }
  }
  c.ready();
  if (c.setup_only) return;

  const auto texts = inline_texts(schedule);
  const std::size_t unit = 100;
  Connection admin(daemon.sock());
  const SessionStats before = parse_stats(admin.call("{\"op\": \"stats\"}", 30));
  std::vector<DaemonSample> samples;
  // A unit is the next `unit` requests of the schedule through the closed
  // loop, one segment. At least three units, so that at least 10 samples
  // lie beyond p95.
  repeat_units(c, 3, [&](int rep) {
    const std::size_t from = samples.size();
    if (from + unit > schedule.size())
      throw std::runtime_error("daemon schedule exhausted");
    const std::vector<DaemonRequest> part(
        schedule.begin() + static_cast<std::ptrdiff_t>(from),
        schedule.begin() + static_cast<std::ptrdiff_t>(from + unit));
    SegmentClock clock(c, rep >= 0);
    {
      Span s("server.traced_unit");  // recorded in the traced unit only
      for (DaemonSample& d : run_closed_loop(daemon.sock(), part, 2, texts,
                                             rep >= 0 ? -1 : s.id())) {
        d.index += static_cast<int>(from);
        samples.push_back(std::move(d));
      }
    }
    clock.lap();
    return clock.total();
  });
  const SessionStats after = parse_stats(admin.call("{\"op\": \"stats\"}", 30));
  const std::size_t timed = c.raw.seg_s.size() * unit;  // the traced unit follows
  c.raw.peak_rss_mb = vm_hwm_mb(daemon.pid());
  daemon.shutdown();
  server_metrics(c, samples, before, after);

  // Answer checks: every response equals the in-process one-shot report
  // for its (design, width); synth:120:1 at W=32 also equals the golden.
  const std::string golden = read_file(c.golden_dir + "/synth_120_w32.json");
  std::map<std::string, std::pair<SocSpec, std::unique_ptr<SocOptimizer>>> opts;
  std::map<std::pair<std::string, int>, std::string> expected;
  std::vector<std::pair<const SocSpec*, OptimizationResult>> one_shots;
  auto expected_report = [&](const std::string& design, int width) {
    const auto key = std::make_pair(design, width);
    const auto it = expected.find(key);
    if (it != expected.end()) return it->second;
    auto& slot = opts[design];
    if (!slot.second) {
      {
        Span s("socgen.load_design");
        slot.first = soctest::load_design(design);
      }
      soctest::ExploreOptions e;
      e.max_width = std::max(width, 32);
      Span s("explore.soc");
      slot.second = std::make_unique<SocOptimizer>(slot.first, e);
    }
    OptimizerOptions o;
    o.width = width;
    OptimizationResult r = optimize_op(c, *slot.second, o, -1);
    std::string rep = stable_report(r, slot.first);
    one_shots.emplace_back(&slot.first, std::move(r));
    return expected[key] = rep;
  };
  CounterWindow checks;
  for (const DaemonSample& s : samples) {
    std::string err = s.error;
    if (err.empty()) {
      err = guarded([&]() -> std::string {
        const std::string want = expected_report(s.design, s.width);
        if (s.report != want) return "report differs from the one-shot report";
        if (s.design == "synth:120:1" && s.width == 32 && s.report + "\n" != golden)
          return "report differs from golden synth_120_w32.json";
        return "";
      });
    }
    if (!err.empty())
      err = s.kind + " " + s.design + " W=" + std::to_string(s.width) + ": " + err;
    c.raw.op(err);
    if (!s.error.empty() || static_cast<std::size_t>(s.index) >= timed) continue;
    const double ms = (s.done_s - s.sent_s) * 1e3;
    const int seg = s.index / static_cast<int>(unit);
    c.raw.op_ms.push_back(ms);
    c.raw.op_seg.push_back(seg);
    if (s.kind == "cold") {
      c.raw.ttt_s.push_back(ms / 1e3);
      c.raw.ttt_seg.push_back(seg);
    }
    c.raw.makespans.push_back(static_cast<double>(s.test_time));
    c.raw.volumes.push_back(static_cast<double>(s.volume_bits));
  }
  if (!c.trace) return;

  const CounterDelta d = checks.close();
  c.raw.layer_values["runtime.table_cache_hit_rate"] = ratio(
      static_cast<double>(d.cache_hits),
      static_cast<double>(d.cache_hits + d.cache_misses));
  c.raw.layer_values["runtime.steals"] = static_cast<double>(d.steals);
  layer_metrics_from_spans(c);
  std::vector<const SocSpec*> socs;
  std::vector<int> bands;
  for (const auto& [name, slot] : opts) {
    socs.push_back(&slot.first);
    bands.push_back(slot.second->explore_options().max_width);
  }
  const double replay_s = replay_explore(c, socs, bands);
  c.raw.layer_values["runtime.explore_speedup"] =
      ratio(replay_s, c.raw.layer_values["explore.soc_s"]);

  const auto& sys = opts.count("System1") ? opts["System1"] : opts.begin()->second;
  OptimizerOptions o32;
  o32.width = 32;
  const OptimizationResult r32 = sys.second->optimize(o32);
  delta_probe(c, *sys.second, o32, r32);
  rect_probe(c, *sys.second, o32);
  std::vector<std::string> names, lines;
  for (const auto& [name, slot] : opts) names.push_back(name);
  const std::size_t first_traced =
      samples.size() > unit ? samples.size() - unit : 0;
  for (std::size_t i = first_traced; i < samples.size(); ++i) {
    const DaemonRequest& rq = schedule[static_cast<std::size_t>(samples[i].index)];
    const auto t = texts.find(rq.design);
    lines.push_back(request_line(
        rq, "t", rq.kind == "inline" && t != texts.end() ? &t->second : nullptr));
  }
  std::vector<std::pair<const SocSpec*, const OptimizationResult*>> rs;
  for (const auto& [soc, r] : one_shots) rs.emplace_back(soc, &r);
  io_probes(c, names, lines, rs);
  const SocSpec d695 = soctest::load_design("d695");
  SegmentClock probe_clock(c, false);
  search_suite(c, d695, d695, 32, c.inputs.u64("portfolio_seed"), 20,
               probe_clock);
  layer_metrics_from_spans(c);
  const std::string probe =
      "probe: daemon_mix does not call this layer in its fixed work; "
      "measured once on ";
  c.raw.notes["opt.rect"] = probe + "d695 W=32";
  c.raw.notes["scenario"] = probe + "d695 W=32 (flat hierarchy)";
  c.raw.notes["portfolio"] = probe + "d695 W=32";
  c.raw.notes["dist"] = probe + "d695 W=32";
  c.raw.notes["explore"] =
      "explore, opt and runtime counters come from the in-process answer "
      "checks, which rebuild every session the daemon built";
}

}  // namespace perfbench
