// The three benchmark workloads and the pieces they share. Each workload
// does its set-up, calls ready(), then repeats a fixed unit of work until
// the run's time budget is spent (at least a workload-set number of times),
// probing the machine's speed between the unit's segments. In a traced run
// it additionally runs the unit once with spans recorded and then the
// replay probes that give the per-layer metrics.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon_client.hpp"
#include "opt/soc_optimizer.hpp"

namespace perfbench {

struct Ctx {
  std::string soctest_bin;  // the CLI, for the daemon and dist workers
  std::string golden_dir;   // tests/data/golden of the checkout
  std::string work_dir;     // scratch space inside the build directory
  int lanes = 4;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  Inputs inputs;
  Raw raw;
  /// Prints the ready marker run.py times set-up against.
  std::function<void()> ready;
};

void run_paper_tables(Ctx& c);
void run_synth_search(Ctx& c);
void run_daemon_mix(Ctx& c);

// ---- shared by the workloads and their probes (workloads.cpp) ----

/// Times one unit of work as a run of segments. A recording clock appends
/// each segment's seconds to raw.seg_s and probes the machine's speed after
/// it (the probe is not part of any segment); the traced unit and the
/// probes run on a clock that records nothing.
class SegmentClock {
 public:
  SegmentClock(Ctx& c, bool record);
  bool recording() const { return record_; }
  /// Index in raw.seg_s of the running segment (-1 when not recording).
  int index() const;
  /// Ends the running segment; the next one starts after the probe.
  void lap();
  /// Seconds of all ended segments.
  double total() const { return total_; }

 private:
  Ctx& c_;
  bool record_;
  double t0_;
  double total_ = 0.0;
};

/// One pass of the search drivers over a plain SOC and its scenario twin
/// (the synth_search unit, one segment per driver; a probe elsewhere).
/// Appends one op per driver to `raw` and, when `clock` records, its
/// latency, time-to-target, makespan and volume samples.
void search_suite(Ctx& c, const SocSpec& plain, const SocSpec& twin,
                  int width, std::uint64_t portfolio_seed, int sweeps,
                  SegmentClock& clock);

/// Runs the closed loop of `schedule` against a fresh daemon and records
/// the server.* layer metrics (a probe outside daemon_mix).
void server_probe(Ctx& c, const std::vector<DaemonRequest>& schedule);

// ---- replay probes (probes.cpp) ----

/// Single-lane replay of every distinct core's explore sweep through
/// design_wrapper -> SliceMap -> sparse_stream_cost; sets the wrapper.*,
/// codec.* and explore.geometries metrics and returns the replay seconds.
double replay_explore(Ctx& c, const std::vector<const SocSpec*>& socs,
                      const std::vector<int>& bands);

/// DeltaEvaluator probe on the neighbourhood of `result`'s architecture:
/// column build, bound check, cold construction and memo hit costs.
void delta_probe(Ctx& c, const soctest::SocOptimizer& opt,
                 const soctest::OptimizerOptions& o,
                 const OptimizationResult& result);

/// Rect backend evaluate() cost on its start genomes.
void rect_probe(Ctx& c, const soctest::SocOptimizer& opt,
                const soctest::OptimizerOptions& o);

/// socgen / io / fingerprint / report probes on the workload's own
/// designs, request lines and results.
void io_probes(Ctx& c, const std::vector<std::string>& design_names,
               const std::vector<std::string>& request_lines,
               const std::vector<std::pair<const SocSpec*,
                                           const OptimizationResult*>>& results);

/// Per-layer metrics derived from the recorded spans.
void layer_metrics_from_spans(Ctx& c);

}  // namespace perfbench
