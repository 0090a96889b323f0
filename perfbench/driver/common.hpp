// Shared pieces of the benchmark driver: the raw-measurement record the
// driver prints for run.py, answer checks applied to every plan, and small
// process helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dft/soc_spec.hpp"
#include "io/json_value.hpp"
#include "opt/soc_optimizer.hpp"
#include "runtime/stats.hpp"

namespace perfbench {

using soctest::JsonValue;
using soctest::OptimizationResult;
using soctest::SocSpec;

/// Everything one driver run measured. run.py turns the samples into the
/// reported metrics (medians, percentiles, geometric means), so all the
/// statistics live in one tested place.
struct Raw {
  // End-to-end samples. Each unit of work is cut into segments with a
  // machine-speed probe at every boundary; run.py divides every segment, and
  // every sample taken in it, by the speed of the probes around it.
  std::vector<double> seg_s;    // raw seconds of each segment, unit by unit
  int segs_per_unit = 1;
  std::vector<double> calib_s;  // probe before the first segment, then after each
  std::vector<double> op_ms;    // caller-side latency of each operation
  std::vector<int> op_seg;      // the segment each operation ran in
  /// When every unit runs the same operations in the same order: how many
  /// there are per unit (op_ms then holds unit after unit); 0 otherwise.
  int ops_per_unit = 0;
  std::vector<double> ttt_s;    // time-to-target samples
  std::vector<int> ttt_seg;
  std::vector<double> makespans;
  std::vector<double> volumes;
  double peak_rss_mb = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages

  // Traced run only.
  double traced_unit_s = 0.0;
  std::map<std::string, double> layer_values;
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, std::string> notes;
  /// Counter accumulators the per-layer ratios are computed from (not
  /// printed).
  std::map<std::string, double> acc;

  /// Counts one operation; `error` empty means it succeeded.
  void op(const std::string& error);
  /// Records a failed answer check without counting a new operation (the
  /// operation it belongs to was already counted as attempted).
  void fail_check(const std::string& error);

  std::string to_json() const;
};

/// Inputs run.py generated from the workload seed.
struct Inputs {
  JsonValue doc;
  std::uint64_t u64(const std::string& key) const;
  const JsonValue& array(const std::string& key) const;
};
Inputs read_inputs(const std::string& path);

/// The daemon's and the CLI's --json report bytes: compact one-line JSON
/// with cpu_seconds zeroed.
std::string stable_report(OptimizationResult r, const SocSpec& soc);

/// External schedule check: every core appears (exactly once unless the
/// schedule is preemptive), no two tests on one bus overlap, and the
/// largest end time equals test_time. Returns "" when the schedule holds.
std::string check_schedule(const OptimizationResult& r, int num_cores);

std::string read_file(const std::string& path);

/// VmHWM of `pid` (0 = this process) in MB, 0 when unreadable.
double vm_hwm_mb(int pid = 0);

/// Deltas of the process-wide runtime counters between two snapshots.
struct CounterDelta {
  soctest::runtime::SearchStats search;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t steals = 0;
};
CounterDelta counter_delta(const soctest::runtime::RuntimeStats& before,
                           const soctest::runtime::RuntimeStats& after);

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

}  // namespace perfbench
