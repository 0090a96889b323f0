// perfbench_driver: runs one benchmark workload in this process and prints
// its raw measurements for perfbench/run.py. Not meant to be run by hand;
// `python3 perfbench/run.py --workload <name> ...` builds and drives it.
//
//   perfbench_driver --workload paper_tables|synth_search|daemon_mix
//       --seconds S --trace 0|1 --inputs <json> --soctest <cli binary>
//       --golden <dir> --work <dir> --lanes N [--setup-only]
//       [--trace-out <file>]
//   perfbench_driver --warm-up --lanes N
//
// Output lines: "PERFBENCH_CONTEXT {...}", "PERFBENCH_READY" once set-up is
// done, "PERFBENCH_SETUP_PROBE <s>" (a speed probe right after set-up), and
// last "PERFBENCH_RAW {...}". --warm-up only keeps every lane busy for a
// second, so that a set-up spawned right after it runs at speed.
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "bitvec/slice_kernels.hpp"
#include "calibrate.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + k);
    if (k == "--setup-only" || k == "--warm-up") {
      a.emplace(k.substr(2), "1");
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
    a[k.substr(2)] = argv[++i];
  }
  return a;
}

std::string need(const std::map<std::string, std::string>& a,
                 const std::string& k) {
  const auto it = a.find(k);
  if (it == a.end()) throw std::invalid_argument("missing --" + k);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::now_s();  // start the clock
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on\n");
  return 3;
#endif
  try {
    const auto a = parse_args(argc, argv);
    if (a.count("warm-up")) {
      perfbench::warm_up(std::stoi(need(a, "lanes")));
      return 0;
    }
    perfbench::Ctx c;
    c.soctest_bin = need(a, "soctest");
    c.golden_dir = need(a, "golden");
    c.work_dir = need(a, "work");
    c.lanes = std::stoi(need(a, "lanes"));
    c.seconds = std::stod(need(a, "seconds"));
    c.trace = need(a, "trace") == "1";
    c.setup_only = a.count("setup-only") > 0;
    c.inputs = perfbench::read_inputs(need(a, "inputs"));
    c.ready = [&c] {
      std::printf("PERFBENCH_READY\n");
      std::fflush(stdout);
      std::printf("PERFBENCH_SETUP_PROBE %.9g\n", perfbench::calibrate(c.lanes));
      std::fflush(stdout);
    };
    soctest::runtime::set_global_concurrency(c.lanes);
    std::printf(
        "PERFBENCH_CONTEXT {\"build_type\": \"%s\", \"compiler\": \"%s\", "
        "\"simd\": \"%s\", \"lanes\": %d}\n",
        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
        soctest::kernels::mode_name(soctest::kernels::active_mode()), c.lanes);
    std::fflush(stdout);

    const std::string w = need(a, "workload");
    if (w == "paper_tables")
      perfbench::run_paper_tables(c);
    else if (w == "synth_search")
      perfbench::run_synth_search(c);
    else if (w == "daemon_mix")
      perfbench::run_daemon_mix(c);
    else
      throw std::invalid_argument("unknown workload " + w);
    if (c.setup_only) return 0;
    if (c.trace && a.count("trace-out"))
      perfbench::tracer().write_chrome(a.at("trace-out"));
    std::printf("PERFBENCH_RAW %s\n", c.raw.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
