#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload paper_tables|synth_search|daemon_mix \
        --seed N --seconds S --trace 0|1

Builds the repository in Release (.bench_build/, first run only), generates
the workload's inputs from --seed, times set-up in fresh processes, runs the
workload in one driver process, checks every answer, and prints each metric
by name with its unit. The last line is one JSON object:
    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes a Chrome trace to .bench_build/traces/). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import benchlib

ROOT = benchlib.ROOT
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SOCTEST = os.path.join(BUILD, "soctest", "tools", "soctest")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
SETUP_PROBES = 5        # extra fresh-process set-ups per run
RUN_TIMEOUT_S = 170.0   # a run must end within 180 s
P95_TAIL = 10           # daemon_mix samples that must lie beyond p95


def fail(msg, code=1):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def lanes():
    return min(4, len(os.sched_getaffinity(0)))


def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository sources missing (%s); run from a full checkout"
                 % need, 2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            r = subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
            if r.returncode:
                fail("cmake configure failed; see .bench_build/build.log")
        r = subprocess.run(
            ["cmake", "--build", BUILD, "-j", str(lanes()), "--target",
             "perfbench_driver", "soctest_cli"], stdout=log, stderr=log)
        if r.returncode:
            fail("build failed; see .bench_build/build.log")
    build_type = None
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail("refusing to run against a %r build; the benchmark needs Release"
             % build_type, 3)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".pyc",)):
                    continue
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def driver_cmd(args, inputs_path, setup_only, trace_out):
    # The work directory holds the daemon's unix sockets; it is relative to
    # the checkout (the driver and the daemon both run there) because a
    # socket path may not exceed 107 bytes.
    cmd = [DRIVER, "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--inputs",
           inputs_path, "--soctest", SOCTEST, "--golden", GOLDEN, "--work",
           os.path.join(".bench_build", "runs"), "--lanes", str(lanes())]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return cmd


def run_driver(cmd, timeout_s):
    """Warms the machine up, then runs the driver; returns ((set-up seconds,
    speed probe seconds), context, raw) where set-up is the time from
    spawning it to its ready marker and the probe runs right after that."""
    subprocess.run([DRIVER, "--warm-up", "--lanes", str(lanes())], check=True,
                   timeout=30)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    setup_s, probe_s, context, raw = None, None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH_READY"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("PERFBENCH_SETUP_PROBE "):
                probe_s = float(line.split()[1])
            elif line.startswith("PERFBENCH_CONTEXT "):
                context = json.loads(line.split(" ", 1)[1])
            elif line.startswith("PERFBENCH_RAW "):
                raw = json.loads(line.split(" ", 1)[1])
            if time.perf_counter() - t0 > timeout_s:
                break
        proc.wait(timeout=max(1.0, timeout_s - (time.perf_counter() - t0)))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            fail("driver exceeded %.0f s" % timeout_s)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    if setup_s is None or probe_s is None:
        fail("driver never reported ready")
    return (setup_s, probe_s), context, raw


def metric_units():
    bench = benchlib.load_benchmark()
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    e2e_units, layer_units = metric_units()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    inputs_path = os.path.join(runs, "inputs-%s-%d.json"
                               % (args.workload, args.seed))
    with open(inputs_path, "w") as f:
        json.dump(benchlib.make_inputs(args.workload, args.seed), f)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_out = os.path.join(BUILD, "traces", "%s-seed%d.json"
                                 % (args.workload, args.seed))

    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        s, _, _ = run_driver(driver_cmd(args, inputs_path, True, None), 60.0)
        setups.append(s)
    left = RUN_TIMEOUT_S - (time.perf_counter() - started)
    s, context, raw = run_driver(
        driver_cmd(args, inputs_path, False, trace_out), left)
    setups.append(s)
    if raw is None:
        fail("driver printed no measurements")

    context.update({"nproc": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model(), "seed": args.seed,
                    "workload": args.workload, "git_sha": git_sha(),
                    "source_digest": source_digest()})
    print("context " + json.dumps(context, sort_keys=True))
    for msg in raw["failures"]:
        print("failure: " + msg)

    e2e = benchlib.end_to_end(raw, setups)
    measured = benchlib.end_to_end(raw, setups, calibrated=False)
    speeds = benchlib.segment_speeds(raw)
    units = benchlib.unit_seconds(raw, [1.0] * len(speeds))
    print("set-up seconds: " + " ".join("%.4g" % s for s, _ in setups))
    print("set-up speed factors: " + " ".join(
        "%.3f" % (p / benchlib.CALIBRATION_REF_S) for _, p in setups))
    print("unit seconds: " + " ".join("%.4g" % u for u in units))
    print("segment speed factors (timings are divided by them): "
          + " ".join("%.3f" % f for f in speeds))
    if len(raw["op_ms"]) <= 20:
        print("operation ms: " + " ".join("%.5g" % x for x in raw["op_ms"]))
    print("end-to-end (%d units, %d operations), calibrated and as measured:"
          % (len(units), len(raw["op_ms"])))
    for name, unit in e2e_units.items():
        print("  %-20s %14.6g %14.6g %s" % (name, e2e[name], measured[name],
                                          unit))
    if args.workload == "daemon_mix":
        beyond = benchlib.samples_beyond(raw["op_ms"], 95)
        print("  samples beyond p95: %d" % beyond)
        if beyond < P95_TAIL:
            fail("only %d samples beyond p95, need %d" % (beyond, P95_TAIL))

    if args.trace:
        layers = benchlib.per_layer(raw)
        print("per-layer (traced run; trace in %s):"
              % os.path.relpath(trace_out, ROOT))
        for name, unit in layer_units.items():
            if name not in layers:
                sys.stderr.write("perfbench: per-layer metric %s was not "
                                 "measured\n" % name)
                layers[name] = 0.0
            print("  %-32s %14.6g %s" % (name, layers[name], unit))
        for name, note in sorted(raw["notes"].items()):
            print("  note %s: %s" % (name, note))
        with open(trace_out) as f:
            events = json.load(f)["traceEvents"]
        print("self time by layer (s):")
        for layer, secs in sorted(benchlib.self_times(events).items(),
                                  key=lambda kv: -kv[1]):
            print("  %-12s %10.4f" % (layer, secs))
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u in layer_units.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in e2e_units.items()}

    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
