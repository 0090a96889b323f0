"""Shared pieces of the benchmark: the metric list, the statistics, and the
seeded input generators. run.py, aa.py and the tests import this module."""

import json
import math
import os
import random
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper_tables", "synth_search", "daemon_mix")

# The daemon_mix request mix, per block of ten requests.
HOT_DESIGNS = ("d695", "System1", "synth:120:1")
HOT_WIDTHS = (16, 20, 24, 28, 32)
BLOCK = ("hot",) * 8 + ("inline", "cold")
SCHEDULE_LENGTH = 20000

# synth_search runs one fixed instance pair and one fixed portfolio
# trajectory: across generator seeds the 240-core makespan moves by +-25%
# and the sweep that reaches the final best by 2x, far beyond any bound the
# benchmark could hold (README.md). With seed 1 the ladder reaches its final
# best at sweep 10 of 20.
SYNTH_PLAIN = "synth:240:7"
SYNTH_TWIN = "synthx:240:7"
PORTFOLIO_SEED = 1
PORTFOLIO_SWEEPS = 20


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# ---------------------------------------------------------------- statistics

def percentile(values, q):
    """The q-th percentile (0..100) with linear interpolation between the
    closest ranks (the same rule as numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def samples_beyond(values, q):
    """How many samples lie strictly above the q-th percentile."""
    p = percentile(values, q)
    return sum(1 for x in values if x > p)


def gmean(values):
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in values) / len(values))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# ---------------------------------------------------------------- inputs

def _rng(workload, seed):
    # A str seed is hashed with SHA-512, so the stream is stable across runs
    # and Python versions.
    return random.Random("%s:%d" % (workload, seed))


def daemon_schedule(seed, length=SCHEDULE_LENGTH):
    """The daemon_mix request schedule: blocks of ten requests (eight hot
    reads, one inline read, one cold write) shuffled within the block, so
    every unit of 100 requests has the same mix. Hot and inline reads are
    each dealt from a shuffled deck of every (design, width) pair, so every
    15 of them cover each pair once and a seed cannot shift the share of
    large designs. Cold writes name a fresh synth:60 seed each."""
    rng = _rng("daemon_mix", seed)
    pairs = [(d, w) for d in HOT_DESIGNS for w in HOT_WIDTHS]
    decks = {"hot": [], "inline": []}
    cold_seeds = set()
    out = []
    while len(out) < length:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "cold":
                s = rng.randrange(1000, 2 ** 31)
                while s in cold_seeds:
                    s = rng.randrange(1000, 2 ** 31)
                cold_seeds.add(s)
                out.append({"kind": "cold", "design": "synth:60:%d" % s,
                            "width": 32})
                continue
            if not decks[kind]:
                decks[kind] = pairs[:]
                rng.shuffle(decks[kind])
            design, width = decks[kind].pop()
            out.append({"kind": kind, "design": design, "width": width})
    return out[:length]


def make_inputs(workload, seed):
    """Everything the driver needs. Only daemon_mix depends on the seed;
    the other two workloads run fixed inputs (see SYNTH_PLAIN)."""
    inputs = {"portfolio_seed": PORTFOLIO_SEED}
    if workload == "paper_tables":
        inputs["probe_schedule"] = [
            {"kind": "cold", "design": "d695", "width": 16},
            {"kind": "hot", "design": "d695", "width": 24},
            {"kind": "inline", "design": "d695", "width": 32},
            {"kind": "cold", "design": "System1", "width": 24},
            {"kind": "hot", "design": "System1", "width": 16},
            {"kind": "inline", "design": "System1", "width": 24},
        ]
    elif workload == "synth_search":
        inputs.update({
            "plain": SYNTH_PLAIN, "twin": SYNTH_TWIN,
            "sweeps": PORTFOLIO_SWEEPS,
            "probe_schedule": [
                {"kind": "cold", "design": SYNTH_PLAIN, "width": 48},
                {"kind": "hot", "design": SYNTH_PLAIN, "width": 48},
                {"kind": "inline", "design": SYNTH_PLAIN, "width": 48},
            ]})
    elif workload == "daemon_mix":
        inputs.update({"hot": list(HOT_DESIGNS),
                       "schedule": daemon_schedule(seed)})
    else:
        raise ValueError("unknown workload %r" % workload)
    return inputs


# ---------------------------------------------------------------- metrics

# Median time of the driver's speed probe (calibrate.cpp: five bursts of a
# fixed integer/cache loop on every lane) on the 4-vCPU Xeon VM this
# benchmark was defined on. Timing metrics are reported in seconds of that
# machine: each raw time divided by the speed factor measured around it.
CALIBRATION_REF_S = 0.027


def segment_speeds(raw):
    """Speed factor of each segment: the mean of the probes before and after
    it over CALIBRATION_REF_S (2 = the machine ran at half the reference
    speed)."""
    c = raw["calib_s"]
    if len(c) != len(raw["seg_s"]) + 1:
        raise ValueError("%d probes do not bracket %d segments"
                         % (len(c), len(raw["seg_s"])))
    return [(c[k] + c[k + 1]) / 2 / CALIBRATION_REF_S
            for k in range(len(raw["seg_s"]))]


def unit_seconds(raw, speeds):
    """Each unit's time: its segments' seconds, each divided by its speed."""
    seg = [s / f for s, f in zip(raw["seg_s"], speeds)]
    n = raw["segs_per_unit"]
    if len(seg) % n:
        raise ValueError("%d segments do not fill units of %d" % (len(seg), n))
    return [sum(seg[i:i + n]) for i in range(0, len(seg), n)]


def operation_latencies(ops, per_unit):
    """One latency per operation. Where every unit repeats the same
    operations (paper_tables' 114 plans, synth_search's five drivers), an
    operation's latency is its median over the run's units; daemon
    requests never repeat, so each is its own sample."""
    if not per_unit:
        return ops
    if len(ops) % per_unit:
        raise ValueError("%d latencies do not fill units of %d"
                         % (len(ops), per_unit))
    return [median(ops[k::per_unit]) for k in range(per_unit)]


def end_to_end(raw, setups, calibrated=True):
    """The end-to-end metric values of one run from the driver's raw samples
    and the set-up samples, (seconds, speed probe seconds) pairs. Timings
    are divided by the speed measured around them unless calibrated is
    False."""
    speeds = segment_speeds(raw)
    if not calibrated:
        speeds = [1.0] * len(speeds)
    ops = [x / speeds[k] for x, k in zip(raw["op_ms"], raw["op_seg"])]
    ttt = [x / speeds[k] for x, k in zip(raw["ttt_s"], raw["ttt_seg"])]
    latencies = operation_latencies(ops, raw["ops_per_unit"])
    return {
        "setup_s": median([s * CALIBRATION_REF_S / p if calibrated else s
                           for s, p in setups]),
        "wall_s": median(unit_seconds(raw, speeds)),
        "ttt_s": median(ttt),
        "req_ms_p50": percentile(latencies, 50),
        "req_ms_p95": percentile(latencies, 95),
        "test_cycles_gmean": gmean(raw["makespans"]),
        "volume_bits_gmean": gmean(raw["volumes"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """Per-layer metric values of a traced run: sampled metrics report their
    median, the rest are reported as the driver measured them."""
    out = dict(raw["layer_values"])
    for name, samples in raw["layer_samples"].items():
        if samples:
            out[name] = median(samples)
    units = unit_seconds(raw, [1.0] * len(raw["seg_s"]))
    out["trace.overhead_s"] = raw["traced_unit_s"] - median(units)
    return out


def self_times(trace_events):
    """Self time per layer from Chrome trace events: each span's duration
    minus the part of its interval its child spans cover."""
    children = {}
    for e in trace_events:
        children.setdefault(e["args"]["parent"], []).append(e)
    totals = {}
    for e in trace_events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = []
        for ch in children.get(e["args"]["id"], []):
            lo, hi = max(start, ch["ts"]), min(end, ch["ts"] + ch["dur"])
            if hi > lo:
                covered.append((lo, hi))
        covered.sort()
        busy, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in covered:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    busy += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            busy += cur_hi - cur_lo
        layer = e["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (e["dur"] - busy) / 1e6
    return totals
