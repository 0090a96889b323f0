"""Tests of the benchmark's own maths, inputs and metric names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import re
import statistics
import unittest

import benchlib


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(benchlib.percentile([7], 95), 7)
        self.assertAlmostEqual(benchlib.percentile(range(1, 101), 95), 95.05)
        self.assertEqual(benchlib.percentile([1, 2, 3], 0), 1)
        self.assertEqual(benchlib.percentile([1, 2, 3], 100), 3)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_samples_beyond_p95(self):
        values = list(range(1, 201))
        self.assertEqual(benchlib.samples_beyond(values, 95), 10)
        self.assertEqual(benchlib.samples_beyond(list(range(1, 100)), 95), 5)

    def test_quartiles_match_statistics(self):
        values = [3.1, 2.0, 5.5, 4.2, 3.3, 9.0, 1.1, 2.2, 6.0, 4.4]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [10, 10, 10, 10, 10]
        self.assertEqual(benchlib.spread(values), 0.0)
        q1, q2, q3 = statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4)
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5, 6, 7, 8]),
                               (q3 - q1) / q2)

    def test_gmean(self):
        self.assertAlmostEqual(benchlib.gmean([1, 100]), 10.0)
        self.assertAlmostEqual(benchlib.gmean([5, 5, 5]), 5.0)
        with self.assertRaises(ValueError):
            benchlib.gmean([1, 0])


class Inputs(unittest.TestCase):
    def test_one_seed_one_schedule(self):
        a = benchlib.daemon_schedule(7, length=500)
        self.assertEqual(a, benchlib.daemon_schedule(7, length=500))
        self.assertNotEqual(a, benchlib.daemon_schedule(8, length=500))

    def test_schedule_mix_per_block(self):
        s = benchlib.daemon_schedule(3, length=1000)
        for i in range(0, len(s), 10):
            kinds = [r["kind"] for r in s[i:i + 10]]
            self.assertEqual(kinds.count("hot"), 8)
            self.assertEqual(kinds.count("inline"), 1)
            self.assertEqual(kinds.count("cold"), 1)
        for r in s:
            if r["kind"] == "cold":
                self.assertRegex(r["design"], r"^synth:60:\d+$")
                self.assertEqual(r["width"], 32)
            else:
                self.assertIn(r["design"], benchlib.HOT_DESIGNS)
                self.assertIn(r["width"], benchlib.HOT_WIDTHS)

    def test_reads_cover_every_design_and_width_evenly(self):
        s = benchlib.daemon_schedule(4, length=3000)
        pairs = {(d, w) for d in benchlib.HOT_DESIGNS
                 for w in benchlib.HOT_WIDTHS}
        for kind in ("hot", "inline"):
            reads = [(r["design"], r["width"]) for r in s if r["kind"] == kind]
            for i in range(0, len(reads) - 14, 15):
                self.assertEqual(set(reads[i:i + 15]), pairs)

    def test_cold_writes_are_fresh(self):
        cold = [r["design"] for r in benchlib.daemon_schedule(5)
                if r["kind"] == "cold"]
        self.assertEqual(len(cold), len(set(cold)))

    def test_one_seed_one_set_of_inputs(self):
        for w in benchlib.WORKLOADS:
            self.assertEqual(benchlib.make_inputs(w, 11),
                             benchlib.make_inputs(w, 11))
        self.assertNotEqual(benchlib.make_inputs("daemon_mix", 11),
                            benchlib.make_inputs("daemon_mix", 12))

    def test_cold_synthetic_seeds_follow_the_seed(self):
        def cold(seed):
            return [r["design"] for r in benchlib.daemon_schedule(seed, 300)
                    if r["kind"] == "cold"]
        self.assertEqual(cold(11), cold(11))
        self.assertFalse(set(cold(11)) & set(cold(12)))

    def test_synth_search_inputs_are_fixed(self):
        a = benchlib.make_inputs("synth_search", 1)
        self.assertEqual(a, benchlib.make_inputs("synth_search", 99))
        self.assertEqual((a["plain"], a["twin"], a["portfolio_seed"]),
                         ("synth:240:7", "synthx:240:7", 1))


class MetricNames(unittest.TestCase):
    grammar = re.compile(r"^[A-Za-z0-9_.-]+$")
    unit_grammar = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_names(self):
        bench = benchlib.load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"]]
        names += [m["name"] for m in bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, self.grammar)
            self.assertLessEqual(len(n), 64)
            self.assertRegex(n[0], r"[A-Za-z0-9]")
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], self.unit_grammar)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         benchlib.WORKLOADS)

    def test_per_layer_names_are_module_dot_metric(self):
        for m in benchlib.load_benchmark()["per_layer"]:
            self.assertRegex(m["name"], r"^[a-z]+\.[a-z0-9_]+$")

    def test_end_to_end_metrics_computed_by_name(self):
        ref = benchlib.CALIBRATION_REF_S
        raw = {"seg_s": [1.0, 2.0], "segs_per_unit": 1,
               "calib_s": [ref, 2 * ref, 2 * ref],
               "op_ms": [1.0, 2.0, 3.0], "op_seg": [0, 0, 1],
               "ops_per_unit": 0, "ttt_s": [0.5], "ttt_seg": [0],
               "makespans": [10, 1000], "volumes": [4, 16],
               "peak_rss_mb": 12.5}
        setups = [(0.2, ref), (0.4, 2 * ref)]
        measured = benchlib.end_to_end(raw, setups, calibrated=False)
        bench = benchlib.load_benchmark()
        self.assertEqual(set(measured),
                         {m["name"] for m in bench["end_to_end"]})
        self.assertAlmostEqual(measured["setup_s"], 0.3)
        self.assertAlmostEqual(measured["wall_s"], 1.5)
        self.assertAlmostEqual(measured["req_ms_p95"], 2.9)
        self.assertAlmostEqual(measured["test_cycles_gmean"], 100.0)
        self.assertAlmostEqual(measured["volume_bits_gmean"], 8.0)

    def test_repeated_operations_report_their_median_over_units(self):
        ops = [1.0, 10.0, 3.0, 30.0, 2.0, 90.0]
        self.assertEqual(benchlib.operation_latencies(ops, 2), [2.0, 30.0])
        self.assertEqual(benchlib.operation_latencies(ops, 0), ops)
        with self.assertRaises(ValueError):
            benchlib.operation_latencies([1.0] * 5, 2)

    def test_each_timing_is_divided_by_the_speed_around_it(self):
        ref = benchlib.CALIBRATION_REF_S
        # Two units of two segments; the machine runs at reference speed for
        # the first segment, then at half speed (probes take twice as long).
        raw = {"seg_s": [1.0, 3.0, 2.0, 2.0], "segs_per_unit": 2,
               "calib_s": [ref, ref, 3 * ref, 2 * ref, 2 * ref],
               "op_ms": [10.0, 40.0, 20.0, 20.0], "op_seg": [0, 1, 2, 3],
               "ops_per_unit": 2, "ttt_s": [1.0, 2.0], "ttt_seg": [0, 2],
               "makespans": [5], "volumes": [7], "peak_rss_mb": 9.0}
        self.assertEqual(benchlib.segment_speeds(raw), [1.0, 2.0, 2.5, 2.0])
        got = benchlib.end_to_end(raw, [(0.4, 2 * ref), (0.9, 3 * ref),
                                        (0.1, ref)])
        # units: 1/1 + 3/2 = 2.5 and 2/2.5 + 2/2 = 1.8
        self.assertAlmostEqual(got["wall_s"], (2.5 + 1.8) / 2)
        # ttt: 1/1 and 2/2.5
        self.assertAlmostEqual(got["ttt_s"], (1.0 + 0.8) / 2)
        # op 0: median(10/1, 20/2.5) = 9; op 1: median(40/2, 20/2) = 15
        self.assertAlmostEqual(got["req_ms_p50"], 12.0)
        # every set-up sample by its own probe: 0.2, 0.3, 0.1
        self.assertAlmostEqual(got["setup_s"], 0.2)
        self.assertAlmostEqual(got["test_cycles_gmean"], 5.0)
        self.assertEqual(got["peak_rss_mb"], 9.0)

    def test_probes_must_bracket_every_segment(self):
        raw = {"seg_s": [1.0, 1.0], "calib_s": [0.1, 0.1]}
        with self.assertRaises(ValueError):
            benchlib.segment_speeds(raw)
        with self.assertRaises(ValueError):
            benchlib.unit_seconds({"seg_s": [1.0] * 3, "segs_per_unit": 2},
                                  [1.0] * 3)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_covered_child_interval(self):
        def ev(name, ts, dur, id_, parent):
            return {"name": name, "ts": ts, "dur": dur,
                    "args": {"id": id_, "parent": parent, "op": -1}}
        events = [ev("explore.soc", 0, 1_000_000, 0, -1),
                  ev("opt.optimize", 100_000, 300_000, 1, 0),
                  # overlapping children on two threads count once
                  ev("server.client", 200_000, 300_000, 2, 0),
                  ev("opt.optimize", 2_000_000, 500_000, 3, -1)]
        t = benchlib.self_times(events)
        self.assertAlmostEqual(t["explore"], 0.6)
        self.assertAlmostEqual(t["opt"], 0.8)
        self.assertAlmostEqual(t["server"], 0.3)

    def test_per_layer_reports_sample_medians(self):
        raw = {"layer_values": {"opt.candidates": 7},
               "layer_samples": {"socgen.load_ms": [3.0, 1.0, 2.0]},
               "traced_unit_s": 2.5, "seg_s": [1.0, 1.0, 1.2, 1.0, 1.4, 1.0],
               "segs_per_unit": 2}
        got = benchlib.per_layer(raw)
        self.assertEqual(got["socgen.load_ms"], 2.0)
        self.assertEqual(got["opt.candidates"], 7)
        self.assertAlmostEqual(got["trace.overhead_s"], 0.3)


if __name__ == "__main__":
    unittest.main()
