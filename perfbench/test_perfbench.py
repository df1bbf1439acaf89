#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json's metric names and units follow the allowed
grammar and match what run.py reports, that the output checks catch a
changed output, that the host-speed reference kernel runs, and that every
workload at tiny scale gives the same simulated outputs traced and untraced
(builds the binary first).
"""

import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_grammar_and_units(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        for w in spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_bounds(self):
        e2e = {m["name"]: m for m in load_spec()["end_to_end"]}
        for m in e2e.values():
            self.assertGreater(m["bound"], 0.0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_spec_matches_runner(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


def fake_run(flit_hops=100):
    return {"runs": 1, "runs_failed": 0, "errors": [], "flit_hops": flit_hops,
            "sim_accepted": 0.5, "sim_latency_cycles": 40.0,
            "sim_ttc_cycles": 300.0, "closed": [],
            "points": [{"series": "s", "rate": 0.5, "cycles_run": 300,
                        "flit_hops": flit_hops, "delivered_total": 7,
                        "accepted": 0.5, "avg_latency": 40.0,
                        "p99_latency": 60.0}]}


class OutputChecks(unittest.TestCase):
    def test_repeat_identity_catches_a_change(self):
        problems, failed = run.check_runs("w", 2, [fake_run(), fake_run(101)],
                                          None)
        self.assertTrue(problems)
        self.assertEqual(failed, 1)

    def test_traced_must_equal_untraced(self):
        problems, _ = run.check_runs("w", 2, [fake_run()], fake_run(99))
        self.assertTrue(problems)

    def test_identical_runs_pass(self):
        self.assertEqual(run.check_runs("w", 2, [fake_run(), fake_run()],
                                        fake_run()), ([], 0))


class TinyTracedEqualsUntraced(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def test_reference_kernel(self):
        self.assertGreater(run.calibrate(self.exe), 0.0)

    def test_every_workload(self):
        for w in run.WORKLOADS + run.EXTRA_WORKLOADS:
            with self.subTest(workload=w), tempfile.TemporaryDirectory() as d:
                plain, rc = run.run_child(self.exe, w, 5, scale="tiny")
                self.assertEqual(rc, 0)
                self.assertEqual(plain["runs_failed"], 0, plain["errors"])
                self.assertGreater(plain["flit_hops"], 0)
                spans = os.path.join(d, "spans.jsonl")
                traced, rc = run.run_child(self.exe, w, 5, scale="tiny",
                                           spans=spans)
                self.assertEqual(rc, 0)
                self.assertEqual(run.sim_outputs(plain),
                                 run.sim_outputs(traced))
                layers = traced["layers"]
                self.assertAlmostEqual(
                    layers["tracing.top_level_s"] +
                    layers["tracing.unattributed_s"], traced["wall_s"],
                    places=9)
                with open(spans) as f:
                    recs = [json.loads(line) for line in f]
                top = sum(r["end_s"] - r["start_s"] for r in recs
                          if r["parent"] < 0)
                self.assertAlmostEqual(top, layers["tracing.top_level_s"],
                                       places=6)
                self.assertGreater(layers["route.calls"], 0)


if __name__ == "__main__":
    unittest.main()
