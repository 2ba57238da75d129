"""Tests of benchmark/run.py: statistics, verdicts and the BENCHMARK.json
schema. Run from the repository root:

  python3 -m unittest benchmark/test_run.py
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())


class SummarizeTest(unittest.TestCase):
    def test_odd_count(self):
        s = run.summarize([5, 1, 4, 2, 3])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]),
                         (3, 1.5, 4.5, 5))

    def test_even_count(self):
        s = run.summarize([1, 2, 3, 4])
        self.assertEqual((s["median"], s["q1"], s["q3"]), (2.5, 1.25, 3.75))

    def test_single_sample(self):
        self.assertEqual(run.summarize([7.5]),
                         {"median": 7.5, "q1": 7.5, "q3": 7.5, "n": 1})

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.summarize([])

    def test_relative_spread(self):
        self.assertAlmostEqual(run.relative_spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(run.relative_spread([4, 4, 4]), 0.0)


class VerdictTest(unittest.TestCase):
    PARENT = [100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8]

    def test_identical_runs_are_no_worse(self):
        self.assertEqual(run.verdict(self.PARENT, self.PARENT, "lower", 0.1),
                         ("no worse", 0.0))

    def test_same_code_with_noise_is_not_improved(self):
        change = self.PARENT[1:] + self.PARENT[:1]
        result, _ = run.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(result, "no worse")

    def test_consistent_gain_is_improved(self):
        change = [v * 0.8 for v in self.PARENT]
        self.assertEqual(run.verdict(self.PARENT, change, "lower", 0.1),
                         ("improved", 1.0))
        self.assertEqual(run.verdict(change, self.PARENT, "higher", 0.1),
                         ("improved", 1.0))

    def test_gain_within_parent_spread_is_not_improved(self):
        change = [v - 0.3 for v in self.PARENT]
        result, won = run.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual((result, won), ("no worse", 1.0))

    def test_loss_within_bound_is_no_worse(self):
        change = [v * 1.05 for v in self.PARENT]
        self.assertEqual(run.verdict(self.PARENT, change, "lower", 0.1)[0],
                         "no worse")

    def test_loss_past_bound_is_worse(self):
        change = [v * 1.2 for v in self.PARENT]
        self.assertEqual(run.verdict(self.PARENT, change, "lower", 0.1)[0],
                         "worse")
        self.assertEqual(run.verdict(self.PARENT, change, "higher", 0.1)[0],
                         "improved")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [v * 1.2 for v in parent]
        self.assertEqual(run.verdict(parent, change, "lower", 0.1)[0],
                         "unresolved")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [59, 58, 57, 56, 55, 54, 53, 52, 51, 50]
        self.assertNotEqual(run.verdict(parent, change, "lower", 0.1)[0],
                            "unresolved")

    def test_sim_gteps_bound_is_exact(self):
        meta = run.EXTRA_E2E["sim_gteps"]
        self.assertEqual((meta["bound"], meta["better"]), (0.0, "higher"))
        parent = [543.6, 540.1, 545.0] * 4
        self.assertEqual(run.verdict(parent, parent, "higher", 0.0)[0],
                         "no worse")
        change = list(parent)
        change[3] -= 1e-9
        self.assertEqual(run.verdict(parent, change, "higher", 0.0)[0],
                         "worse")
        faster = [v * 1.01 for v in parent]
        self.assertEqual(run.verdict(parent, faster, "higher", 0.0)[0],
                         "improved")

    def test_error_ratio_bound_is_exact(self):
        meta = run.EXTRA_E2E["error_ratio"]
        self.assertEqual((meta["bound"], meta["better"]), (0.0, "lower"))
        parent = [0.0] * 10
        self.assertEqual(run.verdict(parent, parent, "lower", 0.0)[0],
                         "no worse")
        self.assertEqual(
            run.verdict(parent, [0.0] * 9 + [1e-5], "lower", 0.0)[0],
            "worse")

    def test_pairs_must_match(self):
        with self.assertRaises(ValueError):
            run.verdict([1, 2], [1], "lower", 0.1)


class SpecTest(unittest.TestCase):
    def problems(self, edit):
        spec = copy.deepcopy(SPEC)
        edit(spec)
        return run.check_spec(spec)

    def test_committed_spec_is_valid(self):
        self.assertEqual(run.check_spec(SPEC), [])

    def test_names_use_only_the_allowed_letters(self):
        for section in ("workloads", "end_to_end", "per_layer"):
            for item in SPEC[section]:
                self.assertRegex(item["name"], r"^[A-Za-z0-9_.-]+$")
        self.assertTrue(self.problems(
            lambda s: s["per_layer"][0].update(name="core plan")))

    def test_section_sizes(self):
        self.assertLessEqual(len(SPEC["end_to_end"]), 16)
        self.assertLessEqual(len(SPEC["per_layer"]), 128)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)

        def many_e2e(s):
            s["end_to_end"] += [dict(s["end_to_end"][1], name=f"m{i}")
                                for i in range(16)]
        self.assertTrue(self.problems(many_e2e))

        def many_layers(s):
            s["per_layer"] += [dict(s["per_layer"][0], name=f"l{i}")
                               for i in range(128)]
        self.assertTrue(self.problems(many_layers))
        self.assertTrue(self.problems(lambda s: s["workloads"].__delitem__(
            slice(1, None))))

    def test_malformed_entries_are_refused(self):
        edits = [
            lambda s: s.update(extra=1),
            lambda s: s["end_to_end"][0].update(bound=0.3),
            lambda s: s["end_to_end"][0].update(better="up"),
            lambda s: s["end_to_end"].__delitem__(0),
            lambda s: s["per_layer"][0].update(unit="m s"),
            lambda s: s["per_layer"][1].update(name=s["per_layer"][0]["name"]),
            lambda s: s["workloads"][0].update(why="two\nlines"),
            lambda s: s.update(paths=["../outside"]),
            lambda s: s.update(command=["python3", "/abs/run.py"]),
            lambda s: s.update(run_seconds=61),
            lambda s: s.update(end_to_end=3),
        ]
        for edit in edits:
            self.assertTrue(self.problems(edit))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_every_layer_metric_maps_to_an_e2e_metric_and_workload(self):
        e2e = run.e2e_metrics(SPEC)
        workloads = {w["name"] for w in SPEC["workloads"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(layers, set(run.LAYERS) | set(run.DIAGNOSTICS))
        self.assertFalse(set(run.LAYERS) & set(run.DIAGNOSTICS))
        for name, where in run.DIAGNOSTICS.items():
            self.assertTrue(where and set(where) <= workloads, name)
        for layer, moves in run.LAYERS.items():
            self.assertTrue(moves, layer)
            for metric, where in moves:
                self.assertIn(metric, e2e, layer)
                self.assertTrue(where, layer)
                for workload in where:
                    self.assertIn(workload, workloads, layer)
                    self.assertTrue(run.applies(e2e[metric], workload),
                                    f"{layer}: {metric} on {workload}")

    def test_extra_metrics_name_existing_workloads(self):
        workloads = {w["name"] for w in SPEC["workloads"]}
        for name, meta in run.EXTRA_E2E.items():
            self.assertNotIn(name, {m["name"] for m in SPEC["end_to_end"]})
            self.assertTrue(set(meta["workloads"] or []) <= workloads, name)


class ContractResultTest(unittest.TestCase):
    def doc(self, workload, **layers):
        return {
            "workload": workload, "attempted": 10, "failed": 0,
            "returncode": 0,
            "e2e": {m["name"]: {"unit": m["unit"], "samples": [3.0, 1.0, 2.0]}
                    for m in SPEC["end_to_end"]},
            "layers": {name: {"unit": unit, "value": 5.0}
                       for name, unit in layers.items()},
        }

    def test_end_to_end_values_come_from_the_best_trial(self):
        result = run.contract_result(SPEC, self.doc("serve_hot"), trace=0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(result["metrics"]["p50_ms"],
                         {"value": 1.0, "unit": "ms"})
        self.assertEqual(result["metrics"]["peak_qps"]["value"], 3.0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 2.0)

    def test_layers_the_workload_does_not_reach_read_zero(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        measured = {n: u for n, u in units.items()
                    if "fleet_scatter" in run.measured_on(n)}
        result = run.contract_result(
            SPEC, self.doc("fleet_scatter", **measured), trace=1)
        self.assertEqual(set(result["metrics"]), set(units))
        self.assertEqual(result["metrics"]["fleet.imbalance"]["value"], 5.0)
        self.assertEqual(result["metrics"]["core.plan_ms"]["value"], 0.0)

    def test_failed_checks_make_the_run_incorrect(self):
        doc = self.doc("serve_hot")
        doc["failed"] = 1
        self.assertFalse(run.contract_result(SPEC, doc, trace=0)["correct"])
        doc = self.doc("serve_hot")
        doc["returncode"] = 1
        self.assertFalse(run.contract_result(SPEC, doc, trace=0)["correct"])


if __name__ == "__main__":
    unittest.main()
