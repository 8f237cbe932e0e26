#!/usr/bin/env python3
"""Self-tests of the sweep-cell benchmark.

    python3 cellbench/test_cellbench.py

Builds the benchmark (as run.py does) and runs a few cells; under a minute.
"""

import copy
import json
import math
import re
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_emits(self):
        with open(run.REPO / "BENCHMARK.json") as f:
            bench = json.load(f)
        for section, emitted in (("end_to_end", run.END_TO_END),
                                 ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in bench[section]}
            self.assertEqual(len(listed), len(bench[section]), "duplicate name")
            self.assertEqual(listed, emitted, section)

    def test_names_and_units_use_the_allowed_characters(self):
        names = [*run.END_TO_END, *run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
            self.assertRegex(unit, UNIT)


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        spans = [(-1, "cell", 0, 100, 0),
                 (0, "mem.on_records", 10, 60, 0),
                 (1, "mitigation.on_activates", 10, 30, 5),
                 (0, "trace.pull", 60, 70, 0)]
        self.assertEqual(run.self_times(spans), [40, 30, 20, 10])


def tamper(digest):
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")


class RecordCounts(unittest.TestCase):
    def test_a_cell_with_the_right_digest_but_other_records_fails(self):
        expected = run.load_expected()
        key = "fuzz/1/LiPRoMi@2^-23"
        want = expected[key]
        good = {"key": key, "error": "", "identical": True,
                "digest": want["digest"], "records": want["records"]}
        short = {**good, "records": want["records"] - 1}
        cells = run.check_cells([good, short], expected)
        self.assertEqual([c["ok"] for c in cells], [True, False])


class RealCells(unittest.TestCase):
    """Runs two real paper cells through the built benchmark."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.work = run.build_dir() / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def cells(self, trace):
        args = ["--workload", "paper_gen", "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--max-cells", "2"]
        if trace:
            args += ["--spans", str(self.work / "spans.tsv")]
        return run.run_binary(self.binary, args, self.work)

    def test_tampered_digest_registers_as_a_failed_cell(self):
        result = self.cells(trace=0)
        expected = run.load_expected()
        cells = run.check_cells(copy.deepcopy(result["cells"]), expected)
        self.assertEqual([c["ok"] for c in cells], [True, True])

        tampered = dict(expected)
        key = result["cells"][1]["key"]
        tampered[key] = {**tampered[key], "digest": tamper(tampered[key]["digest"])}
        cells = run.check_cells(copy.deepcopy(result["cells"]), tampered)
        self.assertEqual([c["ok"] for c in cells], [True, False])
        metrics = run.end_to_end({**result, "cells": cells})
        self.assertEqual(metrics["cell_pass_frac"], 0.5)

        del tampered[key]  # no recorded digest: fails too
        cells = run.check_cells(copy.deepcopy(result["cells"]), tampered)
        self.assertFalse(cells[1]["ok"])

    def test_layer_self_times_never_exceed_the_cell_wall(self):
        result = self.cells(trace=1)
        run.check_cells(result["cells"], run.load_expected())
        self.assertTrue(all(c["ok"] and c["identical"] for c in result["cells"]))
        spans = run.read_spans(self.work / "spans.tsv")
        metrics = run.per_layer(result, spans)
        report = run.layer_report(result["cells"], spans)
        self.assertEqual(len(report), 2)
        for cell in report:
            self.assertGreater(cell["wall_ns"], 0)
            self.assertGreaterEqual(cell["min_self_ns"], 0, cell["key"])
            self.assertLessEqual(cell["layers_ns"], cell["wall_ns"], cell["key"])
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertTrue(all(math.isfinite(v) for v in metrics.values()))
        for cell in result["cells"]:
            self.assertRegex(f"mitigation.{cell['tag']}.act_ns_per_act", NAME)


if __name__ == "__main__":
    unittest.main()
