"""Smoke self-test of the benchmark runner at tiny sizes.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both the untraced and the traced run, and that a corrupted stored digest
shows up as a failed operation.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import unittest

import run

TINY = [
    {
        "argv": ["matrix", "--space", "perm", "--n", "3", "--q", "2"],
        "rates": 3,
        "check": "row_sums",
        "size": 6,
    },
    {
        "argv": ["lump-check", "--n", "2", "--p", "2"],
        "rates": 2,
        "check": "diagrams",
        "size": 2,
    },
    {
        "argv": ["verify", "--suite", "q1-reduction", "--n-max", "3"],
        "rates": None,
        "check": "all_pass",
        "size": None,
    },
]


def tiny_table(corrupt=False):
    """TINY with the true default-seed digests, the first one corrupted on
    request."""
    table = {"tiny": [dict(spec, sha256=[]) for spec in TINY]}
    variants = run.workloads.commands("tiny", run.workloads.DEFAULT_SEED, table)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
        for commands in variants:
            for argv, spec in commands:
                stdout = run.run_command(argv, False, workdir)["stdout"]
                spec["sha256"].append(hashlib.sha256(stdout).hexdigest())
    if corrupt:
        table["tiny"][0]["sha256"][0] = "0" * 64
    return table


def run_tiny(table, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "tiny", "--seconds", "1", "--trace", str(trace)], table)
    lines = out.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


def benchmark_metrics(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SelfTest(unittest.TestCase):
    def test_every_metric_prints_with_unit(self):
        table = tiny_table()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, result = run_tiny(table, trace)
            self.assertEqual(rc, 0)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            expected = benchmark_metrics(kind)
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()}, expected
            )
            table_lines = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
            for name, unit in expected.items():
                self.assertEqual(table_lines[name], unit)
            self.assertEqual(table_lines["fail_ratio"], "ratio")

    def test_corrupted_digest_raises_fail_ratio(self):
        _, _, clean = run_tiny(tiny_table(), 0)
        _, lines, bad = run_tiny(tiny_table(corrupt=True), 0)
        self.assertEqual(clean["failed"], 0)
        self.assertFalse(bad["correct"])
        self.assertGreater(bad["failed"], 0)
        ratio = next(line for line in lines if line.startswith("fail_ratio"))
        self.assertGreater(float(ratio.split()[1]), 0)


if __name__ == "__main__":
    unittest.main()
