"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at a tiny size and checks that the result line carries
each named metric with its unit and that every op passes its check.  It
also checks the manufactured right-hand sides, that the output checks
reject wrong answers, that traced call counts repeat, and that the
benchmark refuses to run without the program's source.  It never asserts
a timing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction as Q
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "log": math.log,
         "sqrt": math.sqrt, "pi": math.pi, "e": math.e}


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_line(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def value(text, **names):
    """A problem-file expression evaluated by Python, not by the program."""
    return eval(text.replace("^", "**"), {"__builtins__": {}}, {**NAMES, **names})


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match_the_code(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         list(spans.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Manufactured(unittest.TestCase):
    def test_rhs_solves_the_equation(self):
        """a*phi* + lambda * integral k phi* - f vanishes, by Gauss quadrature
        split at t = x, for every generated problem."""
        nodes, weights = np.polynomial.legendre.leggauss(40)
        for name in workloads.WORKLOAD_NAMES:
            for seed in (1, 2):
                for problem in workloads.build(name, seed, "unused").problems:
                    a, b = float(problem.a), float(problem.b)
                    lam = float(Q(problem.lam_text))
                    for x in np.linspace(a, b, 7):
                        integral = 0.0
                        for lo, hi in ((a, x), (x, b)):
                            if hi > lo:
                                ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
                                integral += 0.5 * (hi - lo) * sum(
                                    w * value(problem.kernel, x=x, t=t) * problem.reference(t)
                                    for t, w in zip(ts, weights))
                        lhs = value(problem.coefficient, x=x) * problem.reference(x) + lam * integral
                        rhs = value(problem.rhs, x=x)
                        self.assertLess(abs(lhs - rhs), 1e-9 * max(1.0, abs(rhs)),
                                        f"{name} seed {seed} {problem.name} at x={x}")

    def test_exact_text_is_phi(self):
        problem = workloads.build("exact_poly", 3, "unused").problems[0]
        text = problem.file_text().split("exact = ")[1].strip()
        for x in (0.0, 0.3, 1.0):
            self.assertAlmostEqual(value(text, x=x), problem.reference(x), places=12)


class Checks(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(ROOT / "src"))
        import fredgal.cli

        self.main = fredgal.cli.main
        self.tmp = Path(tempfile.mkdtemp(dir=run.OUT_DIR))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def output(self, op):
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.main(list(op.argv))
        return {"rc": rc, "out": out.getvalue(), "err": "", "exception": None}

    def test_wrong_answers_are_rejected(self):
        workload = workloads.build("exact_poly", 1, str(self.tmp))
        for problem in workload.problems:
            (self.tmp / f"{problem.name}.txt").write_text(problem.file_text())
        tried = set()
        for op in workload.cycle:
            if op.kind in tried or op.kind == "converge":
                continue
            result = self.output(op)
            self.assertIsNone(checks.check(op, result), op.argv)
            lines = result["out"].splitlines()
            if op.kind == "solve":
                coeffs = lines[[l.startswith("coefficients:") for l in lines].index(True)]
                first = coeffs.split()[1]
                bad = coeffs.replace(first, str(Q(first) + Q(1, 1000)), 1)
            else:
                coeffs = lines[3]
                fields = coeffs.split(",")
                fields[2] = repr(float(fields[2]) * 1.001 + 0.001)  # the approx column
                bad = ",".join(fields)
            wrong = dict(result, out=result["out"].replace(coeffs, bad))
            self.assertIsNotNone(checks.check(op, wrong), op.argv)
            tried.add(op.kind)
        self.assertEqual(tried, {"solve", "table"})
        self.assertIsNotNone(checks.check(workload.cycle[0], dict(result, rc=2)))

    def test_non_dyadic_lambda_probes_take_the_exact_path(self):
        workload = workloads.build("exact_poly", 1, str(self.tmp))
        for problem in workload.problems:
            (self.tmp / f"{problem.name}.txt").write_text(problem.file_text())
        for op in workload.probes:
            result = self.output(op)
            self.assertEqual(result["rc"], 0)
            self.assertIn("mode: exact", result["out"])

    def test_missing_target_is_listed_not_fatal(self):
        tracer = spans.Tracer()
        tracer.install((("fredgal.galerkin", "no_such_function", "galerkin.gone"),
                        ("fredgal.no_such_module", "f", "galerkin.gone2")))
        tracer.uninstall()
        self.assertEqual(len(tracer.missing), 2)
        self.assertEqual(tracer.summarize()["spans"], 0)


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, table in ((0, doc["end_to_end"]), (1, doc["per_layer"])):
            for name in workloads.WORKLOAD_NAMES:
                res = result_line(bench("--workload", name, "--seed", 7, "--seconds", 1,
                                        "--trace", trace, "--cycle-ops", 5))
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], name)
                self.assertEqual(res["failed"], 0, name)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                                 {m["name"]: m["unit"] for m in table})
                for metric in res["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]))

    def test_traced_call_counts_repeat(self):
        runs = [result_line(bench("--workload", "float_kinked", "--seed", 3, "--seconds", 1,
                                  "--trace", 1, "--cycle-ops", 4)) for _ in range(2)]
        calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                 for r in runs]
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["expr.evaluate.calls"], 0)

    def test_fails_without_the_program(self):
        bare = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_poly",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    run.OUT_DIR.mkdir(exist_ok=True)
    unittest.main()
