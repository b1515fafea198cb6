"""Spans around the program's public functions, recorded from outside it.

Each target is wrapped at the name where its caller looks it up, for
example ``fredgal.galerkin.evaluate`` rather than ``fredgal.expr.evaluate``,
whose recursive calls would otherwise each become a span.  A span records
its name, start, end, parent span and op id; spans stay in flat arrays in
memory, are written out once at the end, and self times are computed from
them.  A target the program no longer has records zero calls and is listed
as missing.

There is one client and no concurrency, so no layer ever waits: every
layer's time is busy time, and there is no wait metric to report.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

LAYERS = ("cli", "problems", "expr", "quadrature", "basis", "galerkin", "exact", "linalg")

# (module, attribute where the caller looks the function up, span name).
# The span name's first component is the layer.  The root span of every op
# is cli.main, recorded by the worker around its call of fredgal.cli.main.
TARGETS = (
    ("fredgal.cli", "builtin", "problems.builtin"),
    ("fredgal.cli", "load_problem", "problems.load_problem"),
    ("fredgal.problems", "parse_problem", "problems.parse_problem"),
    ("fredgal.expr", "parse", "expr.parse"),
    ("fredgal.galerkin", "evaluate", "expr.evaluate"),
    ("fredgal.galerkin", "to_polynomial", "expr.to_polynomial"),
    ("fredgal.galerkin", "gauss_legendre", "quadrature.gauss_legendre"),
    ("fredgal.galerkin", "basis_row", "basis.basis_row"),
    ("fredgal.cli", "basis_row", "basis.basis_row"),
    ("fredgal.cli", "bernstein_to_monomial", "basis.bernstein_to_monomial"),
    ("fredgal.cli", "solve", "galerkin.solve"),
    ("fredgal.cli", "error_table", "galerkin.error_table"),
    ("fredgal.cli", "convergence_study", "galerkin.convergence_study"),
    ("fredgal.galerkin", "solve", "galerkin.solve"),
    ("fredgal.galerkin", "error_table", "galerkin.error_table"),
    ("fredgal.galerkin", "assemble", "galerkin.assemble"),
    ("fredgal.galerkin", "as_exact_problem", "galerkin.as_exact_problem"),
    ("fredgal.galerkin", "evaluate_solution", "galerkin.evaluate_solution"),
    ("fredgal.galerkin", "exact_assemble", "exact.exact_assemble"),
    ("fredgal.galerkin", "solve_rational_system", "exact.solve_rational_system"),
    ("fredgal.exact", "bernstein_poly_exact", "exact.bernstein_poly_exact"),
    ("fredgal.basis", "bernstein_poly_exact", "exact.bernstein_poly_exact"),
    ("fredgal.exact", "BivarPoly.__mul__", "exact.bivar_mul"),
    ("fredgal.galerkin", "lu_factor", "linalg.lu_factor"),
    ("fredgal.galerkin", "lu_solve", "linalg.lu_solve"),
    ("fredgal.galerkin", "condition_1norm", "linalg.condition_1norm"),
    ("fredgal.linalg", "lu_factor", "linalg.lu_factor"),
    ("fredgal.linalg", "lu_solve", "linalg.lu_solve"),
)

ROOT = "cli.main"

# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER = (
    *((f"{layer}.{field}", unit, "lower")
      for layer in LAYERS
      for field, unit in (("self_s", "s"), ("share", "ratio"), ("errors", "count"))),
    ("expr.evaluate.calls", "count", "lower"),
    ("expr.evaluate.self_s", "s", "lower"),
    ("expr.parse.calls", "count", "lower"),
    ("expr.to_polynomial.self_s", "s", "lower"),
    ("quadrature.gauss_legendre.calls", "count", "lower"),
    ("quadrature.rule_cache.hit_ratio", "ratio", "higher"),
    ("basis.basis_row.calls", "count", "lower"),
    ("basis.basis_row.self_s", "s", "lower"),
    ("basis.bernstein_to_monomial.self_s", "s", "lower"),
    ("exact.bivar_mul.calls", "count", "lower"),
    ("galerkin.assemble.self_s", "s", "lower"),
    ("galerkin.error_table.self_s", "s", "lower"),
    ("galerkin.exact_probe.useful_ratio", "ratio", "higher"),
    ("exact.exact_assemble.self_s", "s", "lower"),
    ("exact.solve_rational_system.self_s", "s", "lower"),
    ("linalg.lu_factor.calls", "count", "lower"),
    ("linalg.lu_solve.calls", "count", "lower"),
    ("linalg.condition_1norm.self_s", "s", "lower"),
    ("problems.decimal_lambda.exact_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, failed, stack = self.start, self.end, self.failed, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, path, span in targets:
            self._name(span)
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, span))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def root(self, op_id: int, fn, *args):
        """Run one op as a root span."""
        self.op_id = op_id
        return self.wrap(fn, ROOT)(*args)

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )

    def summarize(self) -> dict:
        """Calls, self time and errors per span name, from the spans."""
        import numpy as np

        name_id = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_time, minlength=k)
        errors = np.bincount(name_id, weights=np.frombuffer(self.failed, dtype=np.int8), minlength=k)
        return {
            "names": {
                name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "errors": int(errors[i])}
                for i, name in enumerate(self.names)
            },
            "op_time_s": float(dur[~has_parent].sum()),
            "spans": int(len(dur)),
            "missing": list(self.missing),
        }


def layer_metrics(summary: dict, rule_cache, overhead_ratio: float, decimal_ratio: float) -> dict:
    """The PER_LAYER metrics from a traced run's summary.

    ``rule_cache`` is (hits, misses) of the quadrature rule cache over the
    traced worker's life, setup included, or None if the program has none.
    """
    per = summary["names"]
    op_time = summary["op_time_s"]

    def field(name, key):
        return per.get(name, {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        spans = [v for k, v in per.items() if k.split(".")[0] == layer]
        self_s = sum(v["self_s"] for v in spans)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / op_time if op_time else 0.0
        out[f"{layer}.errors"] = sum(v["errors"] for v in spans)
    for name in ("expr.evaluate", "expr.parse", "quadrature.gauss_legendre", "basis.basis_row",
                 "exact.bivar_mul", "linalg.lu_factor", "linalg.lu_solve"):
        out[f"{name}.calls"] = field(name, "calls")
    for name in ("expr.evaluate", "expr.to_polynomial", "basis.basis_row",
                 "basis.bernstein_to_monomial", "galerkin.assemble", "galerkin.error_table",
                 "exact.exact_assemble", "exact.solve_rational_system", "linalg.condition_1norm"):
        out[f"{name}.self_s"] = field(name, "self_s")
    hits, misses = rule_cache or (0, 0)
    out["quadrature.rule_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    probes = field("galerkin.as_exact_problem", "calls")
    out["galerkin.exact_probe.useful_ratio"] = (
        field("exact.exact_assemble", "calls") / probes if probes else 0.0
    )
    out["problems.decimal_lambda.exact_ratio"] = decimal_ratio
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in PER_LAYER}
