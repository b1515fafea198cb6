"""Runs a workload's CLI ops in a fresh process, one op at a time.

    python3 worker.py PLAN RESULT       run the ops, write RESULT as JSON
    python3 worker.py --setup-only PLAN time the set-up, print it as JSON

PLAN is the JSON written by run.py.  The set-up is what a CLI user pays on
every invocation: importing fredgal, loading the workload's problems and
generating each quadrature rule it uses (the rules are cached in-process).
Load is a closed loop with one client: the next op starts when the last one
has returned.  A timed run also times a fixed reference task before each op
and after the last one, so each op's time can be set against the host's
speed at that moment (see run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def import_program(src: str):
    """fredgal.cli from the checkout's source tree, never from elsewhere."""
    sys.path.insert(0, src)
    import fredgal.cli

    where = os.path.abspath(fredgal.cli.__file__)
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"fredgal was imported from {where}, not from {src}")
    return fredgal.cli


def setup(plan) -> None:
    import fredgal.cli
    import fredgal.galerkin

    for path in plan["problems"]:
        fredgal.cli.load_problem(path)
    for name in plan["builtins"]:
        fredgal.cli.builtin(name)
    default = fredgal.galerkin.default_quadrature_order
    for order in sorted({default(n) if q is None else q for n, q in plan["rules"]}):
        fredgal.galerkin.gauss_legendre(order)


def run_op(main, argv, tracer=None, op_id=-1):
    """(result, seconds) of one CLI call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, exception = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv)) if tracer is None else tracer.root(op_id, main, list(argv))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        exception = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "exception": exception}, elapsed


REFERENCE_ITEMS = 400


def reference_task():
    """Fixed pure-Python work whose time tracks the host's speed: Fraction
    arithmetic and dict churn, like the program's own inner loops.  It is
    the benchmark's, so no change to the program changes its cost."""
    table = {}
    for i in range(REFERENCE_ITEMS):
        table[(i, i % 7)] = Fraction(i, i % 13 + 1) * Fraction(3, 7)
    return sum(table.values())


def time_reference():
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def run_cycles(main, plan, tracer):
    """``cycles`` whole cycles of the ops, or with cycles=0 cycles until
    ``seconds`` have passed.  The run stops at that deadline, even inside a
    cycle.  The output of each op's first run is kept; later runs are only
    compared with it.
    Samples are [op index, seconds, same output as the first run, cycle].
    With plan["reference"] set, refs[k] and refs[k + 1] are the reference
    task's times just before and just after sample k.
    """
    ops = plan["ops"]
    first, samples, cycle_walls, refs = {}, [], [], []
    start = time.perf_counter()
    deadline = start + plan["seconds"]
    while (not plan["cycles"] or len(cycle_walls) < plan["cycles"]) \
            and time.perf_counter() < deadline:
        cycle_start = time.perf_counter()
        for i, argv in enumerate(ops):
            if plan["reference"]:
                refs.append(time_reference())
            result, elapsed = run_op(main, argv, tracer, i)
            same = True
            if i not in first:
                first[i] = result
            else:
                same = (result["rc"], result["out"], result["exception"]) == (
                    first[i]["rc"], first[i]["out"], first[i]["exception"])
            samples.append([i, elapsed, same, len(cycle_walls)])
            if time.perf_counter() >= deadline:
                break
        else:
            cycle_walls.append(time.perf_counter() - cycle_start)
    loop_s = time.perf_counter() - start
    if plan["reference"]:
        refs.append(time_reference())
    return first, samples, cycle_walls, refs, loop_s


def runtime_info():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv) -> int:
    if argv[0] == "--setup-only":
        with open(argv[1], encoding="utf-8") as handle:
            plan = json.load(handle)
        start = time.perf_counter()
        import_program(plan["src"])
        setup(plan)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    cli = import_program(plan["src"])
    setup(plan)
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    first, samples, cycle_walls, refs, loop_s = run_cycles(cli.main, plan, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        tracer.uninstall()
        tracer.save(plan["spans_path"])
        trace = tracer.summarize()
    probes = [run_op(cli.main, probe)[0] for probe in plan["probes"]]

    import fredgal.quadrature

    cache_info = getattr(fredgal.quadrature.gauss_legendre, "cache_info", None)
    rule_cache = list(cache_info())[:2] if cache_info else None
    result = {
        "outputs": {str(i): r for i, r in first.items()},
        "samples": samples,
        "cycle_walls": cycle_walls,
        "refs": refs,
        "loop_s": loop_s,
        "rss_kb": rss_kb,
        "probes": probes,
        "trace": trace,
        "rule_cache": rule_cache,
        "runtime": runtime_info(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
