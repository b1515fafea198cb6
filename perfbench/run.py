"""Benchmark of fredgal's exact and float solve paths through its CLI.

    python3 perfbench/run.py --workload exact_poly --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout.  The seed draws the workload's
problems and op order (see workloads.py); a fresh worker process runs the
ops in-process through fredgal.cli.main, one client in a closed loop, with
BLAS pinned to one thread.  Every op's output is checked (see checks.py).

With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of one
traced cycle (see spans.py) and the tracing overhead against an untraced
cycle.  The lines before it give the same figures for people, with the
sample counts and the provenance of the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 12  # fresh interpreters timed per run; the median is reported
WORKER_TIMEOUT_S = 150
# The reference task's median time on the 2-vCPU VM where the bounds were
# set.  An op's latency is reported as its time in units of the reference
# task times this, so it reads in ms at that host's usual speed.
REFERENCE_NOMINAL_S = 3.2e-3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _worker(*args, timeout=WORKER_TIMEOUT_S) -> str:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                              cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _plan(workload, seconds, cycles=0):
    """The worker's plan: ``cycles`` whole cycles, or with cycles=0 as many
    as fit in ``seconds``."""
    ops = workload.cycle
    return {
        "src": str(ROOT / "src"),
        "ops": [list(op.argv) for op in ops],
        "problems": sorted({op.argv[2] for op in ops if op.problem and not op.problem.builtin}),
        "builtins": sorted({op.problem.name for op in ops if op.problem and op.problem.builtin}),
        "rules": workload.rules(),
        "seconds": seconds,
        "cycles": cycles,
        "trace": False,
        "reference": not cycles,
        "spans_path": str(OUT_DIR / f"spans-{workload.name}.npz"),
        "probes": [list(op.argv) for op in workload.probes],
    }


def _run_worker(plan, run_dir, tag):
    plan_path, result_path = run_dir / f"plan-{tag}.json", run_dir / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    _worker(plan_path, result_path)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _setup_probe(plan_path):
    return json.loads(_worker("--setup-only", plan_path, timeout=60))["setup_s"]


def _verify(workload, result):
    """(attempted, failed, reasons): an op run fails if its first output
    fails its check or a later run's output differs from the first."""
    reasons = {}
    for key, output in result["outputs"].items():
        reason = checks.check(workload.cycle[int(key)], output)
        if reason:
            reasons[int(key)] = reason
    failed = 0
    for i, _, same, _ in result["samples"]:
        if i in reasons or not same:
            failed += 1
            reasons.setdefault(i, "output differs from the op's first run")
    return len(result["samples"]), failed, reasons


def _decimal_lambda_matches(workload, result):
    """(matches, probes): non-dyadic-lambda exact solves that recover phi*."""
    ok = sum(checks.check(op, r) is None for op, r in zip(workload.probes, result["probes"]))
    return ok, len(workload.probes)


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, runtime):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        **runtime,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _end_to_end(workload, plan, run_dir, lines):
    setup_plan = run_dir / "plan-setup.json"
    setup_plan.write_text(json.dumps(plan), encoding="utf-8")
    _setup_probe(setup_plan)  # warms the page and bytecode caches
    # half the set-up probes before the timed cycles and half after, so the
    # median spans more of the host's slow and fast spells
    setup_times = [_setup_probe(setup_plan) for _ in range(SETUP_PROBES // 2)]
    result = _run_worker(plan, run_dir, "timed")
    setup_times += [_setup_probe(setup_plan) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    attempted, failed, reasons = _verify(workload, result)
    # The host's speed drifts by tens of percent from second to second and
    # from minute to minute, with CPU time equal to wall time.  So each run
    # of an op is set against the reference task timed just before and just
    # after it, and an op's latency is the median of these ratios over the
    # run's whole cycles, in ms at the reference's nominal speed.
    cycles = len(result["cycle_walls"])
    refs = result["refs"]
    ratios, raw = {}, {}
    for k, (i, elapsed, _, cycle) in enumerate(result["samples"]):
        if cycle < cycles or not cycles:
            ratios.setdefault(i, []).append(2 * elapsed / (refs[k] + refs[k + 1]))
            raw.setdefault(i, []).append(elapsed)
    latencies = [statistics.median(r) * REFERENCE_NOMINAL_S for r in ratios.values()]
    raw_latencies = [statistics.median(r) for r in raw.values()]
    p90 = statistics.quantiles(latencies, n=10)[8]
    ops_per_s = len(latencies) / sum(latencies)
    ok, probes = _decimal_lambda_matches(workload, result)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": result["rss_kb"] / 1024,
    }
    beyond = sum(elapsed > p90 for elapsed in latencies)
    runs = max(cycles, 1)
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters "
                   f"({min(setup_times):.4f}..{max(setup_times):.4f} s)",
        "ops_per_s": f"{len(latencies)} ops; unadjusted {len(raw_latencies) / sum(raw_latencies):.4f}",
        "latency_p50_ms": f"{len(latencies)} samples, each an op's median of {runs} runs; "
                          f"unadjusted {statistics.median(raw_latencies) * 1e3:.4f}",
        "latency_p90_ms": f"{len(latencies)} samples, {beyond} beyond it; unadjusted "
                          f"{statistics.quantiles(raw_latencies, n=10)[8] * 1e3:.4f}",
        "peak_rss_mb": "worker process",
    }
    for name, unit in END_TO_END:
        lines.append(f"  {name:<16} {metrics[name]:>12.4f} {unit:<4} {notes[name]}")
    lines.append(f"  reference task   {statistics.median(refs) * 1e3:>12.4f} ms   median of "
                 f"{len(refs)} (fastest {min(refs) * 1e3:.4f}, nominal "
                 f"{REFERENCE_NOMINAL_S * 1e3:.4f}); the figures above are at the nominal speed")
    lines.append(f"  {'failed_ratio':<16} {failed / attempted:>12.4f} ratio {failed} of {attempted} "
                 "op runs (reported as failed/attempted)")
    lines.append(f"  known defect: {probes - ok} of {probes} exact solves with non-dyadic lambda "
                 "differ from phi* (lambda is read as its binary float value)")
    for i, reason in sorted(reasons.items()):
        lines.append(f"  FAILED {' '.join(workload.cycle[i].argv)}: {reason}")
    return attempted, failed, metrics, result["runtime"]


def _per_layer(workload, plan, run_dir, lines):
    untraced = _run_worker(plan, run_dir, "untraced")
    traced_plan = dict(plan, trace=True, probes=[])
    traced = _run_worker(traced_plan, run_dir, "traced")
    attempted, failed, reasons = 0, 0, {}
    for result in (untraced, traced):
        a, f, r = _verify(workload, result)
        attempted, failed = attempted + a, failed + f
        reasons.update(r)
    ok, probes = _decimal_lambda_matches(workload, untraced)
    trace = traced["trace"]
    overhead = traced["loop_s"] / untraced["loop_s"] - 1.0
    metrics = spans.layer_metrics(trace, traced["rule_cache"], overhead, ok / probes)
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    lines.append(f"  one traced cycle of {len(workload.cycle)} ops: {trace['spans']} spans, "
                 f"op time {trace['op_time_s']:.4f} s, untraced loop {untraced['loop_s']:.4f} s")
    lines.append("  no layer waits: one client, no concurrency, so all layer time is busy time")
    for name, value in metrics.items():
        lines.append(f"  {name:<38} {value:>14.6g} {units[name]}")
    if trace["missing"]:
        lines.append(f"  missing (zero calls): {', '.join(trace['missing'])}")
    for i, reason in sorted(reasons.items()):
        lines.append(f"  FAILED {' '.join(workload.cycle[i].argv)}: {reason}")
    return attempted, failed, metrics, untraced["runtime"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycle-ops", type=int, default=0, metavar="N",
                        help="run only the first N ops of the cycle (for the self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fredgal" / "cli.py").is_file():
        print(f"error: no fredgal source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR))
    try:
        workload = workloads.build(args.workload, args.seed, str(run_dir))
        if args.cycle_ops:
            workload = dataclasses.replace(workload, cycle=workload.cycle[:args.cycle_ops])
        for problem in workload.problems:
            (run_dir / f"{problem.name}.txt").write_text(problem.file_text(), encoding="utf-8")
        lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
                 f"trace={args.trace}: closed loop, 1 client, BLAS pinned to 1 thread"]
        if args.trace:
            plan = _plan(workload, WORKER_TIMEOUT_S - 30, cycles=1)
            attempted, failed, metrics, runtime = _per_layer(workload, plan, run_dir, lines)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            plan = _plan(workload, args.seconds)
            attempted, failed, metrics, runtime = _end_to_end(workload, plan, run_dir, lines)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines))
    print("provenance " + json.dumps(provenance(args, runtime), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
