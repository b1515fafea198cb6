"""Seeded workloads: problem files plus one cycle of CLI operations.

A workload is a fixed template of bands of operations.  Each band fixes what
sets an operation's cost: the subcommand, the degree(s), the quadrature
order, the interval and the shape of the kernel.  The seed draws everything
else: the coefficients of a(x), of the kernel and of phi*, lambda, and the
order of the cycle.  So every seed runs the same mix of cheap and expensive
operations on different equations, which keeps the figures of one seed
comparable with those of another.  The program sees only the generated
problem files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

from manufacture import Problem, builtin_problems, kinked_problem, poly_problem, smooth_problem

WORKLOAD_NAMES = ("exact_poly", "float_smooth", "float_kinked")

# Check tolerances, fixed before the timed runs and the same on every commit:
# the largest allowed max|approx - phi*| / max|phi*| of a float result, by
# workload and --quadrature value (None = the program's default order).
# Largest errors measured at the seed over seeds 1-40: exact_poly (float ops
# at n 22-30) 1.3e-6; float_smooth 2.1e-5, at n 30-40 where the Gram system
# is ill-conditioned; float_kinked 1.6e-4 at the default q, 4.1e-5 at q=64,
# 9.6e-6 at q=128.  Each tolerance is 6-10 times that.
TOLERANCES = {
    "exact_poly": {None: 1e-5},
    "float_smooth": {None: 2e-4},
    "float_kinked": {None: 1e-3, 64: 3e-4, 128: 1e-4},
}

DYADIC_LAMBDAS = ["0.5", "-0.5", "0.25", "-0.25", "1", "-1", "0.75", "1.5", "-2"]
DECIMAL_LAMBDAS = ["0.1", "-0.3", "0.7", "-1.1", "0.5", "-0.25", "1", "0.6"]
# Non-dyadic decimals: the exact path reads them as their binary value.
NON_DYADIC_LAMBDAS = ["0.1", "-0.3", "0.7"]

INTERVALS = {"U": (Q(0), Q(1)), "S": (Q(-1), Q(1)), "W": (Q(0), Q(2))}

# Largest degree that `auto` sends down the exact path at the seed commit;
# only used to list the quadrature rules the workload's set-up generates.
SEED_EXACT_CAP = 20

# Each template is a list of bands: (count, subcommand, degrees, where, ...).
# A band's ops cost about the same.  The bands are ordered by cost: many
# cheap ops, a band holding the median, a middle band, a band holding the
# 90th percentile, and a few of the most expensive ops.  Because a band of
# like-cost ops sits at each reported percentile, the percentile does not
# jump from one kind of op to another between seeds.  ``degrees`` may list
# several choices, used in turn across the band's ops.

# exact_poly: where = interval (U [0,1], S [-1,1], W [0,2]) or a builtin.
# auto mode: degrees up to 20 take the exact path at the seed, 21-30 float.
EXACT_POLY_BANDS = [
    # cheap: 42
    (12, "solve", [(2,), (3,), (4,)], "U"), (8, "solve", [(2,), (3,)], "S"),
    (8, "solve", [(2,), (3,)], "W"), (8, "table", [(2,), (3,), (4,)], "U"),
    (3, "solve", [(3,)], "example1"), (3, "solve", [(4,)], "example3"),
    # median band: 26, degree 5 on [0, 1]
    (16, "solve", [(5,)], "U"), (6, "table", [(5,)], "U"),
    (2, "converge", [(2, 3, 4)], "U"), (2, "solve", [(4,)], "example2"),
    # middle band: 26
    (8, "solve", [(6,)], "U"), (8, "solve", [(7,)], "U"), (3, "solve", [(5,)], "S"),
    (3, "solve", [(6,)], "W"), (2, "table", [(7,)], "U"), (1, "converge", [(3, 5, 7)], "U"),
    (1, "converge", [(2, 4, 6)], "example1"),
    # 90th-percentile band: 14, degree 9 on [0, 1] and the four ops past the
    # exact cap, which cost about the same on the float path
    (8, "solve", [(9,)], "U"), (1, "table", [(9,)], "U"), (1, "solve", [(9,)], "example3"),
    (2, "solve", [(22,), (23,)], "U"), (1, "table", [(24,)], "U"), (1, "solve", [(21,)], "S"),
    # most expensive: 4
    (1, "solve", [(12,)], "U"), (1, "solve", [(14,)], "U"), (1, "solve", [(16,)], "U"),
    (1, "solve", [(20,)], "U"),
]

# float_smooth: where = interval or example4, then kernel terms, used in turn:
# E = c*exp(al*x)*exp(be*t), C = c*cos(al*(x - t)), N = c*sin(al*x)*sin(be*t).
# basis bands give (a, b, samples) choices in place of kernel terms.
FLOAT_SMOOTH_BANDS = [
    # cheap: 42
    (16, "solve", [(3,), (4,), (5,), (6,)], "U", ["E", "C", "N", "EC"]),
    (12, "table", [(3,), (5,), (8,), (10,)], "S", ["C", "E", "N"]),
    (6, "basis", [(4,), (6,), (10,)], None, [(0.0, 1.0, 101), (-1.0, 1.0, 51), (0.0, 2.0, 51)]),
    (4, "solve", [(6,)], "example4", [""]), (4, "table", [(8,), (10,)], "example4", [""]),
    # median band: 26, degrees 10-14
    (16, "solve", [(10,)], "U", ["C", "E", "N", "C"]), (6, "table", [(14,)], "S", ["E", "C"]),
    (2, "solve", [(10,)], "example4", [""]), (2, "table", [(14,)], "example4", [""]),
    # middle band: 26
    (10, "solve", [(14,), (16,), (18,), (20,)], "S", ["E", "C", "N"]),
    (6, "table", [(20,), (30,)], "U", ["E", "C"]),
    (4, "converge", [(3, 4, 5, 6), (6, 8, 10), (10, 20)], "U", ["E", "C", "EC"]),
    (2, "converge", [(6, 8, 10, 12)], "example4", [""]),
    (2, "basis", [(20,), (40,)], None, [(0.0, 2.0, 201), (0.0, 1.0, 101)]),
    (2, "solve", [(20,)], "example4", [""]),
    # 90th-percentile band: 14, degree 25
    (11, "solve", [(25,)], "U", ["E", "C", "N"]), (2, "solve", [(25,)], "example4", [""]),
    (1, "table", [(40,)], "S", ["E"]),
    # most expensive: 4
    (1, "solve", [(30,)], "S", ["EC"]), (1, "solve", [(35,)], "U", ["C"]),
    (1, "solve", [(40,)], "U", ["E"]), (1, "solve", [(40,)], "example4", [""]),
]

# float_kinked: where = interval, then --quadrature (None = default order),
# then whether the kernel adds an x*t term.
FLOAT_KINKED_BANDS = [
    # cheap: 42, default order
    (24, "solve", [(2,), (3,), (4,), (5,), (6,), (7,), (8,)], "U", None, False),
    (10, "table", [(3,), (5,), (8,)], "S", None, False),
    (8, "solve", [(4,), (6,)], "S", None, True),
    # median band: 26, q = 64
    (18, "solve", [(2,), (4,), (6,), (8,)], "U", 64, False),
    (8, "table", [(3,), (7,)], "S", 64, False),
    # middle band: 26
    (10, "solve", [(3,), (5,), (7,)], "S", 64, True),
    (6, "converge", [(2, 4, 6), (3, 5, 7)], "U", None, False),
    (6, "converge", [(3, 5)], "U", 64, False),
    (4, "table", [(4,), (6,)], "U", 64, True),
    # 90th-percentile band: 14, q = 128
    (10, "solve", [(2,), (4,), (6,), (8,)], "U", 128, False),
    (4, "table", [(3,), (5,)], "S", 128, False),
    # most expensive: 4
    (2, "solve", [(5,), (7,)], "S", 128, True), (2, "converge", [(2, 8)], "U", 128, False),
]

_KERNEL_KINDS = {"E": "expexp", "C": "cosdiff", "N": "sinsin"}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    kind: str  # solve | table | converge | basis
    argv: tuple
    problem: Problem | None
    degrees: tuple
    tol: float
    q: int | None = None  # --quadrature; None = the program's default order
    basis: tuple | None = None  # (a, b, samples) for basis ops


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple  # manufactured problems, written as files
    cycle: tuple  # Ops in the order one cycle runs them
    probes: tuple  # exact solves with non-dyadic lambda (a known defect)

    def rules(self):
        """(degree, q) of every float solve in the cycle; q None = default."""
        out = set()
        for op in self.cycle:
            if op.kind == "basis":
                continue
            for n in op.degrees:
                if self.name != "exact_poly" or n > SEED_EXACT_CAP:
                    out.add((n, op.q))
        return sorted(out, key=lambda r: (r[0], r[1] or 0))


def _op(kind, problem, degrees, path, tol, q=None, mode=None):
    argv = [kind] + (["--builtin", problem.name] if problem.builtin else ["--problem", path])
    if kind == "converge":
        argv += ["--degrees", ",".join(str(n) for n in degrees)]
    else:
        argv += ["--degree", str(degrees[0])]
    if q is not None:
        argv += ["--quadrature", str(q)]
    if mode is not None:
        argv += ["--mode", mode]
    return Op(kind, tuple(argv), problem, tuple(degrees), tol, q)


def build(name: str, seed: int, problem_dir: str) -> Workload:
    """The workload's problems and cycle for this seed.

    ``problem_dir`` is where the caller writes the problem files; argv
    refers to them by that path.
    """
    if name not in WORKLOAD_NAMES:
        raise KeyError(name)
    rng = random.Random(f"{name}:{seed}")
    builtins = builtin_problems()
    tol = TOLERANCES[name]
    problems, cycle = [], []

    def manufactured(make, *args):
        problem = make(rng, f"p{len(problems):03d}", *args)
        problems.append(problem)
        return problem, f"{problem_dir}/{problem.name}.txt"

    if name == "exact_poly":
        for count, kind, choices, where in EXACT_POLY_BANDS:
            for k in range(count):
                degrees = choices[k % len(choices)]
                if where in builtins:
                    problem, path = builtins[where], None
                else:
                    problem, path = manufactured(poly_problem, rng.choice(DYADIC_LAMBDAS),
                                                 INTERVALS[where])
                cycle.append(_op(kind, problem, degrees, path, tol[None]))
    elif name == "float_smooth":
        for count, kind, choices, where, shapes in FLOAT_SMOOTH_BANDS:
            for k in range(count):
                degrees, shape = choices[k % len(choices)], shapes[k % len(shapes)]
                if kind == "basis":
                    a, b, samples = shape
                    argv = ("basis", "--degree", str(degrees[0]), "--interval-a", repr(a),
                            "--interval-b", repr(b), "--samples", str(samples))
                    cycle.append(Op("basis", argv, None, degrees, 0.0, basis=shape))
                    continue
                if where in builtins:
                    problem, path = builtins[where], None
                else:
                    kinds = [_KERNEL_KINDS[c] for c in shape]
                    problem, path = manufactured(smooth_problem, rng.choice(DECIMAL_LAMBDAS),
                                                 INTERVALS[where], kinds)
                cycle.append(_op(kind, problem, degrees, path, tol[None]))
    else:
        for count, kind, choices, where, q, smooth_part in FLOAT_KINKED_BANDS:
            for k in range(count):
                problem, path = manufactured(kinked_problem, rng.choice(DECIMAL_LAMBDAS),
                                             INTERVALS[where], smooth_part)
                cycle.append(_op(kind, problem, choices[k % len(choices)], path, tol[q], q=q))
    rng.shuffle(cycle)

    probes = []
    for lam in NON_DYADIC_LAMBDAS:
        problem, path = manufactured(poly_problem, lam, INTERVALS["U"])
        probes.append(_op("solve", problem, (3,), path, 0.0, mode="exact"))
    return Workload(name, tuple(problems), tuple(cycle), tuple(probes))
