import math
import random
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fredgal import cli
from fredgal.cli import MAX_GRID_POINTS, build_parser, fmt10, format_polynomial, main
from fredgal.errors import (
    _SPLIT_BITS,
    FredgalError,
    IllConditionedWarning,
    InputError,
    _endpoint_text,
    number_text,
)
from fredgal.problems import builtin

from exact_oracle import write_problem


EXACT_COLUMN_DEGREE5 = [
    "-0.1855612526",
    "-0.2050768999",
    "-0.2266450257",
    "-0.2504814912",
    "-0.2768248595",
    "-0.3059387842",
    "-0.3381146470",
    "-0.3736744748",
    "-0.4129741624",
    "-0.4564070342",
    "-0.5044077810",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt10_keeps_ten_significant_digits():
    assert fmt10(-0.504407781) == "-0.5044077810"
    assert fmt10(-0.338114647) == "-0.3381146470"
    assert fmt10(0.0) == "0.000000000"


def test_format_polynomial():
    from fractions import Fraction

    assert format_polynomial([Fraction(1), Fraction(0), Fraction(10, 9)]) == "1 + 10/9*x^2"
    assert format_polynomial([Fraction(0), Fraction(1)]) == "x"
    assert format_polynomial([0.0, -1.5, 0.25]) == "-1.5*x + 0.25*x^2"
    assert format_polynomial([]) == "0"


def test_solve_exact_builtin(capsys):
    code, out, err = run(capsys, "solve", "--builtin", "example1", "--degree", "3", "--mode", "exact")
    assert code == 0 and err == ""
    assert "coefficients: 19/9 17/27 17/27 19/9" in out
    assert "monomial: 1 + 10/9*x^2" in out
    assert "mode: exact" in out


def test_auto_solve_of_polynomial_data_is_exact_up_to_the_basis_cap(capsys):
    code, out, err = run(capsys, "solve", "--builtin", "example1", "--degree", "40")
    assert code == 0 and err == ""
    assert "mode: exact\n" in out
    assert "monomial: 1 + 10/9*x^2\n" in out


def test_solve_second_builtin(capsys):
    code, out, _ = run(capsys, "solve", "--builtin", "example2", "--degree", "3")
    assert code == 0
    assert "coefficients: -1 -1/3 1/3 1" in out
    assert "monomial: x" in out


def test_solve_float_mode_prints_quadrature(capsys):
    code, out, _ = run(capsys, "solve", "--builtin", "example4", "--degree", "3")
    assert code == 0
    assert "mode: float" in out
    assert "quadrature: 32" in out


def test_table_matches_reference_exact_column(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, _, err = run(
        capsys, "table", "--builtin", "example4", "--degree", "5", "--out", str(out_path)
    )
    assert code == 0 and err == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,exact,approx,E,E_kind"
    assert len(lines) == 12
    exact_column = [line.split(",")[1] for line in lines[1:]]
    assert exact_column == EXACT_COLUMN_DEGREE5
    assert all(line.split(",")[4] == "relative" for line in lines[1:])


def test_table_flags_zero_crossings(capsys):
    code, out, _ = run(capsys, "table", "--builtin", "example2", "--degree", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    kinds = {row[0]: row[4] for row in rows}
    assert kinds["0"] == "absolute-at-zero"
    assert kinds["1"] == "relative"


def test_table_grid_step(capsys):
    code, out, _ = run(
        capsys, "table", "--builtin", "example4", "--degree", "3", "--grid-step", "0.5"
    )
    assert code == 0
    xs = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert xs == ["0", "0.5", "1"]


def test_converge_decreasing(capsys):
    code, out, _ = run(
        capsys, "converge", "--builtin", "example4", "--degrees", "3,4,5,6"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,max_E,condition"
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(errors) == 4
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_basis_samples_partition_of_unity(capsys):
    code, out, _ = run(capsys, "basis", "--degree", "10", "--samples", "101")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x," + ",".join(f"B{i}" for i in range(11))
    assert len(lines) == 102
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0 and all(v == 0.0 for v in first[2:])
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[1:]]
        assert abs(sum(values) - 1.0) <= 1e-12


def test_basis_degree_zero(capsys):
    code, out, _ = run(capsys, "basis", "--degree", "0", "--samples", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,B0"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_basis_samples_equal_per_point_rows(capsys):
    from fredgal.basis import BasisSpec, basis_row

    code, out, _ = run(capsys, "basis", "--degree", "13", "--interval-a", "-1.3",
                       "--interval-b", "2.9", "--samples", "37")
    assert code == 0
    spec = BasisSpec(13, -1.3, 2.9)
    expected = ["x," + ",".join(f"B{i}" for i in range(14))]
    for x in np.linspace(-1.3, 2.9, 37):
        row = basis_row(spec, float(x))
        expected.append(format(float(x), ".17g") + "," + ",".join(format(v, ".17g") for v in row))
    assert out == "\n".join(expected) + "\n"


def per_value_basis_csv(n, xs, table):
    """The basis CSV with one format() call per value: the reference for
    the rows the ``basis`` subcommand formats with one % string."""
    lines = ["x," + ",".join(f"B{i}" for i in range(n + 1))]
    for x, row in zip(xs, table):
        lines.append(format(float(x), ".17g") + "," + ",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_basis_csv_rows_match_the_per_value_formatter(capsys, monkeypatch):
    # nan, ±inf, ±0, subnormals and the smallest normal float print as the
    # per-value formatter prints them
    import fredgal.cli

    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
                2.2250738585072014e-308, 1 / 3, -1e300, 0.1, 1.0]
    real, seen = fredgal.cli.basis_row, {}

    def with_specials(spec, xs):
        table = real(spec, xs)
        count = min(len(specials), table.size)
        table.flat[:count] = specials[:count]
        seen["xs"], seen["table"] = xs, table.copy()
        return table

    monkeypatch.setattr(fredgal.cli, "basis_row", with_specials)
    for n, samples, a, b in ((41, 201, "0", "2"), (2, 7, "-1.3", "2.9"), (0, 2, "-1e-300", "0")):
        code, out, _ = run(capsys, "basis", "--degree", str(n), "--samples", str(samples),
                           f"--interval-a={a}", f"--interval-b={b}")
        assert code == 0
        assert out == per_value_basis_csv(n, seen["xs"], seen["table"])


def test_byte_stable_output(capsys, tmp_path):
    args = ("table", "--builtin", "example4", "--degree", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    out_path = tmp_path / "t.csv"
    code, _, _ = run(capsys, *args, "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == first


def test_problem_file_through_cli(capsys, tmp_path):
    path = tmp_path / "p.fie"
    write_problem(builtin("example3"), path)
    code, out, _ = run(capsys, "solve", "--problem", str(path), "--degree", "3")
    assert code == 0
    assert "monomial: 180/119*x + 80/119*x^2" in out


def test_exit_code_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--builtin", "example9", "--degree", "3")
    assert code == 1 and "example1" in err

    code, _, err = run(capsys, "solve", "--builtin", "example1")
    assert code == 1 and err != ""

    code, _, err = run(capsys, "converge", "--builtin", "example4", "--degrees", "three")
    assert code == 1

    code, out, err = run(capsys, "converge", "--builtin", "example1", "--degrees", ",")
    assert code == 1 and out == "" and err == "error: --degrees must list at least one degree\n"

    # flags are taken as spelled in full, never as an abbreviation of another
    code, out, err = run(
        capsys, "converge", "--builtin", "example1", "--degrees", "1", "--degree", "3"
    )
    assert code == 1 and out == "" and err == "error: unrecognized arguments: --degree 3\n"
    code, out, err = run(capsys, "solve", "--builtin", "example1", "--deg", "3")
    assert code == 1 and out == "" and "--degree" in err

    code, out, err = run(capsys, "basis", "--degree", "2", "--samples", "1")
    assert code == 1 and out == "" and err == "error: --samples must be at least 2\n"

    # a problem file that cannot be read, or an --out path that cannot be written
    for argv in (
        ["solve", "--problem", str(tmp_path / "does-not-exist.fie"), "--degree", "2"],
        ["solve", "--problem", str(tmp_path), "--degree", "2"],  # a directory
        ["solve", "--builtin", "example1", "--degree", "2", "--out", str(tmp_path / "no" / "x")],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1), argv
        assert err.startswith("error: [Errno "), argv

    bad = tmp_path / "bad.fie"
    bad.write_text("interval_a = 0\ninterval_b = 1\n")
    code, _, err = run(capsys, "solve", "--problem", str(bad), "--degree", "3")
    assert code == 1 and "missing required key" in err

    no_exact = tmp_path / "noexact.fie"
    no_exact.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -1\n"
        "kernel = x*t\nrhs = 1\n"
    )
    code, _, err = run(capsys, "table", "--problem", str(no_exact), "--degree", "3")
    assert code == 1 and "exact" in err

    # the exact path solves on [1, 1 + 1e-20]; as floats both ends are 1.0
    empty = (
        "error: interval [1, 100000000000000000001/100000000000000000000] is empty "
        "in floating point: both endpoints round to 1.0\n"
    )
    collapsed = tmp_path / "collapsed.fie"
    for kernel, argv in [
        ("x*t", ["table", "--degree", "2"]),
        ("x*t", ["table", "--degree", "2", "--grid-step", "0.1"]),
        ("x*t", ["converge", "--degrees", "2"]),
        ("x*t", ["solve", "--degree", "2", "--mode", "float"]),
        ("exp(x*t)", ["solve", "--degree", "2"]),
    ]:
        collapsed.write_text(
            "interval_a = 1\ninterval_b = 1.00000000000000000001\ncoefficient = 1\n"
            f"lambda = 1\nkernel = {kernel}\nrhs = x\nexact = x\n"
        )
        code, out, err = run(capsys, *argv, "--problem", str(collapsed))
        assert code == 1 and out == "" and err == empty
    # [0, 1e-400] is empty in floating point too, and there u = (x-a)/(b-a) is 0/0
    for argv in (
        ["converge", "--degrees", "1,2"],
        ["table", "--degree", "1", "--grid-step", "0.1"],
    ):
        code, out, err, caught = run_problem(capsys, tmp_path / "tiny.fie", TINY_TEXT, *argv)
        assert (code, out, caught) == (1, "", [])
        # the endpoint is quoted in exponent form, not as a 401-digit denominator
        assert err == (
            "error: interval [0, 1e-400] is empty in floating point: both endpoints round to 0.0\n"
        )


def test_exit_code_solver_errors(capsys, tmp_path):
    code, _, err = run(
        capsys, "solve", "--builtin", "example4", "--degree", "3", "--mode", "exact"
    )
    assert code == 2 and "exact" in err

    singular = tmp_path / "singular.fie"
    singular.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -1\n"
        "kernel = 1\nrhs = 1\n"
    )
    code, _, err = run(capsys, "solve", "--problem", str(singular), "--degree", "2")
    assert code == 2 and err != ""

    # a = 0 and lambda = 0 give the zero matrix, which numpy cannot invert
    zero = tmp_path / "zero.fie"
    zero.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 0\nlambda = 0\n"
        "kernel = x*t\nrhs = 1\n"
    )
    code, out, err = run(capsys, "solve", "--problem", str(zero), "--degree", "2", "--mode", "float")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: projection system is singular (condition inf ")
    code, out, err = run(capsys, "solve", "--problem", str(zero), "--degree", "2")
    assert code == 2 and out == "" and err == "error: no nonzero pivot in column 0\n"


def test_oversized_power_is_refused_by_both_paths(capsys, tmp_path):
    # 3^100000000 is too large to expand exactly and overflows as a float
    path = tmp_path / "power.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -1\n"
        "kernel = x*t\nrhs = 1 + 3^100000000*0\n"
    )
    for mode in ("auto", "float"):
        code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2", "--mode", mode)
        assert code == 2 and out == ""
        assert err == "error: rhs expression: 3.0 ^ 100000000.0 is undefined (offset 5)\n"


def test_oversized_literal_is_refused_by_both_paths(capsys, tmp_path):
    # 1e10000000 is too large to expand exactly (its power of ten is never
    # built) and is inf as a float, so inf*0 leaves nan in the system
    path = tmp_path / "literal.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -1\n"
        "kernel = x*t\nrhs = 1 + 1e10000000*0\n"
    )
    for mode in ("auto", "float"):
        code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2", "--mode", mode)
        assert code == 2 and out == ""
        assert err == "error: assembled system contains nonfinite entries\n"


def test_quadrature_order_not_above_the_degree_is_an_input_error(capsys):
    # q <= n nodes always give a singular system: the order is at fault, not the operator
    code, out, err = run(
        capsys, "solve", "--builtin", "example4", "--degree", "3", "--quadrature", "3"
    )
    assert code == 1 and out == "" and "quadrature order 3 must exceed the degree 3" in err
    code, _, _ = run(capsys, "solve", "--builtin", "example4", "--degree", "3", "--quadrature", "4")
    assert code == 0


@pytest.mark.parametrize("q", ["0", "-5", "500"])
def test_quadrature_order_outside_the_rules_is_an_input_error_on_either_path(capsys, q):
    # the exact path uses no rule, but an order outside 1..128 is refused there too
    for argv in (
        ["solve", "--builtin", "example1", "--degree", "2"],
        ["converge", "--builtin", "example1", "--degrees", "2,3"],
        ["solve", "--builtin", "example1", "--degree", "2", "--mode", "exact"],
    ):
        code, out, err = run(capsys, *argv, "--quadrature", q)
        assert (code, out, err) == (1, "", f"error: order {q} outside 1..128\n"), argv
    # the float path's messages and the order of its checks are kept
    code, out, err = run(
        capsys, "solve", "--builtin", "example4", "--degree", "2", "--quadrature", q
    )
    assert code == 1 and out == ""
    assert err == (
        "error: order 500 outside 1..128\n" if q == "500" else
        f"error: quadrature order {q} must exceed the degree 2: with q <= n nodes the "
        "projection system is singular\n"
    )


def test_problem_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.fie"
    path.write_bytes(PROBLEM_TEXT.replace("rhs = x", "rhs = x\xff").encode("latin-1"))
    code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    offset = PROBLEM_TEXT.index("rhs = x") + len("rhs = x")
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: not UTF-8 text: byte 0xff at offset {offset} (invalid start byte)\n"
    )
    # a binary file, with a byte-order mark counted in the offset
    path.write_bytes(b"\xef\xbb\xbf\x7fELF\x02\x01\x01\x00\xd0\x00")
    code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: not UTF-8 text: byte 0xd0 at offset 11 (invalid continuation byte)\n"
    )


def test_problem_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    plain = tmp_path / "plain.fie"
    plain.write_text(PROBLEM_TEXT, encoding="utf-8")
    marked = tmp_path / "marked.fie"
    marked.write_text(PROBLEM_TEXT, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfinterval_a")
    want = run(capsys, "solve", "--problem", str(plain), "--degree", "2")
    assert want[0] == 0
    assert run(capsys, "solve", "--problem", str(marked), "--degree", "2") == want


def test_exact_solve_reports_infinite_condition_of_float_singular_system(capsys, tmp_path):
    # exactly read, lambda leaves the system regular; as a float it is -1.0
    path = tmp_path / "near.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -0.99999999999999999\n"
        "kernel = 1\nrhs = 1\n"
    )
    with pytest.warns(IllConditionedWarning):
        code, out, _ = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    assert code == 0
    assert "coefficients: 100000000000000000 100000000000000000 100000000000000000\n" in out
    assert "condition: inf\n" in out
    code, _, err = run(capsys, "solve", "--problem", str(path), "--degree", "2", "--mode", "float")
    assert code == 2 and "singular" in err


def test_errors_never_print_tracebacks(capsys):
    _, _, err = run(capsys, "solve", "--builtin", "example4", "--degree", "3", "--mode", "exact")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("lambda = -1", "lambda = inf"),
        ("lambda = -1", "lambda = nan"),
        ("lambda = -1", "lambda = 1e400"),
        ("interval_b = 1", "interval_b = inf"),
    ],
)
def test_nonfinite_number_is_an_input_error(capsys, tmp_path, old, new):
    path = tmp_path / "p.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -1\n"
        "kernel = x*t\nrhs = x\n".replace(old, new)
    )
    code, _, err = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    assert code == 1 and "line" in err and "Traceback" not in err


def test_exact_solve_reports_infinite_condition_of_system_beyond_float_range(capsys, tmp_path):
    path = tmp_path / "huge.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = -1\n"
        "kernel = 1e400*x*t\nrhs = x\n"
    )
    with pytest.warns(IllConditionedWarning):
        code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    assert code == 0 and "Traceback" not in err
    assert "mode: exact\n" in out and "condition: inf\n" in out
    code, _, err = run(capsys, "solve", "--problem", str(path), "--degree", "2", "--mode", "float")
    assert code == 2 and err == "error: assembled system contains nonfinite entries\n"


@pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0"])
def test_grid_step_must_be_finite_and_positive(capsys, step):
    code, out, err = run(
        capsys, "table", "--builtin", "example4", "--degree", "3", f"--grid-step={step}"
    )
    assert code == 1 and out == "" and "--grid-step" in err and "Traceback" not in err


@pytest.mark.parametrize("endpoint", ["--interval-b=inf", "--interval-a=-inf", "--interval-b=nan"])
def test_basis_rejects_nonfinite_endpoints(capsys, endpoint):
    code, out, err = run(capsys, "basis", "--degree", "2", "--samples", "3", endpoint)
    assert code == 1 and out == "" and "finite" in err


@pytest.mark.parametrize("step", ["1e-300", "5e-324", "1e-6"])
def test_grid_step_beyond_the_point_cap_is_refused_before_any_point_is_built(capsys, step):
    # example4 is on [0, 1]: step 1e-6 asks for 10^6 + 1 points, one past the cap
    code, out, err = run(
        capsys, "table", "--builtin", "example4", "--degree", "3", f"--grid-step={step}"
    )
    assert code == 1 and out == "" and "--grid-step" in err and "Traceback" not in err
    assert str(MAX_GRID_POINTS) in err


@pytest.mark.parametrize("samples", [MAX_GRID_POINTS + 1, 10**12])
def test_basis_samples_beyond_the_point_cap_are_refused(capsys, samples):
    code, out, err = run(capsys, "basis", "--degree", "2", "--samples", str(samples))
    assert code == 1 and out == "" and "--samples" in err and "Traceback" not in err


def test_float_solve_prints_out_of_range_monomial_coefficients_as_infinities(capsys, tmp_path):
    # phi is close to 1e300·(2x - 1)^30: Bernstein coefficients near ±1e300,
    # monomial coefficients 1e300·C(30,k)·2^k, past the float range from
    # k = 7 on.  The conversion rounds those coefficients to ±inf
    path = tmp_path / "huge_rhs.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = 1\n"
        "kernel = exp(x*t)\nrhs = 1e300*(2*x - 1)^30\n"
    )
    code, out, err = run(
        capsys, "solve", "--problem", str(path), "--degree", "30", "--mode", "float"
    )
    assert code == 0 and "Traceback" not in err
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert all(np.isfinite(float(c)) for c in lines["coefficients"].split())
    assert "*x^6 - inf*x^7 + inf*x^8" in lines["monomial"]
    assert lines["monomial"].endswith("- inf*x^29 + inf*x^30")


def test_exponent_past_the_int_string_limit(capsys, tmp_path):
    # 4e0…01 with 4,301 zeros is 40, so phi + ∫ x·t·phi(t) dt = 40·x on
    # [0, 1] is solved exactly by phi = 30·x
    path = tmp_path / "exponent.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = 1\n"
        f"kernel = x*t\nrhs = 4e{'0' * 4301}1*x\nexact = 30*x\n"
    )
    code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    assert code == 0 and err == ""
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["mode"] == "exact"
    assert lines["coefficients"] == "0 15 30"


@pytest.mark.parametrize(
    "rhs, scale",
    [("1" * 5000 + "*x", int(Decimal("1" * 5000))), ("2^50000*x", 2**50000)],
    ids=["5000-digit literal", "2^50000"],
)
def test_exact_results_past_the_int_string_limit(capsys, tmp_path, rhs, scale):
    # phi + ∫ x·t·phi(t) dt = K·x on [0, 1] is solved by phi = 3K/4·x, whose
    # numbers have more digits than Python converts between int and str by
    # default: `solve` prints them in full, and `table` and `converge`,
    # which evaluate phi in floats, end in a typed error
    path = tmp_path / "big.fie"
    path.write_text(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = 1\n"
        f"kernel = x*t\nrhs = {rhs}\nexact = x\n"
    )
    code, out, err = run(capsys, "solve", "--problem", str(path), "--degree", "2")
    assert code == 0 and err == ""
    lines = dict(line.split(": ", 1) for line in out.splitlines())

    def text(c):
        c = Fraction(c)
        digits = str(Decimal(c.numerator))
        return digits if c.denominator == 1 else f"{digits}/{Decimal(c.denominator)}"

    c = Fraction(3 * scale, 4)
    assert lines["mode"] == "exact"
    assert lines["coefficients"] == f"0 {text(c / 2)} {text(c)}"
    assert lines["monomial"] == f"{text(c)}*x"
    for argv in (("table", "--degree", "2"), ("converge", "--degrees", "1,2")):
        code, out, err = run(capsys, argv[0], "--problem", str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err == "error: a coefficient of the solution is beyond the float range\n"


def test_number_text_writes_the_digits_decimal_writes_on_either_side_of_the_split():
    # past _SPLIT_BITS an integer is converted half by half; the text stays str(Decimal(n))
    rng = random.Random(2013)
    for bits in (1, 128, 129, 4000, _SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1,
                 _SPLIT_BITS + 129, 3 * _SPLIT_BITS):
        for n in (rng.getrandbits(bits) | 1 << (bits - 1), 1 << (bits - 1), (1 << bits) - 1):
            assert number_text(n) == str(Decimal(n))
            assert number_text(-n) == str(Decimal(-n))
            assert number_text(Fraction(n, 3 * n + 1)) == f"{Decimal(n)}/{Decimal(3 * n + 1)}"
    assert number_text(0) == "0" and number_text(Fraction(-1, 2)) == "-1/2"
    # and in time near linear in the digits: a million bits took 1.9 s through Decimal(n)
    n = rng.getrandbits(1_000_000)
    start = time.perf_counter()
    number_text(n)
    assert time.perf_counter() - start < 1.0


def test_endpoint_text_quotes_a_long_endpoint_by_its_first_ten_digits():
    assert _endpoint_text(Fraction(1, 10**400)) == "1e-400"
    assert _endpoint_text(-Fraction(2, 3 * 10**400)) == "-6.666666667e-401"
    # rounded once, exactly: nine nines past the tenth digit carry into it
    assert _endpoint_text(Fraction(10**401 - 1, 10**801)) == "1e-400"
    assert _endpoint_text(Fraction(12345678905, 10**410)) == "1.23456789e-400"  # half to even
    assert _endpoint_text(10**63) == "1" + "0" * 63  # 64 characters: written in full
    assert _endpoint_text(10**64 + 5 * 10**54) == "1e+64"  # 65 digits, and half to even
    assert _endpoint_text(7 * 10**64 + 10**55) == "7.000000001e+64"
    assert _endpoint_text(Fraction(100000000000000000001, 100000000000000000000)) == (
        "100000000000000000001/100000000000000000000"
    )
    assert _endpoint_text(0.5) == "0.5"


PROBLEM_TEXT = (
    "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = 1\nkernel = x*t\nrhs = x\n"
)


def run_problem(capsys, path, text, *argv):
    """(exit code, stdout, stderr, warnings) of the CLI on one problem file."""
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--problem", str(path))
    return code, out, err, caught


def test_float_solve_of_data_beyond_the_float_range_writes_one_error_line(capsys, tmp_path):
    text = PROBLEM_TEXT.replace("rhs = x", "rhs = 1e400*x")
    code, out, err, caught = run_problem(
        capsys, tmp_path / "inf.fie", text, "solve", "--degree", "2", "--mode", "float"
    )
    assert (code, out, caught) == (2, "", [])
    assert err == "error: assembled system contains nonfinite entries\n"


def test_float_solve_whose_coefficients_overflow_writes_one_error_line(capsys, tmp_path):
    text = (
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1e-300\nlambda = 0\n"
        "kernel = exp(x*t)\nrhs = 1e300*exp(x)\nexact = exp(x)\n"
    )
    for argv in (["solve", "--degree", "3"], ["table", "--degree", "3"],
                 ["converge", "--degrees", "2,3"]):
        code, out, err, caught = run_problem(capsys, tmp_path / "huge.fie", text, *argv)
        assert (code, out, caught) == (2, "", []), argv
        assert err == "error: solution coefficients are beyond the float range\n"


WIDE_TEXT = (
    "interval_a = -1e308\ninterval_b = 1e308\ncoefficient = 1\nlambda = 0\n"
    "kernel = x*t\nrhs = 1\nexact = 1\n"
)


# [0, 1e-400]: the upper end rounds to 0.0
TINY_TEXT = (
    "interval_a = 0\ninterval_b = 1e-400\ncoefficient = 1\nlambda = 1\n"
    "kernel = x*t\nrhs = x\nexact = x\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--degree", "2"),
        ("converge", "--degrees", "1,2"),
        ("solve", "--degree", "2", "--mode", "float"),
    ],
)
def test_interval_wider_than_the_float_range_has_no_grid(capsys, tmp_path, argv):
    # b - a overflows: a grid would blame --grid-step, or hold inf and NaN,
    # and the float system would not be finite
    code, out, err, caught = run_problem(capsys, tmp_path / "wide.fie", WIDE_TEXT, *argv)
    assert (code, out, caught) == (1, "", [])
    assert err == "error: interval [-1e+308, 1e+308] is wider than the float range\n"


def test_interval_wider_than_the_float_range_solves_exactly(capsys, tmp_path):
    code, out, err, caught = run_problem(
        capsys, tmp_path / "wide.fie", WIDE_TEXT, "solve", "--degree", "2"
    )
    assert (code, err, caught) == (0, "", [])
    assert "coefficients: 1 1 1\n" in out
    # an interval with no float points is no obstacle to the exact path either
    code, out, err, caught = run_problem(
        capsys, tmp_path / "tiny.fie", TINY_TEXT, "solve", "--degree", "2"
    )
    assert (code, err, caught) == (0, "", [])
    # where the float views are one point, the interval line quotes the exact endpoints
    assert out.startswith("mode: exact\ndegree: 2\ninterval: [0, 1e-400]\n")
    code, out, err, caught = run_problem(
        capsys, tmp_path / "collapsed.fie",
        TINY_TEXT.replace("interval_a = 0", "interval_a = 1").replace("1e-400", "1.00000000000000000001"),
        "solve", "--degree", "2",
    )
    assert (code, err, caught) == (0, "", [])
    assert "\ninterval: [1, 100000000000000000001/100000000000000000000]\n" in out


def test_basis_interval_wider_than_the_float_range_is_an_input_error(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "basis", "--degree", "2", "--interval-a=-1e308", "--interval-b=1e308",
            "--samples", "3",
        )
    assert (code, out, caught) == (1, "", [])
    assert err == "error: interval [-1e+308, 1e+308] is wider than the float range\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ("rhs = x", "rhs = " + "+".join(["x"] * 3000)),
        ("rhs = x", "rhs = " + "(" * 2000 + "x" + ")" * 2000),
        ("rhs = x", "rhs = " + "-" * 2000 + "x"),
        ("rhs = x", "rhs = x" + "^1" * 2000),
        ("lambda = 1", "lambda = 1e-1000000"),
        ("interval_b = 1", "interval_b = 1e-300000"),
    ],
    ids=["3000-term sum", "2000 parentheses", "2000 minuses", "2000 powers",
         "lambda 1e-1000000", "interval_b 1e-300000"],
)
def test_deep_expressions_and_oversized_numbers_are_input_errors(capsys, tmp_path, old, new):
    start = time.perf_counter()
    code, out, err, _ = run_problem(
        capsys, tmp_path / "p.fie", PROBLEM_TEXT.replace(old, new), "solve", "--degree", "2"
    )
    assert time.perf_counter() - start < 1.0
    key = new.split(" =")[0]
    assert code == 1 and out == ""
    assert err.startswith("error: line ") and err.count("\n") == 1 and f"'{key}'" in err


@pytest.mark.parametrize("mode", ["auto", "exact"])
def test_exact_solve_past_the_work_bound_is_refused_before_it_starts(capsys, tmp_path, mode):
    # a 100,000-bit endpoint kept the exact path busy for many seconds at degree 4
    text = PROBLEM_TEXT.replace("interval_a = 0", "interval_a = 1e-30000")
    text = text.replace("interval_b = 1", "interval_b = 0.75")
    start = time.perf_counter()
    code, out, err, caught = run_problem(
        capsys, tmp_path / "p.fie", text, "solve", "--degree", "4", "--mode", mode
    )
    assert time.perf_counter() - start < 1.0
    assert caught == []
    if mode == "auto":
        assert code == 0 and err == "" and out.startswith("mode: float\n")
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: exact solve past the work bound") and err.count("\n") == 1


EXTREME_NUMBERS = [
    "1e-30000", "0e100000", "1e-1000000", "1e-300000", "1e400", "inf", "nan", "1/0", "_4",
    "4_6.0_5", "1" * 5000, "1e-" + "9" * 19, "x", "",
]
LEAVES = ["1", "0", "0.5", "2.5e-3", "pi", "e", "0.1", "3", "10/9"]
EXTREME_LEAVES = ["1e400", "1e-400", "7" * 5000, "1e" + "0" * 4400 + "3", "1e-31000", "0e99999"]
BROKEN = ["x +", "(x", "x)", "2x", "x $ t", "y", "exp x", "1..2", "x^^2", ""]


def fuzz_expression(rng, depth, names="x"):
    """Expression text in the variables ``names``: literals, constants,
    every function, powers, unary minus and the four operators."""
    pick = rng.random()
    if depth == 0 or pick < 0.25:
        return rng.choice(LEAVES + list(names) * 4)

    def sub():
        return f"({fuzz_expression(rng, depth - 1, names)})"

    if pick < 0.4:
        return f"{rng.choice(['exp', 'sin', 'cos', 'log', 'sqrt'])}{sub()}"
    if pick < 0.5:
        return f"{sub()}^{rng.choice(['2', '3', '0.5', '-1', '100'])}"
    if pick < 0.55:
        return f"-{sub()}"
    return f"{sub()} {rng.choice('+-*/')} {sub()}"


def deep_expression(rng):
    k = rng.choice([50, 99, 100, 101, 150, 2000])
    return rng.choice(["(" * k + "x" + ")" * k, "-" * k + "x", "x" + "^1" * k,
                       "+".join(["x"] * k), "sin(" * k + "x" + ")" * k])


def test_fuzzed_problem_files_end_in_a_result_or_one_error_line(capsys, tmp_path):
    # each file is a random problem with at most one extreme piece: a number
    # past the float range or the size rule, or badly written; an expression
    # nested near or past the depth bound; a long or extreme literal; or
    # broken expression text
    rng = random.Random(2013)
    path = tmp_path / "fuzz.fie"
    codes = []
    start = time.perf_counter()
    for _ in range(200):
        pairs = {
            "interval_a": rng.choice(["0", "-1", "0.5", "-0.25"]),
            "interval_b": rng.choice(["1", "2", "1.5", "0.75"]),
            "lambda": rng.choice(["1", "-1", "0.5", "1/3", "-0.3", "2"]),
            "coefficient": rng.choice(["1", "2 + x", "1 + x^2", fuzz_expression(rng, 1)]),
            "kernel": fuzz_expression(rng, 3, "xt"),
            "rhs": fuzz_expression(rng, 3),
        }
        key = rng.choice(list(pairs))
        if key in ("interval_a", "interval_b", "lambda"):
            pairs[key] = rng.choice(EXTREME_NUMBERS)
        elif rng.random() < 0.4:
            pairs[key] = deep_expression(rng)
        elif rng.random() < 0.5:
            pairs[key] = f"({pairs[key]}) * {rng.choice(EXTREME_LEAVES)}"
        else:
            pairs[key] = rng.choice(BROKEN)
        text = "".join(f"{key} = {value}\n" for key, value in pairs.items())
        argv = ("solve", "--degree", str(rng.randint(1, 4)), "--mode",
                rng.choice(["auto", "auto", "float", "exact"]))
        case_start = time.perf_counter()
        code, out, err, caught = run_problem(capsys, path, text, *argv)
        assert time.perf_counter() - case_start < 1.0, text[:300]
        assert code in (0, 1, 2), text[:300]
        if code:
            assert out == "" and caught == [], text[:300]
            assert err.startswith("error: ") and err.count("\n") == 1, text[:300]
        codes.append(code)
    assert time.perf_counter() - start < 2.0
    # results and both kinds of error occur in quantity
    assert min(codes.count(0), codes.count(1), codes.count(2)) > 20


# -- the argument parser's own output, byte for byte -------------------------

TOP_HELP = """\
usage: fredgal [-h] {solve,table,converge,basis} ...

Solve second-kind Fredholm integral equations with a Bernstein-basis Galerkin
method.

positional arguments:
  {solve,table,converge,basis}
    solve               print expansion coefficients
    table               CSV error table on a point grid
    converge            CSV max-error study over degrees
    basis               CSV of sampled basis functions

options:
  -h, --help            show this help message and exit
"""

SOLVE_HELP = """\
usage: fredgal solve [-h] (--builtin NAME | --problem PATH) --degree N
                     [--quadrature Q] [--mode {auto,float,exact}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --builtin NAME        bundled problem (example1, example2, example3,
                        example4)
  --problem PATH        problem file to load
  --degree N
  --quadrature Q
  --mode {auto,float,exact}
  --out PATH
"""

EXAMPLE1_DEGREE2 = """\
mode: exact
degree: 2
interval: [-1, 1]
coefficients: 19/9 -1/9 19/9
monomial: 1 + 10/9*x^2
condition: 3.06295
"""

COMMANDS = "(choose from 'solve', 'table', 'converge', 'basis')"

# (argv, exit code, stdout, stderr); help exits through SystemExit(0)
USAGE_CASES = [
    ((), 1, "", "error: the following arguments are required: command\n"),
    (("-h",), 0, TOP_HELP, ""),
    (("--help",), 0, TOP_HELP, ""),
    (("solve", "--help"), 0, SOLVE_HELP, ""),
    (("frobnicate",), 1, "", f"error: argument command: invalid choice: 'frobnicate' {COMMANDS}\n"),
    (("--", "solve", "--builtin", "example1", "--degree", "2"), 0, EXAMPLE1_DEGREE2, ""),
    (("solve", "--builtin=example1", "--degree=2"), 0, EXAMPLE1_DEGREE2, ""),
    (("table", "--builtin", "example1", "--degree=two"), 1, "",
     "error: argument --degree: invalid int value: 'two'\n"),
    (("solve", "--builtin", "example1", "--deg", "2"), 1, "",
     "error: the following arguments are required: --degree\n"),
    (("converge", "--builtin", "example1", "--degree", "2"), 1, "",
     "error: the following arguments are required: --degrees\n"),
    (("solve", "--builtin", "example1"), 1, "",
     "error: the following arguments are required: --degree\n"),
    (("solve", "--degree", "2"), 1, "",
     "error: one of the arguments --builtin --problem is required\n"),
    (("solve", "--builtin", "example1", "--problem", "p.txt", "--degree", "2"), 1, "",
     "error: argument --problem: not allowed with argument --builtin\n"),
    (("solve", "--builtin", "example1", "--degree", "2", "extra"), 1, "",
     "error: unrecognized arguments: extra\n"),
    (("solve", "--builtin", "example1", "--degree", "2", "--mode", "fast"), 1, "",
     "error: argument --mode: invalid choice: 'fast' (choose from 'auto', 'float', 'exact')\n"),
    (("converge", "--builtin", "example1", "--degrees", "1,x"), 1, "",
     "error: --degrees expects comma-separated integers, got '1,x'\n"),
    (("basis", "--degree", "2", "--interval-a", "-1e-3"), 1, "",
     "error: argument --interval-a: expected one argument\n"),
    (("--",), 1, "", "error: the following arguments are required: command\n"),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_CASES)
def test_usage_output_is_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        got = main(argv)  # a tuple, as a caller may pass
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_subcommand_parser_called_directly_answers_as_the_full_parser(capsys, monkeypatch):
    # main hands argv[1:] to a named subcommand's own parser; with no
    # subcommand parsers to hand to, every argv goes through the full parser
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(2013)
    pieces = ["--builtin", "example1", "example9", "--problem", "/nonexistent", "--degree",
              "--degrees", "2", "1,2", "x", "--quadrature", "0", "--mode", "exact", "fast",
              "--grid-step", "-0.5", "--interval-a", "--samples", "-h", "--", "--deg", "--degree=3"]
    argvs = [argv for argv, *_ in USAGE_CASES]
    argvs += [(rng.choice(["solve", "table", "converge", "basis"]),
               *rng.choices(pieces, k=rng.randint(0, 6))) for _ in range(300)]
    direct = [outcome(capsys, argv) for argv in argvs]
    parser, _ = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: (parser, {}))
    assert [outcome(capsys, argv) for argv in argvs] == direct


def error_classes(cls=FredgalError):
    """cls and every class below it, so that one added later is not missed."""
    return [cls, *(sub for direct in cls.__subclasses__() for sub in error_classes(direct))]


# every error that blames the input, each by name so that moving one under
# another base fails; a new InputError subclass is added here, or this test fails
INPUT_ERRORS = {"InputError", "InvalidProblem", "InvalidDegree", "InvalidInterval",
                "OrderOutOfRange", "UnknownBuiltin", "ProblemFileError", "MissingKey",
                "DuplicateKey", "UnknownKey", "ExpressionError", "BadInterval"}


@pytest.mark.parametrize("cls", [*error_classes(), OSError], ids=lambda cls: cls.__name__)
def test_the_exit_code_follows_the_error_type(capsys, monkeypatch, cls):
    def handler(args):
        # __new__ alone gives every error class the same message, whatever
        # its __init__ asks for
        raise cls.__new__(cls, "boom")

    parser, commands = cli.build_parser.__wrapped__()  # a parser of its own to change
    commands["solve"].set_defaults(handler=handler)
    monkeypatch.setattr(cli, "build_parser", lambda: (parser, commands))
    assert INPUT_ERRORS <= {error.__name__ for error in error_classes()}
    input_error = cls.__name__ in INPUT_ERRORS
    code = 1 if input_error or cls is OSError else 2
    assert run(capsys, "solve", "--builtin", "example1", "--degree", "2") == (code, "", "error: boom\n")
    assert issubclass(cls, InputError) == input_error
