"""The package's public surface: each exported name resolves and is listed
once, the exports are what a caller of ``solve`` needs and what the README
documents, the stages behind ``solve`` stay on their modules only, every
public function or class is exported or used by the package, names
removed from the package are neither exported nor left behind on their
modules, every name the benchmark's tracer wraps still resolves, and the
package needs nothing beyond the standard library and numpy."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import fredgal

REMOVED = [
    ("fredgal.quadrature", "integrate_1d"),
    ("fredgal.quadrature", "integrate_2d"),
    ("fredgal.basis", "bernstein_value"),
    ("fredgal.basis", "basis_integral"),
    ("fredgal.errors", "IndexOutOfRange"),
    ("fredgal.linalg", "MAX_CONDITION_DIM"),
    ("fredgal.galerkin", "GalerkinSystem"),
    ("fredgal.basis", "BasisSpec.size"),
    ("fredgal.exact", "residual_poly"),
    ("fredgal.exact", "BivarPoly.swap_vars"),
    ("fredgal.exact", "BivarPoly.integrate_t"),
    ("fredgal.linalg", "LUFactors"),
    ("fredgal.linalg", "lu_factor"),
    ("fredgal.linalg", "lu_solve"),
    ("fredgal.linalg", "condition_1norm"),
    ("fredgal.linalg", "PIVOT_REL_TOL"),
    ("fredgal.errors", "SingularMatrix"),
    ("fredgal.exact", "MAX_EXACT_DEGREE"),
    ("fredgal.expr", "to_text"),
    ("fredgal.problems", "format_problem"),
    ("fredgal.problems", "write_problem"),
    ("fredgal.problems", "NUMBER_KEYS"),
    ("fredgal.expr", "_integer"),
    ("fredgal.expr", "_NUMBER"),
    ("fredgal.expr", "_NAME"),
    ("fredgal.problems", "_BUILTIN_SPECS"),
    ("fredgal.cli", "format_coefficients"),
    ("fredgal.cli", "emit_basis_samples"),
    ("fredgal.exact", "BivarPoly"),
    ("fredgal.exact", "MAX_TOTAL_DEGREE"),
    ("fredgal.cli", "UsageError"),
    ("fredgal.cli", "_USAGE_ERRORS"),
    ("fredgal.problems", "_PLAIN_NUMBER"),
    *(
        ("fredgal.exact", f"BivarPoly.{name}")
        for name in (
            "__add__", "__sub__", "__neg__", "__mul__", "__pow__",
            "scale", "const", "variable", "constant_value", "is_zero",
        )
    ),
]


EXPORTED = {
    "BasisSpec", "BUILTIN_NAMES", "ConvergenceRow", "ErrorRow", "FredgalError",
    "FredholmProblem", "Solution", "basis_row", "bernstein_to_monomial", "builtin",
    "convergence_study", "error_table", "evaluate", "evaluate_solution",
    "load_problem", "parse", "parse_problem", "solve",
}

# the stages behind solve: module-level helpers, not package API
STAGES = [
    ("fredgal.basis", "check_degree"),
    ("fredgal.basis", "check_interval"),
    ("fredgal.galerkin", "assemble"),
    ("fredgal.galerkin", "as_exact_problem"),
    ("fredgal.galerkin", "default_quadrature_order"),
    ("fredgal.exact", "ExactProblem"),
    ("fredgal.exact", "exact_assemble"),
    ("fredgal.exact", "solve_rational_system"),
    ("fredgal.expr", "to_polynomial"),
    ("fredgal.expr", "variables"),
    ("fredgal.quadrature", "check_order"),
    ("fredgal.quadrature", "gauss_legendre"),
    ("fredgal.quadrature", "QuadratureRule"),
]


def test_every_exported_name_resolves_once():
    assert len(fredgal.__all__) == len(set(fredgal.__all__))
    for name in fredgal.__all__:
        assert getattr(fredgal, name, None) is not None, name


def test_the_exports_are_what_a_caller_of_solve_needs():
    assert set(fredgal.__all__) == EXPORTED


@pytest.mark.parametrize("module, name", STAGES)
def test_stage_resolves_on_its_module_only(module, name):
    assert not hasattr(fredgal, name)
    assert getattr(importlib.import_module(module), name, None) is not None


def test_the_readme_library_section_uses_exported_names_only():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    used = set(re.findall(r"\bfg\.(\w+)", section))
    assert used and used <= set(fredgal.__all__)


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; scipy is for the tests only
    src = Path(fredgal.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_every_public_function_or_class_is_exported_or_used_by_the_package():
    # no public function that only the tests call: a module-level function
    # or class without a leading underscore is in __all__, or some module of
    # the package reads its name
    src = Path(fredgal.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        f"{filename}:{node.name}"
        for filename, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in fredgal.__all__
        and node.name not in used
    ]
    assert unused == []


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert name not in fredgal.__all__
    assert not hasattr(fredgal, name)
    if importlib.util.find_spec(module) is None:
        return  # the whole module is gone
    *owners, attr = name.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        if not hasattr(owner, part):
            return  # the owner is gone, and its attributes with it
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)


def test_benchmark_tracer_targets_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    galerkin = importlib.import_module("fredgal.galerkin")
    original = galerkin.assemble
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert galerkin.assemble is not original
        assert tracer.missing == [
            "fredgal.exact.bernstein_poly_exact",
            "fredgal.basis.bernstein_poly_exact",
            "fredgal.exact.BivarPoly.__mul__",
            "fredgal.galerkin.lu_factor",
            "fredgal.galerkin.lu_solve",
            "fredgal.galerkin.condition_1norm",
            "fredgal.linalg.lu_factor",
            "fredgal.linalg.lu_solve",
        ]
    finally:
        tracer.uninstall()
    assert galerkin.assemble is original
