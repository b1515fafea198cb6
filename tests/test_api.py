"""The package's public surface: each exported name resolves and is listed
once, names removed from the package are neither exported nor left behind
on their modules, and every name the benchmark's tracer wraps still
resolves."""

import importlib
import importlib.util
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
]


def test_every_exported_name_resolves_once():
    assert len(fredgal.__all__) == len(set(fredgal.__all__))
    for name in fredgal.__all__:
        assert getattr(fredgal, name, None) is not None, name


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert name not in fredgal.__all__
    assert not hasattr(fredgal, name)
    *owners, attr = name.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)


def test_benchmark_tracer_targets_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    galerkin = importlib.import_module("fredgal.galerkin")
    original = galerkin.lu_factor
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert galerkin.lu_factor is not original
        assert tracer.missing == [
            "fredgal.exact.bernstein_poly_exact",
            "fredgal.basis.bernstein_poly_exact",
        ]
    finally:
        tracer.uninstall()
    assert galerkin.lu_factor is original
