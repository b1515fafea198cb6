"""The package's public surface: each exported name resolves and is listed
once, and names removed from the package are neither exported nor left
behind on their modules."""

import importlib

import pytest

import fredgal

REMOVED = [
    ("fredgal.quadrature", "integrate_1d"),
    ("fredgal.quadrature", "integrate_2d"),
    ("fredgal.basis", "bernstein_value"),
    ("fredgal.basis", "basis_integral"),
    ("fredgal.errors", "IndexOutOfRange"),
    ("fredgal.linalg", "MAX_CONDITION_DIM"),
]


def test_every_exported_name_resolves_once():
    assert len(fredgal.__all__) == len(set(fredgal.__all__))
    for name in fredgal.__all__:
        assert getattr(fredgal, name, None) is not None, name


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert name not in fredgal.__all__
    assert not hasattr(fredgal, name)
    assert not hasattr(importlib.import_module(module), name)
