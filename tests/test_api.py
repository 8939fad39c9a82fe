"""The public names of the package."""

import importlib

import pytest

import vclab


def test_every_export_resolves():
    missing = [name for name in vclab.__all__ if not hasattr(vclab, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["vclab", "vclab.numerics", "vclab.errors"])
def test_gram_factor_is_not_public(module):
    # the overlap matrix is checked and factored inside StructureSpec only
    mod = importlib.import_module(module)
    for name in ("cholesky", "PIVOT_TOL", "NotPositiveSemidefiniteError"):
        assert not hasattr(mod, name), f"{module}.{name}"
