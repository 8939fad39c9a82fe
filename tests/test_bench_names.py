"""The names the traced benchmark patches still resolve.

`bench/spans.py` wraps functions by looking each one up in the module that
calls it; a removed or renamed name makes ``--trace 1`` fail outside the
program.  These checks import the tracer as the benchmark does and change
nothing under ``bench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

NAMES = [(module, attr) for module, attr, _, _ in spans.TRACED]
NAMES += [
    spans.BLOCKS[:2],
    ("vclab.montecarlo", "ProcessPoolExecutor"),  # `spans.counting_pools`
    ("vclab.montecarlo", "count_admissible_dichotomies"),  # `spans.recording_counts`
]


@pytest.mark.parametrize("module, attr", NAMES, ids=[".".join(name) for name in NAMES])
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_installs_and_removes_its_wrappers():
    montecarlo = importlib.import_module("vclab.montecarlo")
    before = montecarlo.sample_dataset
    with spans.traced(spans.Tracer()):
        assert montecarlo.sample_dataset is not before
    assert montecarlo.sample_dataset is before
