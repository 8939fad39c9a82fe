"""Unit tests for the shared numerics layer."""

import math

import numpy as np
import pytest

from vclab.errors import BracketError, DimensionError
from vclab.numerics import Rng, bisect_root, sample_orthonormal_frame


class TestBisect:
    def test_linear(self):
        assert bisect_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(1.0)

    def test_sqrt_two(self):
        root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
        assert root == pytest.approx(1.4142135623730951, abs=1e-11)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x, 1.0, 2.0, 1e-8)

    def test_swapped_bracket(self):
        assert bisect_root(lambda x: x - 1.0, 2.0, 0.0, 1e-12) == pytest.approx(1.0)


class TestFrames:
    def test_rows_orthonormal(self):
        rng = Rng(3).generator()
        for n, k in ((2, 2), (5, 3), (10, 10)):
            f = sample_orthonormal_frame(n, k, rng)
            np.testing.assert_allclose(f @ f.T, np.eye(k), atol=1e-10)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            sample_orthonormal_frame(2, 3, Rng(0))

    def test_isotropy_moment(self):
        # E[(row . v)^2] = 1/n for any fixed unit v
        n, samples = 5, 10000
        gen = Rng(11).generator()
        v = np.zeros(n)
        v[0] = 1.0
        vals = np.array(
            [float((sample_orthonormal_frame(n, 1, gen)[0] @ v) ** 2) for _ in range(samples)]
        )
        stderr = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(vals.mean() - 1.0 / n) <= 3 * stderr


class TestRng:
    def test_reproducible(self):
        a = Rng(42, 7).generator().standard_normal(16)
        b = Rng(42, 7).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, 0).generator().standard_normal(16)
        b = Rng(42, 1).generator().standard_normal(16)
        assert not np.allclose(a, b)

    def test_substream_nesting(self):
        base = Rng(9)
        x = base.substream(3).substream(1).generator().standard_normal(4)
        y = Rng(9, (0, 3, 1)).generator().standard_normal(4)
        np.testing.assert_array_equal(x, y)

    def test_stream_independence_statistics(self):
        # correlation between distinct streams should be noise-level
        xs = np.stack(
            [Rng(5, i).generator().standard_normal(4000) for i in range(8)]
        )
        corr = np.corrcoef(xs)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off)) < 0.08
