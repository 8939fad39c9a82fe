"""Tests for margins, separability decisions, and cell enumeration."""

import math

import numpy as np
import pytest

from vclab.errors import BudgetError, ValidationError
from vclab.montecarlo import Dataset, _cells_labelings, sample_dataset
from vclab.numerics import Rng
from vclab.recursion import cover_count_exact
from vclab.separability import (
    TAU,
    dedupe_directions,
    cell_scan_cost,
    max_margin,
    min_norm_corral,
    min_norm_point,
    sign_pattern_blocks,
)
from vclab.structure import StructureSpec

TRIANGLE = np.array(
    [[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]]
)


def realizable_sign_patterns(points: np.ndarray) -> np.ndarray:
    """Every sign vector some direction realizes on the rows: the cells of
    the central arrangement, enumerated as the labelings of k=1 data."""
    pts = np.asarray(points, dtype=float)
    data = Dataset(
        spec=StructureSpec.unstructured(), n=pts.shape[1], p=pts.shape[0], points=pts[:, None, :]
    )
    return np.array(list(_cells_labelings(data, dedupe_directions(pts))), dtype=np.int8)


def dedupe_loop(points: np.ndarray):
    """Row-by-row oracle for `dedupe_directions`: each row is keyed by the
    smaller of its own bytes and those of its negation."""
    reps: list[np.ndarray] = []
    keys: dict[bytes, int] = {}
    idx = np.empty(points.shape[0], dtype=np.intp)
    sgn = np.empty(points.shape[0], dtype=np.int8)
    for i, row in enumerate(points):
        kp = row.tobytes()
        kn = (-row).tobytes()
        canon = min(kp, kn)
        if canon not in keys:
            keys[canon] = len(reps)
            reps.append(row if kp <= kn else -row)
        idx[i] = keys[canon]
        sgn[i] = 1 if kp <= kn else -1
    return np.array(reps), idx, sgn


def direction_search_margin(points, signs, seed=0, coarse=200000, refine=80):
    """Independent oracle for n <= 3: dense direction sampling plus local
    shrinking-step polish around the best direction."""
    pts = np.asarray(points, dtype=float) * np.asarray(signs, dtype=float)[:, None]
    gen = np.random.default_rng(seed)
    n = pts.shape[1]
    w = gen.standard_normal((coarse, n))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    vals = (w @ pts.T).min(axis=1)
    best = w[int(np.argmax(vals))]
    best_val = float(vals.max())
    step = 0.3
    for _ in range(refine):
        cand = best[None, :] + step * gen.standard_normal((200, n))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cvals = (cand @ pts.T).min(axis=1)
        i = int(np.argmax(cvals))
        if cvals[i] > best_val:
            best_val = float(cvals[i])
            best = cand[i]
        else:
            step *= 0.7
    return best_val


class TestMaxMargin:
    def test_single_point(self):
        assert max_margin(np.array([[0.6, 0.8]]), [1]) == pytest.approx(1.0, abs=1e-12)

    def test_two_axes(self):
        value = max_margin(np.eye(2), [1, 1])
        assert value == pytest.approx(math.sqrt(2) / 2, abs=1e-10)

    def test_triangle_all_positive_not_separable(self):
        assert max_margin(TRIANGLE, [1, 1, 1]) <= 0.0

    def test_sign_flip_invariance(self):
        gen = Rng(1).generator()
        pts = gen.standard_normal((6, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        signs = np.array([1, -1, 1, 1, -1, 1])
        a = max_margin(pts, signs)
        b = max_margin(pts, -signs)
        assert a == pytest.approx(b, abs=1e-12)

    def test_orthonormal_cross_polytope(self):
        # m orthonormal points all positive: optimum is the centroid direction
        for m in (2, 3, 5, 8):
            value = max_margin(np.eye(m), np.ones(m))
            assert value == pytest.approx(1.0 / math.sqrt(m), abs=1e-10)

    def test_against_direction_search(self):
        gen = Rng(2).generator()
        for trial in range(12):
            n = 2 + trial % 2
            m = 3 + trial % 4
            pts = gen.standard_normal((m, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            signs = gen.choice([-1.0, 1.0], size=m)
            ours = max_margin(pts, signs)
            oracle = direction_search_margin(pts, signs, seed=trial)
            if oracle > 1e-3:
                assert ours == pytest.approx(oracle, abs=1e-5)
            else:
                assert ours <= max(oracle, 0.0) + 1e-5

    def test_support_certificate(self):
        # optimality: every signed point has dot >= |d|^2 with the hull point
        gen = Rng(3).generator()
        for _ in range(40):
            m, n = 8, 5
            pts = gen.standard_normal((m, n))
            d = min_norm_point(pts)
            assert float((pts @ d).min()) >= float(d @ d) - 1e-9

    def test_warm_start_from_a_prefix_corral(self):
        # the final corral of a prefix of the rows is a feasible start for the
        # whole set and reaches the cold start's optimum
        gen = Rng(5).generator()
        for _ in range(200):
            m, n = int(gen.integers(2, 12)), int(gen.integers(1, 6))
            pts = gen.standard_normal((m, n))
            _, start = min_norm_corral(pts[: int(gen.integers(1, m))])
            d, (corral, lam, _) = min_norm_corral(pts, start)
            lam = np.array(lam)
            assert np.all(lam > 0) and lam.sum() == pytest.approx(1.0)
            np.testing.assert_array_equal(d, lam @ pts[list(corral)])
            assert float((pts @ d).min()) >= float(d @ d) - 1e-9
            assert np.linalg.norm(d) == pytest.approx(np.linalg.norm(min_norm_point(pts)), abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            max_margin(np.eye(2), [1, 2])
        with pytest.raises(ValidationError):
            max_margin(np.eye(2), [1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_points_are_refused(self, bad):
        # an inf point once gave the margin 1.0, a NaN a bare numpy error
        points = [[1.0, 0.0], [bad, 1.0]]
        with pytest.raises(ValidationError, match="points must be finite"):
            max_margin(points, [1, 1])
        with pytest.raises(ValidationError, match="points must be finite"):
            min_norm_point(points)


class TestLinearlySeparable:
    def test_triangle_split(self):
        assert max_margin(TRIANGLE, [1, 1, -1]) > TAU

    def test_triangle_uniform(self):
        assert max_margin(TRIANGLE, [1, 1, 1]) <= TAU

    def test_few_points_always_separable(self):
        gen = Rng(4).generator()
        for n in (3, 5):
            pts = gen.standard_normal((n, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            for _ in range(5):
                signs = gen.choice([-1.0, 1.0], size=n)
                assert max_margin(pts, signs) > TAU


class TestCellEnumeration:
    def test_matches_cover_in_general_position(self):
        gen = Rng(5).generator()
        for n in (2, 3):
            for p in (2, 4, 7, 11):
                pts = gen.standard_normal((p, n))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                cells = realizable_sign_patterns(pts)
                assert len(cells) == cover_count_exact(n, p)

    def test_patterns_are_strictly_separable(self):
        gen = Rng(6).generator()
        pts = gen.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for row in realizable_sign_patterns(pts):
            assert max_margin(pts, row) > TAU

    def test_every_separable_pattern_found(self):
        # exhaustive sign enumeration against the cell list
        gen = Rng(7).generator()
        pts = gen.standard_normal((7, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cells = {row.tobytes() for row in realizable_sign_patterns(pts)}
        found = set()
        for bits in range(2**7):
            signs = np.array([1 if bits & (1 << i) else -1 for i in range(7)], dtype=np.int8)
            if max_margin(pts, signs) > TAU:
                found.add(signs.tobytes())
        assert cells == found

    def test_antipodal_symmetry(self):
        gen = Rng(8).generator()
        pts = gen.standard_normal((5, 2))
        cells = realizable_sign_patterns(pts)
        keys = {row.tobytes() for row in cells}
        for row in cells:
            assert (-row).tobytes() in keys

    def test_duplicate_and_antipodal_points(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0]])
        pts = np.vstack([base, base[0], -base[1]])  # duplicate and antipode
        cells = realizable_sign_patterns(pts)
        # signs are slaved: column 2 equals column 0, column 3 is minus column 1
        for row in cells:
            assert row[2] == row[0]
            assert row[3] == -row[1]
        assert len(cells) == cover_count_exact(2, 2)

    def test_collinear_rank_one(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-0.5, 0.0]])
        cells = realizable_sign_patterns(pts)
        assert len(cells) == 2
        for row in cells:
            assert row[0] == row[1] == -row[2]

    def test_rank_four_edge_method(self):
        # the generic-subset construction also works beyond rank 3
        gen = Rng(9).generator()
        for n, p in ((4, 6), (5, 8)):
            pts = gen.standard_normal((p, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            cells = realizable_sign_patterns(pts)
            assert len(cells) == cover_count_exact(n, p)

    def test_budget_refused_before_any_block(self):
        # C(6000, 2) * 4 = 7.2e7 candidates in rank 3, past the 5e7 budget
        pts = Rng(10).generator().standard_normal((6000, 3))
        assert cell_scan_cost(6000, 3) == math.inf
        blocks = sign_pattern_blocks(pts)
        with pytest.raises(BudgetError, match="random-classifier probe"):
            next(blocks)


class TestDedupe:
    def test_groups(self):
        row = np.array([0.6, 0.8])
        pts = np.vstack([row, -row, row, np.array([1.0, 0.0])])
        reps, idx, sgn = dedupe_directions(pts)
        assert reps.shape[0] == 2
        assert idx[0] == idx[1] == idx[2]
        assert sgn[0] == -sgn[1]
        assert sgn[0] == sgn[2]
        np.testing.assert_array_equal(sgn[:, None] * reps[idx], pts)

    def test_matches_row_by_row_oracle(self):
        inputs = [
            sample_dataset(StructureSpec.pairs(rho), 3, p, Rng(30, (t, p))).flat
            for rho in (-1.0, -0.5, 0.2, 0.5, 0.8, 1.0)
            for p in (1, 9, 81)
            for t in range(2)
        ]
        # integer grids: duplicates, antipodes and signed zeros
        gen = Rng(31).generator()
        for _ in range(100):
            m, n = int(gen.integers(1, 30)), int(gen.integers(1, 5))
            x = gen.integers(-2, 3, size=(m, n)).astype(float)
            x[gen.random((m, n)) < 0.2] = -0.0
            inputs.append(x)
        for pts in inputs:
            for got, want in zip(dedupe_directions(pts), dedupe_loop(pts)):
                assert got.dtype == want.dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_prefix_slice_matches_prefix_dedupe(self):
        # representatives are numbered by first occurrence, so slicing the
        # dedupe of the whole set gives the dedupe of each prefix byte for byte
        inputs = [
            sample_dataset(StructureSpec.pairs(rho), 3, 30, Rng(32, t)).flat
            for rho in (-1.0, -0.5, 0.0, 0.5, 1.0)
            for t in range(2)
        ]
        gen = Rng(33).generator()
        for _ in range(4):
            x = gen.standard_normal((20, 3))
            picks = gen.integers(0, 20, size=10)
            signs = np.where(gen.random(10) < 0.5, -1.0, 1.0)[:, None]
            inputs.append(gen.permutation(np.vstack([x, signs * x[picks]])))
        for pts in inputs:
            reps, idx, sgn = dedupe_directions(pts)
            for m in range(1, pts.shape[0] + 1):
                sliced = (reps[: idx[:m].max() + 1], idx[:m], sgn[:m])
                for got, want in zip(sliced, dedupe_directions(pts[:m])):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
