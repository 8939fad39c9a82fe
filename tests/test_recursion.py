"""Tests for the counting recursion, Cover's closed form, and crossings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab.asymptotics import transition_load
from vclab.errors import NoCrossingError, OutOfGridError, ValidationError
from vclab.numerics import NEG_INF
from vclab.recursion import (
    CountTable,
    build_count_table,
    cover_count_exact,
    crossing_load,
    crossing_p_max,
)
from vclab.structure import StructureSpec, ThetaCoefficients, psi2, theta_coefficients

COVER = ThetaCoefficients(k=1, theta=(1.0, 1.0))
ORTHOGONAL_PAIRS = ThetaCoefficients(k=2, theta=(0.5, 1.0, 0.5))


class TestCoverExact:
    def test_one_dimensional(self):
        assert cover_count_exact(1, 3) == 2

    def test_full_expressivity(self):
        assert cover_count_exact(5, 5) == 32
        for n in range(1, 8):
            for p in range(1, n + 1):
                assert cover_count_exact(n, p) == 2**p

    def test_half_fraction_at_double_load(self):
        # C(n, 2n) = 2^(2n-1): exactly half of all labelings realizable
        for n in range(1, 13):
            assert cover_count_exact(n, 2 * n) == 2 ** (2 * n - 1)

    def test_example_n5_p10(self):
        assert cover_count_exact(5, 10) == 512

    def test_validation(self):
        with pytest.raises(ValidationError):
            cover_count_exact(0, 3)


class TestBuildTable:
    def test_cover_equivalence(self):
        table = build_count_table(COVER, n_max=60, p_max=60)
        for n in range(1, 61):
            for p in range(1, 61):
                exact = math.log(cover_count_exact(n, p))
                assert table.log_count(n, p) == pytest.approx(exact, rel=1e-10)

    def test_hand_iterated_values(self):
        table = build_count_table(ORTHOGONAL_PAIRS, n_max=4, p_max=4)
        assert math.exp(table.log_count(1, 2)) == pytest.approx(1.0, rel=1e-12)
        assert math.exp(table.log_count(2, 2)) == pytest.approx(3.0, rel=1e-12)

    def test_degenerate_pair_is_cover(self):
        degenerate = ThetaCoefficients(k=2, theta=(1.0, 1.0, 0.0))
        t2 = build_count_table(degenerate, n_max=20, p_max=30)
        t1 = build_count_table(COVER, n_max=20, p_max=30)
        np.testing.assert_allclose(
            t2.log_counts[1:, 1:], t1.log_counts[1:, 1:], rtol=1e-12
        )
        assert math.exp(t2.log_count(2, 2)) == pytest.approx(4.0)

    def test_boundary_column(self):
        table = build_count_table(ORTHOGONAL_PAIRS, n_max=10, p_max=5)
        for n in range(1, 11):
            assert table.log_count(n, 1) == pytest.approx(math.log(2.0))
        assert np.all(table.log_counts[0, :] == NEG_INF)

    def test_monotone_in_n(self):
        table = build_count_table(ORTHOGONAL_PAIRS, n_max=30, p_max=40)
        block = table.log_counts[1:, 1:]
        assert np.all(np.diff(block, axis=0) >= -1e-12)

    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_full_expressivity(self, theta0, seed):
        theta = ThetaCoefficients(k=2, theta=(theta0, 1.0, 1.0 - theta0))
        table = build_count_table(theta, n_max=12, p_max=25)
        for n in range(1, 13):
            for p in range(1, 26):
                assert table.log_count(n, p) <= p * math.log(2.0) + 1e-9

    def test_full_expressivity_fixed_point(self):
        # n >> kp: every labeling realizable, the count sticks at 2^p; this
        # pins theta_2 = 1 - psi_2 through the sum rule
        for rho in (0.0, 0.4, 0.9):
            theta = theta_coefficients(StructureSpec.pairs(rho))
            table = build_count_table(theta, n_max=60, p_max=12)
            for p in range(1, 13):
                assert table.log_count(60, p) == pytest.approx(
                    p * math.log(2.0), rel=1e-12
                )

    def test_large_grid_accuracy(self):
        # deep-grid accumulation stays at working precision: the k=1 lane of
        # a padded theta must match Cover exactly far into the grid
        table = build_count_table(COVER, n_max=400, p_max=4000)
        for n, p in ((400, 4000), (123, 3999), (17, 2048)):
            exact = math.log(cover_count_exact(n, p))
            assert table.log_count(n, p) == pytest.approx(exact, rel=1e-9)


def allocating_table(theta: ThetaCoefficients, n_max: int, p_max: int) -> np.ndarray:
    """The recursion table as first written, one fresh array per term and
    step: the oracle of the in-place step of `build_count_table`."""
    log_theta = [math.log(t) if t > 0 else NEG_INF for t in theta.theta]
    grid = np.full((n_max + 1, p_max + 1), NEG_INF)
    grid[1:, 1] = math.log(2.0)
    col = grid[:, 1].copy()
    for p in range(1, p_max):
        nxt = np.full(n_max + 1, NEG_INF)
        for l in range(theta.k + 1):
            if log_theta[l] == NEG_INF:
                continue
            shifted = np.full(n_max + 1, NEG_INF)
            shifted[l:] = col[: n_max + 1 - l]
            nxt = np.logaddexp(nxt, log_theta[l] + shifted)
        nxt[0] = NEG_INF
        grid[:, p + 1] = nxt
        col = nxt
    return grid


class TestInPlaceStep:
    @pytest.mark.parametrize("n_max, p_max", [(1, 1), (1, 5), (7, 3), (60, 40), (40, 1306)])
    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.2, 0.5, 0.8, 1.0, None])
    def test_matches_the_allocating_table_bit_for_bit(self, rho, n_max, p_max):
        spec = StructureSpec.unstructured() if rho is None else StructureSpec.pairs(rho)
        theta = theta_coefficients(spec)
        table = build_count_table(theta, n_max=n_max, p_max=p_max)
        assert table.log_counts.tobytes() == allocating_table(theta, n_max, p_max).tobytes()

    @pytest.mark.parametrize("n_max, p_max", [(1, 5), (2, 6), (9, 40), (40, 300)])
    @pytest.mark.parametrize("coefficients", [(0.5, 0.0, 0.25), (0.0, 1.5, 0.5), (0.0, 0.0, 0.0)])
    def test_zero_coefficients_drop_out_of_the_gather(self, coefficients, n_max, p_max):
        # with theta_1 = 0 the one gather reads shifts 0 and 2, not consecutive ones
        theta = ThetaCoefficients(k=2, theta=coefficients)
        table = build_count_table(theta, n_max=n_max, p_max=p_max)
        assert table.log_counts.tobytes() == allocating_table(theta, n_max, p_max).tobytes()

    def test_shifts_past_the_grid_drop_out(self):
        # row n reads only rows <= n, so a grid lower than k is the top of a taller one
        theta = ThetaCoefficients(k=4, theta=(0.5, 0.5, 0.5, 0.25, 0.25))
        low = build_count_table(theta, n_max=2, p_max=6).log_counts
        tall = build_count_table(theta, n_max=8, p_max=6).log_counts
        assert low.tobytes() == tall[:3].tobytes()


class TestEntropyAccess:
    def test_vc_entropy_boundary(self):
        table = build_count_table(ORTHOGONAL_PAIRS, n_max=5, p_max=5)
        assert table.log_count(3, 1) == pytest.approx(math.log(2.0))

    def test_out_of_grid(self):
        table = build_count_table(COVER, n_max=5, p_max=5)
        with pytest.raises(OutOfGridError):
            table.log_count(6, 1)
        with pytest.raises(OutOfGridError):
            table.log_count_at_load(5, 2.0)
        for n, alpha in ((-3, -1.0), (0, 2.0), (6, 0.5)):  # p = alpha*n on the grid
            with pytest.raises(OutOfGridError):
                table.log_count_at_load(n, alpha)

    def test_load_interpolation_matches_columns(self):
        table = build_count_table(ORTHOGONAL_PAIRS, n_max=10, p_max=30)
        assert table.log_count_at_load(10, 2.0) == table.log_count(10, 20)
        mid = table.log_count_at_load(10, 2.05)
        lo, hi = table.log_count(10, 20), table.log_count(10, 21)
        assert min(lo, hi) <= mid <= max(lo, hi)

    def test_nonmonotonic_in_p_for_pairs(self):
        theta = theta_coefficients(StructureSpec.pairs(0.5))
        table = build_count_table(theta, n_max=5, p_max=120)
        h = np.array([table.log_count(5, p) for p in range(1, 121)])
        peak = int(np.argmax(h))
        assert 0 < peak < len(h) - 1
        assert h[peak] > h[0]
        assert h[-1] < h[0]


class TestCrossing:
    def test_orthogonal_pairs_crossing_near_transition(self):
        # the finite-n entropy curves cross within a few percent of the
        # asymptotic critical load 4.8639 (independently hand-bracketed)
        alpha = crossing_load(ORTHOGONAL_PAIRS, 20, 40, (2.0, 8.0))
        assert abs(alpha - 4.8639) / 4.8639 < 0.10

    def test_symmetric_in_dimension_order(self):
        a = crossing_load(ORTHOGONAL_PAIRS, 20, 40, (2.0, 8.0))
        b = crossing_load(ORTHOGONAL_PAIRS, 40, 20, (2.0, 8.0))
        assert a == pytest.approx(b, abs=2e-4)

    def test_cover_never_crosses(self):
        with pytest.raises(NoCrossingError):
            crossing_load(COVER, 10, 20, (0.5, 30.0))

    def test_small_dimensions_displaced(self):
        # (6, 3) crossing sits further from the asymptotic value than (40, 20)
        star = 4.863876182928192
        small = crossing_load(ORTHOGONAL_PAIRS, 6, 3, (2.0, 8.0))
        large = crossing_load(ORTHOGONAL_PAIRS, 40, 20, (2.0, 8.0))
        assert abs(small - star) > abs(large - star)

    def test_same_dimension_rejected(self):
        with pytest.raises(ValidationError):
            crossing_load(COVER, 5, 5, (1.0, 2.0))

    def test_nonpositive_dimension_rejected(self):
        for n1, n2 in ((0, 3), (3, 0), (-2, 3)):
            with pytest.raises(ValidationError):
                crossing_load(ORTHOGONAL_PAIRS, n1, n2, (2.0, 8.0))

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.2, 0.5, 0.8, 0.95])
    def test_pairs_share_the_table_of_the_largest(self, rho):
        # the window and pairs of `vclab phase-diagram`: the (6, 3) table is
        # the corner of the (40, 20) one, so both read the same loads off it
        star = transition_load(psi2(rho), 1.0).alpha_star
        window = (max(0.5, 0.4 * star), 1.8 * star)
        theta = theta_coefficients(StructureSpec.pairs(rho))
        shared = build_count_table(theta, 40, crossing_p_max(40, window))
        small = build_count_table(theta, 6, crossing_p_max(6, window)).log_counts
        assert small.tobytes() == np.ascontiguousarray(
            shared.log_counts[: small.shape[0], : small.shape[1]]).tobytes()
        for n1, n2 in ((40, 20), (6, 3)):
            assert crossing_load(theta, n1, n2, window, shared) == crossing_load(
                theta, n1, n2, window)

    def test_a_table_short_of_the_grid_or_of_another_theta_is_refused(self):
        window = (2.0, 8.0)
        fits = build_count_table(ORTHOGONAL_PAIRS, 40, crossing_p_max(40, window))
        for table in (build_count_table(ORTHOGONAL_PAIRS, 39, crossing_p_max(40, window)),
                      build_count_table(ORTHOGONAL_PAIRS, 40, crossing_p_max(40, window) - 1),
                      build_count_table(COVER, 40, crossing_p_max(40, window))):
            with pytest.raises(ValidationError, match="does not hold"):
                crossing_load(ORTHOGONAL_PAIRS, 40, 20, window, table)
        assert crossing_load(ORTHOGONAL_PAIRS, 40, 20, window, fits) == crossing_load(
            ORTHOGONAL_PAIRS, 40, 20, window)
