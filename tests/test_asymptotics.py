"""Tests for the asymptotic count, transition equation, and annealed thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab.asymptotics import (
    AsymptoticForm,
    annealed_threshold_margin,
    annealed_threshold_pairs,
    asymptotic_log_count,
    entropic_term,
    fss_rescale,
    transition_load,
)
from vclab.errors import DivergenceError, DomainError, NoTransitionError, ValidationError
from vclab.recursion import build_count_table
from vclab.structure import StructureSpec, psi2, theta_coefficients

LOG_2PI = math.log(2.0 * math.pi)

# independent high-precision roots of the transition equation (40-digit
# bisection, frozen)
ALPHA_STAR_RHO0 = 4.863876182928192
ALPHA_STAR_RHO08 = 18.120932603350109


class TestEntropicTerm:
    def test_zero_limit(self):
        assert entropic_term(0.0) == 0.0
        assert entropic_term(1e-12) < 1e-10

    def test_unit_load(self):
        assert entropic_term(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)

    def test_five(self):
        assert entropic_term(5.0) == pytest.approx(
            6.0 * math.log(6.0) - 5.0 * math.log(5.0), rel=1e-15
        )

    def test_positive(self):
        for a in (0.01, 0.5, 3.0, 100.0):
            assert entropic_term(a) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            entropic_term(-0.1)


class TestAsymptoticCount:
    def test_central_binomial(self):
        # theta = 1: 2 Gamma(10) / (Gamma(5) Gamma(6)) = 2 C(9, 4) = 252
        value = asymptotic_log_count(1.0, 5, 1.0, 1.0)
        assert value == pytest.approx(math.log(252.0), rel=1e-12)

    def test_tracks_recursion_at_scale(self):
        # The Gamma form is the fixed-n, large-p pole extrapolation; against
        # the recursion at fixed load it carries a small per-dimension offset
        # (measured ~0.148 per unit n at this load), which is why finite-size
        # entropy crossings sit a few percent below the analytic critical
        # load.  Pin the offset: small relative to the O(n) entropy scale
        # S(alpha)*n and stable in n.
        theta = theta_coefficients(StructureSpec.pairs(0.0))
        table = build_count_table(theta, n_max=200, p_max=1000)
        alpha = 4.86
        scale = entropic_term(alpha)  # ~2.62 per unit n
        for n in (50, 100, 200):
            got = asymptotic_log_count(alpha, n, 0.5, 1.0)
            expect = table.log_count_at_load(n, alpha)
            assert abs(got - expect) <= 0.16 * n
            assert abs(got - expect) <= 0.07 * scale * n

    def test_divergence_directions(self):
        # below the critical load the entropy grows with n, above it shrinks
        for alpha, sign in ((3.0, +1), (7.0, -1)):
            a = asymptotic_log_count(alpha, 100, 0.5, 1.0)
            b = asymptotic_log_count(alpha, 200, 0.5, 1.0)
            assert math.copysign(1.0, b - a) == sign

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_log_count(0.0, 5, 0.5, 1.0)
        with pytest.raises(DomainError):
            asymptotic_log_count(1.0, 5, 1.2, 1.0)

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.1, max_value=20.0),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=120, deadline=None)
    def test_pole_form_equality(self, theta0, theta1, alpha, n):
        # the Gamma form and the explicit pole data are the same function
        direct = asymptotic_log_count(alpha, n, theta0, theta1)
        pole = AsymptoticForm(theta0=theta0, theta1=theta1, n=n).log_count(alpha * n)
        assert direct == pytest.approx(pole, abs=1e-9)

    def test_pole_data(self):
        form = AsymptoticForm(theta0=0.5, theta1=1.0, n=7)
        assert form.pole_location == 2.0
        assert form.pole_order == 7
        assert form.log_finite_part == pytest.approx(
            math.log(2.0) + 14 * math.log(2.0)
        )


class TestTransitionLoad:
    def test_orthogonal_pairs_value(self):
        res = transition_load(0.5, 1.0)
        assert res.alpha_star == pytest.approx(ALPHA_STAR_RHO0, abs=1e-9)
        assert res.residual <= 1e-10
        assert res.bracket[0] <= res.alpha_star <= res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= 1e-10 * max(1.0, res.alpha_star)

    def test_hand_bracket(self):
        # independent check that the root lies in (4.8, 4.9)
        def f(a):
            return entropic_term(a) + (a - 1.0) * math.log(0.5)

        assert f(4.8) > 0 > f(4.9)
        assert 4.8 < transition_load(0.5, 1.0).alpha_star < 4.9

    def test_high_overlap_value(self):
        res = transition_load(psi2(0.8), 1.0)
        assert res.alpha_star == pytest.approx(ALPHA_STAR_RHO08, abs=1e-6)

    def test_unstructured_has_no_transition(self):
        with pytest.raises(NoTransitionError):
            transition_load(1.0, 1.0)

    def test_no_positive_window(self):
        # tiny theta1 pushes the whole curve negative
        with pytest.raises(NoTransitionError):
            transition_load(0.5, 0.01)

    def test_monotone_in_theta0(self):
        values = [transition_load(t, 1.0).alpha_star for t in np.linspace(0.2, 0.95, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_smaller_root(self):
        # with theta1 < theta0 the function starts negative, so a smaller
        # root exists below alpha_peak; the critical load is the larger root
        large = transition_load(0.6, 0.3)
        assert large.alpha_star > 0.6 / (1 - 0.6)
        assert large.residual < 1e-9

    def test_stationarity_at_root(self):
        # d/dn of the entropy per n vanishes at the critical load
        star = transition_load(0.5, 1.0).alpha_star
        gaps = [
            asymptotic_log_count(star, n + 1, 0.5, 1.0)
            - asymptotic_log_count(star, n, 0.5, 1.0)
            for n in (100, 400, 1600)
        ]
        assert abs(gaps[2]) < abs(gaps[1]) < abs(gaps[0])
        assert abs(gaps[2]) < 0.01


class TestAnnealedPairs:
    def test_uncorrelated_closed_form(self):
        res = annealed_threshold_pairs(0.0)
        assert res.alpha_star == pytest.approx((1 + LOG_2PI) / (2 * math.log(2.0)), abs=1e-12)
        assert res.alpha_star == pytest.approx(2.0471, abs=1e-3)

    def test_half_overlap(self):
        res = annealed_threshold_pairs(0.5)
        expected = (1 + LOG_2PI) / (2 * math.log(1.5))
        assert res.alpha_star == pytest.approx(expected, abs=1e-12)
        assert res.alpha_star == pytest.approx(3.4995, abs=1e-3)

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            annealed_threshold_pairs(1.0)

    def test_psi2_link(self):
        # the annealed formula evaluated through the agreement probability
        for rho in np.linspace(-0.9, 0.9, 19):
            direct = annealed_threshold_pairs(rho).alpha_star
            via_psi = -(1 + LOG_2PI) / (2 * math.log(psi2(rho)))
            assert direct == pytest.approx(via_psi, rel=1e-12)

    def test_lower_bound_property(self):
        for rho in (0.0, 0.2, 0.4, 0.6, 0.8):
            annealed = annealed_threshold_pairs(rho).alpha_star
            combinatorial = transition_load(psi2(rho), 1.0).alpha_star
            assert annealed < combinatorial


class TestAnnealedMargin:
    def test_unit_margin(self):
        res = annealed_threshold_margin(1.0)
        assert res.alpha_star == pytest.approx(0.76715738874279297, rel=1e-12)

    def test_divergence_at_zero(self):
        with pytest.raises(DivergenceError):
            annealed_threshold_margin(0.0)

    def test_limits_and_monotonicity(self):
        values = [annealed_threshold_margin(k).alpha_star for k in (0.01, 0.25, 0.5, 1.0, 2.0, 5.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] > 100.0
        assert values[-1] < 0.06


class TestScaling:
    def test_reduced_load_zero_at_star(self):
        (_, x, _), = fss_rescale([(50, 4.0, -1.0)], alpha_star=4.0).points
        assert x == 0.0

    @pytest.mark.parametrize("alpha_star", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_alpha_star(self, alpha_star):
        with pytest.raises(ValidationError, match="alpha_star must be positive"):
            fss_rescale([(50, 4.0, -1.0)], alpha_star=alpha_star)

    def test_power_law_at_critical_load(self):
        star = transition_load(0.5, 1.0).alpha_star
        ns = np.arange(50, 401, 25)
        ys = [asymptotic_log_count(star, int(n), 0.5, 1.0) for n in ns]
        slope = np.polyfit(np.log(ns), ys, 1)[0]
        assert -0.55 <= slope <= -0.45

    def test_collapse_beats_control(self):
        star = transition_load(0.5, 1.0).alpha_star
        curve = []
        for n in (50, 100, 200):
            for i in range(41):
                alpha = star * (0.9 + 0.2 * i / 40)
                curve.append((n, alpha, asymptotic_log_count(alpha, n, 0.5, 1.0)))
        scaled = fss_rescale(curve, star)
        control = fss_rescale(curve, star, beta=0.0)
        assert scaled.collapse_score * 5 <= control.collapse_score

    def test_rescaled_point_values(self):
        res = fss_rescale([(100, 5.0, -1.0)], alpha_star=4.0)
        n, x, y = res.points[0]
        assert x == pytest.approx(0.25 * 100)
        assert y == pytest.approx(0.5 * math.log(100) - 1.0)

    def test_rejects_infinite_counts(self):
        with pytest.raises(ValidationError):
            fss_rescale([(10, 1.0, float("-inf"))], alpha_star=2.0)
