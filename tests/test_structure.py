"""Tests for the multiplet ensemble, psi probabilities, and theta weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab.errors import (
    DimensionError,
    DomainError,
    InsufficientConditioningError,
    UnsupportedStructureError,
    ValidationError,
)
from vclab.numerics import Rng
from vclab.structure import (
    PsiVector,
    StructureSpec,
    ThetaCoefficients,
    psi2,
    psi_m_estimate,
    psi_vector,
    sample_multiplet,
    theta_coefficients,
)


class TestStructureSpec:
    def test_pairs_roundtrip(self):
        spec = StructureSpec.pairs(0.5)
        assert spec.k == 2
        assert spec.pair_overlap == 0.5
        again = StructureSpec.from_json(spec.to_json())
        np.testing.assert_array_equal(again.gram, spec.gram)

    def test_rho_shorthand(self):
        spec = StructureSpec.from_json({"k": 2, "rho": 0.3})
        assert spec.gram[0, 1] == 0.3

    def test_k1_empty_overlaps(self):
        spec = StructureSpec.from_json({"k": 1})
        assert spec.gram.shape == (1, 1)

    def test_factor_identity(self):
        for k in (1, 2, 3):
            assert StructureSpec(k=k)._chol.tobytes() == np.eye(k).tobytes()

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.2, 0.5, 0.8, 1.0])
    def test_pair_factor(self, rho):
        # byte for byte: the factor fixes the sampling stream of every pair workload
        expected = np.array([[1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)]])
        assert StructureSpec.pairs(rho)._chol.tobytes() == expected.tobytes()

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_factor_reconstruction(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((k, k + 2))
        g = a @ a.T
        d = np.sqrt(np.diag(g))
        g = g / np.outer(d, d)
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 1.0)
        L = StructureSpec(k=k, gram=g)._chol
        assert np.max(np.abs(L @ L.T - g)) <= 1e-12

    def test_accepts_semidefinite_boundary(self):
        for spec in (
            StructureSpec.equicorrelated(3, -0.5),
            StructureSpec.equicorrelated(4, -1.0 / 3.0),
            # an antipodal pair beside an orthogonal point
            StructureSpec(k=3, gram=[[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ):
            L = spec._chol
            assert np.max(np.abs(L @ L.T - spec.gram)) <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            StructureSpec.equicorrelated(3, -0.9)
        # a pivot of -6e-10, just below the zero-pivot window of 1e-10
        with pytest.raises(ValidationError):
            StructureSpec.equicorrelated(3, -0.5 - 1e-10)

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValidationError, match="pivot"):
            StructureSpec(k=3, gram=[[1.0, 0.0, 0.9], [0.0, 1.0, -0.9], [0.9, -0.9, 1.0]])
        # the second pivot is exactly 0, but its column keeps an entry of 1
        with pytest.raises(ValidationError, match="zero pivot at index 1"):
            StructureSpec(k=3, gram=[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            StructureSpec(k=2, gram=[[1.0, 0.3], [0.2, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValidationError):
            StructureSpec(k=2, gram=np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_out_of_range_overlap(self):
        with pytest.raises(DomainError):
            StructureSpec.pairs(1.5)


class TestPsi2:
    def test_uncorrelated(self):
        assert psi2(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_coincident(self):
        assert psi2(1.0) == 1.0

    def test_half(self):
        assert psi2(0.5) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_antipodal(self):
        assert psi2(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi2(1.0001)

    def test_arcsin_identity(self):
        # arctan form used here vs arcsin form used by the annealed module
        for rho in np.linspace(-1.0, 1.0, 201):
            assert psi2(rho) == pytest.approx(
                0.5 + math.asin(rho) / math.pi, abs=1e-12
            )


class TestTheta:
    def test_unstructured(self):
        theta = theta_coefficients(StructureSpec.unstructured())
        assert theta.theta == (1.0, 1.0)

    def test_degenerate_pair(self):
        theta = theta_coefficients(StructureSpec.pairs(1.0))
        assert theta.theta == (1.0, 1.0, 0.0)

    def test_orthogonal_pair(self):
        theta = theta_coefficients(StructureSpec.pairs(0.0))
        assert theta.theta == pytest.approx((0.5, 1.0, 0.5), abs=1e-15)

    def test_sum_rule(self):
        for rho in (-0.7, -0.2, 0.0, 0.3, 0.8, 1.0):
            theta = theta_coefficients(StructureSpec.pairs(rho))
            assert sum(theta.theta) == pytest.approx(2.0, abs=1e-15)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedStructureError, match="Monte Carlo"):
            theta_coefficients(StructureSpec.equicorrelated(3, 0.1))

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            ThetaCoefficients(k=2, theta=(1.0, 1.0))


class TestSampleMultiplet:
    def test_single_point_unit(self):
        pts = sample_multiplet(StructureSpec.unstructured(), 7, Rng(0))
        assert pts.shape == (1, 7)
        assert np.linalg.norm(pts[0]) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_pair(self):
        pts = sample_multiplet(StructureSpec.pairs(1.0), 5, Rng(1))
        np.testing.assert_array_equal(pts[0], pts[1])

    def test_overlap_construction(self):
        pts = sample_multiplet(StructureSpec.pairs(0.5), 10, Rng(2))
        assert float(pts[0] @ pts[1]) == pytest.approx(0.5, abs=1e-10)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            sample_multiplet(StructureSpec.pairs(0.0), 1, Rng(0))

    def test_gram_accuracy_bulk(self):
        spec = StructureSpec.equicorrelated(3, 0.25)
        gen = Rng(3).generator()
        worst = 0.0
        for _ in range(1000):
            pts = sample_multiplet(spec, 6, gen)
            worst = max(worst, float(np.max(np.abs(pts @ pts.T - spec.gram))))
        assert worst <= 1e-9

    def test_rotation_invariant_statistics(self):
        # applying one fixed rotation leaves dot-product statistics unchanged
        spec = StructureSpec.pairs(0.3)
        v = np.zeros(4)
        v[0] = 1.0
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
        a = [sample_multiplet(spec, 4, Rng(6, t)) for t in range(400)]
        dots_raw = np.array([float(m[0] @ v) for m in a])
        dots_rot = np.array([float((m @ q.T)[0] @ v) for m in a])
        # same distribution: compare first two moments at Monte Carlo accuracy
        assert abs(dots_raw.mean() - dots_rot.mean()) < 0.1
        assert abs(dots_raw.std() - dots_rot.std()) < 0.1


class TestPsiEstimate:
    def test_matches_closed_form(self):
        for rho, seed in ((-0.5, 5), (0.0, 5), (0.5, 5), (0.9, 5)):
            spec = StructureSpec.pairs(rho)
            est, err = psi_m_estimate(spec, 2, 50, 200000, Rng(seed))
            assert err > 0
            assert abs(est - psi2(rho)) <= 3 * err

    def test_coincident_pair_exact(self):
        est, err = psi_m_estimate(StructureSpec.pairs(1.0), 2, 10, 500, Rng(6))
        assert est == 1.0
        assert err == 0.0

    def test_orthogonal_triplet(self):
        # orthant ratio for independent signs: Pr[3 agree]/Pr[2 agree] = 1/2
        spec = StructureSpec.equicorrelated(3, 0.0)
        est, err = psi_m_estimate(spec, 3, 20, 400000, Rng(7))
        assert abs(est - 0.5) <= 3 * err

    def test_seed_consistency_k3(self):
        spec = StructureSpec.equicorrelated(3, 0.0)
        e1, s1 = psi_m_estimate(spec, 3, 20, 400000, Rng(7))
        e2, s2 = psi_m_estimate(spec, 3, 20, 400000, Rng(8))
        assert abs(e1 - e2) <= 3 * math.hypot(s1, s2)

    def test_insufficient_conditioning(self):
        # an antipodal pair inside the triplet can never share a sign; with a
        # single sample whose distinguished point is the third one, the
        # conditioning event is empty
        gram = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        spec = StructureSpec(k=3, gram=gram)
        with pytest.raises(InsufficientConditioningError):
            psi_m_estimate(spec, 3, 4, 1, Rng(2))

    def test_m_validation(self):
        with pytest.raises(ValidationError):
            psi_m_estimate(StructureSpec.pairs(0.0), 3, 5, 10, Rng(0))


class TestPsiVector:
    def test_pair_entry_is_analytic(self):
        vec = psi_vector(StructureSpec.pairs(0.5), 10, 100, Rng(0))
        assert vec.values[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert vec.errors[0] == 0.0

    def test_k3_has_two_entries(self):
        vec = psi_vector(StructureSpec.equicorrelated(3, 0.0), 10, 5000, Rng(1))
        assert len(vec.values) == 2
        assert 0.0 < vec.values[1] < 1.0
        assert vec.errors[1] > 0.0

    def test_bounds_validation(self):
        with pytest.raises(ValidationError):
            PsiVector(values=(1.2,), errors=(0.0,))
