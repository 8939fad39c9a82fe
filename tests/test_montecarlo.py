"""Tests for disorder sampling and the satisfiability probes."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from vclab.errors import BudgetError, ValidationError
from vclab.montecarlo import (
    Dataset,
    PhasePoint,
    SatProbe,
    _cells_labelings,
    _extension_labelings,
    _pick_method,
    admissible_exists,
    count_admissible_dichotomies,
    crossover_load,
    estimate_mean_count,
    random_classifier_probe,
    sample_dataset,
    sat_fraction_scan,
)
from vclab.numerics import Rng
from vclab.recursion import build_count_table, cover_count_exact
from vclab.separability import TAU, dedupe_directions, max_margin, min_norm_point
from vclab.structure import StructureSpec, psi2, sample_multiplet, theta_coefficients

UNSTRUCTURED = StructureSpec.unstructured()
PAIRS_HALF = StructureSpec.pairs(0.5)


def seed_matched_pair_dataset(rho: float, n: int, p: int, rng: Rng) -> Dataset:
    """Pairs built from a fixed frame stream so different rho values share
    the same random rotation (used for overlap-monotonicity checks)."""
    spec = StructureSpec.pairs(rho)
    gen = rng.generator()
    pts = np.stack([sample_multiplet(spec, n, gen) for _ in range(p)])
    return Dataset(spec=spec, n=n, p=p, points=pts)


def cells_labelings(dataset: Dataset, margin: float = 0.0):
    """The cell scan of the whole dataset (margin 0 only)."""
    assert margin == 0.0
    return _cells_labelings(dataset, dedupe_directions(dataset.flat))


def sigma_labelings(dataset: Dataset, margin: float):
    """The sign-vector oracle: each sigma with sigma_1 = +1 checked with one
    `max_margin` solve on the whole dataset, then yielded with -sigma."""
    for bits in product((1, -1), repeat=dataset.p - 1):
        labels = np.array((1,) + bits, dtype=np.int8)
        if max_margin(dataset.flat, np.repeat(labels, dataset.spec.k)) > margin + TAU:
            yield labels
            yield -labels


def drained(labelings, dataset: Dataset, margin: float) -> list[bytes]:
    """Every labeling a backend generator yields, in sorted order."""
    rows = [row.tobytes() for row in labelings(dataset, margin)]
    assert len(set(rows)) == len(rows)
    return sorted(rows)


class TestSampling:
    def test_shapes_and_constraints(self):
        ds = sample_dataset(PAIRS_HALF, 5, 7, Rng(0))
        assert ds.points.shape == (7, 2, 5)
        assert np.max(np.abs(np.linalg.norm(ds.points, axis=2) - 1.0)) <= 1e-9
        grams = np.einsum("pan,pbn->pab", ds.points, ds.points)
        assert np.max(np.abs(grams - PAIRS_HALF.gram)) <= 1e-9

    def test_unstructured_points_on_sphere(self):
        ds = sample_dataset(UNSTRUCTURED, 3, 5, Rng(1))
        np.testing.assert_allclose(np.linalg.norm(ds.flat, axis=1), 1.0, atol=1e-12)

    def test_coincident_pairs(self):
        ds = sample_dataset(StructureSpec.pairs(1.0), 4, 3, Rng(2))
        np.testing.assert_array_equal(ds.points[:, 0, :], ds.points[:, 1, :])

    def test_overlaps_tight(self):
        ds = sample_dataset(PAIRS_HALF, 3, 6, Rng(3))
        dots = np.einsum("pn,pn->p", ds.points[:, 0, :], ds.points[:, 1, :])
        np.testing.assert_allclose(dots, 0.5, atol=1e-10)

    def test_reproducible(self):
        a = sample_dataset(PAIRS_HALF, 4, 3, Rng(7, 5))
        b = sample_dataset(PAIRS_HALF, 4, 3, Rng(7, 5))
        np.testing.assert_array_equal(a.points, b.points)


class TestCounting:
    def test_full_expressivity(self):
        ds = sample_dataset(PAIRS_HALF, 8, 3, Rng(4))
        probe = count_admissible_dichotomies(ds)
        assert probe.count == 8
        assert probe.method == "full-rank"
        assert probe.sat and probe.enumerated

    def test_degenerate_pairs_reduce_to_cover(self):
        ds = sample_dataset(StructureSpec.pairs(1.0), 2, 2, Rng(5))
        assert count_admissible_dichotomies(ds).count == cover_count_exact(2, 2)

    def test_unstructured_matches_cover(self):
        ds = sample_dataset(UNSTRUCTURED, 2, 3, Rng(6))
        assert count_admissible_dichotomies(ds).count == cover_count_exact(2, 3)

    def test_backends_agree(self):
        # the sign-vector oracle, the arrangement-cell enumeration and the
        # extension engine are independent exact routes and must match
        # instance by instance
        rng = Rng(42)
        cases = [
            (UNSTRUCTURED, 2, 4),
            (UNSTRUCTURED, 3, 5),
            (PAIRS_HALF, 2, 3),
            (PAIRS_HALF, 3, 4),
            (StructureSpec.pairs(0.0), 3, 3),
            (StructureSpec.pairs(-0.4), 2, 4),
            (StructureSpec.equicorrelated(3, 0.2), 3, 3),
        ]
        cases += [(PAIRS_HALF, n, p) for n in (4, 5, 6) for p in (6, 8, 10)]
        datasets = [
            sample_dataset(spec, n, p, Rng(10, (i, t)))
            for i, (spec, n, p) in enumerate(cases)
            for t in range(6)
        ]
        # degenerate sets of rank 4 and 5: a duplicate point, an antipodal
        # pair, points confined to a 4-dimensional subspace of R^5
        gen = Rng(10, 99).generator()
        for t in range(4):
            for n in (4, 5):
                pts = sample_dataset(UNSTRUCTURED, n, 8, Rng(10, (n, t))).flat
                datasets.append(points_dataset(np.vstack([pts, pts[t]])))
                datasets.append(points_dataset(np.vstack([pts, -pts[t]])))
            frame, _ = np.linalg.qr(gen.standard_normal((5, 4)))
            datasets.append(points_dataset(gen.standard_normal((9, 4)) @ frame.T))
        # coincident pairs of rank 7: 24 points, 12 distinct hyperplanes
        datasets.append(sample_dataset(StructureSpec.pairs(1.0), 7, 12, Rng(10, 98)))
        for ds in datasets:
            oracle = drained(sigma_labelings, ds, 0.0)
            assert drained(cells_labelings, ds, 0.0) == oracle
            assert drained(_extension_labelings, ds, 0.0) == oracle

    def test_backends_agree_with_margin(self):
        rng = Rng(11)
        for n, p in ((3, 5), (4, 7), (5, 8)):
            for t in range(8):
                ds = sample_dataset(UNSTRUCTURED, n, p, rng.substream(t))
                oracle = drained(sigma_labelings, ds, 0.3)
                assert drained(_extension_labelings, ds, 0.3) == oracle

    def test_counts_even_when_enumerated(self):
        rng = Rng(12)
        for t in range(10):
            ds = sample_dataset(PAIRS_HALF, 3, 5, rng.substream(t))
            probe = count_admissible_dichotomies(ds)
            assert probe.enumerated
            assert probe.count % 2 == 0

    def test_margin_monotonicity(self):
        rng = Rng(13)
        for t in range(6):
            ds = sample_dataset(UNSTRUCTURED, 3, 4, rng.substream(t))
            counts = [
                count_admissible_dichotomies(ds, margin=kappa).count
                for kappa in (0.0, 0.2, 0.5, 1.0)
            ]
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_overlap_monotonicity_seed_matched(self):
        # on a shared rotation frame, smaller overlaps mean wider pairs and
        # (weakly) fewer realizable admissible labelings
        for t in range(8):
            counts = [
                count_admissible_dichotomies(
                    seed_matched_pair_dataset(rho, 3, 3, Rng(14, t))
                ).count
                for rho in (0.9, 0.5, 0.0)
            ]
            assert counts[0] >= counts[1] >= counts[2]

    def test_rotation_invariance(self):
        gen = np.random.default_rng(15)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        for t in range(6):
            ds = sample_dataset(PAIRS_HALF, 3, 4, Rng(16, t))
            rotated = Dataset(
                spec=ds.spec, n=ds.n, p=ds.p, points=ds.points @ q.T
            )
            a = count_admissible_dichotomies(ds)
            b = count_admissible_dichotomies(rotated)
            assert (a.count, a.sat) == (b.count, b.sat)

    def test_sign_negation_invariance(self):
        from vclab.separability import max_margin

        ds = sample_dataset(PAIRS_HALF, 3, 3, Rng(17))
        signs = np.repeat(np.array([1.0, -1.0, 1.0]), 2)
        assert max_margin(ds.flat, signs) == pytest.approx(
            max_margin(ds.flat, -signs), abs=1e-12
        )

    def test_budget_error(self, monkeypatch, solves):
        # pairs past the cell budget at p = 24: the engine decides SAT in 11
        # solves, and refuses the decision with one solve fewer
        ds = sample_dataset(PAIRS_HALF, 10, 24, Rng(18))
        assert admissible_exists(ds) == SatProbe(1, True, False, "extension")
        assert len(solves) == 11
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 10)
        with pytest.raises(BudgetError, match="random-classifier probe"):
            admissible_exists(ds)
        # rank 4 at margin 0.99, p = 23: the count is 0 after 3 solves (the
        # first point, then both signs of the second)
        ds = sample_dataset(UNSTRUCTURED, 4, 23, Rng(18))
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 3)
        solves.clear()
        probe = count_admissible_dichotomies(ds, margin=0.99)
        assert probe == SatProbe(0, False, True, "extension")
        assert solves == [1, 2, 2]
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 2)
        with pytest.raises(BudgetError):
            count_admissible_dichotomies(ds, margin=0.99)

    @pytest.mark.parametrize(
        "spec, n, p, margin, method",
        [(PAIRS_HALF, 3, p, 0.0, "cells") for p in (2, 9, 81)]
        + [(UNSTRUCTURED, 3, 8, 0.5, "extension")]  # any positive margin
        + [(PAIRS_HALF, 5, p, 0.0, "cells") for p in (6, 12, 25)]
        + [
            (PAIRS_HALF, 8, 10, 0.0, "extension"),  # 2^(p-1) solves are cheaper
            (PAIRS_HALF, 7, 20, 0.0, "extension"),  # cells exceed their budget
            (UNSTRUCTURED, 5, 8, 0.5, "extension"),  # any positive margin
        ]
        # coincident or antipodal pairs: cells priced on the distinct points
        + [
            (StructureSpec.pairs(1.0), 7, 12, 0.0, "cells"),
            (StructureSpec.pairs(1.0), 6, 10, 0.0, "cells"),
            (StructureSpec.pairs(-1.0), 6, 10, 0.0, "cells"),
        ]
        + [(PAIRS_HALF, 10, 24, 0.0, "extension")],  # p > 22, cells exceed their budget
    )
    def test_auto_backend_choice(self, spec, n, p, margin, method):
        ds = sample_dataset(spec, n, p, Rng(20, (n, p)))
        assert _pick_method(ds, margin)[0] == method

    def test_margin_requires_nonnegative(self):
        ds = sample_dataset(UNSTRUCTURED, 3, 2, Rng(19))
        with pytest.raises(ValidationError):
            count_admissible_dichotomies(ds, margin=-0.1)


def rank_r_points(n: int, r: int, m: int, seed) -> np.ndarray:
    """m unit rows spanning an r-dimensional subspace of R^n."""
    gen = Rng(70, seed).generator()
    frame, _ = np.linalg.qr(gen.standard_normal((n, r)))
    pts = gen.standard_normal((m, r)) @ frame.T
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def cone_points(cos: float, m: int) -> np.ndarray:
    """m unit rows at angle arccos(cos) around e_1, evenly spread: the
    all-positive labeling has margin exactly cos (w = e_1, by symmetry)."""
    phi = 2 * np.pi * np.arange(m) / m
    sin = math.sqrt(1 - cos * cos)
    return np.column_stack([np.full(m, cos), sin * np.cos(phi), sin * np.sin(phi)])


class TestExtensionEngine:
    """The extension engine drained against the sign-vector oracle."""

    MARGINS = (0.0, 0.3, 0.5, 0.99)

    def test_differential_sweep(self):
        datasets = []
        # k=1 data at ranks 1-8, in R^r and with a rank drop in R^(r+1)
        for r in range(1, 9):
            m = min(r + 2, 9)
            datasets.append(points_dataset(rank_r_points(r, r, m, (r, 0))))
            datasets.append(points_dataset(rank_r_points(r + 1, r, m, (r, 1))))
        # duplicate and antipodal points
        for n in (2, 3, 5):
            pts = rank_r_points(n, n, 6, (n, 2))
            datasets.append(points_dataset(np.vstack([pts, pts[1], -pts[3]])))
        # pairs at rho = +-1 and in between, and triplets
        for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for n, p in ((3, 5), (5, 6)):
                datasets.append(sample_dataset(StructureSpec.pairs(rho), n, p, Rng(71, (n, p))))
        datasets.append(sample_dataset(StructureSpec.equicorrelated(3, 0.2), 4, 6, Rng(72)))
        disagreements = [
            (i, margin)
            for i, ds in enumerate(datasets)
            for margin in self.MARGINS
            if drained(_extension_labelings, ds, margin) != drained(sigma_labelings, ds, margin)
        ]
        assert disagreements == []

    @pytest.mark.parametrize("offset", [-1e-12, -1e-13, 0.0, 1e-13, 1e-12])
    def test_optimum_at_the_bar(self, offset):
        # margins that put an optimum within 1e-12 of margin + TAU
        cases = [(points_dataset(cone_points(cos, 6)), cos) for cos in (0.6, 0.8)]
        for t in range(4):
            ds = points_dataset(rank_r_points(3, 3, 6, (3, t + 3)))
            margins = [max_margin(ds.flat, row) for row in sigma_labelings(ds, 0.0)]
            cases.append((ds, sorted(margins)[len(margins) // 2]))
        for ds, optimum in cases:
            margin = optimum - TAU + offset
            assert drained(_extension_labelings, ds, margin) == drained(sigma_labelings, ds, margin)

    def test_one_dedupe_per_decision(self, monkeypatch):
        calls = []

        def recording(points):
            calls.append(points.shape[0])
            return dedupe_directions(points)

        monkeypatch.setattr("vclab.montecarlo.dedupe_directions", recording)
        for p, sat in ((4, True), (30, False)):
            calls.clear()
            ds = sample_dataset(PAIRS_HALF, 3, p, Rng(73))
            assert admissible_exists(ds).sat == sat
            assert calls == [2 * p]  # the whole dataset, once, prefixes included


class TestExistence:
    def test_always_sat_when_p_small(self):
        for t in range(5):
            ds = sample_dataset(PAIRS_HALF, 3, 3, Rng(20, t))
            assert admissible_exists(ds).sat

    def test_deep_unsat_regime(self):
        # far beyond the transition almost every realization is UNSAT
        hits = 0
        for t in range(20):
            ds = sample_dataset(StructureSpec.pairs(0.0), 3, 30, Rng(21, t))
            probe = admissible_exists(ds)
            hits += probe.sat
            if not probe.sat:
                assert probe.enumerated  # exhaustion certificate
                assert probe.count == 0
        assert hits <= 2

    def test_sat_side_partial_count(self):
        ds = sample_dataset(PAIRS_HALF, 3, 3, Rng(22))
        probe = admissible_exists(ds)
        assert probe.sat and not probe.enumerated
        assert probe.count >= 1

    def test_matches_full_count(self):
        rng = Rng(23)
        for t in range(10):
            ds = sample_dataset(StructureSpec.pairs(0.2), 3, 8, rng.substream(t))
            assert admissible_exists(ds).sat == (
                count_admissible_dichotomies(ds).count > 0
            )


def points_dataset(points: np.ndarray) -> Dataset:
    """k=1 data made of the given rows."""
    p, n = points.shape
    return Dataset(spec=UNSTRUCTURED, n=n, p=p, points=points[:, None, :])


def antipodal_pairs(n: int, p: int, seed: int) -> Dataset:
    """Pairs at overlap -1: no pair fits on one side, so every prefix is UNSAT."""
    ds = sample_dataset(UNSTRUCTURED, n, p, Rng(seed))
    pts = np.concatenate([ds.points, -ds.points], axis=1)
    return Dataset(spec=StructureSpec.pairs(-1.0), n=n, p=p, points=pts)


@pytest.fixture
def scans(monkeypatch):
    """Record the number of multiplets of every cell scan."""
    seen = []

    def recording(dataset, directions):
        seen.append(dataset.p)
        return _cells_labelings(dataset, directions)

    monkeypatch.setattr("vclab.montecarlo._cells_labelings", recording)
    return seen


@pytest.fixture
def solves(monkeypatch):
    """Record the number of rows of every extension-engine solve."""
    seen = []

    def recording(points):
        seen.append(points.shape[0])
        return min_norm_point(points)

    monkeypatch.setattr("vclab.montecarlo.min_norm_point", recording)
    return seen


class TestPrefixCertificate:
    def test_matches_full_set_scan(self):
        # the whole-dataset cell scan without prefixes, or the sign-vector
        # oracle where the engine decides, is the oracle for both the decision
        # and the exact count
        cases = [
            (StructureSpec.pairs(rho), 3, p, 0.0, "cells")
            for rho in (-1.0, -0.5, 0.0, 0.5, 0.8, 1.0)
            for p in (6, 9, 17, 30)
        ]
        cases += [(UNSTRUCTURED, 3, p, 0.5, "extension") for p in (9, 12)]
        cases += [(PAIRS_HALF, 8, 10, 0.0, "extension")]
        cases += [(UNSTRUCTURED, 4, p, 0.5, "extension") for p in (9, 10)]
        past_first_prefix = Counter()
        for i, (spec, n, p, margin, method) in enumerate(cases):
            for t in range(3):
                ds = sample_dataset(spec, n, p, Rng(61, (i, t)))
                labelings = cells_labelings if method == "cells" else sigma_labelings
                count = len(list(labelings(ds, margin)))
                sat = count > 0
                exists = admissible_exists(ds, margin=margin)
                full = count_admissible_dichotomies(ds, margin=margin)
                assert exists.method == full.method == method
                assert exists.sat == sat
                assert (full.count, full.sat) == (count, sat)
                assert exists.enumerated == (not sat) and full.enumerated
                if method == "cells":
                    past_first_prefix[sat] += p > 8
        # both outcomes of the cell scan reach the prefix loop
        assert len(past_first_prefix) == 2 and min(past_first_prefix.values()) >= 2

    @pytest.mark.parametrize("n, method", [(3, "cells"), (10, "extension")])
    def test_unsat_prefix_decides_the_dataset(self, scans, solves, n, method):
        ds = antipodal_pairs(n, 20, 62)
        for probe in (admissible_exists(ds), count_admissible_dichotomies(ds)):
            assert (probe.count, probe.sat, probe.enumerated) == (0, False, True)
            assert probe.method == method
        if method == "cells":
            assert scans == [8, 8]  # the full set is never scanned
        else:
            assert solves == [2, 2]  # one solve on the root pair per probe

    def test_sat_prefixes_fall_through_to_the_full_set(self, scans):
        ds = sample_dataset(StructureSpec.pairs(1.0), 3, 20, Rng(63))
        assert count_admissible_dichotomies(ds).count == cover_count_exact(3, 20)
        assert scans == [8, 16, 20]

    def test_budget_errors_unchanged(self, monkeypatch):
        # past the cell budget at p > 22 the engine decides what the cell scan
        # refuses (q=8 is SAT here, so no prefix decides the dataset)
        pairs = sample_dataset(PAIRS_HALF, 9, 24, Rng(65))
        prefix = Dataset(spec=pairs.spec, n=pairs.n, p=8, points=pairs.points[:8])
        assert admissible_exists(prefix).sat
        assert admissible_exists(pairs) == SatProbe(1, True, False, "extension")
        # the engine refuses a probe past MAX_SOLVES solves, and decides it
        # within them: 3 solves certify this UNSAT
        ds = sample_dataset(UNSTRUCTURED, 4, 23, Rng(64))
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 2)
        for args in ((ds, 0.99), (pairs, 0.0)):
            with pytest.raises(BudgetError):
                admissible_exists(*args)
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 3)
        assert admissible_exists(ds, margin=0.99) == SatProbe(0, False, True, "extension")


class TestRandomClassifierProbe:
    def test_lower_bound_and_coverage(self):
        equal = 0
        for t in range(20):
            ds = sample_dataset(PAIRS_HALF, 3, 4, Rng(31).substream(t))
            enum = count_admissible_dichotomies(ds).count
            probe = random_classifier_probe(ds, 30000, Rng(32).substream(t))
            assert probe.count <= enum <= 2**ds.p
            equal += probe.count == enum
        assert equal >= 16  # near-complete coverage at this scale

    def test_unsat_never_witnessed(self):
        ds = sample_dataset(StructureSpec.pairs(0.0), 3, 40, Rng(33))
        assert not admissible_exists(ds).sat
        probe = random_classifier_probe(ds, 5000, Rng(34))
        assert probe.count == 0 and not probe.sat
        assert not probe.enumerated

    def test_margin_filter(self):
        ds = sample_dataset(UNSTRUCTURED, 3, 3, Rng(35))
        loose = random_classifier_probe(ds, 4000, Rng(36), margin=0.0)
        tight = random_classifier_probe(ds, 4000, Rng(36), margin=0.5)
        assert tight.count <= loose.count


class TestMeanCount:
    def test_unstructured_deterministic(self):
        mean, err = estimate_mean_count(UNSTRUCTURED, 3, 2, 30, Rng(40))
        assert mean == 4.0
        assert err == 0.0

    def test_cover_consistency_small_dimensions(self):
        # general position makes the k=1 count deterministic: check every
        # trial against the closed form
        rng = Rng(41)
        for n in (2, 3):
            for p in (2, 4, 6, 8):
                for t in range(30):
                    ds = sample_dataset(UNSTRUCTURED, n, p, rng.substream(n, p, t))
                    assert count_admissible_dichotomies(ds).count == cover_count_exact(n, p)

    def test_cover_consistency_n4(self):
        rng = Rng(42)
        for t in range(20):
            ds = sample_dataset(UNSTRUCTURED, 4, 7, rng.substream(t))
            assert count_admissible_dichotomies(ds).count == cover_count_exact(4, 7)

    def test_exact_mean_at_n2_p2(self):
        # two pairs in the plane: the mean admissible count is exactly
        # 4*psi2(rho) (sector-intersection argument); at rho=0 the count is
        # deterministically 2
        mean, err = estimate_mean_count(StructureSpec.pairs(0.0), 2, 2, 200, Rng(43))
        assert mean == 2.0 and err == 0.0
        mean, err = estimate_mean_count(PAIRS_HALF, 2, 2, 800, Rng(44))
        assert err > 0
        assert abs(mean - 4 * psi2(0.5)) <= 3 * err

    def test_mean_field_recursion_is_biased_at_small_n(self):
        # The counting recursion is a mean-field approximation: at small n it
        # overestimates the true disorder mean, and the relative gap shrinks
        # as n grows.  (So at n in {2, 3} acceptance criterion 03 asserts
        # table = sampled mean only where the recursion is exact, k=1 and
        # rho=1, and only table >= sampled mean for pairs with rho<1; see
        # test_acceptance.py::test_criterion_03.)
        theta = theta_coefficients(PAIRS_HALF)
        table = build_count_table(theta, n_max=6, p_max=4)
        gaps = {}
        for n, trials in ((2, 400), (3, 400), (6, 400)):
            mean, err = estimate_mean_count(PAIRS_HALF, n, 4, trials, Rng(45, n))
            rec = math.exp(table.log_count(n, 4))
            gaps[n] = (rec - mean) / rec
            assert rec >= mean - 3 * err
        assert gaps[2] > gaps[3] > gaps[6]
        assert gaps[2] > 0.15
        assert gaps[6] < 0.05

    def test_full_expressivity_validates_sum_rule(self):
        # n >> kp: recursion (via the theta sum rule) and sampling both give
        # exactly 2^p, pinning theta_2 = 1 - psi_2
        theta = theta_coefficients(PAIRS_HALF)
        table = build_count_table(theta, n_max=40, p_max=4)
        mean, err = estimate_mean_count(PAIRS_HALF, 40, 4, 20, Rng(46))
        assert mean == 16.0 and err == 0.0
        assert math.exp(table.log_count(40, 4)) == pytest.approx(16.0, rel=1e-12)

    def test_requires_two_trials(self):
        with pytest.raises(ValidationError):
            estimate_mean_count(UNSTRUCTURED, 3, 2, 1, Rng(0))

    def test_requires_a_worker(self):
        with pytest.raises(ValidationError):
            estimate_mean_count(UNSTRUCTURED, 3, 2, 4, Rng(0), threads=0)

    def test_threads_do_not_change_results(self):
        a = estimate_mean_count(PAIRS_HALF, 3, 4, 24, Rng(47), threads=1)
        b = estimate_mean_count(PAIRS_HALF, 3, 4, 24, Rng(47), threads=2)
        assert a == b


class TestSatFractionScan:
    def test_full_expressivity_point(self):
        pts = sat_fraction_scan(PAIRS_HALF, 3, [1.0], 20, Rng(50))
        assert pts[0].fraction == 1.0
        assert pts[0].p == 3

    def test_monotone_decreasing_in_load(self):
        pts = sat_fraction_scan(PAIRS_HALF, 3, [1, 2, 3, 4, 5, 6, 8], 150, Rng(51))
        fracs = [q.fraction for q in pts]
        for a, b, qa, qb in zip(fracs, fracs[1:], pts, pts[1:]):
            assert b <= a + 2 * math.hypot(qa.stderr, qb.stderr) + 1e-12

    def test_margin_mode_pointwise_dominance(self):
        # same seeds, nested constraints: the kappa=1 fraction can never
        # exceed the kappa=0.5 fraction
        grid = [1 / 3, 1, 2]
        loose = sat_fraction_scan(UNSTRUCTURED, 3, grid, 60, Rng(52), margin=0.5)
        tight = sat_fraction_scan(UNSTRUCTURED, 3, grid, 60, Rng(52), margin=1.0)
        for a, b in zip(loose, tight):
            assert b.fraction <= a.fraction
        # unit-norm fields on unit points never exceed 1: margin 1 is
        # strictly unsatisfiable at every load
        assert all(q.fraction == 0.0 for q in tight)

    def test_random_classifier_probe_mode(self):
        pts = sat_fraction_scan(
            PAIRS_HALF, 3, [1.0, 2.0], 30, Rng(53), probe="random-classifier",
            num_weights=2000,
        )
        assert pts[0].fraction == 1.0

    def test_with_counts(self):
        pts = sat_fraction_scan(UNSTRUCTURED, 3, [1.0], 10, Rng(54), with_counts=True)
        assert pts[0].mean_count == 8.0  # p = n: full expressivity, every trial
        assert pts[0].count_stderr == 0.0
        paired = sat_fraction_scan(PAIRS_HALF, 3, [1.0], 10, Rng(54), with_counts=True)
        assert 0.0 < paired[0].mean_count < 8.0  # kp = 6 points in R^3

    def test_counts_share_the_sat_disorder(self):
        # every SAT trial counts at least 2 labelings (sigma and -sigma) and
        # every UNSAT trial 0, so on shared disorder the mean count bounds
        # twice the SAT fraction and vanishes exactly with it
        grid = [2, 3, 4, 5, 6]
        pts = sat_fraction_scan(PAIRS_HALF, 3, grid, 8, Rng(57), with_counts=True)
        plain = sat_fraction_scan(PAIRS_HALF, 3, grid, 8, Rng(57))
        assert [q.fraction for q in pts] == [q.fraction for q in plain]
        for q in pts:
            assert q.mean_count >= 2 * q.fraction
            assert (q.mean_count == 0) == (q.fraction == 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sat_fraction_scan(PAIRS_HALF, 3, [], 10, Rng(0))
        with pytest.raises(ValidationError):
            sat_fraction_scan(PAIRS_HALF, 3, [0.05], 10, Rng(0))
        with pytest.raises(ValidationError):
            sat_fraction_scan(PAIRS_HALF, 3, [1.0], 0, Rng(0))
        with pytest.raises(ValidationError):
            sat_fraction_scan(PAIRS_HALF, 3, [1.0], 10, Rng(0), threads=0)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                sat_fraction_scan(PAIRS_HALF, 3, [1.0, alpha], 10, Rng(0))

    def test_threads_match_serial(self):
        a = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 16, Rng(55), threads=1)
        b = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 16, Rng(55), threads=2)
        assert [q.fraction for q in a] == [q.fraction for q in b]
        a = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 6, Rng(55), threads=1, with_counts=True)
        b = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 6, Rng(55), threads=2, with_counts=True)
        assert [(q.fraction, q.mean_count, q.count_stderr) for q in a] == [
            (q.fraction, q.mean_count, q.count_stderr) for q in b
        ]


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool by a stand-in that runs jobs in this process
    and records each pool's size and how it was shut down."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shutdowns = []
            made.append(self)

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdowns.append(cancel_futures)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

    monkeypatch.setattr("vclab.montecarlo.ProcessPoolExecutor", RecordingPool)
    return made


class TestPool:
    def test_one_pool_per_scan_and_progress_per_point(self, pools):
        for threads, created in ((2, 1), (1, 0)):
            pools.clear()
            calls = []
            sat_fraction_scan(
                PAIRS_HALF, 3, [1, 2, 3], 4, Rng(58), threads=threads,
                progress=lambda point, done, total: calls.append((done, total)),
            )
            assert len(pools) == created
            assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_pool_size_clamped_to_jobs(self, pools):
        estimate_mean_count(PAIRS_HALF, 3, 4, 3, Rng(59), threads=64)
        sat_fraction_scan(PAIRS_HALF, 3, [1.0], 1, Rng(59), threads=64)
        assert [pool.max_workers for pool in pools] == [3]

    def test_worker_error_cancels_queued_trials(self, pools, monkeypatch):
        # the p = 10 trials decide in 3 and 5 solves, the first p = 24 one needs 10
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 5)
        with pytest.raises(BudgetError):
            sat_fraction_scan(PAIRS_HALF, 10, [1, 2.4], 2, Rng(60), threads=2)
        assert [pool.shutdowns for pool in pools] == [[True]]


class TestCrossover:
    def test_linear_interpolation(self):
        pts = [
            PhasePoint(alpha=a, p=int(3 * a), trials=100, fraction=f, stderr=0.05)
            for a, f in ((1.0, 1.0), (2.0, 0.8), (3.0, 0.4), (4.0, 0.1))
        ]
        alpha, err = crossover_load(pts)
        assert alpha == pytest.approx(2.75)
        assert err > 0

    def test_no_crossing(self):
        pts = [
            PhasePoint(alpha=a, p=1, trials=10, fraction=0.9, stderr=0.1)
            for a in (1.0, 2.0)
        ]
        with pytest.raises(ValidationError):
            crossover_load(pts)
