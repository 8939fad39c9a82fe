"""Tests for disorder sampling and the satisfiability probes."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import product

import numpy as np
import pytest

from cell_oracle import cells_labelings
from vclab import cli, montecarlo
from vclab.cli import main
from vclab.errors import BudgetError, DimensionError, ValidationError
from vclab.montecarlo import (
    Dataset,
    PhasePoint,
    SatProbe,
    _extension_nodes,
    _map_ordered,
    _pair_conflicts,
    _threshold,
    admissible_exists,
    count_admissible_dichotomies,
    crossover_load,
    estimate_mean_count,
    random_classifier_probe,
    sample_dataset,
    sat_fraction_scan,
    scan_jobs,
)
from vclab.numerics import Rng
from vclab.recursion import build_count_table, cover_count_exact
from vclab import separability
from vclab.separability import (
    _MNP_TOL,
    _TIE,
    TAU,
    Corral,
    _affine_minimizer,
    dedupe_directions,
    max_margin,
    min_norm_corral,
)
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


def cold_min_norm_point(points: np.ndarray) -> np.ndarray:
    """Wolfe's algorithm as it stood before the warm start: always from the
    shortest row (kept verbatim as the oracle of the engine)."""
    x_rows = np.asarray(points, dtype=float)
    m = x_rows.shape[0]
    scale = max(float(np.max(np.einsum("ij,ij->i", x_rows, x_rows))), 1.0)
    start = int(np.argmin(np.einsum("ij,ij->i", x_rows, x_rows)))
    corral = [start]
    lam = np.array([1.0])
    d = x_rows[start].copy()
    for _ in range(16 * m + 64):
        dots = x_rows @ d
        j = int(np.argmin(dots))
        if dots[j] > d @ d - _MNP_TOL * scale:
            break
        if j in corral:
            break  # arithmetic stall; d is optimal to working precision
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            sub = x_rows[corral]
            w = _affine_minimizer(sub)
            if np.all(w > 1e-12):
                lam = w
                break
            # step toward w until the first coefficient hits zero, drop it
            shrink = lam - w
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrink > 1e-15, lam / shrink, np.inf)
            ratios[w > 1e-12] = np.inf
            theta = min(1.0, float(ratios.min()))
            lam = (1.0 - theta) * lam + theta * w
            lam[lam < 1e-12] = 0.0
            keep = lam > 0.0
            if keep.all():
                lam = lam / lam.sum()
                break
            corral = [c for c, kp in zip(corral, keep) if kp]
            lam = lam[keep]
            lam = lam / lam.sum()
        d = lam @ x_rows[corral]
    return d


def sigma_labelings(dataset: Dataset, margin: float):
    """The sign-vector oracle: each sigma with sigma_1 = +1 checked with one
    cold-start min-norm-point solve on the whole signed dataset, then
    yielded with -sigma."""
    for bits in product((1, -1), repeat=dataset.p - 1):
        labels = np.array((1,) + bits, dtype=np.int8)
        signed = np.repeat(labels, dataset.spec.k)[:, None] * dataset.flat
        if np.linalg.norm(cold_min_norm_point(signed)) > margin + TAU:
            yield labels
            yield -labels


def _extension_labelings(dataset: Dataset, margin: float):
    """The leaves of the extension walk, each bit set decoded to its
    labeling and yielded with its negation."""
    for j, plus in _extension_nodes(dataset, margin):
        if j == dataset.p - 1:
            labels = np.array([1 if plus >> i & 1 else -1 for i in range(dataset.p)],
                              dtype=np.int8)
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

    def test_stacked_draw_matches_one_multiplet_at_a_time(self):
        # the oracle: p `sample_multiplet` calls in a row on the trial's stream
        specs = [StructureSpec.equicorrelated(k, 0.3) for k in range(1, 6)]
        specs += [StructureSpec.pairs(rho) for rho in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        for i, spec in enumerate(specs):
            for p in (1, 2, 12, 81):
                for n in sorted({spec.k, spec.k + 1, 8}):
                    stream = Rng(8, (i, p, n))
                    gen = stream.generator()
                    oracle = np.stack([sample_multiplet(spec, n, gen) for _ in range(p)])
                    points = sample_dataset(spec, n, p, stream).points
                    assert points.shape == oracle.shape
                    assert points.tobytes() == oracle.tobytes(), (i, p, n)

    def test_prefix_stable(self):
        # a scan reads load q off the first q multiplets of its largest load
        specs = [StructureSpec.equicorrelated(k, 0.3) for k in (1, 2, 3)]
        specs.append(StructureSpec.pairs(-1.0))
        for i, spec in enumerate(specs):
            stream = Rng(9, i)
            whole = sample_dataset(spec, 4, 81, stream).points
            for q in (1, 2, 12, 80):
                assert sample_dataset(spec, 4, q, stream).points.tobytes() == whole[:q].tobytes()

    def test_sampling_validation(self):
        with pytest.raises(DimensionError):
            sample_dataset(StructureSpec.equicorrelated(3, 0.2), 2, 4, Rng(9))
        for p in (0, -1):
            with pytest.raises(ValidationError):
                sample_dataset(PAIRS_HALF, 3, p, Rng(9))

    @pytest.mark.parametrize("probe", [admissible_exists, count_admissible_dichotomies])
    def test_fields_must_match_the_points(self, probe):
        # the 30 multiplets are UNSAT; read as p=3 they would answer for the
        # first 3 only
        points = sample_dataset(PAIRS_HALF, 3, 30, Rng(5)).points
        for spec, n, p in ((PAIRS_HALF, 3, 3), (UNSTRUCTURED, 3, 30), (PAIRS_HALF, 2, 30)):
            with pytest.raises(ValidationError):
                probe(Dataset(spec=spec, n=n, p=p, points=points))

    @pytest.mark.parametrize("probe", [admissible_exists, count_admissible_dichotomies])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_points_are_refused(self, probe, bad):
        # an inf coordinate read as SAT, and the counts died in numpy
        points = sample_dataset(PAIRS_HALF, 3, 4, Rng(5)).points.copy()
        points[2, 1, 0] = bad
        with pytest.raises(ValidationError, match="points must be finite"):
            probe(Dataset(spec=PAIRS_HALF, n=3, p=4, points=points))


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
        # pairs at n = 10, p = 24: the engine decides SAT in 11 solves, and
        # refuses the decision with one solve fewer
        ds = sample_dataset(PAIRS_HALF, 10, 24, Rng(18))
        assert admissible_exists(ds) == SatProbe(1, True, False, "extension")
        assert len(solves) == 11
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 10)
        with pytest.raises(BudgetError, match="random-classifier probe"):
            admissible_exists(ds)
        # rank 4 at margin 0.7, p = 23: the count is 0 after 3 solves on
        # prefixes of 1, 2 and 5 points; the pair tables refuse every other child
        ds = sample_dataset(UNSTRUCTURED, 4, 23, Rng(18))
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 3)
        solves.clear()
        probe = count_admissible_dichotomies(ds, margin=0.7)
        assert probe == SatProbe(0, False, True, "extension")
        assert solves == [1, 2, 5]
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 2)
        with pytest.raises(BudgetError):
            count_admissible_dichotomies(ds, margin=0.7)

    @pytest.mark.parametrize(
        "spec, n, p, margin, method",
        # below full rank the engine counts at every margin
        [(PAIRS_HALF, 3, p, 0.0, "extension") for p in (2, 9)]
        + [(PAIRS_HALF, 3, 81, 0.0, "extension")]  # UNSAT
        + [(UNSTRUCTURED, 3, 8, 0.5, "extension")]  # any positive margin
        + [(PAIRS_HALF, 5, p, 0.0, "extension") for p in (6, 12, 25)]  # few labelings
        + [
            (PAIRS_HALF, 8, 10, 0.0, "extension"),
            (PAIRS_HALF, 7, 20, 0.0, "extension"),
            (UNSTRUCTURED, 5, 8, 0.5, "extension"),  # any positive margin
        ]
        # coincident pairs, k=1 points, have large counts; antipodal pairs
        # are UNSAT at the first solve
        + [
            (StructureSpec.pairs(1.0), 7, 12, 0.0, "extension"),
            (StructureSpec.pairs(1.0), 6, 10, 0.0, "extension"),
            (StructureSpec.pairs(-1.0), 6, 10, 0.0, "extension"),
        ]
        + [(UNSTRUCTURED, 3, 60, 0.0, "extension")],  # 3,542 labelings
    )
    def test_auto_backend_choice(self, spec, n, p, margin, method):
        ds = sample_dataset(spec, n, p, Rng(20, (n, p)))
        assert count_admissible_dichotomies(ds, margin).method == method

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

    MARGINS = (0.0, 0.3, 0.5, 0.7, 0.99)

    def test_differential_sweep(self, monkeypatch, solves):
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
        disagreements = []
        pruned = Counter()
        for i, ds in enumerate(datasets):
            for margin in self.MARGINS:
                oracle = drained(sigma_labelings, ds, margin)
                solves.clear()
                if drained(_extension_labelings, ds, margin) != oracle:
                    disagreements.append((i, margin))
                pruned[margin] -= len(solves)
                # without the pair tables every refused child costs a solve
                with monkeypatch.context() as m:
                    m.setattr("vclab.montecarlo._pair_conflicts", no_pair_conflicts)
                    solves.clear()
                    if drained(_extension_labelings, ds, margin) != oracle:
                        disagreements.append((i, margin, "untabled"))
                    pruned[margin] += len(solves)
                # tables for the first two multiplets only: deeper children
                # are decided by their solves alone
                with monkeypatch.context() as m:
                    m.setattr("vclab.montecarlo._PAIR_ROWS", 2 * ds.spec.k)
                    if drained(_extension_labelings, ds, margin) != oracle:
                        disagreements.append((i, margin, "truncated"))
        assert disagreements == []
        assert pruned[0.0] >= 0 and min(pruned[m] for m in (0.5, 0.7, 0.99)) > 0

    @pytest.mark.parametrize("offset", [-1e-12, -1e-13, 0.0, 1e-13, 1e-12])
    def test_optimum_at_the_bar(self, offset):
        # margins that put an optimum within 1e-12 of margin + TAU
        cases = [(points_dataset(cone_points(cos, 6)), cos) for cos in (0.6, 0.8)]
        # the median max_margin over the labelings of each dataset, as
        # literals, so the case checks the walk alone
        medians = (0.19715612166727212, 0.12187390092334899, 0.08342076813982291,
                   0.1360004530858953)
        for t, median in enumerate(medians):
            cases.append((points_dataset(rank_r_points(3, 3, 6, (3, t + 3))), median))
        if offset:
            # a pair-attained optimum: two unit points at overlap c, whose
            # equal signs have the margin of their midpoint, sqrt((1 + c) / 2)
            for c in (-0.4, 0.3, 0.9):
                pts = np.array([[1.0, 0.0], [c, math.sqrt(1 - c * c)]])
                cases.append((points_dataset(pts), math.sqrt((1 + c) / 2)))
        for ds, optimum in cases:
            margin = optimum - TAU + offset
            assert drained(_extension_labelings, ds, margin) == drained(sigma_labelings, ds, margin)

    def test_decisions_neither_dedupe_nor_scan_cells(self, monkeypatch, scans):
        calls = []

        def recording(points):
            calls.append(points.shape[0])
            return dedupe_directions(points)

        monkeypatch.setattr("vclab.montecarlo.dedupe_directions", recording)
        datasets = [sample_dataset(PAIRS_HALF, 3, p, Rng(73)) for p in (4, 30)]
        for ds, sat in zip(datasets, (True, False)):
            assert admissible_exists(ds) == SatProbe(int(sat), sat, not sat, "extension")
        assert calls == [] and scans == []
        # nor do counts: the engine counts below full rank
        methods = [count_admissible_dichotomies(ds).method for ds in datasets]
        assert methods == ["extension", "extension"]
        assert calls == [] and scans == []


class TestPinnedSolves:
    """The solves of seeded walks, recorded before the walk kept its
    bookkeeping in Python ints: a rewrite of the walk must free, refuse and
    solve the same children, in the same order."""

    def test_pair_thresholds(self, solves):
        # (p*, solves, rows over all solves) of 3 trials per rho, n = 3, p = 81
        pinned = {
            0.2: [(11, 29, 336), (9, 16, 162), (7, 11, 92)],
            0.5: [(15, 56, 954), (11, 26, 312), (8, 23, 220)],
            0.8: [(34, 166, 4398), (28, 133, 3574), (44, 157, 4828)],
        }
        for i, (rho, trials) in enumerate(pinned.items()):
            for t, expected in enumerate(trials):
                ds = sample_dataset(StructureSpec.pairs(rho), 3, 81, Rng(91, (i, t)))
                solves.clear()
                assert (_threshold(ds, 0.0), len(solves), sum(solves)) == expected

    def test_margin_thresholds(self, solves):
        # k = 1 at margin 0.5, n = 3, p = 12: the pair table refuses most
        # children here (without it these walks take 6-20 solves)
        pinned = [(9, [1, 2, 4, 6, 7, 2, 7]), (6, [1, 2, 4, 5, 6, 6, 2]), (9, [1, 2, 3, 2, 4, 5]),
                  (6, [1, 3, 3, 6]), (6, [1, 2, 4, 5, 2, 3, 6]), (13, [1, 3, 4, 8, 11]),
                  (7, [1, 2, 4, 2]), (7, [1, 3, 4, 6, 7, 3])]
        for t, (threshold, rows) in enumerate(pinned):
            ds = sample_dataset(UNSTRUCTURED, 3, 12, Rng(92, t))
            solves.clear()
            assert _threshold(ds, 0.5) == threshold
            assert solves == rows

    def test_drained_pair_counts(self, solves):
        # (count, solves, rows over all solves) of the prefixes p = 6..12 of
        # one pair sequence at rho = 0.5, n = 5, each won by the engine
        pinned = [(38, 45, 448), (34, 71, 812), (48, 89, 1100), (44, 126, 1766),
                  (42, 150, 2246), (40, 177, 2840), (32, 205, 3512)]
        ds = sample_dataset(PAIRS_HALF, 5, 12, Rng(93))
        for p, expected in zip(range(6, 13), pinned):
            prefix = Dataset(spec=PAIRS_HALF, n=5, p=p, points=ds.points[:p])
            solves.clear()
            probe = count_admissible_dichotomies(prefix)
            assert probe.method == "extension"
            assert (probe.count, len(solves), sum(solves)) == expected


def factored_solve(points: np.ndarray, signs: np.ndarray, start: Corral | None = None):
    """`min_norm_corral` on the factored path over the signed rows, reading
    the Gram rows of the unsigned points, as the extension walk does."""
    return min_norm_corral(signs[:, None] * points, start, (points @ points.T).tolist(),
                           signs.astype(int).tolist())[:2]


def factored_row_sets() -> list[tuple[np.ndarray, np.ndarray]]:
    """(points, signs): random rows, duplicate and antipodal rows, rank
    drops, and pairs at rho = +-1 with one sign per pair."""
    gen = Rng(74).generator()
    sets = []
    for _ in range(80):
        m, n = int(gen.integers(2, 14)), int(gen.integers(1, 7))
        sets.append(gen.standard_normal((m, n)))
    for n in (2, 3, 5):
        pts = rank_r_points(n, n, 7, (n, 4))
        sets.append(np.vstack([pts, pts[1], -pts[3], pts[1], -pts[1]]))
        sets.append(rank_r_points(n + 2, n, 9, (n, 5)))
        sets.append(rank_r_points(n, 1, 4, (n, 6)))
    sets = [(pts, gen.choice([-1.0, 1.0], size=len(pts))) for pts in sets]
    for rho in (-1.0, 1.0):
        for n, p in ((2, 5), (3, 6), (5, 7)):
            pts = sample_dataset(StructureSpec.pairs(rho), n, p, Rng(75, (n, p))).flat
            sets.append((pts, np.repeat(gen.choice([-1.0, 1.0], size=p), 2)))
    return sets


def check_corral(x_rows: np.ndarray, d: np.ndarray, corral: Corral) -> None:
    """d is the optimum its corral's weights give, to the support tolerance,
    and a carried factor is the Cholesky factor of G_CC + 11^T."""
    rows = list(corral.rows)
    lam = np.array(corral.lam)
    assert np.all(lam > 0) and lam.sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(d, lam @ x_rows[rows])
    assert float((x_rows @ d).min()) >= float(d @ d) - 1e-9
    if corral.factor is not None:
        low = np.zeros((len(rows), len(rows)))
        for r, row in enumerate(corral.factor):
            assert len(row) == r + 1
            low[r, : r + 1] = row
        sub = x_rows[rows]
        np.testing.assert_allclose(low @ low.T, sub @ sub.T + 1.0, atol=1e-9)


class TestFactoredStep:
    """The Cholesky-factored min-norm step against the cold bordered oracle."""

    def test_differential_sweep(self):
        gen = Rng(76).generator()
        full = 0  # solves whose corral reached n + 1 rows
        for points, signs in factored_row_sets():
            x_rows = signs[:, None] * points
            oracle = float(np.linalg.norm(cold_min_norm_point(x_rows)))
            d, corral = factored_solve(points, signs)
            check_corral(x_rows, d, corral)
            assert np.linalg.norm(d) == pytest.approx(oracle, abs=1e-9)
            full += len(corral.rows) == points.shape[1] + 1
            # warm-started from the final corral of a prefix, as in the walk
            q = int(gen.integers(1, len(points)))
            _, start = factored_solve(points[:q], signs[:q])
            d, corral = factored_solve(points, signs, start)
            check_corral(x_rows, d, corral)
            assert np.linalg.norm(d) == pytest.approx(oracle, abs=1e-9)
        assert full >= 10

    def test_dependent_row_falls_back_to_the_bordered_solve(self, monkeypatch):
        calls = []

        def recording(points):
            calls.append(points.shape[0])
            return _affine_minimizer(points)

        monkeypatch.setattr("vclab.separability._affine_minimizer", recording)
        points = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [-2.0, 1.0], [0.5, -3.0]])
        signs = np.ones(5)
        oracle = float(np.linalg.norm(cold_min_norm_point(points)))
        # a start whose corral holds a duplicate row: its factor's last pivot
        # is not positive, so the whole solve runs on the bordered path
        start = Corral((0, 1, 2), (0.25, 0.25, 0.5), None)
        d, corral = factored_solve(points, signs, start)
        assert calls and corral.factor is None
        assert np.linalg.norm(d) == pytest.approx(oracle, abs=1e-9)
        # an insert refused mid-solve finishes that solve on the bordered path;
        # the next solve from its corral factors it again
        real = separability._append_row
        inserts = []

        def refuse_the_second(factor, corral, j, gram, signs):
            inserts.append(j)
            return None if len(inserts) == 2 else real(factor, corral, j, gram, signs)

        monkeypatch.setattr("vclab.separability._append_row", refuse_the_second)
        calls.clear()
        d, corral = factored_solve(points, signs)
        assert len(inserts) >= 2 and calls and corral.factor is None
        assert np.linalg.norm(d) == pytest.approx(oracle, abs=1e-9)
        monkeypatch.setattr("vclab.separability._append_row", real)
        calls.clear()
        d, corral = factored_solve(points, signs, corral)
        assert calls == [] and corral.factor is not None
        check_corral(points, d, corral)

    def test_decision_exits_keep_the_full_solve_decision(self):
        # bars at each set's optimum and at +-1e-11, +-1e-9 and +-1e-3 from
        # it, above TAU as a walk's margin + TAU is; cold and warm-started
        gen = Rng(78).generator()
        unsat = clears = 0
        for points, signs in factored_row_sets():
            x_rows = signs[:, None] * points
            gram, sg = (points @ points.T).tolist(), signs.astype(int).tolist()
            q = int(gen.integers(1, len(points)))
            prefix = min_norm_corral(x_rows[:q], None, gram, sg)[1]
            optimum = float(np.linalg.norm(factored_solve(points, signs)[0]))
            # a warm start from the carried point is the one from lam @ rows
            d, corral = factored_solve(points, signs, prefix)
            bare_d, bare_corral = factored_solve(points, signs, prefix._replace(point=None))
            np.testing.assert_array_equal(d, bare_d)
            assert corral == bare_corral
            for start in (None, prefix):
                full, corral = factored_solve(points, signs, start)
                for offset in (0.0, -1e-11, 1e-11, -1e-9, 1e-9, -1e-3, 1e-3):
                    bar = optimum + offset
                    if bar < TAU:
                        continue
                    # the full solve's decision, with its tie re-solve
                    d = full
                    if abs(math.sqrt(d @ d) - bar) <= _TIE:
                        rows = x_rows[list(corral.rows)]
                        d = np.dot(_affine_minimizer(rows).tolist(), rows)
                    decision = math.sqrt(d @ d) > bar
                    for leaf in (False, True):
                        d, exit_corral, clear = min_norm_corral(
                            x_rows, start, gram, sg, None, bar, leaf)
                        assert (math.sqrt(d @ d) > bar) == decision
                        rows = list(exit_corral.rows)
                        assert exit_corral.point == tuple(d.tolist())
                        assert exit_corral.point == tuple(
                            np.dot(exit_corral.lam, x_rows[rows]).tolist())
                        if clear:
                            assert (x_rows @ (d / math.sqrt(d @ d))).min() > bar
                        # an UNSAT decision outside the tie window takes the
                        # UNSAT exit, at the latest before its last dots pass
                        unsat += not decision and abs(math.sqrt(full @ full) - bar) > _TIE
                        clears += clear
        assert unsat >= 500 and clears >= 200

    def test_one_warm_start_serves_both_children(self):
        # the two children of a node solve from the same corral, in any order
        gen = Rng(77).generator()
        for _ in range(40):
            n, q = int(gen.integers(2, 6)), int(gen.integers(2, 8))
            points = gen.standard_normal((q + 2, n))
            signs = gen.choice([-1.0, 1.0], size=q + 2)
            _, start = factored_solve(points[:q], signs[:q])
            snapshot = (start.rows, start.lam, start.factor)
            children = [signs.copy(), signs.copy()]
            children[1][q:] *= -1
            first = [factored_solve(points, sg, start) for sg in children]
            second = [factored_solve(points, sg, start) for sg in reversed(children)][::-1]
            assert (start.rows, start.lam, start.factor) == snapshot
            for (d1, c1), (d2, c2) in zip(first, second):
                np.testing.assert_array_equal(d1, d2)
                assert c1 == c2


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


def no_pair_conflicts(points: np.ndarray, bar: float) -> tuple[list[int], list[int]]:
    """Pair tables that refuse nothing: as many rows, each an empty bit set."""
    same, flip = _pair_conflicts(points, bar)
    return [0] * len(same), [0] * len(flip)


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
    """Record the number of hyperplanes of every cell scan the program
    makes; the tests' oracle holds its own `sign_pattern_blocks`, so its
    scans are not recorded."""
    seen = []
    real = separability.sign_pattern_blocks

    def recording(points):
        seen.append(len(points))
        return real(points)

    for module in ("vclab.montecarlo", "vclab.separability"):
        monkeypatch.setattr(f"{module}.sign_pattern_blocks", recording)
    return seen


@pytest.fixture
def solves(monkeypatch):
    """Record the number of rows of every extension-engine solve."""
    seen = []

    def recording(points, *args):
        seen.append(points.shape[0])
        return min_norm_corral(points, *args)

    monkeypatch.setattr("vclab.montecarlo.min_norm_corral", recording)
    return seen


def first_unsat_prefix(dataset: Dataset, margin: float) -> int:
    """p* by per-prefix decisions of the oracles: the whole-prefix cell scan
    at margin 0, the sign-vector oracle above it; p + 1 when all are SAT."""
    labelings = cells_labelings if margin == 0.0 else sigma_labelings
    for q in range(1, dataset.p + 1):
        prefix = Dataset(spec=dataset.spec, n=dataset.n, p=q, points=dataset.points[:q])
        if next(labelings(prefix, margin), None) is None:
            return q
    return dataset.p + 1


def duplicate_antipodal_points(n: int) -> Dataset:
    """k=1 data in R^n: 2n + 3 points, then a repeat of one of them and the
    antipodes of two, one of which is the repeated point."""
    pts = rank_r_points(n, n, 2 * n + 3, (n, 3))
    return points_dataset(np.vstack([pts, pts[1], -pts[3], -pts[1]]))


class TestCountingRace:
    def test_race_matches_both_forced_backends(self):
        # the count against the drained cell scan and the drained engine, on
        # degenerate inputs too
        datasets = [
            sample_dataset(StructureSpec.pairs(rho), n, p, Rng(74, (i, n, p)))
            for i, rho in enumerate((-1.0, -0.5, 0.0, 0.5, 0.8, 1.0))
            for n, p in ((3, 5), (3, 12), (4, 7), (4, 11), (5, 8), (5, 12), (6, 9))
        ]
        datasets += [sample_dataset(UNSTRUCTURED, n, p, Rng(75, (n, p)))
                     for n, p in ((2, 9), (3, 15), (4, 12), (5, 11))]
        datasets.append(sample_dataset(StructureSpec.equicorrelated(3, 0.2), 4, 8, Rng(76)))
        for n in (3, 4, 5):
            # duplicate and antipodal points, and a rank drop into R^(n+1)
            datasets.append(duplicate_antipodal_points(n))
            datasets.append(points_dataset(rank_r_points(n + 1, n, 2 * n + 4, (n, 4))))
        for i, ds in enumerate(datasets):
            cells = drained(cells_labelings, ds, 0.0)
            assert drained(_extension_labelings, ds, 0.0) == cells, i
            probe = count_admissible_dichotomies(ds)
            assert probe == SatProbe(len(cells), bool(cells), True, "extension"), i

    def test_few_labelings_are_counted_by_the_engine(self, scans, solves):
        # a dataset of the n = 5 pairs counting workload: a few hundred
        # solves against a scan of 170,016 candidates
        ds = sample_dataset(PAIRS_HALF, 5, 12, Rng(77))
        count = len(list(cells_labelings(ds)))
        scans.clear()
        assert count_admissible_dichotomies(ds) == SatProbe(count, True, True, "extension")
        assert scans == []
        assert len(solves) > 0

    def test_large_k1_count_takes_the_engine(self, monkeypatch, scans, solves):
        # k = 1 at n = 3, p = 60: Cover's 3,542 labelings, drained by the
        # engine in tens of thousands of solves
        ds = sample_dataset(UNSTRUCTURED, 3, 60, Rng(78))
        probe = count_admissible_dichotomies(ds)
        assert probe == SatProbe(cover_count_exact(3, 60), True, True, "extension")
        assert len(solves) > 10_000
        assert scans == []
        # `MAX_SOLVES` refuses the count, with the probe that has no budget
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 10)
        with pytest.raises(BudgetError, match="random-classifier probe"):
            count_admissible_dichotomies(ds)
        assert scans == []


class TestNoCellScan:
    def test_counts_and_decisions_scan_no_cells(self, monkeypatch):
        # large counts of k=1 points at p = 60 and of coincident pairs, which
        # are k=1 points too, against Cover's formula; the duplicate and
        # antipodal points of the differential sweep against the cell oracle
        cases = [(sample_dataset(UNSTRUCTURED, 2, 60, Rng(78)), cover_count_exact(2, 60))]
        cases += [(sample_dataset(StructureSpec.pairs(1.0), n, p, Rng(20, (n, p))),
                   cover_count_exact(n, p)) for n, p in ((6, 10), (7, 12))]
        cases += [(ds, len(list(cells_labelings(ds))))
                  for ds in map(duplicate_antipodal_points, (3, 4, 5))]

        def refused(*args):
            raise AssertionError("the program called a cell-scan primitive")

        for module in ("vclab.montecarlo", "vclab.separability"):
            for name in ("sign_pattern_blocks", "dedupe_directions"):
                monkeypatch.setattr(f"{module}.{name}", refused)
        for ds, count in cases:
            sat = count > 0
            assert count_admissible_dichotomies(ds) == SatProbe(count, sat, True, "extension")
            assert admissible_exists(ds) == SatProbe(int(sat), sat, not sat, "extension")


class TestPrefixCertificate:
    def test_threshold_matches_per_prefix_oracles(self):
        cases = [
            (sample_dataset(StructureSpec.pairs(rho), 3, 30, Rng(61, (i, t))), 0.0)
            for i, rho in enumerate((-1.0, -0.5, 0.0, 0.5, 0.8, 1.0))
            for t in range(4)
        ]
        # pairs with a repeated and a negated multiplet, and pairs of rank 2
        # in R^3 and of rank 3 in R^4
        for t in range(3):
            pts = sample_dataset(PAIRS_HALF, 3, 20, Rng(64, t)).points
            pts = np.concatenate([pts[:4], pts[1:2], pts[4:6], -pts[2:3], pts[6:]])
            cases.append((Dataset(spec=PAIRS_HALF, n=3, p=22, points=pts), 0.0))
            for r in (2, 3):
                frame, _ = np.linalg.qr(Rng(65, (r, t)).generator().standard_normal((r + 1, r)))
                flat = sample_dataset(PAIRS_HALF, r, 20, Rng(66, (r, t))).points @ frame.T
                cases.append((Dataset(spec=PAIRS_HALF, n=r + 1, p=20, points=flat), 0.0))
        # k=1 margins, at loads where some datasets stay SAT throughout
        for kappa, n, p in ((0.3, 2, 12), (0.5, 3, 10), (0.5, 4, 9), (0.99, 3, 6)):
            cases += [(sample_dataset(UNSTRUCTURED, n, p, Rng(62, (n, t))), kappa)
                      for t in range(3)]
        cases += [(sample_dataset(PAIRS_HALF, 3, 2, Rng(63, t)), 0.0) for t in range(3)]
        outcomes = Counter()
        for ds, margin in cases:
            expected = first_unsat_prefix(ds, margin)
            assert _threshold(ds, margin) == expected, (ds.spec, ds.n, ds.p, margin)
            outcomes[expected == ds.p + 1, expected > 2] += 1
        # all-SAT datasets, and UNSAT ones past their second multiplet, both occur
        assert outcomes[True, True] >= 3 and outcomes[False, True] >= 20

    def test_decisions_and_counts_match_full_set_scan(self):
        # the whole-dataset cell scan at margin 0, or the sign-vector oracle
        # above it, is the oracle for both the decision and the exact count
        cases = [
            (StructureSpec.pairs(rho), 3, p, 0.0)
            for rho in (-1.0, -0.5, 0.0, 0.5, 0.8, 1.0)
            for p in (6, 9, 17, 30)
        ]
        cases += [(UNSTRUCTURED, 3, p, 0.5) for p in (9, 12)]
        cases += [(PAIRS_HALF, 8, 10, 0.0)]
        cases += [(UNSTRUCTURED, 4, p, 0.5) for p in (9, 10)]
        outcomes = Counter()
        for i, (spec, n, p, margin) in enumerate(cases):
            for t in range(3):
                ds = sample_dataset(spec, n, p, Rng(61, (i, t)))
                labelings = cells_labelings if margin == 0.0 else sigma_labelings
                count = len(list(labelings(ds, margin)))
                sat = count > 0
                assert admissible_exists(ds, margin=margin) == SatProbe(
                    int(sat), sat, not sat, "extension"
                )
                probe = count_admissible_dichotomies(ds, margin=margin)
                assert probe == SatProbe(count, sat, True, "extension")
                outcomes[sat] += 1
        assert min(outcomes.values()) >= 2 and len(outcomes) == 2

    def test_unsat_cells_count_needs_no_scan(self, scans, solves):
        # the walk certifies UNSAT at the first solve
        ds = antipodal_pairs(3, 20, 62)
        assert count_admissible_dichotomies(ds) == SatProbe(0, False, True, "extension")
        assert scans == []
        assert solves == [2]  # the first multiplet's antipodal points

    def test_antipodal_pair_is_unsat_in_one_solve(self, solves):
        # at margin 0 no pair table is built: the root solve refuses it
        ds = antipodal_pairs(10, 20, 62)
        assert admissible_exists(ds) == SatProbe(0, False, True, "extension")
        assert count_admissible_dichotomies(ds) == SatProbe(0, False, True, "extension")
        assert solves == [2, 2]

    def test_sat_coincident_pairs_count_makes_no_scan(self, scans):
        ds = sample_dataset(StructureSpec.pairs(1.0), 3, 20, Rng(63))
        probe = count_admissible_dichotomies(ds)
        assert probe == SatProbe(cover_count_exact(3, 20), True, True, "extension")
        assert scans == []

    def test_budget_errors_unchanged(self, monkeypatch):
        # at p > 22 the engine decides a SAT dataset (whose first 8
        # multiplets are SAT too) within its solves
        pairs = sample_dataset(PAIRS_HALF, 9, 24, Rng(65))
        prefix = Dataset(spec=pairs.spec, n=pairs.n, p=8, points=pairs.points[:8])
        assert admissible_exists(prefix).sat
        assert admissible_exists(pairs) == SatProbe(1, True, False, "extension")
        # the engine refuses a probe past MAX_SOLVES solves, and decides it
        # within them: 4 solves certify this UNSAT (9 decide the pairs)
        ds = sample_dataset(UNSTRUCTURED, 4, 23, Rng(64))
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 3)
        for args in ((ds, 0.7), (pairs, 0.0)):
            with pytest.raises(BudgetError):
                admissible_exists(*args)
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 4)
        assert admissible_exists(ds, margin=0.7) == SatProbe(0, False, True, "extension")


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

    def test_counts_the_distinct_labelings_of_its_directions(self, monkeypatch):
        # the row-by-row reference: the same directions, batch by batch, each
        # consistent one's sign vector kept as a tuple
        monkeypatch.setattr("vclab.montecarlo._WEIGHT_BATCH", 64)
        for t, (spec, n, p, margin) in enumerate([(UNSTRUCTURED, 3, 12, 0.0),
                                                   (UNSTRUCTURED, 4, 9, 0.1),
                                                   (PAIRS_HALF, 3, 5, 0.0),
                                                   (PAIRS_HALF, 5, 10, 0.02)]):
            ds = sample_dataset(spec, n, p, Rng(37, t))
            gen = Rng(38, t).generator()
            seen = set()
            for b in (64, 64, 64, 8):
                w = gen.standard_normal((b, n))
                w /= np.linalg.norm(w, axis=1, keepdims=True)
                for dots in (w @ ds.flat.T).reshape(b, p, spec.k):
                    pos, neg = (dots > margin).all(axis=1), (dots < -margin).all(axis=1)
                    if (pos | neg).all():
                        seen.add(tuple(pos))
            probe = random_classifier_probe(ds, 200, Rng(38, t), margin=margin)
            assert probe.count == len(seen) > 1, t

    def test_negative_margin_is_refused(self):
        ds = sample_dataset(UNSTRUCTURED, 3, 3, Rng(35))
        with pytest.raises(ValidationError, match="margin must be >= 0"):
            random_classifier_probe(ds, 10, Rng(36), margin=-1.0)


class TestMeanCount:
    def test_unstructured_deterministic(self):
        (mean, err), = estimate_mean_count(UNSTRUCTURED, 3, [2], 30, Rng(40))
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
        (mean, err), = estimate_mean_count(StructureSpec.pairs(0.0), 2, [2], 200, Rng(43))
        assert mean == 2.0 and err == 0.0
        (mean, err), = estimate_mean_count(PAIRS_HALF, 2, [2], 800, Rng(44))
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
            (mean, err), = estimate_mean_count(PAIRS_HALF, n, [4], trials, Rng(45, n))
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
        (mean, err), = estimate_mean_count(PAIRS_HALF, 40, [4], 20, Rng(46))
        assert mean == 16.0 and err == 0.0
        assert math.exp(table.log_count(40, 4)) == pytest.approx(16.0, rel=1e-12)

    def test_loads_share_one_sequence_per_trial(self):
        # the mean at load 3 counts the first 3 multiplets of the load-5 draw
        rng = Rng(48)
        (small, _), (large, _) = estimate_mean_count(PAIRS_HALF, 3, [3, 5], 6, rng)
        for p, mean in ((3, small), (5, large)):
            counts = [
                count_admissible_dichotomies(Dataset(
                    spec=PAIRS_HALF, n=3, p=p,
                    points=sample_dataset(PAIRS_HALF, 3, 5, rng.substream(t)).points[:p],
                )).count
                for t in range(6)
            ]
            assert mean == np.mean(counts)

    def test_repeated_loads_are_counted_once(self, monkeypatch):
        # one (mean, stderr) per given load; each distinct load is counted
        # once per trial, load-major in first-occurrence order
        loads = []
        inner = montecarlo.count_admissible_dichotomies

        def recording(dataset, *args, **kwargs):
            loads.append(dataset.p)
            return inner(dataset, *args, **kwargs)

        monkeypatch.setattr("vclab.montecarlo.count_admissible_dichotomies", recording)
        means = estimate_mean_count(PAIRS_HALF, 3, [5, 3, 5, 4, 3], 3, Rng(49))
        assert loads == [p for p in (5, 3, 4) for _ in range(3)]
        distinct = estimate_mean_count(PAIRS_HALF, 3, [5, 3, 4], 3, Rng(49))
        assert means == [distinct[i] for i in (0, 1, 0, 2, 1)]

    def test_refuses_bad_loads_before_any_job(self, monkeypatch):
        monkeypatch.setattr("vclab.montecarlo._trial_worker", None)
        for loads in ([], [3, 0], [-1]):
            with pytest.raises(ValidationError):
                estimate_mean_count(PAIRS_HALF, 3, loads, 4, Rng(0))

    def test_requires_two_trials(self):
        with pytest.raises(ValidationError):
            estimate_mean_count(UNSTRUCTURED, 3, [2], 1, Rng(0))

    def test_requires_a_worker(self):
        with pytest.raises(ValidationError):
            estimate_mean_count(UNSTRUCTURED, 3, [2], 4, Rng(0), threads=0)

    def test_threads_do_not_change_results(self):
        a = estimate_mean_count(PAIRS_HALF, 3, [4, 2, 6], 24, Rng(47), threads=1)
        b = estimate_mean_count(PAIRS_HALF, 3, [4, 2, 6], 24, Rng(47), threads=2)
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
        pts = sat_fraction_scan(UNSTRUCTURED, 3, [1.0], 10, Rng(54), probe="count")
        assert pts[0].mean_count == 8.0  # p = n: full expressivity, every trial
        assert pts[0].count_stderr == 0.0
        paired = sat_fraction_scan(PAIRS_HALF, 3, [1.0], 10, Rng(54), probe="count")
        assert 0.0 < paired[0].mean_count < 8.0  # kp = 6 points in R^3

    def test_counts_share_the_sat_disorder(self):
        # every SAT trial counts at least 2 labelings (sigma and -sigma) and
        # every UNSAT trial 0, so on shared disorder the mean count bounds
        # twice the SAT fraction and vanishes exactly with it
        grid = [2, 3, 4, 5, 6]
        pts = sat_fraction_scan(PAIRS_HALF, 3, grid, 8, Rng(57), probe="count")
        plain = sat_fraction_scan(PAIRS_HALF, 3, grid, 8, Rng(57))
        assert [q.fraction for q in pts] == [q.fraction for q in plain]
        for q in pts:
            assert q.mean_count >= 2 * q.fraction
            assert (q.mean_count == 0) == (q.fraction == 0)

    @pytest.mark.parametrize(
        "spec, loads, kwargs",
        [
            (PAIRS_HALF, range(8, 21), {}),
            (PAIRS_HALF, range(8, 21), {"probe": "count"}),
            (PAIRS_HALF, range(6, 19), {"probe": "random-classifier", "num_weights": 500}),
            (UNSTRUCTURED, range(2, 14), {"margin": 0.5}),
        ],
    )
    def test_fractions_never_rise_with_the_load(self, spec, loads, kwargs):
        # every load reads the same multiplet sequence, so SAT is monotone
        # trial by trial and the fractions fall without sampling noise (on
        # independent datasets per load, each of these scans rises somewhere)
        pts = sat_fraction_scan(spec, 3, [p / 3 for p in loads], 8, Rng(56), **kwargs)
        fracs = [q.fraction for q in pts]
        assert fracs == sorted(fracs, reverse=True)
        assert fracs[0] == 1.0 and fracs[-1] < 0.5

    @pytest.mark.parametrize("specs, kwargs", [
        ([StructureSpec.pairs(rho) for rho in (0.2, 0.5, 0.8)], {}),
        ([StructureSpec.pairs(rho) for rho in (0.2, 0.5, 0.8)], {"probe": "count"}),
        ([UNSTRUCTURED, UNSTRUCTURED], {"margin": 0.5}),
    ])
    def test_scans_match_one_call_per_scan(self, specs, kwargs):
        rng = Rng(62)
        grid = [1, 2, 3, 5]
        jobs, reduce = scan_jobs(
            [(spec, rng.substream(i)) for i, spec in enumerate(specs)], 3, grid, 5, **kwargs
        )
        scanned = reduce(_map_ordered(jobs, 1))
        assert scanned == [
            sat_fraction_scan(spec, 3, grid, 5, rng.substream(i), **kwargs)
            for i, spec in enumerate(specs)
        ]

    def test_duplicate_and_unsorted_loads(self):
        for kwargs in ({}, {"probe": "count"}):
            plain = sat_fraction_scan(PAIRS_HALF, 3, [2, 3, 4, 5], 10, Rng(57), **kwargs)
            plain = {q.alpha: q for q in plain}
            mixed = sat_fraction_scan(PAIRS_HALF, 3, [4, 2, 5, 4, 3], 10, Rng(57), **kwargs)
            assert mixed == [plain[a] for a in (4, 2, 5, 4, 3)]

    @pytest.mark.parametrize("name", ["count_admissible_dichotomies", "random_classifier_probe"])
    def test_probes_stop_at_the_first_unsat_load(self, monkeypatch, name):
        probes = []
        inner = getattr(montecarlo, name)

        def recording(dataset, *args, **kwargs):
            probes.append(dataset.p)
            return inner(dataset, *args, **kwargs)

        monkeypatch.setattr(f"vclab.montecarlo.{name}", recording)
        grid = [1, 2, 3, 4, 5, 6, 8]
        kwargs = {"probe": "count"} if name.startswith("count") else {
            "probe": "random-classifier", "num_weights": 500}
        total = 0
        for t in range(8):
            probes.clear()
            pts = sat_fraction_scan(PAIRS_HALF, 3, grid, 1, Rng(58, t), **kwargs)
            # one probe per SAT load, and one for the first UNSAT load
            assert len(probes) <= sum(q.fraction for q in pts) + 1
            total += len(probes)
        assert total < 8 * len(grid)

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
        # a negative margin is refused before any job, for every probe
        for probe in montecarlo.PROBES:
            with pytest.raises(ValidationError, match="margin must be >= 0"):
                sat_fraction_scan(UNSTRUCTURED, 3, [1.0], 10, Rng(0), margin=-1.0, probe=probe)

    def test_dimension_below_the_multiplet_size_is_refused_before_any_job(self):
        # the job builders refuse it before any job runs
        with pytest.raises(DimensionError, match="need n >= k, got n=1, k=2"):
            montecarlo.scan_jobs([(UNSTRUCTURED, Rng(0)), (PAIRS_HALF, Rng(1))], 1, [2.0], 2)
        triplets = StructureSpec.equicorrelated(3, 0.2)
        with pytest.raises(DimensionError, match="need n >= k, got n=2, k=3"):
            montecarlo.count_jobs(triplets, [(3, [3], Rng(0)), (2, [2], Rng(1))], 2)

    def test_threads_match_serial(self):
        a = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 16, Rng(55), threads=1)
        b = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 16, Rng(55), threads=2)
        assert [q.fraction for q in a] == [q.fraction for q in b]
        a = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 6, Rng(55), threads=1, probe="count")
        b = sat_fraction_scan(PAIRS_HALF, 3, [2, 4], 6, Rng(55), threads=2, probe="count")
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
            self.jobs = list(iterable)
            return map(fn, self.jobs)

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdowns.append(cancel_futures)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

    monkeypatch.setattr("vclab.montecarlo.ProcessPoolExecutor", RecordingPool)
    return made


class TestPool:
    def test_one_pool_per_scan_and_progress_per_point(self, pools, capsys, tmp_path):
        for threads, created in ((2, 1), (1, 0)):
            pools.clear()
            sat_fraction_scan(PAIRS_HALF, 3, [1, 2, 3], 4, Rng(58), threads=threads)
            assert len(pools) == created
        # `vclab mc` reports each point on stderr, in grid order
        pools.clear()
        argv = ["mc", "--rho", "0.5", "--n", "3", "--alpha", "3,1,2", "--trials", "4",
                "--threads", "2", "--out", str(tmp_path / "mc.csv")]
        assert main(argv) == 0
        assert len(pools) == 1
        lines = re.findall(r"^\[(\d+)/(\d+)\] alpha=(\S+) ", capsys.readouterr().err, re.M)
        assert lines == [("1", "3", "3"), ("2", "3", "1"), ("3", "3", "2")]

    def test_one_pool_per_count_command(self, pools, tmp_path):
        # every dimension's (load, trial) jobs in one pool, n-major, then
        # load-major; trial t of dimension i reads rng.substream(i).substream(t)
        argv = ["count", "--k", "2", "--rho", "0.5", "--n", "3,4", "--alpha", "1,2",
                "--trials", "2", "--threads", "2", "--out", str(tmp_path / "count.csv")]
        assert main(argv) == 0
        assert [(pool.max_workers, pool.shutdowns) for pool in pools] == [(2, [True])]
        assert [(job[0], job[2], job[3], job[7]) for job in pools[0].jobs] == [
            (montecarlo._trial_worker, n, [p], Rng(0).substream(i).substream(t))
            for i, n in enumerate((3, 4)) for p in (n, 2 * n) for t in range(2)]

    def test_real_pool_writes_the_serial_count_bytes(self, tmp_path):
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"count{threads}.csv"
            argv = ["count", "--k", "2", "--rho", "0.5", "--n", "3,4", "--alpha", "1,2",
                    "--trials", "2", "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_one_pool_per_phase_diagram(self, pools, tmp_path):
        # the crossing loads and the trials are the jobs of one pool, the
        # crossings first, one job per rho, each with every dimension pair
        tables = [(theta_coefficients(StructureSpec.pairs(rho)), [(40, 20), (6, 3)])
                  for rho in (0.2, 0.5, 0.8)]
        argv = ["phase-diagram", "--rho", "0.2,0.5,0.8", "--alpha", "1,2,4", "--trials", "3",
                "--n-pairs", "40:20,6:3", "--threads", "2", "--out", str(tmp_path / "phase")]
        for layers, crossings, trials in (("crossing", 3, 0), ("mc", 0, 9),
                                          ("combinatorial,annealed,crossing,mc", 3, 9),
                                          ("combinatorial,annealed", 0, 0)):
            pools.clear()
            assert main([*argv, "--layers", layers]) == 0
            if not crossings + trials:
                assert pools == []
                continue
            assert [(pool.max_workers, pool.shutdowns) for pool in pools] == [(2, [True])]
            jobs = pools[0].jobs
            assert len(jobs) == crossings + trials
            assert [job[0] for job in jobs] == (
                [cli._crossing_loads] * crossings + [montecarlo._trial_worker] * trials)
            assert [job[1:3] for job in jobs[:crossings]] == tables[:crossings]

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("pair", [(3, 3), (0, 3)])
    def test_bad_dimension_pair_is_refused_before_any_file_or_pool(
            self, pools, capsys, tmp_path, pair, where):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_pairs": [list(pair)]}))
        given = ["--n-pairs", "%d:%d" % pair] if where == "flag" else ["--config", str(cfg)]
        out = tmp_path / "out"
        out.mkdir()
        argv = ["phase-diagram", "--rho", "0.5", *given, "--alpha", "1,2", "--trials", "2",
                "--threads", "2", "--out", str(out / "phase")]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ValidationError"
        assert "two distinct dimensions >= 1" in payload["message"]
        assert not list(out.iterdir())
        assert pools == []

    def test_worker_error_in_the_first_scan_cancels_the_rest(self, pools, monkeypatch,
                                                           tmp_path, capsys):
        # the first trial at rho = 0.2 needs more than 5 solves
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 5)
        rhos = []
        inner = montecarlo._trial_worker

        def recording(spec, *args):
            rhos.append(spec.pair_overlap)
            return inner(spec, *args)

        monkeypatch.setattr("vclab.montecarlo._trial_worker", recording)
        argv = ["phase-diagram", "--rho", "0.2,0.5,0.8", "--layers", "mc", "--mc-n", "10",
                "--alpha", "1,2.4", "--trials", "2", "--threads", "2",
                "--out", str(tmp_path / "phase")]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "BudgetError"
        assert rhos == [0.2]
        assert [pool.shutdowns for pool in pools] == [[True]]

    def test_failed_trial_leaves_the_layers_before_it(self, monkeypatch, tmp_path, capsys):
        # a real pool: the crossing results are read and written before the
        # first trial result, which refuses its walk past 5 solves
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 5)
        argv = ["phase-diagram", "--rho", "0.2,0.5", "--mc-n", "10", "--alpha", "1,2.4",
                "--trials", "2", "--n-pairs", "6:3", "--threads", "2",
                "--out", str(tmp_path / "phase")]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "BudgetError"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "phase.annealed.csv", "phase.combinatorial.csv", "phase.crossing.csv"]
        rows = (tmp_path / "phase.crossing.csv").read_text().splitlines()
        assert len([row for row in rows if not row.startswith("#")]) == 1 + 2  # header, 2 rhos

    def test_pool_size_clamped_to_jobs(self, pools):
        estimate_mean_count(PAIRS_HALF, 3, [4], 3, Rng(59), threads=64)
        sat_fraction_scan(PAIRS_HALF, 3, [1.0], 1, Rng(59), threads=64)
        assert [pool.max_workers for pool in pools] == [3]

    def test_worker_error_cancels_queued_trials(self, pools, monkeypatch):
        # the first trial's walk over 24 pairs needs 24 solves
        monkeypatch.setattr("vclab.montecarlo.MAX_SOLVES", 5)
        with pytest.raises(BudgetError):
            sat_fraction_scan(PAIRS_HALF, 10, [1, 2.4], 2, Rng(60), threads=2)
        assert [pool.shutdowns for pool in pools] == [[True]]


def fresh_python(code: str) -> list:
    """Run ``code`` in a fresh interpreter that imports vclab from this
    source tree; the JSON value of its last line of stdout."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# A probe job around each trial job a builder makes: it reports whether
# numpy.random is loaded before the trial samples, and its process.
WORKER_PROBE = """
import json, os, sys
from vclab import montecarlo
from vclab.numerics import Rng
from vclab.structure import StructureSpec

def probe(fn, *args):
    loaded = "numpy.random" in sys.modules
    fn(*args)
    return loaded, os.getpid()

before = "numpy.random" in sys.modules
spec = StructureSpec.pairs(0.5)
jobs, _ = {builder}
results = list(montecarlo._map_ordered([(probe, *job) for job in jobs], 2))
print(json.dumps([before, os.getpid(), results]))
"""
BUILDERS = {
    "scan": ("montecarlo.scan_jobs([(spec, Rng(1))], 3, [1, 2], 2)", 2),
    "count": ("montecarlo.count_jobs(spec, [(3, [3, 6], Rng(2))], 2)", 4),
}


class TestWarmPool:
    """Workers fork from a parent that has loaded numpy.random."""

    def test_import_and_a_sampling_free_command_leave_the_sampler_unloaded(self, tmp_path):
        code = f"""
import json, sys
import vclab.cli
loaded = ["numpy.random" in sys.modules]
vclab.cli.main(["phase-diagram", "--rho", "0.2,0.5", "--layers",
                "combinatorial,annealed,crossing", "--threads", "2",
                "--out", {str(tmp_path / "phase")!r}])
loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""
        assert fresh_python(code) == [False, False]

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_workers_find_the_sampler_loaded_before_they_sample(self, builder):
        call, jobs = BUILDERS[builder]
        before, parent, results = fresh_python(WORKER_PROBE.format(builder=call))
        assert before is False
        assert len(results) == jobs
        assert all(loaded for loaded, _ in results)
        assert parent not in {pid for _, pid in results}


class TestLazyPool:
    def test_a_serial_run_never_loads_the_pool_machinery(self, tmp_path):
        # a fresh interpreter: a --threads 1 scan loads neither
        # concurrent.futures nor multiprocessing; a --threads 2 scan then
        # opens one pool and writes the same bytes
        code = f"""
import json, sys
import vclab.cli
from vclab import montecarlo

def loaded():
    return [name in sys.modules for name in ("concurrent.futures", "multiprocessing")]

def scan(threads):
    out = {str(tmp_path)!r} + f"/mc{{threads}}.csv"
    assert vclab.cli.main(["mc", "--rho", "0.5", "--alpha", "1,2,3", "--trials", "4",
                           "--threads", str(threads), "--out", out]) == 0
    return open(out).read()

serial = scan(1)
after_serial = loaded()
pools = []
inner = montecarlo.ProcessPoolExecutor

def counting(*args, **kwargs):
    pools.append(kwargs)
    return inner(*args, **kwargs)

montecarlo.ProcessPoolExecutor = counting
print(json.dumps([after_serial, scan(2) == serial, pools, loaded()]))
"""
        assert fresh_python(code) == [[False, False], True, [{"max_workers": 2}], [True, True]]


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
