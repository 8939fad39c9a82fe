"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances and runtime budgets are pinned here.

Criterion 3 checks the counting recursion against brute-force mean counts
at n in {2, 3}.  The recursion is exact for unstructured points (k=1, Cover's
recursion) and for coincident pairs (rho=1, theta=(1, 1, 0)); there the
table must equal the sampled mean within Monte Carlo error.  For rho<1 it is
a mean-field approximation that overshoots the true disorder mean at small n
(the true mean at rho=0, n=2, p=2 is exactly 2, with zero variance, against
a table value of 3), so on the structured grid the criterion asserts the
direction of that bias: the table never falls below the sampled mean by more
than the same Monte Carlo error.  test_montecarlo.py quantifies the bias and
its decay with n.
"""

import math
import time

import numpy as np
import pytest

from vclab.asymptotics import (
    annealed_threshold_margin,
    annealed_threshold_pairs,
    asymptotic_log_count,
    fss_rescale,
    transition_load,
)
from vclab.montecarlo import (
    count_admissible_dichotomies,
    crossover_load,
    estimate_mean_count,
    sample_dataset,
    sat_fraction_scan,
)
from vclab.numerics import Rng
from vclab.recursion import build_count_table, cover_count_exact, crossing_load
from vclab.separability import max_margin
from vclab.structure import StructureSpec, psi2, theta_coefficients

THREADS = 2  # trial streams make results identical for any worker count

LOG_2PI = math.log(2.0 * math.pi)


def _finish(num: int, label: str, budget: float, start: float, ok: bool, detail: str):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d} ({label}): {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_cover_baseline():
    start = time.perf_counter()
    ok = all(cover_count_exact(n, 2 * n) == 2 ** (2 * n - 1) for n in range(1, 13))
    _finish(1, "cover baseline", 1.0, start, ok,
            "realizable fraction exactly 1/2 at twice the dimension, n=1..12")


def test_criterion_02_recursion_cover_equivalence():
    start = time.perf_counter()
    theta = theta_coefficients(StructureSpec.unstructured())
    table = build_count_table(theta, n_max=60, p_max=60)
    worst = 0.0
    for n in range(1, 61):
        for p in range(1, 61):
            exact = math.log(cover_count_exact(n, p))
            got = table.log_count(n, p)
            rel = abs(got - exact) / max(abs(exact), 1.0)
            worst = max(worst, rel)
    _finish(2, "recursion = Cover at k=1", 1.0, start, worst <= 1e-10,
            f"max relative error {worst:.2e} on n,p <= 60")


def _table_vs_sampled(spec, key, trials):
    """(n, p, table value, sampled mean, stderr) on the n in {2,3}, p in {2,3,4} grid."""
    table = build_count_table(theta_coefficients(spec), n_max=3, p_max=4)
    for n in (2, 3):
        for p in (2, 3, 4):
            (mean, err), = estimate_mean_count(
                spec, n, [p], trials, Rng(300, (key, n, p)), threads=THREADS
            )
            yield n, p, math.exp(table.log_count(n, p)), mean, err


def test_criterion_03_bruteforce_oracle_equivalence():
    # Equality where the recursion is exact (k=1 and rho=1 both reduce to
    # Cover's recursion); where it is mean-field (rho<1), the table may only
    # overshoot.  Both at 3 stderr; exp(log_count) gets a round-off allowance
    # only, since the exact-regime counts are deterministic (stderr 0).
    start = time.perf_counter()
    trials = 500
    roundoff = 1e-12
    failures = []
    equal = 0
    exact = (("k=1", StructureSpec.unstructured(), 3),
             ("rho=1.0", StructureSpec.pairs(1.0), 2))
    for label, spec, key in exact:
        for n, p, expect, mean, err in _table_vs_sampled(spec, key, trials):
            if abs(mean - expect) <= 3 * err + roundoff * expect:
                equal += 1
            else:
                failures.append(f"{label} n={n} p={p}: table {expect:.3f} vs "
                                f"sampled {mean:.3f}+-{err:.3f}")
    overshoot = (-math.inf, None)
    for rho in (0.0, 0.5):
        spec = StructureSpec.pairs(rho)
        for n, p, expect, mean, err in _table_vs_sampled(spec, int(rho * 2), trials):
            overshoot = max(overshoot, (expect - mean, f"rho={rho} n={n} p={p}"))
            if mean - expect > 3 * err + roundoff * expect:
                failures.append(f"rho={rho} n={n} p={p}: table {expect:.3f} below "
                                f"sampled {mean:.3f}+-{err:.3f}")
    ok = not failures
    detail = (f"{equal}/12 exact-regime points equal; largest structured "
              f"overshoot {overshoot[0]:.3f} at {overshoot[1]}")
    if not ok:
        detail += f"; {len(failures)} points fail, e.g. {failures[0]}"
    _finish(3, "recursion vs sampled mean count", 120.0, start, ok, detail)


def test_criterion_04_transition_consistency():
    start = time.perf_counter()
    ok = True
    details = []
    for rho in (0.0, 0.4, 0.8):
        star = transition_load(psi2(rho), 1.0).alpha_star
        theta = theta_coefficients(StructureSpec.pairs(rho))
        window = (max(0.5, 0.4 * star), 1.8 * star)
        cross = crossing_load(theta, 40, 20, window)
        rel = abs(cross - star) / star
        details.append(f"rho={rho}: {rel:.3f}")
        ok = ok and rel <= 0.10
    star0 = transition_load(psi2(0.0), 1.0).alpha_star
    ok = ok and abs(star0 - 4.86) <= 0.01
    _finish(4, "crossings track the analytic load", 10.0, start, ok,
            "relative gaps " + ", ".join(details) + f"; alpha*(0)={star0:.4f}")


def test_criterion_05_annealed_lower_bound():
    start = time.perf_counter()
    ok = True
    for rho in (0.0, 0.2, 0.4, 0.6, 0.8):
        annealed = annealed_threshold_pairs(rho).alpha_star
        combinatorial = transition_load(psi2(rho), 1.0).alpha_star
        ok = ok and annealed < combinatorial
    exact0 = (1.0 + LOG_2PI) / (2.0 * math.log(2.0))
    gap = abs(annealed_threshold_pairs(0.0).alpha_star - exact0)
    ok = ok and gap <= 1e-12
    _finish(5, "annealed threshold is a lower bound", 1.0, start, ok,
            f"strict at 5 overlaps; closed form at rho=0 within {gap:.1e}")


def test_criterion_06_nonmonotonic_entropy():
    start = time.perf_counter()
    theta = theta_coefficients(StructureSpec.pairs(0.5))
    table = build_count_table(theta, n_max=5, p_max=120)
    h = np.array([table.log_count(5, p) for p in range(1, 121)])
    peak = int(np.argmax(h))
    structured_ok = 0 < peak < len(h) - 1 and h[peak] > h[0] and h[-1] < h[0]
    cover = build_count_table(
        theta_coefficients(StructureSpec.unstructured()), n_max=5, p_max=120
    )
    h1 = np.array([cover.log_count(5, p) for p in range(1, 121)])
    cover_ok = bool(np.all(np.diff(h1) > 0))
    _finish(6, "entropy non-monotonic iff structured", 1.0, start,
            structured_ok and cover_ok,
            f"pairs: peak at p={peak + 1}, tail below log 2; k=1 strictly rising")


def test_criterion_07_finite_size_scaling():
    start = time.perf_counter()
    star = transition_load(0.5, 1.0).alpha_star
    ns = np.arange(50, 401, 10)
    ys = [asymptotic_log_count(star, int(n), 0.5, 1.0) for n in ns]
    slope = float(np.polyfit(np.log(ns), ys, 1)[0])
    slope_ok = -0.55 <= slope <= -0.45
    curve = []
    for n in (50, 100, 200):
        for i in range(41):
            alpha = star * (0.9 + 0.2 * i / 40)
            curve.append((n, alpha, asymptotic_log_count(alpha, n, 0.5, 1.0)))
    scaled = fss_rescale(curve, star)
    control = fss_rescale(curve, star, beta=0.0)
    ratio = control.collapse_score / scaled.collapse_score
    _finish(7, "critical scaling", 5.0, start, slope_ok and ratio >= 5.0,
            f"slope {slope:.3f}; collapse improves {ratio:.1f}x over control")


def test_criterion_08_phase_probe():
    start = time.perf_counter()
    trials = 1000
    spec = StructureSpec.pairs(0.5)
    star = transition_load(psi2(0.5), 1.0).alpha_star
    low = sat_fraction_scan(spec, 3, [1.0], trials, Rng(800), threads=THREADS)
    high = sat_fraction_scan(spec, 3, [3.0 * star], trials, Rng(801), threads=THREADS)
    edges_ok = low[0].fraction >= 0.95 and high[0].fraction <= 0.05
    grids = {0.2: [2.0, 2.5, 3.0, 3.5], 0.5: [4.0, 4.5, 5.0, 5.5], 0.8: [8.0, 9.0, 10.0, 11.0]}
    crossings = {}
    for rho, grid in grids.items():
        points = sat_fraction_scan(
            StructureSpec.pairs(rho), 3, grid, trials, Rng(802, int(rho * 10)),
            threads=THREADS,
        )
        crossings[rho] = crossover_load(points)
    order_ok = crossings[0.2][0] < crossings[0.5][0] < crossings[0.8][0]
    finite_ok = all(math.isfinite(c[0]) for c in crossings.values())
    _finish(
        8, "sampled phase diagram at n=3", 600.0, start,
        edges_ok and order_ok and finite_ok,
        f"fraction {low[0].fraction:.3f} at load 1, {high[0].fraction:.3f} at "
        f"3*alpha*; crossovers " +
        ", ".join(f"rho={r}: {c[0]:.2f}+-{c[1]:.2f}" for r, c in sorted(crossings.items())),
    )


def test_criterion_09_margin_probe():
    start = time.perf_counter()
    trials = 1000
    spec = StructureSpec.unstructured()
    loose_grid = [5 / 3, 2.0, 7 / 3, 8 / 3, 3.0]
    loose = sat_fraction_scan(
        spec, 3, loose_grid, trials, Rng(900), margin=0.5, threads=THREADS
    )
    cross_loose, err_loose = crossover_load(loose)
    # kappa = 1 saturates the field bound of unit classifiers on unit points:
    # the SAT fraction is already below 1/2 at the smallest load p = 1, so
    # its crossover lies at or below alpha = 1/3 with zero sampling error.
    tight_grid = [1 / 3, 1.0, 5 / 3]
    tight = sat_fraction_scan(
        spec, 3, tight_grid, trials, Rng(901), margin=1.0, threads=THREADS
    )
    assert tight[0].fraction < 0.5
    cross_tight, err_tight = tight_grid[0], 0.0
    separation = cross_loose - cross_tight
    sep_ok = separation >= 3.0 * math.hypot(err_loose, err_tight)
    annealed = [annealed_threshold_margin(k).alpha_star for k in (0.25, 0.5, 1.0, 2.0)]
    annealed_ok = all(b < a for a, b in zip(annealed, annealed[1:]))
    _finish(
        9, "margin probe ordering", 600.0, start, sep_ok and annealed_ok,
        f"crossover {cross_loose:.3f}+-{err_loose:.3f} at margin 0.5 vs "
        f"<= {cross_tight:.3f} at margin 1; annealed thresholds "
        + ", ".join(f"{a:.3f}" for a in annealed),
    )


def test_criterion_10_invariant_suites():
    start = time.perf_counter()
    ok = True
    notes = []

    # sign-negation evenness of exact counts
    for t in range(10):
        ds = sample_dataset(StructureSpec.pairs(0.5), 3, 5, Rng(1000, t))
        if count_admissible_dichotomies(ds).count % 2 != 0:
            ok = False
    notes.append("evenness")

    # rotation invariance of probe outcomes
    gen = np.random.default_rng(77)
    q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    for t in range(6):
        ds = sample_dataset(StructureSpec.pairs(0.5), 3, 4, Rng(1001, t))
        from vclab.montecarlo import Dataset

        rotated = Dataset(spec=ds.spec, n=ds.n, p=ds.p, points=ds.points @ q.T)
        if count_admissible_dichotomies(ds).count != count_admissible_dichotomies(rotated).count:
            ok = False
    notes.append("rotation invariance")

    # constraint monotonicity in the margin
    for t in range(6):
        ds = sample_dataset(StructureSpec.unstructured(), 3, 4, Rng(1002, t))
        counts = [
            count_admissible_dichotomies(ds, margin=k).count for k in (0.0, 0.3, 0.8)
        ]
        if not all(b <= a for a, b in zip(counts, counts[1:])):
            ok = False
    notes.append("margin monotonicity")

    # closed form vs arcsin form of the pair agreement probability
    rho_grid = np.linspace(-1.0, 1.0, 401)
    worst_psi = max(
        abs(psi2(r) - (0.5 + math.asin(r) / math.pi)) for r in rho_grid
    )
    ok = ok and worst_psi <= 1e-12
    notes.append(f"psi2 identity {worst_psi:.1e}")

    # Gamma form vs explicit pole data
    from vclab.asymptotics import AsymptoticForm

    worst_pole = 0.0
    for theta0 in (0.3, 0.5, 0.8):
        for alpha in (0.5, 2.0, 7.0):
            for n in (3, 40, 200):
                a = asymptotic_log_count(alpha, n, theta0, 1.0)
                b = AsymptoticForm(theta0=theta0, theta1=1.0, n=n).log_count(alpha * n)
                worst_pole = max(worst_pole, abs(a - b))
    ok = ok and worst_pole <= 1e-9
    notes.append(f"pole equality {worst_pole:.1e}")

    # sign flip leaves the margin unchanged
    ds = sample_dataset(StructureSpec.pairs(0.5), 3, 3, Rng(1003))
    signs = np.repeat(np.array([1.0, -1.0, 1.0]), 2)
    flip = abs(max_margin(ds.flat, signs) - max_margin(ds.flat, -signs))
    ok = ok and flip <= 1e-12
    notes.append("sign-flip symmetry")

    _finish(10, "invariant suites", 60.0, start, ok, "; ".join(notes))
