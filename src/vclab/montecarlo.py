"""Disorder sampling and exact satisfiability probing.

A trial samples p multiplets, then asks which admissible labelings (one
sign per multiplet, shared by its k points) are realizable by a
homogeneous linear classifier, optionally with a margin.  Each exact
backend is a generator that yields every realizable admissible labeling
once, so a SAT decision takes its first labeling and an exact count drains
it:

* ``full-rank``: kp independent points realize every labeling; the count
  is 2^p with no search (margin 0 only).
* ``cells`` (margin 0 only): read the labelings off the cells of the
  central hyperplane arrangement of the kp points, exact at any effective
  rank r within the cell budget; the scan grows like (kp)^(r-1) 2^r, which
  makes deep-UNSAT scans at n = 3 affordable where 2^p enumeration is
  hopeless.
* ``extension``: extend realizable labelings one multiplet at a time,
  depth first from sigma_1 = +1, and yield each sigma with -sigma.
  Realizability is monotone in the multiplet set, so the cost is the number
  of realizable prefix labelings, not 2^p.  Each node carries a unit
  witness w; a child whose new points all clear margin + TAU along w needs
  no solve, any other costs one min-norm-point solve.  Refused past
  `MAX_SOLVES` solves.
* `random_classifier_probe`: sample random directions and read off the
  labelings they induce; a lower bound on the count and a SAT witness
  finder, with no UNSAT certificate.

The data alone picks the backend.  A positive margin always takes the
extension engine.  At margin 0 it runs where its worst case of 2^(p-1)
solves costs less than the cells (`cell_scan_cost` of the distinct
hyperplanes, one solve counted as `MARGIN_SOLVE_COST` cells, inf past the
cell budget), and cells decide the rest.

Prefix certificate: an UNSAT subset certifies an UNSAT dataset, so a
``cells`` probe first asks for one labeling of each prefix of q = 8, 16,
32, ... < p multiplets; the first prefix with none ends the probe with the
exact count 0, and a dataset whose prefixes are all SAT is scanned in full.
Deep-UNSAT trials are thus decided on a few dozen multiplets instead of all
p.  The extension engine needs no such ladder.

Each trial samples one dataset from its (master seed, trial index) stream
and probes it once; a counting probe also decides SAT, so mean counts and
SAT fractions describe the same disorder.  A library call runs its trials
through one process pool and reduces them in trial order, so results are
bit-reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import BudgetError, ValidationError
from .numerics import Rng
from .separability import (
    TAU,
    cell_scan_cost,
    dedupe_directions,
    max_margin,
    min_norm_point,
    numerical_rank,
    sign_pattern_blocks,
)
from .structure import StructureSpec, sample_multiplet

METHOD_FULL_RANK = "full-rank"
METHOD_CELLS = "cells"
METHOD_EXTENSION = "extension"
METHOD_RANDOM = "random-classifier"

# Most min-norm-point solves of one extension probe: more than the prefix
# tree of p = 22 multiplets has nodes, 30-40 min at 0.43-0.56 ms per solve.
MAX_SOLVES = 2**22

# Cost of one margin solve in candidate patterns of a cell scan
# (`cell_scan_cost`), which prices the extension engine at margin 0 by its
# worst case of 2^(p-1) solves.  Measured on a 2-core Xeon, counting pairs at
# n = 6-8, p = 8-10: a solve took 0.43-0.56 ms, a candidate 0.55-0.67 us,
# ratio 710-850.
MARGIN_SOLVE_COST = 800

_COUNT = "count"  # trial probe tag: full exact count instead of a SAT decision
_WEIGHT_BATCH = 16384  # random directions drawn at once by `random_classifier_probe`


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sampled disorder realization: p multiplets of k points in R^n."""

    spec: StructureSpec
    n: int
    p: int
    points: np.ndarray  # (p, k, n)

    @property
    def flat(self) -> np.ndarray:
        """All kp points as a (p*k, n) array, multiplet-major order."""
        return self.points.reshape(self.p * self.spec.k, self.n)


@dataclass(frozen=True)
class SatProbe:
    """Outcome of a separability probe on one dataset.

    ``count`` is exact (and even, as a labeling and its negation are
    realizable together) when ``enumerated`` is true; a SAT decision stops
    at its first labeling and a random-classifier probe samples, so both
    report partial counts with ``enumerated`` false.
    """

    count: int
    sat: bool
    enumerated: bool
    method: str


@dataclass(frozen=True)
class PhasePoint:
    """One load point of a SAT-fraction scan."""

    alpha: float
    p: int
    trials: int
    fraction: float
    stderr: float
    mean_count: float | None = None
    count_stderr: float | None = None


def sample_dataset(
    spec: StructureSpec, n: int, p: int, rng: Rng | np.random.Generator
) -> Dataset:
    """p independent multiplets under the flat constrained measure."""
    if p < 1:
        raise ValidationError(f"need p >= 1, got {p}")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    pts = np.stack([sample_multiplet(spec, n, gen) for _ in range(p)])
    return Dataset(spec=spec, n=n, p=p, points=pts)


def _pick_method(dataset: Dataset, margin: float) -> tuple[str, tuple | None]:
    """The exact backend for this dataset, from its rank, its size and the
    margin, with the `dedupe_directions` of its points when that is cells."""
    if margin > 0.0:
        return METHOD_EXTENSION, None
    flat = dataset.flat
    rank = numerical_rank(np.linalg.svd(flat, compute_uv=False), flat.shape)
    if rank == flat.shape[0]:
        return METHOD_FULL_RANK, None
    # cells priced on the distinct hyperplanes they scan (inf past their budget)
    directions = dedupe_directions(flat)
    solve_cost = MARGIN_SOLVE_COST * 2 ** (dataset.p - 1)
    if solve_cost < cell_scan_cost(len(directions[0]), rank):
        return METHOD_EXTENSION, None
    return METHOD_CELLS, directions


def _cells_labelings(dataset: Dataset, directions: tuple) -> Iterator[np.ndarray]:
    """Yield each admissible labeling realizable at margin 0 once, read off
    the cells of the arrangement of the kp points.

    ``directions`` is `dedupe_directions` of these points or of a longer
    dataset they begin: representatives are numbered by first occurrence,
    so those of a prefix are a prefix of them.  Degenerate-edge candidates
    are verified with `max_margin`; on generic data the cell patterns are
    exact as-is.
    """
    flat = dataset.flat
    p, k = dataset.p, dataset.spec.k
    reps, idx, sgn = directions
    idx, sgn = idx[: p * k], sgn[: p * k]
    seen: set[bytes] = set()
    for block, verify in sign_pattern_blocks(reps[: idx.max() + 1]):
        full = block[:, idx] * sgn[None, :]
        grouped = full.reshape(-1, p, k)
        consistent = np.all(grouped == grouped[:, :, :1], axis=(1, 2))
        if not consistent.any():
            continue
        for row, flagged in zip(grouped[consistent, :, 0], verify[consistent]):
            key = row.tobytes()
            if key in seen:
                continue
            seen.add(key)
            if flagged and max_margin(flat, np.repeat(row, k)) <= TAU:
                continue
            yield row


def _extension_labelings(dataset: Dataset, margin: float) -> Iterator[np.ndarray]:
    """Yield each admissible labeling realizable above the margin once, by
    extending realizable prefix labelings depth first (see the module
    docstring); `BudgetError` past `MAX_SOLVES` solves."""
    p, k = dataset.p, dataset.spec.k
    bar = margin + TAU
    signed = np.empty((p * k, dataset.n))  # row block j: multiplet j times its sign
    labels = np.empty(p, dtype=np.int8)
    solves = 0
    stack = [(0, 1, None)]  # (depth, sign, the parent's witness if that child is free)
    while stack:
        j, s, w = stack.pop()
        end = (j + 1) * k
        signed[j * k : end] = s * dataset.points[j]
        labels[j] = s
        certified = w is not None
        if not certified:
            if solves == MAX_SOLVES:
                raise BudgetError(
                    f"extension search exceeds its budget of {MAX_SOLVES} margin solves; "
                    "use the random-classifier probe, which has no budget"
                )
            solves += 1
            d = min_norm_point(signed[:end])
            norm = float(np.linalg.norm(d))
            if norm <= bar:
                continue
            w = d / norm
            # only a witness that clears the bar on every row frees children,
            # so the Wolfe tolerance never enters a certificate
            certified = bool(np.all(signed[:end] @ w > bar))
        if end == p * k:
            yield labels.copy()
            yield -labels
            continue
        # at most one child is free (bar > 0); it goes first, else sign +1
        field = dataset.points[j + 1] @ w
        first = -1 if certified and np.all(-field > bar) else 1
        free = certified and bool(np.all(first * field > bar))
        stack.append((j + 1, -first, None))
        stack.append((j + 1, first, w if free else None))


def _probe(dataset: Dataset, margin: float, limit: int | None) -> SatProbe:
    """Decide (``limit=1``) or count (``limit=None``) the realizable labelings."""
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    chosen, directions = _pick_method(dataset, margin)
    if chosen == METHOD_FULL_RANK:
        return SatProbe(count=2 ** dataset.p, sat=True, enumerated=True, method=chosen)
    if chosen == METHOD_CELLS:
        q = 8
        while q < dataset.p:
            prefix = Dataset(spec=dataset.spec, n=dataset.n, p=q, points=dataset.points[:q])
            if next(_cells_labelings(prefix, directions), None) is None:
                return SatProbe(count=0, sat=False, enumerated=True, method=chosen)
            q *= 2
        labelings = _cells_labelings(dataset, directions)
    else:
        labelings = _extension_labelings(dataset, margin)
    count = sum(1 for _ in islice(labelings, limit))
    return SatProbe(
        count=count,
        sat=count > 0,
        # exhaustion proves UNSAT; stopping at the limit leaves the count partial
        enumerated=limit is None or count < limit,
        method=chosen,
    )


def count_admissible_dichotomies(dataset: Dataset, margin: float = 0.0) -> SatProbe:
    """Exact number of admissible labelings realizable above the margin.

    The full-rank shortcut when the kp points are linearly independent at
    margin 0, otherwise cells or the extension engine as the module
    docstring says; `BudgetError` past the chosen backend's budget.
    """
    return _probe(dataset, margin, limit=None)


def admissible_exists(dataset: Dataset, margin: float = 0.0) -> SatProbe:
    """SAT/UNSAT decision with early exit on the first realizable labeling.

    UNSAT outcomes are exhaustive (``enumerated=True``); SAT outcomes stop
    at the witness, so the reported count is partial.
    """
    return _probe(dataset, margin, limit=1)


def random_classifier_probe(
    dataset: Dataset,
    num_weights: int,
    rng: Rng | np.random.Generator,
    margin: float = 0.0,
) -> SatProbe:
    """Lower-bound the count by sampling random unit classifiers.

    Each direction w contributes the labeling it induces, provided every
    multiplet is labeled consistently (and, for margin probes, every scalar
    product clears the margin in absolute value).  The number of distinct
    admissible labelings observed converges to the exact count from below;
    sat=False is only the absence of a witness, never a certificate.
    """
    if num_weights < 1:
        raise ValidationError("num_weights must be >= 1")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    flat = dataset.flat
    p, k = dataset.p, dataset.spec.k
    seen: set[bytes] = set()
    remaining = num_weights
    while remaining > 0:
        b = min(_WEIGHT_BATCH, remaining)
        remaining -= b
        w = gen.standard_normal((b, dataset.n))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        dots = (w @ flat.T).reshape(b, p, k)
        pos = np.all(dots > margin, axis=2)
        neg = np.all(dots < -margin, axis=2)
        ok = np.all(pos | neg, axis=1)
        if not ok.any():
            continue
        labels = np.where(pos[ok], 1, -1).astype(np.int8)
        for row in labels:
            seen.add(row.tobytes())
    return SatProbe(
        count=len(seen),
        sat=len(seen) > 0,
        enumerated=False,
        method=METHOD_RANDOM,
    )


def _trial_worker(job) -> SatProbe:
    """One trial: sample a dataset from the trial's stream, probe it once."""
    spec, n, p, margin, probe, num_weights, stream = job
    ds = sample_dataset(spec, n, p, stream)
    if probe == _COUNT:
        return count_admissible_dichotomies(ds, margin=margin)
    if probe == METHOD_RANDOM:
        return random_classifier_probe(ds, num_weights, stream.substream(1), margin=margin)
    return admissible_exists(ds, margin=margin)


def _map_ordered(worker, jobs, threads: int):
    """Yield ``worker(job)`` in job order, from one process pool of at most
    ``threads`` workers (none for one worker or one job)."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(jobs))
    if workers <= 1:
        yield from map(worker, jobs)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(worker, jobs, chunksize=8)
    finally:
        # on a worker error, drop the queued trials instead of running them
        pool.shutdown(cancel_futures=True)


def _mean_stderr(counts: list[int]) -> tuple[float, float]:
    values = np.array(counts, dtype=float)
    stderr = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(stderr)


def estimate_mean_count(
    spec: StructureSpec,
    n: int,
    p: int,
    trials: int,
    rng: Rng,
    threads: int = 1,
) -> tuple[float, float]:
    """Mean admissible-dichotomy count (at margin 0) over independent
    disorder trials.

    Returns (mean, standard error); the error is zero whenever the count is
    deterministic (e.g. unstructured data in general position).
    """
    if trials < 2:
        raise ValidationError("need at least 2 trials for a standard error")
    jobs = [(spec, n, p, 0.0, _COUNT, 0, rng.substream(t)) for t in range(trials)]
    return _mean_stderr([q.count for q in _map_ordered(_trial_worker, jobs, threads)])


def sat_fraction_scan(
    spec: StructureSpec,
    n: int,
    alpha_grid: list[float],
    trials: int,
    rng: Rng,
    margin: float = 0.0,
    probe: str = "enumerate",
    num_weights: int = 10000,
    threads: int = 1,
    with_counts: bool = False,
    progress=None,
) -> list[PhasePoint]:
    """Fraction of disorder realizations admitting a realizable labeling.

    One point per load value, p = round(alpha * n); margin scans use k=1
    specs with the margin as the constraint.  ``probe`` selects the exact
    decision (``"enumerate"``) or the random-classifier witness search
    (``"random-classifier"``).  Trial t of point i probes one dataset from
    ``rng.substream(i, t)``; ``with_counts`` counts it exactly, which also
    decides SAT.  All trials share one process pool; ``progress(point,
    done, total)`` is called as each point completes.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if probe not in ("enumerate", METHOD_RANDOM):
        raise ValidationError(f"unknown probe {probe!r}")
    if not alpha_grid:
        raise ValidationError("alpha grid must be nonempty")
    for alpha in alpha_grid:
        if not math.isfinite(alpha):
            raise ValidationError(f"alpha={alpha} is not finite")
    loads = [int(round(alpha * n)) for alpha in alpha_grid]
    for alpha, p in zip(alpha_grid, loads):
        if p < 1:
            raise ValidationError(f"alpha={alpha} gives p={p} < 1 at n={n}")
    kind = _COUNT if with_counts else probe
    jobs = [
        (spec, n, p, margin, kind, num_weights, rng.substream(i, t))
        for i, p in enumerate(loads)
        for t in range(trials)
    ]
    points: list[PhasePoint] = []
    with closing(_map_ordered(_trial_worker, jobs, threads)) as results:
        for alpha, p in zip(alpha_grid, loads):
            probes = list(islice(results, trials))
            frac = float(np.mean([q.sat for q in probes]))
            stderr = math.sqrt(frac * (1.0 - frac) / trials)
            mean_count = count_stderr = None
            if with_counts:
                mean_count, count_stderr = _mean_stderr([q.count for q in probes])
            point = PhasePoint(
                alpha=alpha,
                p=p,
                trials=trials,
                fraction=frac,
                stderr=stderr,
                mean_count=mean_count,
                count_stderr=count_stderr,
            )
            points.append(point)
            if progress is not None:
                progress(point, len(points), len(alpha_grid))
    return points


def crossover_load(points: list[PhasePoint]) -> tuple[float, float]:
    """Load at which the SAT fraction first crosses 1/2 going down.

    Linear interpolation between the bracketing grid points; the error
    propagates the two binomial fraction errors through the interpolation.
    """
    level = 0.5
    pts = sorted(points, key=lambda q: q.alpha)
    for a, b in zip(pts, pts[1:]):
        if a.fraction >= level > b.fraction:
            gap = a.fraction - b.fraction
            t = (a.fraction - level) / gap
            alpha = a.alpha + t * (b.alpha - a.alpha)
            dt_da = (level - b.fraction) / gap**2
            dt_db = (a.fraction - level) / gap**2
            sigma_t = math.hypot(dt_da * a.stderr, dt_db * b.stderr)
            return alpha, abs(b.alpha - a.alpha) * sigma_t
    raise ValidationError(f"SAT fraction never crosses {level} on this grid")
