"""Disorder sampling and exact satisfiability probing.

An admissible labeling gives each of p multiplets one sign, shared by its
k points; it is realizable when a homogeneous linear classifier induces it,
optionally with a margin.  Every prefix of a realizable labeling is
realizable, so a dataset has a SAT threshold p*, the fewest leading
multiplets with no realizable labeling: its first q multiplets are SAT iff
q < p*.

* ``extension``: walk the realizable prefix labelings depth first from
  sigma_1 = +1, one multiplet at a time; the cost is their number, not 2^p.
  `_threshold` reads p* off one walk, the only exact SAT decision: it stops
  at the first leaf (p* = p + 1), else its deepest node has depth p* - 2.
  Draining the leaves, each with -sigma, counts.  Each node carries a unit
  witness w; a child whose new points all clear margin + TAU along w needs
  no solve.  At a positive margin a pair table, built once per walk,
  refuses a child two of whose signed points span a segment nearer the
  origin than margin + TAU by 1e-12 (that segment's margin bounds the whole
  set's).  Any other child costs one min-norm-point solve, warm-started
  from the final corral of the last solve on its path, whose rows begin its
  own, and from that corral's Cholesky factor; the solve reads the signed
  entries of the Gram matrix of the kp points, whose rows the walk
  computes when they are first read.  Refused past `MAX_SOLVES` solves.
* ``full-rank``: kp independent points realize every labeling; the count
  is 2^p with no search (margin 0 only).
* ``cells`` (margin-0 counts only): read the labelings off the cells of the
  central hyperplane arrangement of the kp points, exact at any effective
  rank r within the cell budget; the scan grows like (kp)^(r-1) 2^r, so it
  beats the walk on large counts at small n.
* `random_classifier_probe`: sample random directions and read off the
  labelings they induce; a lower bound on the count and a SAT witness
  finder, with no UNSAT certificate.

The data alone picks the counting backend.  A positive margin always takes
the extension engine.  At margin 0, below full rank, the engine races the
cell scan: it is drained under a budget of the scan's price in solves
(`cell_scan_cost` of the distinct hyperplanes over `CELLS_PER_SOLVE`, inf
past the cell budget), and if it runs past that budget its partial count is
dropped and cells count.  A count then costs at most about twice the
cheaper backend, with no model of the engine's worst case; the budget
counts solves, not seconds, so a dataset takes the same backend on every
run and machine.

A trial is one multiplet sequence from its (master seed, trial index)
stream; load p reads its first p multiplets, which are the draw of p alone.
A scan's exact decision reads every load off one walk; its counting and
random-classifier trials probe the loads in ascending order up to the first
UNSAT one.  A counting probe also decides SAT, so mean counts and SAT
fractions describe the same disorder.  A library call runs its jobs
through one process pool and reduces them in job order, so results are
bit-reproducible for any worker count.  `scan_jobs` and `count_jobs` build
the trial jobs of several scans, or of the mean counts of several
dimensions, and the function that reduces their results; a caller runs
them in one pool, after other jobs of its own if it likes (a phase
diagram's crossing tables, ahead of every pair overlap's trials).  Both
builders import `numpy.random`, which numpy loads lazily, into this
process, so a pool forked after them starts with it loaded and no worker
pays the import on its first trial; `import vclab` and a command that
never samples do not load it.  The pool machinery (`concurrent.futures`,
with `multiprocessing`) loads with the first pool, so a serial run never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetError, ValidationError
from .numerics import Rng
from .separability import (
    TAU,
    cell_scan_cost,
    dedupe_directions,
    max_margin,
    min_norm_corral,
    numerical_rank,
    sign_pattern_blocks,
)
from .structure import StructureSpec, sample_multiplets
from .structure import sample_multiplet  # noqa: F401  (a traced name of bench/spans.py)

METHOD_FULL_RANK = "full-rank"
METHOD_CELLS = "cells"
METHOD_EXTENSION = "extension"
METHOD_RANDOM = "random-classifier"

# Most min-norm-point solves of one extension probe: more than the prefix
# tree of p = 22 multiplets has nodes.  The time per solve grows with n:
# 58 us at n = 3 and 140 us at n = 8 (threshold walks of pairs at rho = 0.5,
# 2-core Xeon), so the budget takes about 4-10 min.
MAX_SOLVES = 2**22

# Candidate patterns of a cell scan (`cell_scan_cost`) priced as one
# warm-started solve of the extension engine: a margin-0 counting race gives
# the engine the scan's price in solves.  Measured on a 2-core Xeon, best of
# 3, drained margin-0 counts: a solve took 0.05-0.16 ms and a candidate
# 0.24-2.1 us, ratio 29-111 where cells win (k=1 at n = 3-4, p = 15-60;
# pairs at n = 3) and 205-535 where the engine wins (pairs at n = 5-6).  Above
# the first range, a lost race wastes at most about one scan's time.
CELLS_PER_SOLVE = 150

_ENUMERATE = "enumerate"  # trial probe tag: the exact SAT decision
_COUNT = "count"  # trial probe tag: full exact count instead of a SAT decision
PROBES = (_ENUMERATE, _COUNT, METHOD_RANDOM)  # the probes of a SAT-fraction scan
_PAIR_ROWS = 512  # most points whose pairs `_pair_conflicts` tabulates
_WEIGHT_BATCH = 16384  # random directions drawn at once by `random_classifier_probe`


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sampled disorder realization: p multiplets of k points in R^n."""

    spec: StructureSpec
    n: int
    p: int
    points: np.ndarray  # (p, k, n)

    def __post_init__(self):
        if np.shape(self.points) != (self.p, self.spec.k, self.n):
            raise ValidationError(
                f"points of shape {np.shape(self.points)} do not hold p={self.p} "
                f"multiplets of k={self.spec.k} points in R^{self.n}"
            )
        if not np.isfinite(self.points).all():
            raise ValidationError("points must be finite")

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


def sample_dataset(spec: StructureSpec, n: int, p: int, rng: Rng | np.random.Generator) -> Dataset:
    """p independent multiplets under the flat constrained measure, drawn
    as one stack (the same points as p `sample_multiplet` calls in a row)."""
    if p < 1:
        raise ValidationError(f"need p >= 1, got {p}")
    return Dataset(spec=spec, n=n, p=p, points=sample_multiplets(spec, n, p, rng))


def _cells_labelings(dataset: Dataset, directions: tuple) -> Iterator[np.ndarray]:
    """Yield each admissible labeling realizable at margin 0 once, read off
    the cells of the arrangement of the kp points.

    ``directions`` is `dedupe_directions` of these points.  Degenerate-edge
    candidates are verified with `max_margin`; on generic data the cell
    patterns are exact as-is.
    """
    flat = dataset.flat
    p, k = dataset.p, dataset.spec.k
    reps, idx, sgn = directions
    seen: set[bytes] = set()
    for block, verify in sign_pattern_blocks(reps):
        full = block[:, idx] * sgn[None, :]
        grouped = full.reshape(-1, p, k)
        consistent = np.all(grouped == grouped[:, :, :1], axis=(1, 2))
        if not consistent.any():
            continue
        rows = np.ascontiguousarray(grouped[consistent, :, 0])
        flags = verify[consistent]
        # one bytes key per row, from one call; the first occurrence of a
        # row in scan order decides, with its verify flag
        keys = rows.view(np.dtype((np.void, rows.itemsize * p))).ravel().tolist()
        for i, key in enumerate(keys):
            if key in seen:
                continue
            seen.add(key)
            if flags[i] and max_margin(flat, np.repeat(rows[i], k)) <= TAU:
                continue
            yield rows[i]


def _pair_conflicts(points: np.ndarray, bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Two (m, m) tables over the first m = min(p, _PAIR_ROWS // k)
    multiplets: ``same[i, j]`` when multiplets i and j cannot carry equal
    signs, ``flip[i, j]`` when they cannot carry opposite ones.  Each holds
    when two of their signed points (or one point, i = j) span a segment
    within bar - 1e-12 of the origin: that pair's margin bounds the margin
    of any set holding it, so the labeling is UNSAT.  The slack leaves
    at-the-bar segments to the margin solve."""
    p, k, n = points.shape
    m = min(p, _PAIR_ROWS // k)
    x = points[:m].reshape(m * k, n)
    g = x @ x.T
    sq = np.diag(g)
    lo = np.minimum(sq[:, None], sq[None, :])
    reach = (bar - 1e-12) ** 2

    def close(uv):
        # squared distance from the origin to the segment [u, v]: the nearer
        # endpoint when u . v >= min(|u|^2, |v|^2), else the foot of the
        # perpendicular, |u|^2 |v|^2 sin^2 / |u - v|^2
        span = sq[:, None] + sq[None, :] - 2 * uv
        dist2 = np.divide(sq[:, None] * sq[None, :] - uv * uv, span, out=lo.copy(), where=uv < lo)
        return (dist2 < reach).reshape(m, k, m, k).any(axis=(1, 3))

    return close(g), close(-g)


class _GramRows(dict):
    """Rows of the Gram matrix of the given points, each computed when first
    read, as a list of floats."""

    def __init__(self, points: np.ndarray):
        super().__init__()
        self.points = points

    def __missing__(self, i: int) -> list[float]:
        row = self[i] = (self.points @ self.points[i]).tolist()
        return row


class _RaceLost(Exception):
    """An extension walk ran past the solve budget of its counting race."""


def _bit_rows(table: np.ndarray) -> list[int]:
    """Each row of a boolean (m, m) table as one int, bit i set where the
    row holds column i."""
    packed = np.packbits(table, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _extension_nodes(
    dataset: Dataset, margin: float, budget: float = math.inf
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (depth j, labels) once for each prefix labeling ``labels[: j + 1]``
    realizable above the margin, depth first (see the module docstring);
    ``labels`` is one reused buffer.  `BudgetError` past `MAX_SOLVES` solves,
    else `_RaceLost` past ``budget`` solves."""
    p, k = dataset.p, dataset.spec.k
    points = dataset.points
    bar = margin + TAU
    # at margin 0 an entry needs exact antipodes, which the first solve refuses
    same, flip = map(_bit_rows, _pair_conflicts(points, bar)) if margin > 0 else ((), ())
    flat = dataset.flat
    gram = _GramRows(flat)
    # the solve's tolerance scale of each prefix of the rows
    norms = np.einsum("ij,ij->i", flat, flat)
    scales = np.maximum(np.maximum.accumulate(norms), 1.0).tolist()
    signed = np.empty((p * k, dataset.n))  # row block j: multiplet j times its sign
    signs = [1] * (p * k)  # the sign of each row of signed
    labels = np.empty(p, dtype=np.int8)
    solves = 0
    # (depth, sign, the parent's witness if that child is free, the final
    # corral of the last solve on its path, the bit set of the multiplets
    # before it that carry +1)
    stack = [(0, 1, None, None, 0)]
    while stack:
        j, s, w, start, plus = stack.pop()
        end = (j + 1) * k
        labels[j] = s
        if s > 0:
            plus |= 1 << j
        certified = w is not None
        # a pair of multiplets the prefix labels in conflict: UNSAT, no solve.
        # alike: the multiplets 0..j that carry s, j among them; the others
        # carry -s.  Both sets stop at j, so row j is read only up to j.
        if not certified and j < len(same):
            prefix = (2 << j) - 1
            alike = plus if s > 0 else plus ^ prefix
            if same[j] & alike or flip[j] & (alike ^ prefix):
                continue
        signed[j * k : end] = points[j] if s > 0 else -points[j]
        signs[j * k : end] = (s,) * k
        if not certified:
            if solves == MAX_SOLVES:
                raise BudgetError(
                    f"extension search exceeds its budget of {MAX_SOLVES} margin solves; "
                    "use the random-classifier probe, which has no budget"
                )
            if solves + 1 > budget:
                raise _RaceLost
            solves += 1
            # warm start: the rows of the last solve on this path begin these
            d, start = min_norm_corral(signed[:end], start, gram, signs, scales[end - 1], bar)
            norm = math.sqrt(d @ d)
            if norm <= bar:
                continue
            w = d / norm
            # only a witness that clears the bar on every row frees children,
            # so the Wolfe tolerance never enters a certificate
            certified = bool((signed[:end] @ w).min() > bar)
        yield j, labels
        if end == p * k:
            continue
        # at most one child is free (bar > 0); it goes first, else sign +1
        first, free = 1, False
        if certified:
            field = (points[j + 1] @ w).tolist()
            if -max(field) > bar:
                first, free = -1, True
            else:
                free = min(field) > bar
        stack.append((j + 1, -first, None, start, plus))
        stack.append((j + 1, first, w if free else None, start, plus))


def _extension_labelings(
    dataset: Dataset, margin: float, budget: float = math.inf
) -> Iterator[np.ndarray]:
    """Yield each admissible labeling realizable above the margin once: the
    leaves of the extension walk, each with its negation."""
    for j, labels in _extension_nodes(dataset, margin, budget):
        if j == dataset.p - 1:
            yield labels.copy()
            yield -labels


def _threshold(dataset: Dataset, margin: float) -> int:
    """SAT threshold p* (p + 1 when all p multiplets are SAT) from one
    extension walk: it stops at its first leaf, else exhausts the realizable
    prefix labelings, whose deepest has depth p* - 2."""
    deepest = -1
    for j, _ in _extension_nodes(dataset, margin):
        if j == dataset.p - 1:
            return dataset.p + 1
        deepest = max(deepest, j)
    return deepest + 2


def count_admissible_dichotomies(dataset: Dataset, margin: float = 0.0) -> SatProbe:
    """Exact number of admissible labelings realizable above the margin.

    The extension engine at a positive margin; at margin 0 the full-rank
    shortcut when the kp points are linearly independent, else a race of
    the engine against the cell scan, as the module docstring says.
    `BudgetError` past the budget of the backend that counts.
    """
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    budget = math.inf
    if margin == 0.0:
        flat = dataset.flat
        rank = numerical_rank(np.linalg.svd(flat, compute_uv=False), flat.shape)
        if rank == flat.shape[0]:
            return SatProbe(count=2**dataset.p, sat=True, enumerated=True, method=METHOD_FULL_RANK)
        # the scan's price in solves (inf past the cell budget)
        directions = dedupe_directions(flat)
        budget = cell_scan_cost(len(directions[0]), rank) / CELLS_PER_SOLVE
    try:
        count = sum(1 for _ in _extension_labelings(dataset, margin, budget))
        method = METHOD_EXTENSION
    except _RaceLost:
        count = sum(1 for _ in _cells_labelings(dataset, directions))
        method = METHOD_CELLS
    return SatProbe(count=count, sat=count > 0, enumerated=True, method=method)


def admissible_exists(dataset: Dataset, margin: float = 0.0) -> SatProbe:
    """SAT/UNSAT decision: one extension walk, SAT iff `_threshold` > p.

    UNSAT outcomes are exhaustive (``enumerated=True``); SAT outcomes stop
    at the first realizable labeling, so the reported count is partial.
    """
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    sat = _threshold(dataset, margin) > dataset.p
    return SatProbe(count=int(sat), sat=sat, enumerated=not sat, method=METHOD_EXTENSION)


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
    if margin < 0:
        raise ValidationError("margin must be >= 0")
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
    return SatProbe(count=len(seen), sat=len(seen) > 0, enumerated=False, method=METHOD_RANDOM)


def _trial_worker(spec, n, loads, margin, probe, num_weights, stream) -> list[int]:
    """One trial: draw the largest load's multiplets once from the trial's
    stream; one count per load, ascending, SAT iff positive (1 for an exact
    decision, all read off one `_threshold` walk).  Other probes stop at the
    first UNSAT load, as every larger load is UNSAT too."""
    ds = sample_dataset(spec, n, loads[-1], stream)
    if probe == _ENUMERATE:
        threshold = _threshold(ds, margin)
        return [int(p < threshold) for p in loads]
    counts = [0] * len(loads)
    for i, p in enumerate(loads):
        prefix = Dataset(spec=spec, n=n, p=p, points=ds.points[:p])
        if probe == METHOD_RANDOM:
            # the same directions for every prefix keep the SAT indicator monotone
            q = random_classifier_probe(prefix, num_weights, stream.substream(1), margin=margin)
        else:
            q = count_admissible_dichotomies(prefix, margin=margin)
        counts[i] = q.count
        if not q.sat:
            break
    return counts


def _apply(job):
    """Run one job of `_map_ordered`: ``(function, *args)``."""
    fn, *args = job
    return fn(*args)


def _map_ordered(jobs: list, threads: int) -> Iterator:
    """``fn(*args)`` for every ``(fn, *args)`` job, read lazily in job order.

    The jobs run in one process pool of at most ``threads`` workers, opened
    at the first read; with one worker or one job, each runs in this
    process when it is read.  A caller may so use the first results before
    a later job fails."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(jobs))
    if workers <= 1:
        return map(_apply, jobs)
    return _pooled(jobs, workers)


def ProcessPoolExecutor(max_workers: int):
    """A `concurrent.futures.ProcessPoolExecutor`, imported when the first
    pool opens, so a run that opens none never loads the pool machinery
    (`multiprocessing`, `logging`, `socket`)."""
    from concurrent.futures import ProcessPoolExecutor as Executor

    return Executor(max_workers=max_workers)


def _pooled(jobs: list, workers: int) -> Iterator:
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        results = pool.map(_apply, jobs)
        yield from islice(results, len(jobs) - 1)
        last = next(results)
    finally:
        # on a worker error, drop the queued jobs instead of running them
        pool.shutdown(cancel_futures=True)
    yield last  # the pool is shut down once every result is in


def _mean_stderr(counts: list[int]) -> tuple[float, float]:
    values = np.array(counts, dtype=float)
    stderr = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(stderr)


def _load_sampler() -> None:
    """Import `numpy.random` into this process before a pool forks from it
    (see the module docstring)."""
    import numpy.random  # noqa: F401


def count_jobs(
    spec: StructureSpec,
    dims: list[tuple[int, list[int], Rng]],
    trials: int,
) -> tuple[list, Callable[[Iterator], list[list[tuple[float, float]]]]]:
    """The jobs of the mean counts of several dimensions, for `_map_ordered`,
    and the function that reduces their results, read in job order, to one
    list of (mean, standard error) per dimension, one pair per load.

    ``dims`` holds (n, loads, rng) per dimension; its trial t is one
    multiplet sequence from ``rng.substream(t)``, and load p counts its
    first p multiplets.  Each (dimension, distinct load, trial) is one job,
    counted in full: dimension-major, then load-major in first-occurrence
    order.  Every argument is checked here, before any job runs."""
    if trials < 2:
        raise ValidationError("need at least 2 trials for a standard error")
    for _, loads, _ in dims:
        if not loads or min(loads) < 1:
            raise ValidationError(f"need a non-empty list of loads p >= 1, got {loads}")
    distinct = [list(dict.fromkeys(loads)) for _, loads, _ in dims]
    jobs = [(_trial_worker, spec, n, [p], 0.0, _COUNT, 0, rng.substream(t))
            for (n, _, rng), ps in zip(dims, distinct) for p in ps for t in range(trials)]
    _load_sampler()

    def reduce(results: Iterator) -> list[list[tuple[float, float]]]:
        counts = (c for c, in results)
        means = []
        for (_, loads, _), ps in zip(dims, distinct):
            at = {p: _mean_stderr(list(islice(counts, trials))) for p in ps}
            means.append([at[p] for p in loads])
        return means

    return jobs, reduce


def estimate_mean_count(
    spec: StructureSpec,
    n: int,
    loads: list[int],
    trials: int,
    rng: Rng,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Mean admissible-dichotomy count (at margin 0) over independent
    disorder trials: (mean, standard error) at each load, repeats included.
    The error is zero whenever the count is deterministic (e.g. k=1 in
    general position).

    One dimension of `count_jobs`: trial t is one multiplet sequence from
    ``rng.substream(t)``, load p counts its first p multiplets, and each
    (distinct load, trial) is one job, load-major; all share one process
    pool.  `vclab count` runs every dimension's jobs in one pool instead.
    """
    jobs, reduce = count_jobs(spec, [(n, loads, rng)], trials)
    return reduce(_map_ordered(jobs, threads))[0]


def scan_jobs(
    scans: list[tuple[StructureSpec, Rng]],
    n: int,
    alpha_grid: list[float],
    trials: int,
    margin: float = 0.0,
    probe: str = _ENUMERATE,
    num_weights: int = 10000,
) -> tuple[list, Callable[[Iterator], list[list[PhasePoint]]]]:
    """The trial jobs of `sat_fraction_scans`, scan-major, for `_map_ordered`,
    and the function that reduces their results, read in job order, to one
    list of points per scan.  Every argument is checked here, before any
    job runs."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if probe not in PROBES:
        raise ValidationError(f"unknown probe {probe!r}")
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    if not alpha_grid:
        raise ValidationError("alpha grid must be nonempty")
    for alpha in alpha_grid:
        if not math.isfinite(alpha):
            raise ValidationError(f"alpha={alpha} is not finite")
    loads = [int(round(alpha * n)) for alpha in alpha_grid]
    for alpha, p in zip(alpha_grid, loads):
        if p < 1:
            raise ValidationError(f"alpha={alpha} gives p={p} < 1 at n={n}")
    distinct = sorted(set(loads))
    jobs = [(_trial_worker, spec, n, distinct, margin, probe, num_weights, rng.substream(t))
            for spec, rng in scans for t in range(trials)]
    _load_sampler()

    def reduce(results: Iterator) -> list[list[PhasePoint]]:
        results = list(results)
        scanned = []
        for i in range(len(scans)):
            # per load, the counts of every trial of this scan in trial order
            counts = dict(zip(distinct, zip(*results[i * trials : (i + 1) * trials])))
            points = []
            for alpha, p in zip(alpha_grid, loads):
                frac = float(np.mean([c > 0 for c in counts[p]]))
                stderr = math.sqrt(frac * (1.0 - frac) / trials)
                mean_count = count_stderr = None
                if probe == _COUNT:
                    mean_count, count_stderr = _mean_stderr(counts[p])
                points.append(PhasePoint(alpha=alpha, p=p, trials=trials, fraction=frac,
                                         stderr=stderr, mean_count=mean_count,
                                         count_stderr=count_stderr))
            scanned.append(points)
        return scanned

    return jobs, reduce


def sat_fraction_scans(
    scans: list[tuple[StructureSpec, Rng]],
    n: int,
    alpha_grid: list[float],
    trials: int,
    margin: float = 0.0,
    probe: str = _ENUMERATE,
    num_weights: int = 10000,
    threads: int = 1,
) -> list[list[PhasePoint]]:
    """Fraction of disorder realizations admitting a realizable labeling,
    for each (spec, rng) scan over the same load grid.

    One point per load value, p = round(alpha * n); margin scans use k=1
    specs with the margin as the constraint.  ``probe`` is the exact
    decision (``"enumerate"``), the exact count (``"count"``, which also
    decides SAT and fills each point's mean count) or the random-classifier
    witness search (``"random-classifier"``).  Trial t of a scan is one
    multiplet sequence: it draws the largest load's multiplets once from
    ``rng.substream(t)`` (a random-classifier probe takes its directions
    from ``rng.substream(t, 1)``), and load p reads its first p, so every
    point of a scan sees the same disorder.  The trials of every scan,
    scan-major, share one process pool (`scan_jobs` lets a caller put
    other jobs ahead of them in that pool).
    """
    jobs, reduce = scan_jobs(scans, n, alpha_grid, trials, margin, probe, num_weights)
    return reduce(_map_ordered(jobs, threads))


def sat_fraction_scan(
    spec: StructureSpec,
    n: int,
    alpha_grid: list[float],
    trials: int,
    rng: Rng,
    margin: float = 0.0,
    probe: str = _ENUMERATE,
    num_weights: int = 10000,
    threads: int = 1,
) -> list[PhasePoint]:
    """One scan of `sat_fraction_scans`: its trials share one process pool."""
    return sat_fraction_scans([(spec, rng)], n, alpha_grid, trials, margin, probe,
                              num_weights, threads)[0]


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
