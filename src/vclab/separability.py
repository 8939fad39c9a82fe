"""Exact linear-separability decisions and hard-margin values.

Two exact tools, used by `vclab.montecarlo`:

* `max_margin` solves the homogeneous hard-margin problem
  max_{|w|=1} min_i sigma_i (w . xi_i) through its dual: the optimum equals
  the Euclidean distance from the origin to the convex hull of the signed
  points, computed with Wolfe's minimum-norm-point algorithm.  A positive
  value certifies strict separability (the optimal w is the normalized
  hull point); when the origin lies in the hull the problem value is <= 0
  and 0.0 is returned (strictness is decided by the tolerance TAU, so the
  exact nonpositive depth is never needed).  The extension engine, which
  makes every SAT/UNSAT decision, calls its warm-startable core
  `min_norm_corral` once per labeling it cannot certify for free.  There
  each affine minimizer over the corral C comes from the Cholesky factor
  of G_CC + 11^T (G the Gram matrix of the signed points), which the solve
  carries in its warm start: a row added to the corral appends a row to
  the factor, and a dropped one is a Givens downdate of the rows after it.
  The bordered linear system, solved afresh, stays as the fallback for an
  affinely dependent row, as the tie-breaker of a |d| at the decision's
  bar, and as the whole solve of `max_margin` and `min_norm_point`.

* `sign_pattern_blocks` enumerates every sign vector realizable by some
  direction w, i.e. the cells of the central hyperplane arrangement whose
  normals are the points.  Each full-dimensional cone of a (projected)
  rank-r arrangement is pointed, hence adjacent to an edge spanned by some
  r-1 of the normals; perturbing along each edge direction reaches all
  2^(r-1) cells around it, so scanning the (r-1)-subsets reaches every
  cell.  Cost grows like m^(r-1) 2^r.  It only counts, at margin 0, after
  the extension engine runs past the scan's price in solves
  (`cell_scan_cost`); `max_margin` verifies its degenerate-edge candidates.

The test suite checks each against the other.
"""

from __future__ import annotations

import math
from itertools import combinations, islice, product
from operator import mul
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, ValidationError

# Strict-separability threshold: margins in [0, TAU] count as "not strictly
# separable" (boundary cases have measure zero for continuous disorder).
TAU = 1e-9

# |w . x| below this, for a hyperplane not in the generating subset, marks a
# degenerate edge; candidate patterns from such edges get verified explicitly.
DEGENERACY_TOL = 1e-9

_MNP_TOL = 1e-13
# |d| this close to a solve's bar is decided again by the bordered system
_TIE = 1e-10
# a squared Cholesky pivot at most this share of its diagonal entry of M marks
# an affinely dependent row: an exact dependence can leave a few 1e-16 by
# rounding, and the smallest share on the benchmark's walks is 8e-9
_PIVOT_TOL = 1e-12
_BLOCK_ROWS = 2**14  # most candidate rows in one `sign_pattern_blocks` block


def _affine_minimizer(points: np.ndarray) -> np.ndarray:
    """Weights (summing to 1, possibly negative) of the minimum-norm point
    in the affine hull of the given rows."""
    s = points.shape[0]
    if s == 1:
        return np.ones(1)
    a = np.zeros((s + 1, s + 1))
    a[:s, :s] = points @ points.T
    a[:s, s] = 1.0
    a[s, :s] = 1.0
    b = np.zeros(s + 1)
    b[s] = 1.0
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(a, b, rcond=None)[0]
    return sol[:s]


class Corral(NamedTuple):
    """Where `min_norm_corral` ends, and where it can start again: the
    corral's row indices, their positive weights (summing to 1), and the
    lower Cholesky factor of M = G_CC + 11^T, one tuple per row (None after
    a solve that ended on the bordered path).  Nothing here is edited in
    place, so one warm start can serve several solves."""

    rows: tuple[int, ...]
    lam: tuple[float, ...]
    factor: tuple[tuple[float, ...], ...] | None


def min_norm_point(points: np.ndarray) -> np.ndarray:
    """Minimum-norm point of the convex hull of the rows (Wolfe's algorithm),
    from a cold start at the shortest row; see `min_norm_corral`."""
    return min_norm_corral(_point_rows(points))[0]


def min_norm_corral(
    x_rows: np.ndarray,
    start: Corral | None = None,
    gram: Mapping[int, Sequence[float]] | Sequence[Sequence[float]] | None = None,
    signs: Sequence[int] | None = None,
    scale: float | None = None,
    bar: float | None = None,
) -> tuple[np.ndarray, Corral]:
    """Wolfe's minimum-norm-point algorithm on the rows of a float array,
    returning d and the final `Corral`, with d = lam @ x_rows[rows].

    Maintains a corral of affinely independent rows; alternates between
    adding the row most violating the support condition
    min_j x_j . d >= |d|^2 and pruning the corral to keep the affine
    minimizer inside the simplex.  Terminates at the exact optimum up to
    the support tolerance ``_MNP_TOL * scale``, with ``scale`` the largest
    squared row norm and at least 1 (computed here when not given).  It
    starts from ``start`` (a warm start, such as the final corral of a
    prefix of the rows), or, when none is given, from the shortest row.

    Given ``gram`` and ``signs`` (row j of x_rows is ``signs[j]`` times a
    point whose Gram row is ``gram[j]``, so G_ij = signs[i] signs[j]
    gram[i][j]), each affine minimizer comes from a factor (Wolfe's own
    step).  The minimizer over a corral C is M^-1 1 / (1^T M^-1 1) with
    M = G_CC + 11^T, which is positive definite exactly when C is affinely
    independent: two triangular solves on its lower Cholesky factor L, in
    Python floats.  Adding a row appends one row to L, from |C| entries of
    G; dropping one rotates the rows after it back to lower-triangular form
    with Givens rotations and removes the emptied column.  A pivot whose
    square is at most `_PIVOT_TOL` of its diagonal entry of M (an affinely
    dependent row, to rounding) ends the factor, and the rest of the solve
    solves the bordered system of `_affine_minimizer`, as a solve without
    ``gram`` does throughout; a start without a factor is factored again.
    When |d| lands within `_TIE` of ``bar``, the weights and d are taken
    again from the final corral by the bordered system, so a decision
    |d| > bar near the bar is the one that system gives.
    """
    m = x_rows.shape[0]
    if scale is None or start is None:
        norms = np.einsum("ij,ij->i", x_rows, x_rows)
        if scale is None:
            scale = max(float(norms.max()), 1.0)
    if start is None:
        corral, lam, factor = [int(norms.argmin())], [1.0], None
    else:
        corral, lam, factor = list(start.rows), list(start.lam), start.factor
    if gram is None:
        factor = None
    elif factor is None:
        factor = ()
        for c in corral:
            factor = _append_row(factor, corral, c, gram, signs)
            if factor is None:
                break
    d = np.dot(lam, x_rows[corral])
    for _ in range(16 * m + 64):
        dots = x_rows @ d
        j = int(dots.argmin())
        # j in corral: an arithmetic stall, d is optimal to working precision
        if dots[j] > d @ d - _MNP_TOL * scale or j in corral:
            break
        if factor is not None:
            factor = _append_row(factor, corral, j, gram, signs)
        corral.append(j)
        lam.append(0.0)
        while True:
            if factor is None:
                w = _affine_minimizer(x_rows[corral]).tolist()
            else:
                w = _factored_minimizer(factor)
            if min(w) > 1e-12:
                lam = w
                break
            # step toward w until the first coefficient hits zero, drop it
            theta = min([1.0] + [a / (a - b) for a, b in zip(lam, w)
                                 if a - b > 1e-15 and b <= 1e-12])
            lam = [(1.0 - theta) * a + theta * b for a, b in zip(lam, w)]
            keep = [a >= 1e-12 for a in lam]
            if all(keep):
                total = sum(lam)
                lam = [a / total for a in lam]
                break
            if factor is not None:
                for i in range(len(keep) - 1, -1, -1):
                    if not keep[i]:
                        factor = _drop_row(factor, i)
            corral = [c for c, kp in zip(corral, keep) if kp]
            lam = [a for a, kp in zip(lam, keep) if kp]
            total = sum(lam)
            lam = [a / total for a in lam]
        d = np.dot(lam, x_rows[corral])
    if bar is not None and abs(math.sqrt(d @ d) - bar) <= _TIE:
        lam = _affine_minimizer(x_rows[corral]).tolist()
        d = np.dot(lam, x_rows[corral])
    return d, Corral(tuple(corral), tuple(lam), factor)


def _append_row(factor: tuple, corral: list[int], j: int, gram, signs) -> tuple | None:
    """The Cholesky factor of M = G_CC + 11^T with row j appended to the
    corral C, or None when its squared pivot is at most `_PIVOT_TOL` of its
    diagonal entry (j is in the affine hull of C, to rounding).  ``factor``
    covers the first len(factor) rows of C."""
    row, sj = gram[j], signs[j]
    y = []
    for r, lr in enumerate(factor):
        c = corral[r]
        y.append((sj * signs[c] * row[c] + 1.0 - sum(map(mul, lr, y))) / lr[r])
    diag = row[j] + 1.0
    pivot = diag - sum(map(mul, y, y))
    if not pivot > _PIVOT_TOL * diag:
        return None
    y.append(math.sqrt(pivot))
    return factor + (tuple(y),)


def _drop_row(factor: tuple, i: int) -> tuple:
    """The Cholesky factor with row and column i of M removed: the rows
    after i, one column too long, are rotated back to lower-triangular form
    by Givens rotations on adjacent columns, which leave L L^T unchanged."""
    rows = [list(r) for r in factor[i + 1 :]]
    for t, row in enumerate(rows):
        col = i + t
        a, b = row[col], row[col + 1]
        h = math.hypot(a, b)
        cs, sn = a / h, b / h
        for other in rows[t + 1 :]:
            u, v = other[col], other[col + 1]
            other[col], other[col + 1] = cs * u + sn * v, cs * v - sn * u
        row[col] = h
        row.pop()
    return factor[:i] + tuple(tuple(r) for r in rows)


def _factored_minimizer(factor: tuple) -> list[float]:
    """Affine-minimizer weights from the Cholesky factor L of M: z = M^-1 1
    by y = L^-1 1 and z = L^-T y, then z / sum(z)."""
    z = []
    for lr in factor:
        z.append((1.0 - sum(map(mul, lr, z))) / lr[len(z)])
    # back substitution in place, column by column of L^T (row by row of L)
    for r in range(len(factor) - 1, -1, -1):
        lr = factor[r]
        zr = z[r] = z[r] / lr[r]
        for c in range(r):
            z[c] -= lr[c] * zr
    total = sum(z)
    return [v / total for v in z]


def _point_rows(points) -> np.ndarray:
    """The points as a float (m, n) array; `ValidationError` unless it is
    nonempty and finite."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError("points must be a nonempty (m, n) array")
    if not np.isfinite(pts).all():
        raise ValidationError("points must be finite")
    return pts


def max_margin(points: np.ndarray, signs: np.ndarray) -> float:
    """Best worst-case margin of a homogeneous unit-norm linear classifier.

    Equals the distance from the origin to the hull of the signed points
    when that is positive; values at or below TAU collapse to exactly 0.0
    (not strictly separable).
    """
    pts = _point_rows(points)
    sg = np.asarray(signs, dtype=float).reshape(-1)
    if sg.shape[0] != pts.shape[0]:
        raise ValidationError("one sign per point required")
    if not np.all(np.abs(sg) == 1.0):
        raise ValidationError("signs must be +/-1")
    d = min_norm_corral(sg[:, None] * pts)[0]
    value = float(np.linalg.norm(d))
    return value if value > TAU else 0.0


def dedupe_directions(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse rows that are exact duplicates up to sign.

    Returns (representatives, rep_index, rep_sign) with
    points[i] == rep_sign[i] * representatives[rep_index[i]] bitwise.
    Coincident or antipodal points (overlaps +/-1) define the same
    hyperplane and would break the generic-arrangement assumptions.  Each
    row is oriented so its first coordinate has a clear sign bit, and the
    representatives are numbered in order of first occurrence.
    """
    flip = np.signbit(points[:, 0])
    sgn = np.where(flip, -1, 1).astype(np.int8)
    canon = np.where(flip[:, None], -points, points)
    rows = canon.view(np.dtype((np.void, canon.itemsize * canon.shape[1]))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return canon[first[order]], rank[group], sgn


def numerical_rank(s: np.ndarray, shape: tuple[int, ...]) -> int:
    """Rank of a matrix of the given shape from its descending singular
    values ``s``: those above max(shape) * eps * s[0] count."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(shape) * np.finfo(float).eps * s[0]))


def cell_scan_cost(m: int, r: int) -> float:
    """Candidate patterns of a full cell scan of m hyperplanes in rank r:
    2^(r-1) around each edge spanned by r-1 of them.  Past the cell budget
    of 5e7, where `sign_pattern_blocks` refuses to scan, the cost is inf."""
    cost = math.comb(m, r - 1) * 2 ** (r - 1)
    return cost if cost <= 5e7 else math.inf


def sign_pattern_blocks(points: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield blocks of candidate realizable sign patterns of the rows.

    Each yielded pair is (block, verify) where block is an int8 array of
    shape (b, m) with entries +/-1 and verify flags the rows that came from
    a degenerate edge (an extra hyperplane through it) and therefore need
    an explicit margin check before being trusted.  Rows must be distinct
    as hyperplanes (see `dedupe_directions`); patterns may repeat across
    blocks, callers deduplicate.  Together the non-flagged rows cover every
    cell of the central arrangement exactly once or more, at any rank;
    `BudgetError` past the cell budget (see `cell_scan_cost`).
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 0:
        raise ValidationError("need at least one point")
    u, s, _ = np.linalg.svd(pts, full_matrices=False)
    r = numerical_rank(s, pts.shape)
    if r == 0:
        raise ValidationError("all points are zero")
    proj = u[:, :r] * s[:r]  # coordinates in the row space
    n_fix = r - 1
    if cell_scan_cost(m, r) == math.inf:
        raise BudgetError(
            f"cell enumeration over {math.comb(m, n_fix)} edge subsets in rank {r} "
            "is too large; use the random-classifier probe, which has no budget"
        )
    combos = np.array(list(product((1, -1), repeat=n_fix)), dtype=np.int8)
    # one block per orientation stacks every combo of a batch of subsets,
    # combo-major; no block holds more than _BLOCK_ROWS candidate rows
    batch_size = max(1, min(4096, _BLOCK_ROWS >> n_fix))
    chunks = [combos[i : i + _BLOCK_ROWS] for i in range(0, len(combos), _BLOCK_ROWS)]
    subset_iter = combinations(range(m), n_fix)
    while True:
        batch = list(islice(subset_iter, batch_size))
        if not batch:
            return
        sub = np.array(batch, dtype=np.intp)  # (b, r-1)
        dirs = _null_directions(proj, sub)  # (b, r)
        norms = np.linalg.norm(dirs, axis=1)
        good = norms > 1e-12  # near-parallel generators span no edge
        if not good.any():
            continue
        sub = sub[good]
        dirs = dirs[good] / norms[good, None]
        for orient in (1.0, -1.0):
            dots = (orient * dirs) @ proj.T  # (b, m)
            base = np.where(dots > 0, 1, -1).astype(np.int8)
            near_zero = np.abs(dots) <= DEGENERACY_TOL
            np.put_along_axis(near_zero, sub, False, axis=1)
            degenerate = near_zero.any(axis=1)
            for chunk in chunks:
                block = np.repeat(base[None], len(chunk), axis=0)  # (c, b, m)
                shape = (len(chunk),) + sub.shape
                values = np.broadcast_to(chunk[:, None, :], shape)
                np.put_along_axis(block, np.broadcast_to(sub, shape), values, axis=2)
                yield block.reshape(-1, m), np.tile(degenerate, len(chunk))


def _null_directions(proj: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Generalised cross product of each (r-1)-subset of the rank-r rows:
    the w with w . x = det([rows; x]), so w_j = (-1)^(r-1+j) times the
    minor with column j deleted (r=2: the rotated row; r=3: the cross
    product; r=1: the unit vector).  It spans the common null space, and
    vanishes on a rank-deficient subset."""
    r = proj.shape[1]
    others = np.nonzero(~np.eye(r, dtype=bool))[1].reshape(r, r - 1)  # row j: columns != j
    minors = np.moveaxis(proj[subsets][:, :, others], 2, 1)  # (b, r, r-1, r-1)
    return (-1.0) ** (r - 1 + np.arange(r)) * np.linalg.det(minors)
