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
  `min_norm_corral` once per labeling it cannot certify for free.

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
from typing import Iterator

import numpy as np

from .errors import BudgetError, ValidationError

# Strict-separability threshold: margins in [0, TAU] count as "not strictly
# separable" (boundary cases have measure zero for continuous disorder).
TAU = 1e-9

# |w . x| below this, for a hyperplane not in the generating subset, marks a
# degenerate edge; candidate patterns from such edges get verified explicitly.
DEGENERACY_TOL = 1e-9

_MNP_TOL = 1e-13
_BLOCK_ROWS = 2**14  # most candidate rows in one `sign_pattern_blocks` block
_ZERO = np.zeros(1)


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


def min_norm_point(points: np.ndarray) -> np.ndarray:
    """Minimum-norm point of the convex hull of the rows (Wolfe's algorithm),
    from a cold start at the shortest row; see `min_norm_corral`."""
    x_rows = np.asarray(points, dtype=float)
    if x_rows.ndim != 2 or x_rows.shape[0] < 1:
        raise ValidationError("min_norm_point needs a nonempty 2-D point array")
    return min_norm_corral(x_rows)[0]


def min_norm_corral(
    x_rows: np.ndarray, corral: list[int] | None = None, lam: np.ndarray | None = None
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Wolfe's minimum-norm-point algorithm on the rows of a float array,
    returning (d, corral, lam) with d = lam @ x_rows[corral].

    Maintains a corral of affinely independent rows; alternates between
    adding the row most violating the support condition
    min_j x_j . d >= |d|^2 and pruning the corral to keep the affine
    minimizer inside the simplex.  Terminates at the exact optimum up to
    the support tolerance.  It starts from ``corral`` with positive weights
    ``lam`` summing to 1 (a warm start, such as the final corral of a
    prefix of the rows), or, when none is given, from the shortest row.
    """
    m = x_rows.shape[0]
    norms = np.einsum("ij,ij->i", x_rows, x_rows)
    scale = max(float(norms.max()), 1.0)
    if corral is None:
        corral, lam = [int(norms.argmin())], np.ones(1)
    else:
        corral = list(corral)  # grown below; a warm start may serve several calls
    d = lam @ x_rows[corral]
    for _ in range(16 * m + 64):
        dots = x_rows @ d
        j = int(dots.argmin())
        # j in corral: an arithmetic stall, d is optimal to working precision
        if dots[j] > d @ d - _MNP_TOL * scale or j in corral:
            break
        corral.append(j)
        lam = np.concatenate((lam, _ZERO))
        while True:
            w = _affine_minimizer(x_rows[corral])
            if w.min() > 1e-12:
                lam = w
                break
            # step toward w until the first coefficient hits zero, drop it
            shrink = lam - w
            blocking = (shrink > 1e-15) & (w <= 1e-12)
            theta = min(1.0, float((lam[blocking] / shrink[blocking]).min(initial=np.inf)))
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
    return d, corral, lam


def max_margin(points: np.ndarray, signs: np.ndarray) -> float:
    """Best worst-case margin of a homogeneous unit-norm linear classifier.

    Equals the distance from the origin to the hull of the signed points
    when that is positive; values at or below TAU collapse to exactly 0.0
    (not strictly separable).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValidationError("points must be a (m, n) array")
    sg = np.asarray(signs, dtype=float).reshape(-1)
    if sg.shape[0] != pts.shape[0]:
        raise ValidationError("one sign per point required")
    if not np.all(np.abs(sg) == 1.0):
        raise ValidationError("signs must be +/-1")
    d = min_norm_point(sg[:, None] * pts)
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
