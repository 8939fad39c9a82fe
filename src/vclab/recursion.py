"""Log-domain evaluation of the admissible-dichotomy counting recursion.

The mean number of admissible dichotomies of p multiplets in dimension n
is approximated by the recursion

    C[n, p+1] = sum_{l=0}^{k} theta_l * C[n-l, p]

with boundary values C[n>=1, 1] = 2 and C[n<=0, p] = 0 (indices n-l <= 0
contribute nothing, the only extension that keeps the step well defined up
to l = k).  The recursion is mean-field: projecting a multiplet onto the
hyperplane of a new point changes its overlaps, which the fixed theta
ignore.  It is exact for k=1 (Cover's recursion, reproducing his closed
form), for coincident pairs rho=1 (theta = (1, 1, 0), again Cover's) and at
full expressivity n >= kp (the count 2^p); elsewhere it lies above the true
disorder mean at small n, by a relative gap that shrinks as n grows.  The
asymptotic quantities extracted from the table are insensitive to this
approximation.

Counts overflow doubles already for moderate p, so tables store natural
logs with -inf encoding an exact zero; the recursion has positive weights,
so a shifted log-sum-exp loses nothing.  The VC entropy is H = log C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NoCrossingError, OutOfGridError, ValidationError
from .numerics import NEG_INF, bisect_root
from .structure import ThetaCoefficients

LOG2 = math.log(2.0)


def cover_count_exact(n: int, p: int) -> int:
    """Cover's function-counting formula, as an exact integer.

    Number of dichotomies of p points in general position realizable by a
    homogeneous linear classifier in R^n:

        C(n, p) = 2 * sum_{l=0}^{n-1} binom(p-1, l)

    Equals 2^p whenever p <= n (full expressivity).
    """
    if n < 1 or p < 1:
        raise ValidationError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    return 2 * sum(comb(p - 1, l) for l in range(min(n, p)))


@dataclass(frozen=True)
class CountTable:
    """Grid of log mean admissible-dichotomy counts.

    ``log_counts[n, p]`` holds log C[n, p] for 0 <= n <= n_max and
    1 <= p <= p_max (row 0 and column 0 are -inf padding).  Immutable after
    construction and safe to share between workers.
    """

    theta: ThetaCoefficients
    n_max: int
    p_max: int
    log_counts: np.ndarray

    def log_count(self, n: int, p: int) -> float:
        """log C[n, p]; -inf means an exact zero count."""
        if not (1 <= n <= self.n_max and 1 <= p <= self.p_max):
            raise OutOfGridError(
                f"(n={n}, p={p}) outside grid 1..{self.n_max} x 1..{self.p_max}"
            )
        return float(self.log_counts[n, p])

    def log_count_at_load(self, n: int, alpha: float) -> float:
        """log C at real-valued p = alpha*n, linear in log between columns."""
        if not 1 <= n <= self.n_max:
            raise OutOfGridError(f"n={n} outside 1..{self.n_max}")
        p = alpha * n
        if p < 1 or p > self.p_max:
            raise OutOfGridError(f"p = alpha*n = {p} outside 1..{self.p_max}")
        lo = int(math.floor(p))
        hi = min(lo + 1, self.p_max)
        frac = p - lo
        a = self.log_counts[n, lo]
        b = self.log_counts[n, hi]
        if frac == 0.0 or a == NEG_INF or b == NEG_INF:
            return float(a if frac < 1.0 else b)
        return float((1.0 - frac) * a + frac * b)


def build_count_table(theta: ThetaCoefficients, n_max: int, p_max: int) -> CountTable:
    """Fill the (n, p) grid by iterating the recursion in log domain.

    Each p-step is one gather and one reduce.  The gather reads the
    column's rows n-l, plus log theta_l, into one buffer row per nonzero
    theta_l (shifts past the grid drop out); `np.logaddexp.reduce` over the
    buffer writes the grid's next column in place, adding the terms in
    l-order as a loop of pairwise steps would, so the table is the same to
    the bit.  Row 0 of every column is -inf: it pads the rows n-l < 0, and
    it stays -inf.
    """
    if n_max < 1 or p_max < 1:
        raise ValidationError("grid bounds must be >= 1")
    # (l, log theta_l) for the nonzero coefficients whose shift stays on the grid
    terms = [(l, math.log(t)) for l, t in enumerate(theta.theta[: n_max + 1]) if t > 0]
    shifts = np.array([l for l, _ in terms], dtype=int)[:, None]
    log_theta = np.array([t for _, t in terms])[:, None]
    # C[n, p+1] reads C[n-l, p]; the -inf row 0 stands in for n-l < 0
    rows = np.maximum(np.arange(n_max + 1) - shifts, 0)
    grid = np.full((n_max + 1, p_max + 1), NEG_INF)
    grid[1:, 1] = LOG2
    buf = np.empty(rows.shape)
    for col, nxt in zip(grid.T[1:p_max], grid.T[2:]):
        np.add(col[rows], log_theta, out=buf)
        np.logaddexp.reduce(buf, axis=0, out=nxt)
    return CountTable(theta=theta, n_max=n_max, p_max=p_max, log_counts=grid)


def crossing_p_max(n_max: int, alpha_window: tuple[float, float]) -> int:
    """Columns of the count table a crossing at dimensions up to n_max reads
    over the load window."""
    return int(math.ceil(alpha_window[1] * n_max)) + 1


def crossing_load(
    theta: ThetaCoefficients,
    n1: int,
    n2: int,
    alpha_window: tuple[float, float],
    table: CountTable | None = None,
) -> float:
    """Load at which the entropy curves for dimensions n1 and n2 cross.

    Solves H[n1, alpha*n1] = H[n2, alpha*n2] by bisection on the window,
    with p interpolated linearly in log C between integer columns (the
    entropy is smooth at the 1e-4 resolution needed here).  Raises
    `NoCrossingError` when the difference keeps one sign over the window,
    which is the generic situation for Cover's k=1 recursion where the
    curves diverge monotonically.

    ``table`` is a count table of theta to read instead of building one at
    (max(n1, n2), `crossing_p_max`); a larger one gives the same load, as
    row n of a table reads only rows <= n and its columns only the columns
    before them, so several dimension pairs can share one table.
    """
    if n1 < 1 or n2 < 1:
        raise ValidationError(f"dimensions must be >= 1, got n1={n1}, n2={n2}")
    if n1 == n2:
        raise ValidationError("crossing_load needs two distinct dimensions")
    lo, hi = alpha_window
    if not (0 < lo < hi):
        raise ValidationError(f"invalid load window {alpha_window}")
    n_max = max(n1, n2)
    p_max = crossing_p_max(n_max, alpha_window)
    if table is None:
        table = build_count_table(theta, n_max=n_max, p_max=p_max)
    elif table.theta != theta or table.n_max < n_max or table.p_max < p_max:
        raise ValidationError(
            f"a {table.n_max} x {table.p_max} table of {table.theta} does not hold the "
            f"{n_max} x {p_max} grid of this crossing of {theta}"
        )

    def gap(alpha: float) -> float:
        return table.log_count_at_load(n1, alpha) - table.log_count_at_load(n2, alpha)

    if lo * min(n1, n2) < 1:
        lo = 1.0 / min(n1, n2)  # keep p >= 1 on both curves
    glo, ghi = gap(lo), gap(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if math.copysign(1.0, glo) == math.copysign(1.0, ghi):
        raise NoCrossingError(
            f"entropy curves for n={n1} and n={n2} do not cross on {alpha_window}"
        )
    return bisect_root(gap, lo, hi, tol=1e-4)
