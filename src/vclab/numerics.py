"""Shared elementary numerics.

The small amount of machinery the rest of the package needs with
non-standard semantics: reproducible counter-style random streams,
bisection on a bracket, a semidefinite-tolerant Cholesky factorization and
Haar-random orthonormal frames.  Special functions come straight from
:mod:`math`.

Counts are kept in natural-log domain throughout the package; ``-inf``
encodes an exact zero count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    DimensionError,
    NotPositiveSemidefiniteError,
    ValidationError,
)

NEG_INF = float("-inf")

# Pivot window for semidefinite Gram matrices: pivots in [-PIVOT_TOL, PIVOT_TOL]
# are clamped to zero (rank-deficient overlaps such as rho=1 must be accepted),
# anything below -PIVOT_TOL is rejected.
PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class Rng:
    """Value-like handle for a reproducible random stream.

    Identical ``(master_seed, stream_index)`` always reproduces the same
    sample sequence; distinct stream indices give statistically independent
    streams (numpy ``SeedSequence`` spawn keys).  Substreams extend the key,
    so per-trial streams in parallel Monte Carlo runs are bit-reproducible
    regardless of worker count.
    """

    master_seed: int
    stream_index: int | tuple[int, ...] = 0

    def _key(self) -> tuple[int, ...]:
        if isinstance(self.stream_index, tuple):
            return self.stream_index
        return (int(self.stream_index),)

    def substream(self, *indices: int) -> "Rng":
        """Derive an independent child stream keyed by ``indices``."""
        return Rng(self.master_seed, self._key() + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self._key())
        return np.random.default_rng(seq)


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection on a bracketing interval; returns the final midpoint.

    Terminates when the bracket width drops below ``tol`` (or an exact zero
    of f is hit).  Raises `BracketError` when f(lo) and f(hi) do not have
    opposite signs.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if lo > hi:
        lo, hi = hi, lo
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket narrower than float spacing
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L@L.T == gram, accepting semidefinite input.

    ``gram`` must be symmetric with unit diagonal.  Pivots in
    [-PIVOT_TOL, 0] are clamped to zero so that degenerate overlap matrices
    (e.g. a fully coincident pair, rho=1) factor cleanly; a pivot below
    -PIVOT_TOL raises `NotPositiveSemidefiniteError`.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError(f"gram must be square, got shape {g.shape}")
    if not np.allclose(g, g.T, atol=1e-12):
        raise ValidationError("gram must be symmetric")
    if not np.allclose(np.diag(g), 1.0, atol=1e-12):
        raise ValidationError("gram must have unit diagonal")
    k = g.shape[0]
    L = np.zeros((k, k))
    for j in range(k):
        d = g[j, j] - L[j, :j] @ L[j, :j]
        if d < -PIVOT_TOL:
            raise NotPositiveSemidefiniteError(
                f"pivot {d:.3e} at index {j} below -{PIVOT_TOL:.0e}"
            )
        if d <= PIVOT_TOL:
            # rank-deficient direction: the whole column collapses
            L[j, j] = 0.0
            continue
        L[j, j] = math.sqrt(d)
        for i in range(j + 1, k):
            L[i, j] = (g[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return L


def sample_orthonormal_frame(n: int, k: int, rng: Rng | np.random.Generator) -> np.ndarray:
    """k orthonormal rows in R^n, rotation-invariant in distribution.

    Gaussian matrix followed by a sign-fixed QR; the Gaussian ensemble is
    invariant under right-multiplication by any orthogonal matrix and QR is
    equivariant, so the row frame carries the uniform (Haar) measure.
    """
    if k > n:
        raise DimensionError(f"cannot fit {k} orthonormal rows in R^{n}")
    if k < 1 or n < 1:
        raise ValidationError("n and k must be >= 1")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    gauss = gen.standard_normal((n, k))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    return q.T
