"""Shared elementary numerics.

The small amount of machinery the rest of the package needs with
non-standard semantics: reproducible counter-style random streams,
bisection on a bracket and Haar-random orthonormal frames, one at a time
or stacked.  Special functions come straight from :mod:`math`.

Counts are kept in natural-log domain throughout the package; ``-inf``
encodes an exact zero count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DimensionError, ValidationError

NEG_INF = float("-inf")


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


def sample_orthonormal_frame(n: int, k: int, rng: Rng | np.random.Generator) -> np.ndarray:
    """k orthonormal rows in R^n, rotation-invariant in distribution: one
    frame of `sample_orthonormal_frames`."""
    return sample_orthonormal_frames(n, k, 1, rng)[0]


def sample_orthonormal_frames(
    n: int, k: int, count: int, rng: Rng | np.random.Generator
) -> np.ndarray:
    """``count`` independent (k, n) frames of k orthonormal rows in R^n, as
    one (count, k, n) array drawn in one go: bit-identical to ``count``
    `sample_orthonormal_frame` calls in a row on the same generator.

    Gaussian matrices followed by a sign-fixed QR; the Gaussian ensemble is
    invariant under right-multiplication by any orthogonal matrix and QR is
    equivariant, so each row frame carries the uniform (Haar) measure.
    """
    if k > n:
        raise DimensionError(f"cannot fit {k} orthonormal rows in R^{n}")
    if k < 1 or n < 1:
        raise ValidationError("n and k must be >= 1")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    gauss = gen.standard_normal((count, n, k))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q.transpose(0, 2, 1)
