"""The structured-data ensemble: multiplets with fixed overlaps.

Data points come in groups ("multiplets") of k points on the unit sphere
S^{n-1} whose pairwise scalar products are pinned to a k x k overlap (Gram)
matrix, the same for every group.  A dichotomy is *admissible* when it is
constant on every multiplet.  This module owns the ensemble definition,
sampling of multiplets under the flat rotation-invariant measure, the
half-space agreement probabilities psi_m, and the counting-recursion
coefficients theta built from them.

k=1 is the classical unstructured ensemble (Cover), recovered for any k in
the degenerate limit where all overlaps equal 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InsufficientConditioningError,
    UnsupportedStructureError,
    ValidationError,
)
from .numerics import Rng, sample_orthonormal_frames
from .numerics import sample_orthonormal_frame  # noqa: F401  (a traced name of bench/spans.py)

# Pivots within _PIVOT_TOL of zero are zero, so rank-deficient overlaps such
# as the coincident pair rho=1 factor cleanly; a lower pivot is indefinite.
_PIVOT_TOL = 1e-10
# A zero pivot's column must vanish to within _COLUMN_TOL, or the overlap
# matrix is indefinite.
_COLUMN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StructureSpec:
    """Multiplet size k and the fixed k x k overlap matrix.

    The overlap matrix must be symmetric, have unit diagonal, and be
    positive semidefinite (degenerate matrices such as the coincident pair
    rho=1 are allowed).  k=1 carries the trivial 1x1 matrix.  Positive
    semidefiniteness is checked by the Cholesky factorization that
    multiplet sampling uses (`_semidefinite_cholesky`): a pivot below
    -1e-10 is refused, and a pivot within 1e-10 of zero is accepted only if
    its column vanishes to 1e-9.
    """

    k: int
    gram: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"multiplet size must be >= 1, got {self.k}")
        g = self.gram
        if g is None:
            g = np.eye(self.k)
        g = np.array(g, dtype=float)
        if g.shape != (self.k, self.k):
            raise ValidationError(
                f"gram shape {g.shape} does not match multiplet size {self.k}"
            )
        if not np.allclose(g, g.T, atol=1e-12):
            raise ValidationError("gram must be symmetric")
        if not np.allclose(np.diag(g), 1.0, atol=1e-12):
            raise ValidationError("gram must have unit diagonal")
        if np.any(np.abs(g) > 1 + 1e-12):
            raise ValidationError("overlaps must lie in [-1, 1]")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        # the positive-semidefiniteness check, cached for multiplet sampling
        object.__setattr__(self, "_chol", _semidefinite_cholesky(g))

    @classmethod
    def unstructured(cls) -> "StructureSpec":
        return cls(k=1)

    @classmethod
    def pairs(cls, rho: float) -> "StructureSpec":
        """Uniform pair ensemble: k=2 with a single overlap rho."""
        return cls.equicorrelated(2, rho)

    @classmethod
    def equicorrelated(cls, k: int, rho: float) -> "StructureSpec":
        """All off-diagonal overlaps equal to rho."""
        if abs(rho) > 1:
            raise DomainError(f"overlap must lie in [-1, 1], got {rho}")
        g = np.full((k, k), float(rho))
        np.fill_diagonal(g, 1.0)
        return cls(k=k, gram=g)

    @property
    def pair_overlap(self) -> float:
        """The single off-diagonal overlap of a pair spec (k=2 only)."""
        if self.k != 2:
            raise ValidationError("pair_overlap is defined for k=2 only")
        return float(self.gram[0, 1])

    def to_json(self) -> dict:
        return {"k": self.k, "gram": [[float(v) for v in row] for row in self.gram]}

    @classmethod
    def from_json(cls, obj: dict | str) -> "StructureSpec":
        """Parse {"k": int, "gram": [[...]]}; {"k": k, "rho": r} is shorthand
        for the equicorrelated ensemble."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or "k" not in obj:
            raise ValidationError("structure spec must be an object with field 'k'")
        k = int(obj["k"])
        if "gram" in obj:
            return cls(k=k, gram=np.array(obj["gram"], dtype=float))
        if "rho" in obj:
            return cls.equicorrelated(k, float(obj["rho"]))
        if k == 1:
            return cls.unstructured()
        raise ValidationError("structure spec needs either 'gram' or 'rho' for k > 1")


def _semidefinite_cholesky(g: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == g for a symmetric semidefinite g;
    `ValidationError` when g is indefinite.

    A pivot within _PIVOT_TOL of zero marks a rank-deficient direction: its
    column collapses to zero, which is only consistent when the residual
    column vanishes too.
    """
    k = g.shape[0]
    L = np.zeros((k, k))
    for j in range(k):
        d = g[j, j] - L[j, :j] @ L[j, :j]
        if d < -_PIVOT_TOL:
            raise ValidationError(
                f"gram is not positive semidefinite (pivot {d:.3e} at index {j})"
            )
        if d <= _PIVOT_TOL:
            for i in range(j + 1, k):
                rest = g[i, j] - L[i, :j] @ L[j, :j]
                if abs(rest) > _COLUMN_TOL:
                    raise ValidationError(
                        f"gram is not positive semidefinite (zero pivot at index {j}, "
                        f"column entry {rest:.3e} at row {i})"
                    )
            continue
        L[j, j] = math.sqrt(d)
        for i in range(j + 1, k):
            L[i, j] = (g[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return L


@dataclass(frozen=True)
class PsiVector:
    """Half-space agreement probabilities psi_2..psi_k with standard errors.

    psi_m is the probability that a uniform random half-space through the
    origin keeps the m-th point of a multiplet subset on the side already
    shared by the other m-1 points.  Analytic entries carry zero error.
    """

    values: tuple[float, ...]
    errors: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.errors):
            raise ValidationError("values and errors must have matching lengths")
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"psi values must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class ThetaCoefficients:
    """Weights theta_0..theta_k of the admissible-count recursion.

    They always sum to 2 so that the full-expressivity count 2^p is a fixed
    point of the recursion in the regime n >> kp.
    """

    k: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if len(self.theta) != self.k + 1:
            raise ValidationError(
                f"expected {self.k + 1} coefficients for k={self.k}, got {len(self.theta)}"
            )
        if any(t < 0 for t in self.theta):
            raise ValidationError("recursion coefficients must be nonnegative")


def psi2(rho: float) -> float:
    """Probability that a random half-space keeps a fixed-overlap pair together.

    Evaluated in the arctan form 2/pi * atan(sqrt((1+rho)/(1-rho))); the
    arcsin form 1/2 + asin(rho)/pi is algebraically identical and is used
    elsewhere (annealed thresholds) as an independent cross-check.
    """
    if abs(rho) > 1:
        raise DomainError(f"overlap must lie in [-1, 1], got {rho}")
    if rho == 1.0:
        return 1.0
    return 2.0 / math.pi * math.atan(math.sqrt((1.0 + rho) / (1.0 - rho)))


def theta_coefficients(spec: StructureSpec) -> ThetaCoefficients:
    """Analytic recursion coefficients (k=1 and k=2 only).

    k=1 gives Cover's recursion (1, 1).  For pairs, theta_0 = psi_2(rho) and
    theta_1 = 1; theta_2 = 1 - psi_2(rho) is fixed by the sum rule
    sum theta = 2 and validated against brute-force counting in the tests.
    Larger multiplets have no closed form here: count them by Monte Carlo
    (`vclab.montecarlo.estimate_mean_count`).
    """
    if spec.k == 1:
        return ThetaCoefficients(k=1, theta=(1.0, 1.0))
    if spec.k == 2:
        p2 = psi2(spec.pair_overlap)
        return ThetaCoefficients(k=2, theta=(p2, 1.0, 1.0 - p2))
    raise UnsupportedStructureError(
        f"no analytic recursion coefficients for k={spec.k}; "
        "use Monte Carlo counting (vclab.montecarlo) instead"
    )


def sample_multiplet(
    spec: StructureSpec, n: int, rng: Rng | np.random.Generator
) -> np.ndarray:
    """One multiplet: k unit vectors in R^n with the prescribed overlaps, as
    a (k, n) array; one multiplet of `sample_multiplets`."""
    return sample_multiplets(spec, n, 1, rng)[0]


def sample_multiplets(
    spec: StructureSpec, n: int, count: int, rng: Rng | np.random.Generator
) -> np.ndarray:
    """``count`` multiplets as one (count, k, n) array, from one stacked
    frame draw: bit-identical to ``count`` `sample_multiplet` calls in a row
    on the same generator.

    The Cholesky template of the overlap matrix is rotated by a uniform
    random orthonormal frame, which realizes the flat measure conditioned on
    the overlap constraints.
    """
    if n < spec.k:
        raise DimensionError(f"need n >= k, got n={n}, k={spec.k}")
    return spec._chol @ sample_orthonormal_frames(n, spec.k, count, rng)


def psi_m_estimate(
    spec: StructureSpec,
    m: int,
    n: int,
    samples: int,
    rng: Rng | np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of psi_m with its standard error.

    Draws one multiplet, then ``samples`` independent random directions w;
    each sample also draws a uniform size-m subset with a distinguished
    point (the symmetrization average).  The estimate is the ratio of
    same-sign frequencies:

        (# all m scalar products share a sign) / (# the other m-1 share a sign)

    which is the conditional agreement probability; the +/- orientations of
    w are pooled, so a coincident pair (rho=1) yields exactly 1 sample by
    sample.  The standard error is the binomial error of the conditional
    ratio.  Only the overlap matrix enters the statistics (the sign pattern
    of w against a multiplet is rotation invariant), so a single multiplet
    realization loses nothing.
    """
    if not 2 <= m <= spec.k:
        raise ValidationError(f"need 2 <= m <= k, got m={m}, k={spec.k}")
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    gen = rng.generator() if isinstance(rng, Rng) else rng
    points = sample_multiplet(spec, n, gen)  # (k, n)
    w = gen.standard_normal((samples, n))  # direction only enters through signs
    dots = w @ points.T  # (samples, k)
    if m == spec.k:
        sub = dots
        star = gen.integers(0, m, size=samples)
    else:
        order = np.tile(np.arange(spec.k), (samples, 1))
        order = gen.permuted(order, axis=1)[:, :m]
        sub = np.take_along_axis(dots, order, axis=1)
        star = np.zeros(samples, dtype=int)  # first slot of a random permutation
    pos = sub > 0
    neg = sub < 0
    npos = pos.sum(axis=1)
    nneg = neg.sum(axis=1)
    all_same = (npos == m) | (nneg == m)
    # conditioning: the m-1 points other than the distinguished one agree
    star_pos = np.take_along_axis(pos, star[:, None], axis=1)[:, 0]
    star_neg = np.take_along_axis(neg, star[:, None], axis=1)[:, 0]
    rest_same = ((npos - star_pos) == m - 1) | ((nneg - star_neg) == m - 1)
    b = int(rest_same.sum())
    if b == 0:
        raise InsufficientConditioningError(
            f"conditioning event never occurred in {samples} samples"
        )
    a = int((all_same & rest_same).sum())
    est = a / b
    stderr = math.sqrt(est * (1.0 - est) / b)
    return est, stderr


def psi_vector(
    spec: StructureSpec,
    n: int,
    samples: int,
    rng: Rng | np.random.Generator,
) -> PsiVector:
    """psi_2..psi_k for a spec: analytic psi_2, Monte Carlo above.

    psi_2 averages the pairwise closed form over the k(k-1)/2 overlaps
    (the subset symmetrization); entries for m >= 3 come from
    `psi_m_estimate` with the supplied sampling budget.
    """
    if spec.k < 2:
        return PsiVector(values=(), errors=())
    pair_vals = [psi2(spec.gram[a, b]) for a, b in combinations(range(spec.k), 2)]
    values = [float(np.mean(pair_vals))]
    errors = [0.0]
    gen = rng.generator() if isinstance(rng, Rng) else rng
    for m in range(3, spec.k + 1):
        est, err = psi_m_estimate(spec, m, n, samples, gen)
        values.append(est)
        errors.append(err)
    return PsiVector(values=tuple(values), errors=tuple(errors))
