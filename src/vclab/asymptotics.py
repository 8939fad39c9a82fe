"""Large-size asymptotics of the admissible-dichotomy count.

The generating function of the count in the group number p is rational
with a dominant pole at z0 = 1/theta_0 of order n, which pins the
large-p/large-n behavior down to

    C(alpha; n) = 2 * Gamma(alpha*n + n) / (Gamma(n) * Gamma(alpha*n + 1))
                  * theta_1^(n-1) * theta_0^((alpha-1)*n)

as a function of the load alpha = p/n.  Only the first two recursion
coefficients survive in this regime.  The entropy log C(alpha; n) grows
with n below a critical load and shrinks above it; the critical load
solves a tradeoff between a combinatorial entropy term S(alpha) and the
structure-dependent log theta_0 penalty, and is the larger root of

    S(alpha) + (alpha - 1) * log(theta_0) + log(theta_1) = 0,
    S(alpha) = (alpha + 1) log(alpha + 1) - alpha log(alpha).

Annealed averages of the label-integrated solution volume give closed-form
lower-bound thresholds for the pair ensemble and for margin classification
of unstructured data.  Near the critical load the count obeys a scaling
form n^{-beta/nu} F(alpha_hat * n^{1/nu}) with beta = 1/2 and nu = 1, that
is n^{-beta} F(alpha_hat * n), which `fss_rescale` uses to collapse finite-n
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, NoTransitionError, ValidationError
from .numerics import bisect_root

LOG_2PI = math.log(2.0 * math.pi)

METHOD_COMBINATORIAL = "combinatorial"
METHOD_ANNEALED_PAIRS = "annealed-pairs"
METHOD_ANNEALED_MARGIN = "annealed-margin"
METHOD_CROSSING = "crossing-numeric"
METHOD_MC_FIT = "montecarlo-fit"


@dataclass(frozen=True)
class TransitionResult:
    """A critical load with its provenance and bracketing diagnostics."""

    alpha_star: float
    method: str
    bracket: tuple[float, float]
    residual: float

    def __post_init__(self):
        if not self.alpha_star > 0:
            raise ValidationError(f"critical load must be positive, got {self.alpha_star}")

    def to_json(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "method": self.method,
            "bracket": list(self.bracket),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class AsymptoticForm:
    """Dominant-pole data of the count's generating function at fixed n.

    Pole at z0 = 1/theta_0 of order r = n with finite part
    R = 2 * theta_1^(n-1) * theta_0^(-2n); the induced large-p count is
    R * z0^(-(p+r)) * binom(p+r-1, r-1).  Algebraically identical to
    `asymptotic_log_count`; kept as an independent evaluation route.
    """

    theta0: float
    theta1: float
    n: int

    def __post_init__(self):
        if not (0 < self.theta0 <= 1 and self.theta1 > 0):
            raise ValidationError(
                f"need theta0 in (0, 1] and theta1 > 0, got {self.theta0}, {self.theta1}"
            )
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.n}")

    @property
    def pole_location(self) -> float:
        return 1.0 / self.theta0

    @property
    def pole_order(self) -> int:
        return self.n

    @property
    def log_finite_part(self) -> float:
        return (
            math.log(2.0)
            + (self.n - 1) * math.log(self.theta1)
            - 2 * self.n * math.log(self.theta0)
        )

    def log_count(self, p: float) -> float:
        """log of R * z0^(-(p+r)) * binom(p+r-1, r-1) at real-valued p."""
        r = self.pole_order
        log_binom = math.lgamma(p + r) - math.lgamma(r) - math.lgamma(p + 1)
        return self.log_finite_part - (p + r) * math.log(self.pole_location) + log_binom


def asymptotic_log_count(alpha: float, n: int, theta0: float, theta1: float) -> float:
    """log C(alpha; n) from the Gamma-function form.

    p = alpha*n is treated as a real number (the continuum form); theta_0
    must lie in (0, 1] and theta_1 must be positive.
    """
    if alpha <= 0:
        raise DomainError(f"load must be positive, got {alpha}")
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if not (0 < theta0 <= 1 and theta1 > 0):
        raise DomainError(f"need theta0 in (0, 1] and theta1 > 0, got {theta0}, {theta1}")
    an = alpha * n
    return (
        math.log(2.0)
        + math.lgamma(an + n)
        - math.lgamma(n)
        - math.lgamma(an + 1.0)
        + (n - 1) * math.log(theta1)
        + (alpha - 1.0) * n * math.log(theta0)
    )


def entropic_term(alpha: float) -> float:
    """S(alpha) = (alpha+1)log(alpha+1) - alpha*log(alpha); S(0+) = 0."""
    if alpha < 0:
        raise DomainError(f"load must be nonnegative, got {alpha}")
    if alpha == 0.0:
        return 0.0
    return (alpha + 1.0) * math.log(alpha + 1.0) - alpha * math.log(alpha)


def _transition_fn(theta0: float, theta1: float):
    logt0 = math.log(theta0)
    logt1 = math.log(theta1)

    def f(alpha: float) -> float:
        return entropic_term(alpha) + (alpha - 1.0) * logt0 + logt1

    return f


def transition_load(theta0: float, theta1: float = 1.0) -> TransitionResult:
    """Critical load where the asymptotic entropy is stationary in n.

    Solves S(alpha) + (alpha-1)log(theta_0) + log(theta_1) = 0.  The
    derivative log(1 + 1/alpha) + log(theta_0) vanishes at
    alpha_peak = theta_0/(1 - theta_0) and the function decreases beyond it,
    so bracketing [alpha_peak, hi] with hi doubled until the sign flips is
    guaranteed to isolate the larger root, which is the critical load.  (A
    smaller root below alpha_peak exists when theta_1 < theta_0; it is never
    the critical load.)

    Raises `NoTransitionError` for theta_0 = 1 (the unstructured limit,
    where the critical load diverges) and when the function never becomes
    positive.
    """
    if not 0 < theta0 <= 1:
        raise DomainError(f"theta0 must lie in (0, 1], got {theta0}")
    if theta1 <= 0:
        raise DomainError(f"theta1 must be positive, got {theta1}")
    if theta0 == 1.0:
        raise NoTransitionError(
            "theta0 = 1: entropy grows at every load, no finite critical point"
        )
    f = _transition_fn(theta0, theta1)
    alpha_peak = theta0 / (1.0 - theta0)
    if f(alpha_peak) <= 0.0:
        raise NoTransitionError(
            f"no positive entropy window: peak value {f(alpha_peak):.3e} <= 0"
        )
    hi = max(2.0 * alpha_peak, 1.0)
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NoTransitionError("larger root not found below alpha = 1e12")
    alpha_star = bisect_root(f, alpha_peak, hi, tol=1e-12)
    # bisection stopped at bracket width <= 1e-12, so the root is enclosed here
    return TransitionResult(
        alpha_star=alpha_star,
        method=METHOD_COMBINATORIAL,
        bracket=(alpha_star - 1e-12, alpha_star + 1e-12),
        residual=abs(f(alpha_star)),
    )


def annealed_threshold_pairs(rho: float) -> TransitionResult:
    """Annealed critical load for pairs: -(log 2pi + 1) / (2 log(1/2 + asin(rho)/pi)).

    Lower bound to the combinatorial critical load; diverges as rho -> 1
    (`DivergenceError`).  Uses the arcsin form of the pair agreement
    probability, independent of `vclab.structure.psi2`'s arctan form.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"overlap must lie in [-1, 1], got {rho}")
    if rho >= 1.0:
        raise DivergenceError("annealed pair threshold diverges at rho = 1")
    half_plus = 0.5 + math.asin(rho) / math.pi
    if half_plus <= 0.0:
        raise NoTransitionError("annealed pair threshold vanishes at rho = -1")
    alpha = -(LOG_2PI + 1.0) / (2.0 * math.log(half_plus))
    return TransitionResult(
        alpha_star=alpha,
        method=METHOD_ANNEALED_PAIRS,
        bracket=(alpha, alpha),
        residual=0.0,
    )


def annealed_threshold_margin(kappa: float) -> TransitionResult:
    """Annealed critical load for margin classification of unstructured data:
    -(log 2pi + 1) / (2 log erfc(kappa)).

    Monotone decreasing in the margin; diverges as kappa -> 0+
    (`DivergenceError`) and vanishes as kappa -> infinity.
    """
    if kappa <= 0.0:
        raise DivergenceError("margin threshold diverges at kappa = 0")
    e = math.erfc(kappa)
    if e <= 0.0:
        raise DomainError(f"erfc underflowed to zero at kappa = {kappa}")
    alpha = -(LOG_2PI + 1.0) / (2.0 * math.log(e))
    return TransitionResult(
        alpha_star=alpha,
        method=METHOD_ANNEALED_MARGIN,
        bracket=(alpha, alpha),
        residual=0.0,
    )


@dataclass(frozen=True)
class FssResult:
    """Rescaled curve points (n, x, log y) and the collapse-quality score."""

    points: tuple[tuple[int, float, float], ...]
    collapse_score: float


def fss_rescale(
    curve: list[tuple[int, float, float]], alpha_star: float, beta: float = 0.5
) -> FssResult:
    """Apply the critical rescaling to (n, alpha, log_count) points:
    x = alpha_hat * n and log y = beta log n + log C, with the reduced load
    alpha_hat = (alpha - alpha_star)/alpha_star.

    The horizontal scale n^(1/nu) takes this transition's nu = 1; beta
    defaults to its critical value 1/2, and beta = 0 turns the vertical
    rescaling off (control curve).

    The collapse score is the mean squared vertical distance between the
    linearly-interpolated rescaled curves of different n, evaluated at each
    curve's own x-values restricted to the common x-range, averaged over
    all ordered pairs of dimensions.  Perfectly collapsing curves score 0.
    """
    if not curve:
        raise ValidationError("fss_rescale needs at least one curve point")
    if not alpha_star > 0:
        raise ValidationError("alpha_star must be positive")
    for _, _, log_count in curve:
        if not math.isfinite(log_count):
            raise ValidationError("fss_rescale requires finite log counts")
    points = tuple(
        (n, (alpha - alpha_star) / alpha_star * n, beta * math.log(n) + log_count)
        for n, alpha, log_count in curve
    )
    by_n: dict[int, list[tuple[float, float]]] = {}
    for n, x, y in points:
        by_n.setdefault(n, []).append((x, y))
    curves = {}
    for n, pts in by_n.items():
        pts.sort()
        curves[n] = (np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
    score = _collapse_score(curves)
    return FssResult(points=points, collapse_score=score)


def _collapse_score(curves: dict[int, tuple[np.ndarray, np.ndarray]]) -> float:
    ns = sorted(curves)
    sq_sum = 0.0
    count = 0
    for i, na in enumerate(ns):
        xa, ya = curves[na]
        for nb in ns[i + 1 :]:
            xb, yb = curves[nb]
            lo = max(xa.min(), xb.min())
            hi = min(xa.max(), xb.max())
            if hi <= lo:
                continue
            for xs, ys, xo, yo in ((xa, ya, xb, yb), (xb, yb, xa, ya)):
                mask = (xs >= lo) & (xs <= hi)
                if not mask.any():
                    continue
                interp = np.interp(xs[mask], xo, yo)
                sq_sum += float(((ys[mask] - interp) ** 2).sum())
                count += int(mask.sum())
    return sq_sum / count if count else float("nan")
