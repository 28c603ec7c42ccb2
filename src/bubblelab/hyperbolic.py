"""Hyperbolic-ball closed forms and Steklov residuals.

The hyperbolic-ball functions verify the eigenvalue picture behind the
solvability argument: the Cayley-transformed problem lives on a ball
of radius R = D - sqrt(D^2 - 1) with Steklov eigenvalues
mu_0 = 2R/(1+R^2) and mu_1 = (1+R^2)/(2R) = D.  Two candidate forms of
the hyperbolic operator and of the first eigenfunctions circulate;
`steklov_variants` measures all of them, and `verify-hyperbolic` checks
the two pairs the construction uses: the standard operator with phi0
and with the plain phi1.  Points have shape (..., n) and every result
holds one value per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Check

__all__ = ["HyperbolicPicture", "hyperbolic_picture", "steklov_residual",
           "steklov_variants"]


@dataclass(frozen=True)
class HyperbolicPicture:
    """Ball radius and Steklov eigenvalues attached to a scaling quantity D."""

    D: float
    R: float
    mu0: float
    mu1: float

    @property
    def gap(self):
        """1 - R^2 as 2R sqrt(D-1) sqrt(D+1), from 1 + R^2 = 2RD.

        Near D = 1, where R -> 1, the subtraction 1 - R^2 turns R's
        rounding eps into a relative error of about eps / sqrt(2(D-1));
        this form cancels nothing.
        """
        return 2.0 * self.R * math.sqrt(self.D - 1.0) \
            * math.sqrt(self.D + 1.0)


def hyperbolic_picture(D):
    """Closed forms R = D - sqrt(D^2-1), mu0 = 2R/(1+R^2), mu1 = (1+R^2)/(2R)."""
    D = float(D)
    if not 1.0 < D < math.inf:
        raise DomainError(f"hyperbolic picture needs a finite D > 1, got {D}")
    # D - sqrt(D^2-1) written without its cancellation at large D; the
    # split root keeps D^2 from overflowing
    R = 1.0 / (D + math.sqrt(D - 1.0) * math.sqrt(D + 1.0))
    mu0 = 2.0 * R / (1.0 + R * R)
    mu1 = (1.0 + R * R) / (2.0 * R) if R > 0.0 else math.inf
    if not abs(mu1 - D) <= 1e-12 * D:
        raise DomainError(f"mu1 = {mu1!r} does not reproduce D = {D!r}")
    return HyperbolicPicture(D=D, R=R, mu0=mu0, mu1=mu1)


def _eigenfunction(which, form, x, gap=None):
    """Value, Laplacian and radial derivative of a candidate at x (..., n).

    which = 0 is the ground mode (1+|x|^2)/(1-|x|^2).  which = (1, i)
    selects the i-th first mode (i is 1-based); ``form`` picks between
    the two circulating versions: "radial" carries the extra |x| factor
    (|x| x_i/(1-|x|^2)), "plain" does not (x_i/(1-|x|^2)).  The points
    must satisfy 0 < |x| < 1.  ``gap`` is 1 - |x|^2 when the caller
    knows it without cancellation; by default it is formed from x.
    """
    n = x.shape[-1]
    r2 = np.sum(x * x, axis=-1)
    r = np.sqrt(r2)
    f = 1.0 / ((1.0 - r2) if gap is None else gap)
    if which == 0:
        val = (1.0 + r2) * f
        lap = 4.0 * n * f * f + 16.0 * r2 * f ** 3
        dr = 4.0 * r * f * f
        return val, lap, dr
    xi = x[..., which[1] - 1]
    if form == "plain":
        val = xi * f
        lap = xi * f ** 3 * (2.0 * n + 4.0 + (4.0 - 2.0 * n) * r2)
        dr = (1.0 + r2) * f * f * xi / r
    else:   # the radially weighted form, with the extra |x| factor
        val = r * xi * f
        lap = xi * ((n + 1.0) * f / r + (2.0 * n + 8.0) * r * f * f
                    + 8.0 * r ** 3 * f ** 3)
        dr = 2.0 * f * f * xi
    return val, lap, dr


def steklov_residual(hp, which, x, operator="standard", form="plain"):
    """(interior, boundary) residuals of a candidate Steklov eigenpair.

    Interior: Delta_H phi - n phi at the points x (..., n), with the
    operator either the standard Poincare-ball form ("standard":
    (1-|x|^2)^2/4 Delta + (n-2)(1-|x|^2)/2 x.grad) or the circulating
    variant whose drift term carries no conformal factor ("flat-drift":
    same second-order part, first-order coefficient (n-2)/2).  Boundary:
    the Steklov condition ((1-|x|^2)/2) d(phi)/dr - mu phi evaluated at
    the radial projection of x onto |x| = R, with mu = mu0 or mu1 as
    appropriate and with 1 - R^2 taken from `HyperbolicPicture.gap`, both
    in the coefficient and in phi.  Both hold one value per point.
    Raises DomainError for an unknown operator or form, a first-mode
    index outside 1..n, or a point outside 0 < |x| < 1.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if operator not in ("standard", "flat-drift"):
        raise DomainError(f"unknown operator variant {operator!r}")
    if form not in ("plain", "radial"):
        raise DomainError(f"unknown eigenfunction form {form!r}")
    if which != 0 and which not in [(1, i) for i in range(1, n + 1)]:
        raise DomainError(f"mode must be 0 or (1, i) with i in 1..{n}, "
                          f"got {which!r}")
    r2 = np.sum(x * x, axis=-1)
    if not np.all((r2 > 0.0) & (r2 < 1.0)):
        raise DomainError("steklov residual needs points with 0 < |x| < 1")
    r = np.sqrt(r2)
    val, lap, dr = _eigenfunction(which, form, x)
    # each candidate is radial times at most one coordinate, so
    # x.grad(phi) = |x| d(phi)/d|x|
    drift = 0.5 * (n - 2.0) * r * dr
    if operator == "standard":
        drift = drift * (1.0 - r2)
    interior = 0.25 * (1.0 - r2) ** 2 * lap + drift - n * val

    gap = hp.gap
    valb, _, drb = _eigenfunction(which, form, x * (hp.R / r)[..., None],
                                  gap)
    mu = hp.mu0 if which == 0 else hp.mu1
    boundary = 0.5 * gap * drb - mu * valb
    return interior, boundary


# the residual below which an operator/eigenfunction pair annihilates
STEKLOV_TOL = 1e-10


def steklov_variants(hp, n, seed=0):
    """Measure every operator/eigenfunction combination; report, don't guess.

    Returns a dict of Check rows keyed by (operator, candidate), one per
    combination in measuring order.  A row's value is the larger of the
    interior and boundary residuals at 25 random points of the ball, NaN
    if either is, and the row passes when that is at most STEKLOV_TOL:
    where the combination annihilates.
    """
    rng = np.random.default_rng(seed)

    def draw():
        v = rng.normal(size=n)
        return v * (rng.uniform(0.05, 0.95) * hp.R / np.linalg.norm(v))

    pts = np.array([draw() for _ in range(25)])
    candidates = [("phi0", 0, "plain"),
                  ("phi1-radial", (1, 1), "radial"),
                  ("phi1-plain", (1, 1), "plain")]
    rows = {}
    for operator in ("flat-drift", "standard"):
        for label, which, form in candidates:
            ri, rb = steklov_residual(hp, which, pts, operator=operator,
                                      form=form)
            worst_i = float(np.max(np.abs(ri)))
            worst_b = float(np.max(np.abs(rb)))
            worst = float(np.max([worst_i, worst_b]))
            rows[operator, label] = Check(
                f"{operator} operator + {label}", worst, STEKLOV_TOL,
                detail=f"interior {worst_i:.3e}, boundary {worst_b:.3e}")
    return rows
