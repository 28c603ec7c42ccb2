"""The normalized bubble, its Jacobi fields, and the closed-form energy.

The model solution on the half-space is

    U(x) = C * w(x)^{-(n-2)/2},   w(x) = |x - x0|^2 - 1,

with C = alpha_n / |K|^{(n-2)/4} and x0 = (0, -D); D > 1 keeps w
strictly positive up to the boundary.  This is the member of the bubble
family at unit scale and centred at the origin: the depth enters the
reduced energy analytically, and the Jacobi fields stand for the
family's tangent directions.  Everything here is a rational function of
x, so all derivatives are analytic — finite differences appear only in
tests.  Residuals of the model problem

    -c_n Lap U = K U^{(n+2)/(n-2)}        in the half-space,
    (2/(n-2)) dU/dnu = H U^{n/(n-2)}      on x_n = 0,  nu = -e_n,

and of its linearization vanish identically; evaluating them measures
pure floating-point cancellation, which is the point of the test suite.

Every pointwise function here takes points of shape (..., n) and
returns one value per point (a vector for gradients, a matrix for the
Hessian); `Bubble.grad_U_sq_w` takes the values of w instead.  The
residuals return (interior, boundary): one value per point, and one per
point on x_n = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .errors import DomainError
from .model import ProblemPoint


def alpha_n(n):
    """Normalization constant (4n(n-1))^{(n-2)/4}."""
    return (4.0 * n * (n - 1.0)) ** ((n - 2.0) / 4.0)


def c_n(n):
    """Conformal-Laplacian coefficient 4(n-1)/(n-2)."""
    return 4.0 * (n - 1.0) / (n - 2.0)


def crit_interior(n):
    """Critical interior exponent 2n/(n-2)."""
    return 2.0 * n / (n - 2.0)


def crit_boundary(n):
    """Critical boundary-trace exponent 2(n-1)/(n-2)."""
    return 2.0 * (n - 1.0) / (n - 2.0)


@dataclass(frozen=True)
class Bubble:
    """The normalized bubble over a ProblemPoint."""

    pt: ProblemPoint

    def __post_init__(self):
        if not 1.0 < self.pt.D < math.inf:
            raise DomainError(f"bubble family needs a finite D > 1, "
                              f"got D = {self.pt.D:.6g}")

    # -- basic scalars -----------------------------------------------------
    @property
    def n(self):
        return self.pt.n

    @property
    def C(self):
        """Amplitude alpha_n / |K|^{(n-2)/4}."""
        n = self.n
        return alpha_n(n) / abs(self.pt.K) ** ((n - 2.0) / 4.0)

    @property
    def q(self):
        """Profile exponent (n-2)/2."""
        return 0.5 * (self.n - 2.0)

    @property
    def x0(self):
        """Center of the defining sphere: (0, -D)."""
        out = np.zeros(self.n)
        out[-1] = -self.pt.D
        return out

    # -- pointwise evaluation (x has shape (..., n)) ------------------------
    def w(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        d *= d      # in place: the energy oracle calls this on big batches
        wv = d.sum(axis=-1)
        wv -= 1.0
        return wv

    def U(self, x):
        return self.C * self.w(x) ** (-self.q)

    def grad_U(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        wv = np.sum(d * d, axis=-1) - 1.0
        coef = -2.0 * self.q * self.C * wv ** (-self.q - 1.0)
        return coef[..., None] * d

    def grad_U_sq_w(self, wv):
        """|grad U|^2 from w alone, with no n-vector.

        grad U = coef (x - x0), coef = -2q C w^{-q-1}, and
        |x - x0|^2 = w + 1, so |grad U|^2 = coef^2 (w + 1).  It is formed
        as coef * (coef * (w + 1)): the inner product lies in the range of
        U and the outer one in that of |grad U|^2, so no intermediate
        underflows where the components of `grad_U` squared would not
        (coef^2 alone does, at D = 1e12 and n = 12).
        """
        coef = 2.0 * self.q * self.C * wv ** (-self.q - 1.0)
        return coef * (coef * (wv + 1.0))

    def hess_U(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        wv = np.sum(d * d, axis=-1) - 1.0
        q = self.q
        a = -2.0 * q * self.C * wv ** (-q - 1.0)
        bcoef = 4.0 * q * (q + 1.0) * self.C * wv ** (-q - 2.0)
        return a[..., None, None] * np.eye(self.n) \
            + bcoef[..., None, None] * (d[..., :, None] * d[..., None, :])

    def laplacian_U(self, x):
        wv = self.w(x)
        n, q = self.n, self.q
        return n * (n - 2.0) * self.C * wv ** (-q - 2.0)

    # -- radial-slice helpers used by the corrector grids --------------------
    def w_rx(self, r, xn):
        """w along the slice x = (r e_1, x_n)."""
        r = np.asarray(r, dtype=float)
        xn = np.asarray(xn, dtype=float)
        return r * r + (xn + self.pt.D) ** 2 - 1.0

    def U_rx(self, r, xn):
        return self.C * self.w_rx(r, xn) ** (-self.q)


def _closed_half_space(x):
    """x as a float array of points (..., n); DomainError if any x_n < 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x[..., -1] < 0.0):
        raise DomainError(f"x_n must be >= 0, got {np.min(x[..., -1])}")
    return x


def _relative(u, v, floor=0.0):
    """|u - v| over the larger of |u|, |v| and ``floor``, pointwise."""
    return abs(u - v) / np.maximum(np.maximum(abs(u), abs(v)), floor)


def residual_model(b, x):
    """Relative residuals of the model problem at the points x (..., n).

    Returns (interior, boundary): interior holds one residual per point;
    boundary holds one per point with x_n = 0, in order (empty if there
    is none).  Each residual is divided by the larger of its two
    constituent terms.
    """
    x = _closed_half_space(x)
    n = b.n
    K = b.pt.K
    t1 = -c_n(n) * b.laplacian_U(x)
    t2 = K * b.U(x) ** (crit_interior(n) - 1.0)
    interior = _relative(t1, t2)
    xb = x[x[..., -1] == 0.0]
    s1 = (2.0 / (n - 2.0)) * (-b.grad_U(xb)[..., -1])   # outward normal -e_n
    s2 = b.pt.H * b.U(xb) ** (crit_boundary(n) - 1.0)
    return interior, _relative(s1, s2)


# ---------------------------------------------------------------------------
# Jacobi fields of the linearized problem


def check_field_index(n, i):
    """DomainError unless the kernel field index i lies in 1..n."""
    if not 1 <= i <= n:
        raise DomainError(f"jacobi index must be in 1..{n}, got {i}")


def jacobi(b, i, x):
    """Kernel element j_i at x, i in 1..n (1-based, i=n is the radial one).

    j_i = (2-n) C x_i w^{-n/2}            for i < n,
    j_n = C (n-2)/2 (|x|^2 + 1 - D^2) w^{-n/2}.
    """
    x = np.asarray(x, dtype=float)
    n = b.n
    check_field_index(n, i)
    wv = b.w(x)
    s = 0.5 * n
    if i < n:
        return (2.0 - n) * b.C * x[..., i - 1] * wv ** (-s)
    phi = np.sum(x * x, axis=-1) + 1.0 - b.pt.D ** 2
    return 0.5 * (n - 2.0) * b.C * phi * wv ** (-s)


def jacobi_grad(b, i, x):
    x = np.asarray(x, dtype=float)
    n = b.n
    check_field_index(n, i)
    s = 0.5 * n
    d = x - b.x0
    wv = b.w(x)[..., None]
    if i < n:
        A = (2.0 - n) * b.C
        g = -2.0 * s * x[..., i - 1:i] * wv ** (-s - 1.0) * d
        g[..., i - 1] += wv[..., 0] ** (-s)
        return A * g
    B = 0.5 * (n - 2.0) * b.C
    phi = np.sum(x * x, axis=-1, keepdims=True) + 1.0 - b.pt.D ** 2
    return B * (2.0 * x * wv ** (-s) - 2.0 * s * phi * wv ** (-s - 1.0) * d)


def jacobi_laplacian(b, i, x):
    """Analytic Laplacian of j_i, in the form where nothing cancels.

    With s = n/2, Lap(w^-s) = 4s w^{-s-1} + 4s(s+1) w^{-s-2}, because
    |x - x0|^2 = w + 1.  In the product rule for x_i w^-s the w^{-s-1}
    part of x_i Lap(w^-s) cancels 2 d_i(w^-s) identically, and for
    phi w^-s (phi = |x|^2 + 1 - D^2, x.(x - x0) = (w + phi)/2) the
    w^-s and w^{-s-1} parts cancel as well.  What is left is

        Lap j_i = (2-n) C 4s(s+1) x_i w^{-s-2}        for i < n,
        Lap j_n = (n-2)/2 C 4s(s+1) phi w^{-s-2},

    about D^2 times smaller than the terms that cancel, which would
    leave a rounding error of eps D^2 relative.
    """
    x = np.asarray(x, dtype=float)
    n = b.n
    check_field_index(n, i)
    s = 0.5 * n
    scale = 4.0 * s * (s + 1.0) * b.C * b.w(x) ** (-s - 2.0)
    if i < n:
        return (2.0 - n) * scale * x[..., i - 1]
    phi = np.sum(x * x, axis=-1) + 1.0 - b.pt.D ** 2
    return 0.5 * (n - 2.0) * scale * phi


def residual_linearized(b, i, x):
    """Relative residuals of the linearized problem for kernel element j_i.

    Interior: -c_n Lap j + (2*-1)|K| U^{4/(n-2)} j; boundary (x_n = 0):
    (2/(n-2)) dj/dnu - (n/(n-2)) H U^{2/(n-2)} j.  Points and the
    returned (interior, boundary) arrays are as in `residual_model`.
    Each residual is normalized by the larger constituent term, floored
    at 1e-300, so a point where both vanish (on the nodal set of j_i)
    reads 0.
    """
    x = _closed_half_space(x)
    n = b.n
    pot = (crit_interior(n) - 1.0) * abs(b.pt.K) * b.U(x) ** (4.0 / (n - 2.0))
    t1 = -c_n(n) * jacobi_laplacian(b, i, x)
    interior = _relative(t1, -pot * jacobi(b, i, x), 1.0e-300)
    xb = x[x[..., -1] == 0.0]
    s1 = (2.0 / (n - 2.0)) * (-jacobi_grad(b, i, xb)[..., -1])
    s2 = (n / (n - 2.0)) * b.pt.H * b.U(xb) ** (2.0 / (n - 2.0)) \
        * jacobi(b, i, xb)
    return interior, _relative(s1, s2, 1.0e-300)


# ---------------------------------------------------------------------------
# Bubble energy


def bubble_energy(pt):
    """Closed-form energy of the bubble over ``pt``, from ``pt.moments``.

    E = a_n / |K|^{(n-2)/2} * ( -(n-1) phi_{(n+1)/2}(D) + D (D^2-1)^{-(n-1)/2} ),
    a_n = alpha_n^{2#} * omega * I(n-1, n) * (n-3) / ((n-1) sqrt(n(n-1))).
    """
    n = pt.n
    D = pt.D
    if D <= 1.0:
        raise DomainError(f"bubble energy needs D > 1, got D = {D:.6g}")
    tbl = pt.moments
    a = alpha_n(n) ** crit_boundary(n) * tbl.omega * tbl.I(n - 1, n) \
        * (n - 3.0) / ((n - 1.0) * math.sqrt(n * (n - 1.0)))
    bracket = -(n - 1.0) * tbl.phi(0.5 * (n + 1.0)) \
        + D * ((D - 1.0) * (D + 1.0)) ** (-0.5 * (n - 1.0))
    return a / abs(pt.K) ** (0.5 * (n - 2.0)) * bracket


def bubble_energy_quadrature(pt):
    """Independent oracle: the energy functional evaluated by quadrature.

    (c_n/2) int |grad U|^2 + (|K|/2*) int U^{2*}
        - (n-2) H int_boundary U^{2#},

    each integral on exp-sinh nodes at the bubble's length D, at
    relative tolerance 1e-9.  The two half-space integrals are one
    `quad.brute_halfspace` family of two members, each bit for bit
    the value of a call of its own; the boundary trace is one
    `quad.integrate_halfline` call.  Both half-space integrands are
    scalars of w = |x - x0|^2 - 1, formed once per block: since
    grad U = -2q C w^{-q-1} (x - x0) and |x - x0|^2 = w + 1,

        |grad U|^2 = (2q C w^{-q-1})^2 (w + 1)      (`Bubble.grad_U_sq_w`),
        U^{2*} = (C w^{-q})^{2*},

    so no n-vector gradient is built.
    """
    n = pt.n
    b = Bubble(pt)
    ts = crit_interior(n)
    tsh = crit_boundary(n)

    members = (b.grad_U_sq_w, lambda wv: (b.C * wv ** -b.q) ** ts)

    def halfspace(X, which):
        wv = b.w(X)
        return [members[k](wv) for k in which]

    grad2, upow = quad.brute_halfspace(halfspace, n, rel_tol=1e-9,
                                       scale=pt.D, count=2)

    btrace = quad.sphere_area(n - 1) * quad.integrate_halfline(
        lambda r: b.U_rx(r, 0.0) ** tsh * r ** (n - 2), rel_tol=1e-9,
        scale=pt.D)
    return 0.5 * c_n(n) * grad2 + abs(pt.K) / ts * upow \
        - (n - 2.0) * pt.H * btrace
