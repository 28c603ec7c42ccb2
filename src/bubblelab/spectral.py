"""Whole-domain spectral route for the corrector's forcing pairing.

The constants-case coefficient B reads the corrector through one number,
the forcing pairing int E_p V_p = sum_ab G_ab c_ab, with G the angular
Gram matrix of the forcing modes and

    c_ab = int_0^inf int_0^inf e_a psi_b r^{n-2} dr dx_n

the radial pairing of mode a's profile with mode b's solution.  The
grid of `corrector` truncates the quarter plane at r_max; this module
solves each modal problem on the whole quarter plane instead, with no
scipy and no sparse factorization (Trefethen, *Spectral Methods in
MATLAB*, SIAM 2000, `cheb` and `clencurt`; Boyd, *Chebyshev and Fourier
Spectral Methods*, 2nd ed. 2001, ch. 17, for the semi-infinite map).

Coordinates.  r = rho cos(theta), x_n = rho sin(theta), with

    rho = L (1 + s) / (1 - s),  theta = (pi/4) (1 + t),  L = D,

on the Chebyshev-Gauss-Lobatto points of s and t, so that s = 1 is
rho = inf.  Multiplied by rho^2, the modal equation of degree d reads

    -c_n [E^2 psi + (n-2) E psi + psi_thth - (n-2) tan(theta) psi_th
          - lambda sec^2(theta) psi] + rho^2 c_n n(n+2) w^{-2} psi
        = rho^2 e,

with E = rho d/drho = (1 - s^2)/2 d/ds, psi_th = d(psi)/d(theta) =
(4/pi) d(psi)/dt and lambda = d(d+n-3).  The unknown is phi = psi / g
with the decay g = (1 + rho^2/L^2)^k, k = (4-n)/2, so phi stays O(1) at
infinity; with gamma = E g / g = 2k q, q = rho^2 / (L^2 + rho^2), the
radial part acting on phi is g [E^2 + (n-2+2 gamma) E + E gamma
+ gamma^2 + (n-2) gamma], and each equation is divided by g.  Every
coefficient is finite at s = 1, where E vanishes: that row is the
equation's own limit at infinity, an ODE in theta whose right-hand side
is the limit of rho^2 e / g, read from the monomials of e's record.
The edges:

    theta = 0      Robin row, psi_th + rho (n/2) H U^{2/(n-2)} psi = 0
                   (the grid's Robin row; at rho = inf it is Neumann)
    rho = 0        Dirichlet
    theta = pi/2   Dirichlet (psi ~ r^d on the axis, d >= 1)

where psi = 0 the nodes carry no unknown, and each row of the system
is divided by its largest entry.  Two sets of unknowns need no dense
solve: the rho = inf line, whose rows couple only that line, is solved
first as an ODE in theta, and each line's theta = 0 unknown is
substituted from its Robin row.  That leaves (N-1)^2 unknowns for one
dense `np.linalg.solve`, while the row scales, ||A|| and the backward
error still measure the full system of N^2 nodes.  The
pairing is a Clenshaw-Curtis sum in s and t of e_a psi_b r^{n-2} rho
rho_s theta_t, written as f_a phi_b h(s) cos^{n-2}(theta) pi/4 with
f = rho^2 e / g and h = g^2 rho^{n-3} rho_s =
2 L^{n-2} (2(1+s^2))^{4-n} (1+s)^{n-3} (1-s)^{n-7}, finite at s = 1
for n >= 7.

The route shares only problem data with the grid: the mode records of
`geom.decompose_forcing`, whose radial monomials `geom.radial_profile`
evaluates, their angular Gram matrix from `geom.sphere_pairings`, and
the bubble's `w_rx` and `U_rx`.  It solves at the two resolutions
of LEVELS, the coarse level on a worker thread beside the fine one
(LAPACK releases the GIL, and each level's arithmetic is that of a
serial run), and reports the finer one.  NonConvergence is raised when
a solve's normwise backward error exceeds 1e-12 (the grid's bound) or
when the two levels' pairings differ by more than AGREEMENT_MAX
relative; an error of the coarse level is raised before one of the
fine level, as in a serial run.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import geom
from .bubble import Bubble, c_n
from .errors import DomainError, NonConvergence

__all__ = ["LEVELS", "AGREEMENT_MAX", "PairingSolution", "solve_pairing"]

# Chebyshev degrees of the two solves, the finer one reported: 576 and
# 1,024 nodes, of which (N-1)^2 = 529 and 961 unknowns reach the dense
# solve; about 8 ms and 30 ms per mode on one core, run side by side
LEVELS = (24, 32)
# bound on the relative gap between the two levels' forcing pairings.
# Over n = 8..12 and 79 depths D from 1.1 to 1000 the gap is at most
# 2.5e-7 (n = 12, D = 1.12), and 4e-9 from D = 1.5; the finer level then
# sits within 8e-10 of N = 56.  Near D = 1 one length L = D cannot
# resolve the inner length (D^2 - 1)/(2D): at D = 1.01 the gap reads
# 2.5e-5 (n = 8) to 4e-2 (n = 12), and the route raises
AGREEMENT_MAX = 1e-6
# the normwise backward error of a dense solve, as for the grid's LU
BACKWARD_ERROR_MAX = 1e-12


def _cheb(N):
    """Chebyshev-Gauss-Lobatto points x_j = cos(pi j / N) and the
    differentiation matrix on them (Trefethen, program `cheb`)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.r_[2.0, np.ones(N - 1), 2.0] * (-1.0) ** np.arange(N + 1)
    dx = x[:, None] - x[None, :]
    Dm = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    Dm -= np.diag(Dm.sum(axis=1))
    return x, Dm


def _clenshaw_curtis(N):
    """Clenshaw-Curtis weights on [-1, 1] at the points of `_cheb`, N even
    (Trefethen, program `clencurt`)."""
    theta = np.pi * np.arange(N + 1) / N
    k = np.arange(1, N // 2)[:, None]
    inner = theta[1:N][None, :]
    v = 1.0 - np.sum(2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1.0),
                     axis=0) - np.cos(N * theta[1:N]) / (N * N - 1.0)
    w = np.empty(N + 1)
    w[0] = w[N] = 1.0 / (N * N - 1.0)
    w[1:N] = 2.0 * v / N
    return w


def _far_field(mode, n, L, theta):
    """lim rho^2 e / g as rho -> inf along theta, from e's monomials.

    A monomial coef x_n^a r^b w^-m behaves as coef sin^a cos^b
    rho^{a+b-2m}, and g as (rho/L)^{4-n}; so it tends to
    coef sin^a cos^b L^{4-n} when p = a+b-2m+n-2 is 0 and to 0 when p
    is negative.  A positive p decays slower than the scaled unknown
    admits.
    """
    total = np.zeros_like(theta)
    for coef, a, b, m in mode.radial:
        p = a + b - 2.0 * m + n - 2.0
        if p > 0.0:
            raise DomainError(
                f"mode {mode.label!r}: its profile decays as "
                f"rho^{p + 2 - n:g}, slower than the whole-domain route's "
                f"rho^{2 - n}")
        if p == 0.0:
            total = total + coef * np.sin(theta) ** a * np.cos(theta) ** b \
                * L ** (4.0 - n)
    return total


@dataclass(frozen=True)
class _Operator:
    """The factors of one mode's collocation system; see `_operator`."""

    S: np.ndarray               # (M, M) radial operator, -c_n times
    T: np.ndarray               # (M, M) angular operator, -c_n times
    pot: np.ndarray             # (M, M) potential at the nodes
    robin_row: np.ndarray       # (M,) d/dtheta at theta = 0
    robin: np.ndarray           # (M,) Robin coefficient per s node
    f: np.ndarray               # (M, M) scaled forcing


def _operator(b, mode, N):
    """The full collocation system of one mode at Chebyshev degree N.

    psi vanishes at rho = 0 (s = -1) and on the axis theta = pi/2
    (t = 1), so those nodes carry no unknown: their columns would
    multiply zero, and they go with their rows.  The other M^2 nodes,
    M = N, index s from 1 (rho = inf) down and t down to -1
    (theta = 0).  Row (i, j) with j < M - 1 reads

        S[i] . phi[:, j] + T[j] . phi[i, :] + pot[i, j] phi[i, j] = f[i, j]

    and the Robin row (i, M - 1) reads robin_row . phi[i, :]
    + robin[i] phi[i, -1] = 0, with S and T the radial and angular
    operators times -c_n, f the scaled forcing rho^2 e / g and phi the
    scaled solution psi / g.
    """
    n = b.n
    L = b.pt.D
    kk = 0.5 * (4.0 - n)
    lam = mode.degree * (mode.degree + n - 3.0)
    x, Dm = _cheb(N)
    Dm2 = Dm @ Dm
    s, Ds, Dss = x[:-1], Dm[:-1, :-1], Dm2[:-1, :-1]
    dth, dthth = (4.0 / np.pi) * Dm[1:, 1:], (16.0 / np.pi ** 2) * Dm2[1:, 1:]
    theta = 0.25 * np.pi * (1.0 + x[1:])
    M = N
    fin = slice(1, M)                  # s < 1: rho finite
    rho = np.zeros(M)                  # rho[0] = inf is never formed
    rho[fin] = L * (1.0 + s[fin]) / (1.0 - s[fin])

    # rho d/drho and its square in s, with the decay scaling folded in
    a = 0.5 * (1.0 - s * s)
    q = (1.0 + s) ** 2 / (2.0 * (1.0 + s * s))
    gam = 2.0 * kk * q
    egam = 4.0 * kk * q * (1.0 - q)
    radial = (a * a)[:, None] * Dss \
        + ((n - 2.0 + 2.0 * gam - s) * a)[:, None] * Ds \
        + np.diag(egam + gam * gam + (n - 2.0) * gam)
    tan = np.tan(theta)
    angular = dthth - ((n - 2.0) * tan)[:, None] * dth \
        - np.diag(lam * (1.0 + tan * tan))
    cn = c_n(n)

    # node values at finite rho; the potential and the Robin
    # coefficient vanish at rho = inf
    R = rho[fin, None] * np.cos(theta)[None, :]
    X = rho[fin, None] * np.sin(theta)[None, :]
    pot = np.zeros((M, M))
    pot[fin] = (rho[fin, None] ** 2) * cn * n * (n + 2.0) \
        * b.w_rx(R, X) ** (-2.0)
    g_fin = (2.0 * (1.0 + s[fin] * s[fin]) / (1.0 - s[fin]) ** 2) ** kk
    f = np.empty((M, M))
    e = geom.radial_profile(mode.radial, b)(R, X)
    f[fin] = rho[fin, None] ** 2 * e / g_fin[:, None]
    f[0] = _far_field(mode, n, L, theta)
    robin = np.zeros(M)
    robin[fin] = rho[fin] * 0.5 * n * b.pt.H \
        * b.U_rx(rho[fin], 0.0) ** (2.0 / (n - 2.0))
    return _Operator(S=-cn * radial, T=-cn * angular, pot=pot,
                     robin_row=dth[-1], robin=robin, f=f)


def _rows(op):
    """(scale, norm) of the full system: each row's largest absolute
    entry, an (M, M) array over the rows' nodes, and the max-norm ||A||
    of the rows divided by it.  Read off the factors: row (i, j < M-1)
    holds S[i] off its diagonal, T[j] off its diagonal and
    S[i, i] + T[j, j] + pot[i, j] on it; Robin row (i, M-1) holds
    robin_row and robin_row[-1] + robin[i]."""
    S, T = op.S, op.T
    diag = np.abs(np.diag(S)[:, None] + np.diag(T)[None, :] + op.pot)
    diag[:, -1] = np.abs(op.robin_row[-1] + op.robin)
    off_s = np.abs(S)
    np.fill_diagonal(off_s, 0.0)
    off_t = np.abs(T)
    off_t[-1] = np.abs(op.robin_row)
    np.fill_diagonal(off_t, 0.0)
    big = np.maximum(off_s.max(axis=1)[:, None], off_t.max(axis=1)[None, :])
    total = off_s.sum(axis=1)[:, None] + off_t.sum(axis=1)[None, :]
    big[:, -1] = off_t[-1].max()       # a Robin row has no radial part
    total[:, -1] = off_t[-1].sum()
    scale = np.maximum(big, diag)
    return scale, float(np.max((total + diag) / scale))


def _apply(op, phi):
    """The full system's left-hand side at phi, over all M^2 rows."""
    out = op.S @ phi + phi @ op.T.T + op.pot * phi
    out[:, -1] = phi @ op.robin_row + op.robin * phi[:, -1]
    return out


def _level(b, mode, N):
    """(f, phi, backward error) of one mode at Chebyshev degree N.

    f and phi are the (M, M) node arrays of `_operator`.  Two sets of
    unknowns are eliminated before the dense solve.  At rho = inf
    (i = 0) E vanishes, so that line's rows couple only the line: an
    M x M ODE in theta, solved first and moved to the right-hand side.
    Each line's Robin row couples only its own line, so its theta = 0
    unknown phi[i, -1] = w[i] . phi[i, :-1] is substituted into it.  The
    rest is one dense solve of (M-1)^2 unknowns.  The rows are divided
    by the full system's row scales, and the backward error measures
    the full system at the assembled phi.
    """
    op = _operator(b, mode, N)
    scale, norm = _rows(op)
    S, T = op.S, op.T
    M = N
    m = M - 1
    rhs = op.f.copy()
    rhs[:, -1] = 0.0

    line = T + np.diag(S[0, 0] + op.pot[0])
    line[-1] = op.robin_row
    line[-1, -1] += op.robin[0]
    phi = np.empty((M, M))
    phi[0] = np.linalg.solve(line / scale[0, :, None], rhs[0] / scale[0])

    # phi[i, -1] = w[i - 1] . phi[i, :-1] on each finite-rho line
    w = -op.robin_row[:-1] / (op.robin_row[-1] + op.robin[1:, None])
    # A4[i, j, k, l]: the row of node (s_i, t_j), the column of (s_k, t_l)
    A4 = np.zeros((m, m, m, m))
    k = np.arange(m)
    A4[:, k, :, k] = S[1:, 1:]
    A4[k, :, k, :] += T[:-1, :-1] + T[:-1, -1, None] * w[:, None, :]
    A4[k[:, None], k, k[:, None], k] += op.pot[1:, :-1]
    sc = scale[1:, :-1]
    red = (rhs[1:, :-1] - S[1:, 0, None] * phi[0, None, :-1]) / sc
    A = A4.reshape(m * m, m * m)
    A /= sc.reshape(-1, 1)
    phi[1:, :-1] = np.linalg.solve(A, red.ravel()).reshape(m, m)
    phi[1:, -1] = np.sum(w * phi[1:, :-1], axis=1)
    if not np.all(np.isfinite(phi)):
        raise NonConvergence(f"spectral solve at N = {N} returned non-finite "
                             "values")
    # ||rhs - A phi|| / (||A|| ||phi|| + ||rhs||) in the max norm, of the
    # full system divided by its row scales
    resid = (rhs - _apply(op, phi)) / scale
    denom = norm * np.max(np.abs(phi)) + np.max(np.abs(rhs / scale))
    berr = float(np.max(np.abs(resid)) / denom) if denom > 0 else 0.0
    if not berr <= BACKWARD_ERROR_MAX:
        raise NonConvergence(
            f"mode {mode.label!r}: spectral solve at N = {N} has backward "
            f"error {berr:.3e} above {BACKWARD_ERROR_MAX:g}")
    return op.f, phi, berr


def _weights(n, L, N):
    """Clenshaw-Curtis weights of int f phi h(s) cos^{n-2}(theta) pi/4 on
    the nodes of `_level`."""
    x, _ = _cheb(N)
    w = _clenshaw_curtis(N)
    h = 2.0 * L ** (n - 2.0) * (2.0 * (1.0 + x * x)) ** (4.0 - n) \
        * (1.0 + x) ** (n - 3.0) * (1.0 - x) ** (n - 7.0)
    theta = 0.25 * np.pi * (1.0 + x)
    return np.outer(w * h, w * np.cos(theta) ** (n - 2.0)
                    * 0.25 * np.pi)[:-1, 1:]


def _radial_pairings(b, modes, N):
    """(c, largest backward error) of the modes at Chebyshev degree N:
    c[a, b] pairs mode a's forcing with mode b's solution."""
    solved = [_level(b, mode, N) for mode in modes]
    wts = _weights(b.n, b.pt.D, N)
    c = np.array([[float(np.sum(wts * fa * pb)) for _, pb, _ in solved]
                  for fa, _, _ in solved]).reshape(len(modes), len(modes))
    return c, max((berr for _, _, berr in solved), default=0.0)


def _beside(fn, *args):
    """Start fn(*args) on a worker thread; return a join that waits for
    it and returns fn's value or raises its exception.  numpy's LAPACK
    releases the GIL, so the worker's dense solves run beside the
    caller's, each with the arithmetic of a serial run."""
    out = {}

    def work():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:    # re-raised by join
            out["error"] = exc

    worker = threading.Thread(target=work, daemon=True)
    worker.start()

    def join():
        worker.join()
        if "error" in out:
            raise out["error"]
        return out["value"]
    return join


@dataclass(frozen=True)
class PairingSolution:
    """The forcing pairing of one point by the whole-domain route.

    ``modes`` are the forcing modes of `geom.decompose_forcing`,
    ``gram`` their angular Gram matrix and ``radial`` one matrix
    c[a, b] of radial pairings per level of LEVELS.  It stands where a
    `corrector.CorrectorSolution` does for `reduced.coeff_B_constant`,
    which reads ``pt`` and ``forcing_pairing()``.
    """

    pt: object
    modes: list
    gram: np.ndarray
    radial: tuple
    backward_error: float

    def pairings(self):
        """The forcing pairing sum_ab G_ab c_ab at each level."""
        return [float(np.sum(self.gram * c)) for c in self.radial]

    def forcing_pairing(self):
        """int E_p V_p over the half-space, at the finer level."""
        return self.pairings()[-1]

    def agreement(self):
        """|coarse - fine| / |fine|; 0 when both vanish."""
        coarse, fine = self.pairings()
        if coarse == fine:
            return 0.0
        return abs(coarse - fine) / abs(fine) if fine != 0.0 else math.inf

    def to_json_dict(self):
        return {"levels": list(LEVELS), "values": self.pairings(),
                "agreement": self.agreement(), "bound": AGREEMENT_MAX}


def solve_pairing(frame, pt):
    """Decompose the frame's forcing and pair every mode on the whole domain.

    Raises DomainError for n < 7, where the pairing integral diverges at
    infinity, and for a degree-0 mode, which needs the grid's bordered
    kernel solve; NonConvergence when a solve's backward error or the
    two levels' agreement misses its bound.
    """
    n = pt.n
    if n < 7:
        raise DomainError(f"the whole-domain pairing diverges at infinity "
                          f"for n <= 6, got n = {n}")
    b = Bubble(pt)
    modes = geom.decompose_forcing(frame, b)
    for mode in modes:
        if mode.degree < 1:
            raise DomainError(
                f"degree-{mode.degree} mode {mode.label!r}: the whole-domain "
                "route solves degrees >= 1 only (no bordered kernel solve)")
    gram = geom.sphere_pairings(modes, modes, n - 1)
    coarse = _beside(_radial_pairings, b, modes, LEVELS[0])
    try:
        fine = _radial_pairings(b, modes, LEVELS[1])
    except BaseException:
        coarse()        # a coarse-level error comes first, as in series
        raise
    radial, berrs = zip(coarse(), fine)
    sol = PairingSolution(pt=pt, modes=modes, gram=gram, radial=radial,
                          backward_error=max(berrs))
    agreement = sol.agreement()
    if not agreement <= AGREEMENT_MAX:
        raise NonConvergence(
            f"spectral pairing: levels N = {LEVELS[0]} and {LEVELS[1]} differ "
            f"by {agreement:.3e} relative, above {AGREEMENT_MAX:g}")
    return sol
