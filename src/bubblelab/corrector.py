"""Corrector construction: the modal solves of the linearized equation.

The corrector solves the linearized bubble equation with the curvature
forcing on the right-hand side.  Because the forcing is an angular
polynomial on spheres around the axis, the n-dimensional problem
collapses into independent 2-D boundary-value problems in (r, x_n),
one per angular degree:

    -c_n (d_rr + (n-2)/r d_r - d(d+n-3)/r^2 + d_nn) psi_d
        + c_n n (n+2) w^{-2} psi_d = e_d,

with a Robin condition d(psi)/dx_n = -(n/2) H U^{2/(n-2)} psi on
x_n = 0, Dirichlet at the truncation boundary, and (for d = 0) a
Neumann condition at r = 0.  The zero-order potential uses the exact
identity (2*-1)|K| U^{4/(n-2)} = c_n n (n+2) w^{-2}.

The degree-0 operator has a one-dimensional near-kernel spanned by the
radial profile of the last kernel element j_n; without treatment the
discrete system's smallest singular value sits far below the
regularity threshold.  The solve therefore borders the matrix with the
discretized profile: one extra unknown, the solvability multiplier, and
one extra equation, the W-weighted orthogonality to the profile, which
the solution then satisfies without a second projection.  Every modal
solve factors only the sparse operator: the bordered system is solved
by block elimination on that LU with one step of iterative refinement,
and the conditioning gate measures the bordered matrix through the
same LU against the exact 1-norm of the equilibrated operator.

The LU takes the grid nodes in their geometric nested-dissection order
(George 1973), which a tensor grid gives without an ordering search:
blocks are cut down to leaves of 4 nodes, and each block shape's order
is built once, from the orders of its two halves.  The LU keeps the
diagonal pivots of that order: every assembled row has a nonzero
diagonal.  Nothing then bounds element growth, so each solve
measures the normwise backward error of the solution it returns and
raises NonConvergence above 1e-12 (Li and Demmel, ACM TOMS 29, 2003,
certify static pivoting the same way).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geom
from .bubble import Bubble, c_n, crit_boundary, crit_interior
from .errors import DomainError, NonConvergence, SingularSystem
# the forcing's angular split lives in geom, so that the locator reads it
# without importing this module.  Both stay names here: solve_corrector
# calls decompose_forcing through this module's global, which the
# benchmark's tracer wraps
from .geom import ForcingMode, decompose_forcing
# GridSpec and MAX_GRID_CELLS live in model, so that the CLI reads the
# grid defaults without importing this module; both stay names here
from .model import (MAX_GRID_CELLS, Check, GridSpec, ValidationReport,
                    write_json)

__all__ = [
    "ForcingMode",
    "decompose_forcing",
    "GridSpec",
    "MAX_GRID_CELLS",
    "solve_mode",
    "residual_norm",
    "CorrectorSolution",
    "solve_corrector",
    "corrector_diagnostics",
]


# ---------------------------------------------------------------------------
# the 2-D modal solver


def _axes(gs):
    s = np.linspace(0.0, 1.0, gs.nr + 1)
    t = np.linspace(0.0, 1.0, gs.nxn + 1)
    return s, t


def _trap_weights(k, h):
    w = np.full(k + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def grid_geometry(gs, n):
    """Node coordinates, metric factors and quadrature weights of a grid.

    Returns a dict with 1-D arrays r, xn, rs, rss, ts, tss and the 2-D
    area weights W[i, j] = r_i^{n-2} rs_i ts_j tw_i tw_j implementing
    int f r^{n-2} dr dx_n by the trapezoid rule in the stretched
    coordinates.
    """
    s, t = _axes(gs)
    r = gs.coord(s)
    xn = gs.coord(t)
    rs = gs.dcoord(s)
    ts = gs.dcoord(t)
    W = np.outer(r ** (n - 2) * rs * _trap_weights(gs.nr, s[1] - s[0]),
                 ts * _trap_weights(gs.nxn, t[1] - t[0]))
    return {"s": s, "t": t, "r": r, "xn": xn, "rs": rs,
            "rss": gs.d2coord(s), "ts": ts, "tss": gs.d2coord(t), "W": W}


def _forcing_grid(forcing, r, xn):
    arr = np.asarray(forcing, dtype=float)
    if arr.shape != (len(r), len(xn)):
        raise DomainError(f"forcing grid must have shape "
                          f"{(len(r), len(xn))}, got {arr.shape}")
    return arr


def _assemble(pt, degree, gs):
    """The second-order modal operator on the stretched grid.

    Returns ``(A, interior)``: the CSR matrix over the (nr+1)(nxn+1)
    nodes in row-major order, and the boolean node mask of the rows that
    carry the differential equation.  The other rows hold the boundary
    conditions, whose right-hand side is zero: r = 0 is Dirichlet for
    degree >= 1 and a one-sided Neumann row for degree 0, the truncation
    edges are Dirichlet, and x_n = 0 carries the Robin row
    d(psi)/dx_n + (n/2) H U^{2/(n-2)} psi = 0.
    """
    n = pt.n
    cn = c_n(n)
    b = Bubble(pt)
    gg = grid_geometry(gs, n)
    s, t = gg["s"], gg["t"]
    r, rs, rss, ts, tss = (gg[k] for k in ("r", "rs", "rss", "ts", "tss"))
    ds = s[1] - s[0]
    dt = t[1] - t[0]
    nr, nxn = gs.nr, gs.nxn
    M2 = nxn + 1
    lam = degree * (degree + n - 3.0)

    # 1-D coefficients as scalar expressions: numpy's array power rounds
    # differently from its scalar power on some nodes
    a1 = np.array([1.0 / rs[i] ** 2 for i in range(1, nr)])[:, None]
    b1 = np.array([-rss[i] / rs[i] ** 3 + (n - 2.0) / (r[i] * rs[i])
                   for i in range(1, nr)])[:, None]
    ang = np.array([lam / r[i] ** 2 for i in range(1, nr)])[:, None]
    a2 = np.array([1.0 / ts[j] ** 2 for j in range(1, nxn)])[None, :]
    b2 = np.array([-tss[j] / ts[j] ** 3 for j in range(1, nxn)])[None, :]
    vpot = cn * n * (n + 2.0) * b.w_rx(r[:, None], gg["xn"][None, :]) ** (-2.0)

    rows, cols, vals = [], [], []

    def add(row, col, val):
        rows.append(row.ravel())
        cols.append(col.ravel())
        vals.append(np.broadcast_to(val, row.shape).ravel())

    node = np.arange((nr + 1) * M2).reshape(nr + 1, M2)
    k = node[1:nr, 1:nxn]
    add(k, k + M2, -cn * (a1 / ds ** 2 + b1 / (2 * ds)))
    add(k, k - M2, -cn * (a1 / ds ** 2 - b1 / (2 * ds)))
    add(k, k + 1, -cn * (a2 / dt ** 2 + b2 / (2 * dt)))
    add(k, k - 1, -cn * (a2 / dt ** 2 - b2 / (2 * dt)))
    add(k, k, -cn * (-2.0 * a1 / ds ** 2 - 2.0 * a2 / dt ** 2 - ang)
        + vpot[1:nr, 1:nxn])
    # r = 0: Dirichlet for degree >= 1, one-sided Neumann for degree 0
    if degree >= 1:
        add(node[0], node[0], 1.0)
    else:
        add(node[0], node[0], -3.0)
        add(node[0], node[1], 4.0)
        add(node[0], node[2], -1.0)
    # truncation boundaries: Dirichlet
    add(node[nr], node[nr], 1.0)
    add(node[1:nr, nxn], node[1:nr, nxn], 1.0)
    # x_n = 0: Robin
    ts0 = float(gs.dcoord(0.0))
    robin = 0.5 * n * pt.H * b.U_rx(r, 0.0) ** (2.0 / (n - 2.0))
    edge = node[1:nr, 0]
    add(edge, edge, -3.0 / (2.0 * dt * ts0) + robin[1:nr])
    add(edge, edge + 1, 4.0 / (2.0 * dt * ts0))
    add(edge, edge + 2, -1.0 / (2.0 * dt * ts0))

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(node.size, node.size))
    interior = np.zeros(node.shape, dtype=bool)
    interior[1:nr, 1:nxn] = True
    return A, interior


# leaves of at most this many nodes keep row-major order.  The 400^2
# degree-2 factor, fresh processes on 2 cores, BLAS at 1 thread,
# medians of 5 rounds:
#
#     leaf nodes         2       4       8      16      32      64
#     L + U nonzeros  12.80M  12.80M  12.84M  13.29M  13.81M  14.99M
#     factor (s)       0.519   0.515   0.519   0.532   0.544   0.610
#
# (COLAMD: 21.1M).  _dissection builds each block shape's order once,
# so small leaves cost little order time: 4 ms at 401^2
_LEAF_NODES = 4

# columns per SuperLU panel.  Beside L and U the panel update keeps
# work arrays of about 2 panel n integers and panel n doubles (Demmel et
# al., SIAM J. Matrix Anal. Appl. 20, 1999).  The 400^2 degree-2 factor
# alone, fresh processes on 2 cores, BLAS at 1 thread, medians of 5
# rounds: panels of 20 (scipy's default), 4 and 2 peak at 281, 240 and
# 236 MB, in 0.58, 0.58 and 0.54 s.  Never above 20: scipy's SuperLU
# aborted with a double free at 32
_PANEL_SIZE = 4


def _dissection(rows, cols):
    """Nested-dissection order of a rows x cols tensor grid.

    Returns a permutation of the row-major node numbers i * cols + j
    (George, SIAM J. Numer. Anal. 10, 1973).  Each block is cut at the
    middle row or column of its longer side; the two halves come first,
    each ordered the same way, and the cut line after both, so that
    eliminating one half fills nothing in the other.  Blocks of at most
    _LEAF_NODES nodes stay in row-major order.  The one-sided boundary
    rows reach two nodes inward, so a cut next to the edge may leak
    fill across it: that costs fill, never accuracy.

    A half's order is the order of its own shape read through its node
    numbers, so each shape is built once per call; a grid has a few
    shapes per level of the cut tree.
    """
    @functools.cache
    def order(h, w):
        node = np.arange(h * w).reshape(h, w)
        if h * w <= _LEAF_NODES:
            return node.ravel()
        if h >= w:
            m = h // 2
            first, second, cut = node[:m], node[m + 1:], node[m]
        else:
            m = w // 2
            first, second, cut = node[:, :m], node[:, m + 1:], node[:, m]
        return np.concatenate([first.ravel()[order(*first.shape)],
                               second.ravel()[order(*second.shape)], cut])

    return order(rows, cols)


class _DissectedLU:
    """SuperLU of a matrix held in a fixed symmetric order, static pivots.

    ``P`` is A[p][:, p] in CSC form, the one copy of the operator A that
    the solve keeps: SuperLU factors it with its column ordering off, a
    pivot threshold of 0, so each pivot is the diagonal entry whenever
    it is nonzero, and a panel of _PANEL_SIZE columns.  ``shape``,
    ``solve(v, trans)`` and ``matvec(x)`` permute in and out, so callers
    treat this object as a factorization of A itself.
    """

    def __init__(self, P, p):
        self.P, self.p = P, p
        self.shape = P.shape
        self.lu = spla.splu(P, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                            panel_size=_PANEL_SIZE)

    def solve(self, v, trans="N"):
        x = np.empty(self.shape[0])
        x[self.p] = self.lu.solve(v[self.p], trans=trans)
        return x

    def matvec(self, x):
        """A x, read from the permuted copy."""
        y = np.empty(self.shape[0])
        y[self.p] = self.P @ x[self.p]
        return y


# bound on the backward error of a modal solve.  Measured at most
# 1.3e-16 over n in {8, 10, 12}, D in {1 + 1e-6, 1.01, 2, 4, 30, 1e3,
# 1e8, 1e12}, 16^2, 100^2 and 400^2 grids and degrees 0, 2 and 4, with
# forcing r^degree exp(-(r^2 + x_n^2) / 4) (1.7e-16 with 32-node
# dissection leaves); a solve whose results carry a relative error of
# 1e-8 reads 1.2e-9.
_BACKWARD_ERROR_MAX = 1e-12


def _backward_error(residual, norm, x, b):
    """Normwise backward error ||b - A x|| / (||A|| ||x|| + ||b||), max norm.

    ``residual`` is b - A x and ``norm`` is ||A||.
    """
    scale = norm * np.max(np.abs(x)) + np.max(np.abs(b))
    return float(np.max(np.abs(residual)) / scale) if scale > 0 else 0.0


class _BorderedLU:
    """The bordered matrix M = diag(d, 1) [[A, c], [r^T, 0]] through one LU of A.

    Block elimination (Govaerts, SIAM J. Matrix Anal. Appl. 12, 1991):
    with z = A^{-1} c, the system [[A, c], [r^T, 0]] [x; mu] = [f; g]
    gives mu = (r.A^{-1} f - g) / r.z and x = A^{-1} f - mu z; its
    transpose is solved the same way with c, r swapped and q = A^{-T} r
    in place of z.  ``d`` is the row equilibration of the conditioning
    gate; ``shape`` and ``solve(v, trans)`` follow SuperLU's interface,
    so the gate uses this object as a factorization of M.
    """

    def __init__(self, lu, c, r, d):
        self.lu, self.c, self.r, self.d = lu, c, r, d
        self.shape = (c.size + 1, c.size + 1)
        self.z = lu.solve(c)
        self.q = lu.solve(r, trans="T")

    def border_solve(self, f, g, trans="N"):
        """(x, mu) with [[A, c], [r^T, 0]] [x; mu] = [f; g] (or transposed)."""
        row, solved_col = (self.r, self.z) if trans == "N" \
            else (self.c, self.q)
        y = self.lu.solve(f, trans=trans)
        mu = (row @ y - g) / (row @ solved_col)
        return y - mu * solved_col, mu

    def solve(self, v, trans="N"):
        if trans == "N":
            x, mu = self.border_solve(v[:-1] / self.d, v[-1])
            return np.append(x, mu)
        x, mu = self.border_solve(v[:-1], v[-1], trans="T")
        return np.append(x / self.d, mu)


# stopping rule of _smallest_singular: the eigen-residual of M^T M,
# relative to its Rayleigh quotient.  On the degree-0 systems at 100^2
# and 200^2 it falls from 3e-5 and 1e-6 (step 2) to 3e-10 and 4e-12
# (step 3), then to roundoff, and sigma at step 3 is within 3e-14 of
# its value after 12 steps.
_EIGEN_RESIDUAL_TOL = 1e-8
_INVERSE_STEPS = 12


def _smallest_singular(op):
    """Estimate (sigma_min, right singular vector) of a factorized matrix.

    Inverse power iteration on M^T M from a seeded unit vector: each step
    solves y = M^{-1} M^{-T} v for the unit iterate v, with nu = ||y||,
    u = y / nu and the Rayleigh quotient theta = (u.v) / nu.  Since
    M^T M u = v / nu, the eigen-residual r = v / nu - theta u costs no
    further solve, and |theta - lambda| <= ||r|| for the nearest
    eigenvalue lambda of M^T M (Parlett, The Symmetric Eigenvalue
    Problem, 4.5).  The iteration stops once ||r|| <= tau theta, tau =
    _EIGEN_RESIDUAL_TOL, or after _INVERSE_STEPS steps, and returns
    (1 / sqrt(nu), u, steps, ||r|| / theta) of its last step, so that a
    stop at the cap shows in the relative residual it left.

    An iterate that leaves the floating-point range (||y|| overflows or
    is not finite) means sigma_min is below 1 / sqrt(max float), about
    1e-154: the matrix is machine-singular, and SingularSystem says so.
    """
    rng = np.random.default_rng(5)
    v = rng.normal(size=op.shape[0])
    v /= np.linalg.norm(v)
    # range errors are caught by the test on nu, not warned about
    with np.errstate(all="ignore"):
        for steps in range(1, _INVERSE_STEPS + 1):
            y = op.solve(op.solve(v, trans="T"))
            nu = np.linalg.norm(y)
            if not 0.0 < nu < math.inf:
                raise SingularSystem(
                    f"inverse iteration on a {op.shape[0]}-row system "
                    f"reached ||M^-1 M^-T v|| = {nu:.3e}: the matrix is "
                    "machine-singular (sigma_min below 1e-154)")
            u = y / nu
            theta = (u @ v) / nu
            residual = np.linalg.norm(v / nu - theta * u) / theta
            v = u
            if residual <= _EIGEN_RESIDUAL_TOL:
                break
    return 1.0 / math.sqrt(nu), v, steps, float(residual)


# sigma_min bands, relative to the equilibrated operator norm.  Broken
# assemblies (zeroed border, wrong kernel profile) are machine-singular,
# <= 1e-14 relative; the benign direction described below drifts in
# 1.8e-9 .. 8e-11 on 32^2 .. 400^2 windows.  1e-12 splits the two by
# about two orders on each side.
_SIGMA_RAISE = 1e-12


def _conditioning_check(system, base_norm, kernel):
    """sigma_min gate of the bordered degree-0 solve.

    ``system`` is a factorization of the row-equilibrated bordered
    matrix, used purely for measurement: an object with ``shape`` and
    ``solve(v, trans)``, such as the solver's _BorderedLU or a SuperLU.
    ``base_norm`` is the exact 1-norm of the equilibrated operator
    block, and ``kernel`` the unit-normalized discrete kernel direction
    padded to system size.  sigma_min and its direction come from the
    inverse iteration of _smallest_singular, which stops once its
    eigen-residual is at most ``_EIGEN_RESIDUAL_TOL`` (1e-8) of its
    Rayleigh quotient, after at most 12 steps of two solves each.
    Returns an info dict with the measurement, the steps taken
    (``gate_steps``) and the final relative eigen-residual
    (``gate_eigen_residual``); raises SingularSystem
    below ``_SIGMA_RAISE * base_norm``, a level only a broken assembly
    reaches, and when an iterate leaves the floating-point range.

    The bordered degree-0 system always owns one Euclidean near-null
    direction hugging the kernel profile, even though deflation works.
    The system is nonsingular in the weighted-L2 metric of the problem,
    where the constraint row pairs with the kernel at full strength;
    but sigma_min is a Euclidean measurement, the quadrature weights
    span ~20 decades on the stretched grid, and the Euclidean-
    normalized constraint row is consequently near-orthogonal to the
    kernel direction (cosine ~ 3e-5 on default windows).  So a vector
    shaped like the kernel, with a small correction cancelling the
    operator's truncation response, passes through the bordered matrix
    almost unnoticed.  That direction sits well above the raise gate
    and is not raised; the solve's actual accuracy is certified by
    residual_norm, not by sigma_min.
    """
    sigma, vec, steps, residual = _smallest_singular(system)
    threshold = _SIGMA_RAISE * base_norm
    overlap = float(abs(np.dot(vec, kernel)))
    out = {"sigma_min": float(sigma), "sigma_threshold": float(threshold),
           "base_norm": float(base_norm), "kernel_overlap": overlap,
           "gate_steps": steps, "gate_eigen_residual": residual}
    if sigma < threshold:
        where = (f"bordered degree-0 operator sigma_min {sigma:.3e} below "
                 f"{_SIGMA_RAISE:g} * ||A|| = {threshold:.3e}")
        if overlap >= 0.5:
            raise SingularSystem(
                f"{where}: kernel overlap {overlap:.2f}, "
                "deflation failed to control the kernel direction")
        raise SingularSystem(
            f"{where}: smallest direction is not kernel-aligned "
            f"(overlap {overlap:.2e})")
    return out


def solve_mode(pt, degree, forcing, gs):
    """Solve one modal boundary-value problem on the stretched grid.

    ``forcing`` is the node array of e(r, x_n), shaped like the grid's
    (r, x_n) nodes.  Every solve factors the sparse operator A of
    _assemble once, and every later step reuses that LU.  Returns
    (psi, info).

    The LU eliminates the nodes in the nested-dissection order of
    _dissection with static diagonal pivots (SuperLU with its column
    ordering off and a pivot threshold of 0).  The solve holds A once,
    in that order, and every product with A reads that copy.  Its
    result is then checked: the normwise backward error
    ||b - A x|| / (||A|| ||x|| + ||b||) in the max norm must stay at or
    below 1e-12, else NonConvergence names the value.  For degree 0 it
    is taken on both block rows of the bordered system, with the
    multiplier's term on the right-hand side.

    Degree 0 is bordered with the discretized kernel profile: one extra
    unknown, the solvability multiplier, and one extra equation,
    discrete orthogonality to the profile.  The bordered system is
    solved by block elimination on the LU of A followed by one step of
    iterative refinement against the explicit bordered residual; info
    carries the multiplier.

    Degree 0 also runs the conditioning gate.  sigma_min is measured on
    the row-equilibrated bordered matrix — raw assembly rows span ~9
    orders between near-field and far-field, which buries the
    measurement — whose inverse and inverse transpose go through the
    same LU of A, by inverse iteration that stops once its eigen-residual
    is at most 1e-8 of its Rayleigh quotient (three steps, six solves, on
    the 100^2 and 200^2 grids at n = 8, D = 2; at most 12 steps).  The
    gate only measures: psi and the multiplier do not depend on it.  It
    is compared against 1e-12 times the exact 1-norm
    of the equilibrated operator block, a level only a broken assembly
    reaches (zeroed border, wrong kernel profile).  The healthy
    bordered system legitimately owns one kernel-shaped Euclidean
    near-null direction orders of magnitude above that gate; it is
    recorded in the info dict, not raised.  See _conditioning_check
    for the metric story and the measured bands.
    """
    if degree < 0:
        raise DomainError(f"angular degree must be >= 0, got {degree}")
    A, interior = _assemble(pt, degree, gs)
    gg = grid_geometry(gs, pt.n)
    r, xn = gg["r"], gg["xn"]
    rhs = np.where(interior, _forcing_grid(forcing, r, xn), 0.0).ravel()
    p = _dissection(gs.nr + 1, gs.nxn + 1)
    # the one copy of A from here on: the natural-order CSR is dropped
    # before SuperLU runs, and every product reads this copy
    A = A[p][:, p].tocsc()
    try:
        lu = _DissectedLU(A, p)
    except RuntimeError as exc:   # pragma: no cover - depends on SuperLU
        raise NonConvergence(f"sparse solve failed: {exc}") from exc

    info = {"degree": degree, "deflated": degree == 0, "multiplier": 0.0}
    if degree > 0:
        sol = lu.solve(rhs)
        solved = rhs
    else:
        b = Bubble(pt)
        (jn_term,) = geom.jacobi_terms(b, pt.n)
        jn = geom.radial_profile(jn_term.radial, b)(r[:, None],
                                                     xn[None, :]).ravel()
        # the kernel profile augments interior equations only
        col = np.where(interior.ravel(), jn, 0.0)
        row = gg["W"].ravel() * jn
        # the gate's row equilibration of the bordered matrix
        row_sq = np.empty(rhs.size)
        row_sq[p] = np.bincount(A.indices, weights=A.data ** 2,
                                minlength=rhs.size)
        d = 1.0 / np.sqrt(row_sq + col ** 2)
        bordered = _BorderedLU(lu, col, row / np.linalg.norm(row), d)
        sol, mu = bordered.border_solve(rhs, 0.0)
        # block elimination is unstable when A is nearly singular, as it
        # is here along the kernel; one refinement step restores it
        dsol, dmu = bordered.border_solve(rhs - lu.matvec(sol) - mu * col,
                                          -(bordered.r @ sol))
        sol = sol + dsol
        mu = mu + dmu
        info["multiplier"] = float(mu)
        solved = rhs - mu * col
    if not np.all(np.isfinite(sol)):
        raise NonConvergence("sparse solve returned non-finite values")
    # static pivots leave element growth unchecked: the backward error of
    # the returned solution is the check that the LU held.  For degree 0
    # the multiplier's column stays on the right-hand side, because its
    # scale follows 1 / |j_n|, which spans about 150 decades over the
    # valid (n, D); the border row is checked on its own.  A symmetric
    # permutation keeps the set of row sums, so ||A|| reads the copy as is
    norm = np.bincount(A.indices, weights=np.abs(A.data)).max()
    berr = _backward_error(solved - lu.matvec(sol), norm, sol, solved)
    if degree == 0:
        berr = max(berr, _backward_error(bordered.r @ sol,
                                         np.abs(bordered.r).sum(), sol, 0.0))
    if not berr <= _BACKWARD_ERROR_MAX:
        raise NonConvergence(
            f"degree-{degree} solve has backward error {berr:.3e} above "
            f"{_BACKWARD_ERROR_MAX:g}")
    if degree == 0:
        # and the set of column sums of diag(d) A; every column holds
        # its diagonal, so no segment of indptr is empty
        base_norm = float(np.add.reduceat(np.abs(A.data) * d[p][A.indices],
                                          A.indptr[:-1]).max())
        kernel = np.append(jn / np.linalg.norm(jn), 0.0)
        info.update(_conditioning_check(bordered, base_norm, kernel))
    return sol.reshape(interior.shape), info


def residual_norm(pt, degree, psi, forcing, gs):
    """A-posteriori residual in the weighted discrete L2 norm.

    Fourth-order stencils evaluate the operator away from the scheme's
    own truncation error; the norm weights are r^{n-2} rs ts ds dt on
    the interior window [2, N-2]^2.  ``forcing`` is the node array of
    the right-hand side, as in solve_mode.  Returns (residual_norm,
    forcing_norm) for the relative statement.
    """
    n = pt.n
    cn = c_n(n)
    b = Bubble(pt)
    gg = grid_geometry(gs, n)
    s, t = gg["s"], gg["t"]
    r, xn, rs, rss, ts, tss = (gg[k] for k in ("r", "xn", "rs", "rss",
                                               "ts", "tss"))
    ds, dt = s[1] - s[0], t[1] - t[0]
    lam = degree * (degree + n - 3.0)
    evals = _forcing_grid(forcing, r, xn)

    # k -> f shifted by k nodes along ``axis``, on the window [2, N-2]^2
    def shifted(f, axis):
        def sh(k):
            ss = [slice(2, -2)] * 2
            ss[axis] = slice(2 + k, f.shape[axis] - 2 + k or None)
            return f[tuple(ss)]

        return sh

    def d1(f, axis, h):
        sh = shifted(f, axis)
        out = np.zeros_like(f)
        out[2:-2, 2:-2] = (-sh(2) + 8 * sh(1) - 8 * sh(-1) + sh(-2)) / (12 * h)
        return out

    def d2(f, axis, h):
        sh = shifted(f, axis)
        out = np.zeros_like(f)
        out[2:-2, 2:-2] = (-sh(2) + 16 * sh(1) - 30 * sh(0) + 16 * sh(-1)
                           - sh(-2)) / (12 * h * h)
        return out

    ps, pss = d1(psi, 0, ds), d2(psi, 0, ds)
    pt_, ptt = d1(psi, 1, dt), d2(psi, 1, dt)
    R = r[:, None]
    XN = xn[None, :]
    RS = rs[:, None]
    RSS = rss[:, None]
    TS = ts[None, :]
    TSS = tss[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = pss / RS ** 2 - ps * RSS / RS ** 3 + (n - 2.0) / R * (ps / RS) \
            - lam / R ** 2 * psi + ptt / TS ** 2 - pt_ * TSS / TS ** 3
    vpot = cn * n * (n + 2.0) * b.w_rx(R, XN) ** (-2.0)
    res = -cn * lap + vpot * psi - evals
    wt = R ** (n - 2) * RS * TS * ds * dt
    window = (slice(2, -2), slice(2, -2))
    rnorm = math.sqrt(float(np.sum(res[window] ** 2 * wt[window])))
    fnorm = math.sqrt(float(np.sum(evals[window] ** 2 * wt[window])))
    return rnorm, fnorm


# ---------------------------------------------------------------------------
# assembled corrector


@dataclass
class SolvedMode:
    degree: int
    weight: object
    label: str
    e: np.ndarray
    psi: np.ndarray
    info: dict = field(default_factory=dict)

    angular = ForcingMode.angular


@dataclass
class CorrectorSolution:
    """Angular modes of the corrector on a common grid."""

    pt: object
    gs: GridSpec
    modes: list
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self._gg = grid_geometry(self.gs, self.pt.n)

    @property
    def grid(self):
        return self._gg

    def angular_gram(self):
        """Gram matrix G[a, b] = int P_a P_b dtheta over the mode list."""
        return geom.sphere_pairings(self.modes, self.modes, self.pt.n - 1)

    def forcing_pairing(self):
        """int E_p V_p over the half-space through the modal Gram matrix.

        Both factors are mode sums on the shared grid, so the integral
        collapses to sum_ab G_ab * sum(W e_a psi_b); the degree-7 sphere
        rule behind angular_gram is exact for the degree <= 4 products.
        """
        return _pairing(self.angular_gram(), self.grid["W"],
                        [mode.e for mode in self.modes],
                        [mode.psi for mode in self.modes])

    # -- serialization: JSON header + one .npy per stored profile -------
    def save(self, directory):
        """Write corrector.json and each mode's e and psi as exact .npy.

        Each profile is the float64 (nr+1) x (nxn+1) array itself, rows
        the radial index; ``np.load(path)`` returns it bit for bit.
        """
        from pathlib import Path

        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        header = {
            "problem": self.pt.to_json_dict(),
            "grid": self.gs.to_json_dict(),
            "modes": [],
            "diagnostics": self.diagnostics,
        }
        for k, mode in enumerate(self.modes):
            stem = f"mode{k}_{mode.label}"
            np.save(out / f"{stem}_e.npy", mode.e, allow_pickle=False)
            np.save(out / f"{stem}_psi.npy", mode.psi, allow_pickle=False)
            weight = mode.weight if isinstance(mode.weight, float) \
                else np.asarray(mode.weight).tolist()
            header["modes"].append({
                "degree": mode.degree, "label": mode.label, "weight": weight,
                "e_npy": f"{stem}_e.npy", "psi_npy": f"{stem}_psi.npy",
                "info": {k2: v for k2, v in mode.info.items()
                         if isinstance(v, (int, float, bool, str))},
            })
        write_json(out / "corrector.json", header)
        return out / "corrector.json"


def solve_corrector(frame, pt, gs):
    """Decompose the forcing and solve each mode on the grid ``gs``."""
    gg = grid_geometry(gs, pt.n)
    r, xn = gg["r"], gg["xn"]
    b = Bubble(pt)
    solved = []
    for fm in decompose_forcing(frame, b):
        evals = np.asarray(geom.radial_profile(fm.radial, b)(
            r[:, None], xn[None, :]), dtype=float)
        psi, info = solve_mode(pt, fm.degree, evals, gs)
        solved.append(SolvedMode(degree=fm.degree, weight=fm.weight,
                                 label=fm.label, e=evals, psi=psi, info=info))
    return CorrectorSolution(pt=pt, gs=gs, modes=solved)


def _pairing(G, W, xs, ys):
    """sum_ab G_ab * sum(W x_a y_b) for two mode sums on the shared grid.

    ``G`` is the angular Gram matrix of the modes, and ``xs``, ``ys``
    hold one grid array per mode; zero Gram entries are skipped.
    """
    total = 0.0
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            g = float(G[a, b])
            if g != 0.0:
                total += g * float(np.sum(W * x * y))
    return total


def corrector_diagnostics(sol):
    """Orthogonality, decay, identity, residual and positivity checks.

    Returns a ValidationReport whose check values are scaled defects;
    the raw numbers land in sol.diagnostics.  The quadratic form and the
    fourth-order residual read the right-hand side each mode solved: its
    forcing on the equation rows, less the solvability multiplier times
    j_n for degree 0, and zero on the boundary rows.
    """
    pt = sol.pt
    n = pt.n
    b = Bubble(pt)
    gg = sol.grid
    r, xn, W = gg["r"], gg["xn"], gg["W"]
    nodes, wq = geom.sphere_rule(n - 1)
    checks = []
    diag = {}
    # rows that hold by structure when there is nothing to solve
    no_mode = "" if sol.modes else "vacuous: no forcing mode"

    G = sol.angular_gram()
    psis = [mode.psi for mode in sol.modes]
    vnorm = math.sqrt(max(_pairing(G, W, psis, psis), 0.0))
    diag["corrector_norm"] = vnorm

    # (i) orthogonality to the kernel, each j_i from its separable record.
    # j_1 .. j_{n-1} share one radial record: each distinct record's grid
    # profile and its sums are made once.  One sphere-rule call pairs the
    # modes, then the j_i themselves, with every j_i
    jterms = [geom.jacobi_terms(b, i)[0] for i in range(1, n + 1)]
    ang = geom.sphere_pairings([*sol.modes, *jterms], jterms, n - 1)
    j_mode = ang[:len(sol.modes)].T.tolist()    # j_i with each mode
    j_j = ang[len(sol.modes):].diagonal().tolist()
    profiles = {}   # radial record -> (j, sum(W psi j) per mode, sum(W j j))
    worst = 0.0
    for i, term in enumerate(jterms, start=1):
        if term.radial not in profiles:
            ji = geom.radial_profile(term.radial, b)(r[:, None], xn[None, :])
            profiles[term.radial] = (
                ji, [float(np.sum(W * mode.psi * ji)) for mode in sol.modes],
                float(np.sum(W * ji * ji)))
        ji, psi_sums, jj = profiles[term.radial]
        total = sum((p * s for p, s in zip(j_mode[i - 1], psi_sums)), 0.0)
        scale = vnorm * math.sqrt(j_j[i - 1] * jj)
        defect = abs(total) / scale if scale > 0 else 0.0
        diag[f"orthogonality_j{i}"] = total
        worst = max(worst, defect)
    jn = ji     # the loop ends on j_n, the degree-0 border
    checks.append(Check("kernel orthogonality", worst <= 1e-10, worst, 1e-10,
                        detail=no_mode))

    # (ii) decay envelope and fitted exponent
    if sol.modes:
        rho = np.sqrt(np.add.outer(r * r, (xn + pt.D) ** 2))
        combined = np.zeros_like(rho)
        for mode in sol.modes:
            combined = np.maximum(combined, np.abs(mode.psi))
        inner = (rho > 5.0) & (rho < 0.55 * sol.gs.r_max)
        outer = (rho > 0.75 * sol.gs.r_max) & (combined > 0)
        # rho >= D, so a large D or a small r_max can leave inner empty
        fitted = bool(np.any(inner))
        cfit = float(np.max(combined[inner] * (1 + rho[inner]) ** (n - 4),
                            initial=0.0))
        cout = float(np.max(combined[outer] * (1 + rho[outer]) ** (n - 4),
                            initial=0.0))
        bound_ok = fitted and cout <= 1.05 * cfit
        diag["decay_envelope_inner"] = cfit
        diag["decay_envelope_outer"] = cout
        window = (8.0, 0.6 * sol.gs.r_max)
        sel = (rho > window[0]) & (rho < window[1]) & (combined > 1e-14) \
            & (np.outer(r, np.ones_like(xn)) > 0.3 * rho)
        if np.count_nonzero(sel) > 10:
            slope = float(np.polyfit(np.log(rho[sel]),
                                     np.log(combined[sel]), 1)[0])
        else:
            slope = 0.0
        diag["decay_exponent"] = slope
        diag["decay_window"] = list(window)
        checks.append(Check("decay envelope (1+|x|)^{4-n}", bound_ok,
                            cout / cfit if cfit > 0 else 0.0, 1.05,
                            detail=f"fitted exponent {slope:.3f} on window "
                                   f"{window} (informational; the bound "
                                   f"check is the invariant)" if fitted
                            else "window holds no node"))
    else:
        diag["decay_exponent"] = 0.0
        checks.append(Check("decay envelope (1+|x|)^{4-n}", True, 0.0,
                            1.05, detail=no_mode))

    # (iii) interior mass balances boundary mass
    uq = b.U_rx(r[:, None], xn[None, :]) ** (crit_interior(n) - 1.0)
    ub = b.U_rx(r, 0.0) ** (crit_boundary(n) - 1.0)
    wr_line = r ** (n - 2) * gg["rs"] * _trap_weights(sol.gs.nr,
                                                      gg["s"][1] - gg["s"][0])
    lhs = rhs = 0.0
    averaged = False
    # j_n's angular factor is 1: its column is each mode's angular average
    for mode, mean in zip(sol.modes, j_mode[-1]):
        lhs += mean * abs(pt.K) * float(np.sum(W * uq * mode.psi))
        rhs += mean * (n - 1.0) * pt.H * float(np.sum(wr_line * ub
                                                      * mode.psi[:, 0]))
        averaged |= abs(mean) > 1e-12 * float(wq @ np.abs(mode.angular(nodes)))
    # when every mode's angular average is roundoff (pure degree-2
    # forcing) both sides are roundoff too; the identity is then vacuous
    # and reported as a zero defect
    denom = max(abs(lhs), abs(rhs))
    defect3 = abs(lhs - rhs) / denom if averaged and denom > 0.0 else 0.0
    diag["identity_lhs"] = lhs
    diag["identity_rhs"] = rhs
    checks.append(Check("interior/boundary mass identity", defect3 <= 1e-3,
                        defect3, 1e-3, detail="" if averaged else
                        "vacuous: no mode has an angular average"))

    # (iv) quadratic form = forcing pairing, and its sign.  A psi equals
    # the solved right-hand side on the equation rows, so the form pairs
    # that with psi; it differs from int E_p V_p by the forcing on the
    # boundary rows and, for degree 0, by the multiplier's term
    equation = np.zeros(W.shape, dtype=bool)
    equation[1:-1, 1:-1] = True
    es = [mode.e for mode in sol.modes]
    solved = [np.where(equation, mode.e - mode.info["multiplier"] * jn
                       if mode.degree == 0 else mode.e, 0.0)
              for mode in sol.modes]
    pairing = sol.forcing_pairing()
    qform = _pairing(G, W, solved, psis)
    rim = _pairing(G, W, [np.where(equation, 0.0, e) for e in es], psis)
    enorm = math.sqrt(max(_pairing(G, W, es, es), 0.0))
    diag["forcing_pairing"] = pairing
    diag["quadratic_form"] = qform
    scale4 = max(enorm * vnorm, 1e-300)
    agree = abs(pairing - qform) / max(abs(pairing), abs(qform)) \
        if max(abs(pairing), abs(qform)) > 1e-12 * scale4 else 0.0
    # psi on the Dirichlet rows is LU roundoff, so the boundary rows'
    # share is measured against the same floor as the pairing itself
    vacuous = abs(rim) <= 1e-12 * scale4
    checks.append(Check("pairing vs discrete quadratic form", agree <= 1e-3,
                        agree, 1e-3, detail="vacuous: the forcing vanishes "
                        "on the boundary rows" if vacuous else ""))
    positive = qform >= -1e-6 * scale4
    checks.append(Check("quadratic form nonnegative", positive,
                        qform / scale4, 1e-6,
                        detail=no_mode or f"int E_p V_p = {pairing:.6e}"))

    # (v) the independent route: fourth-order stencils on each solved
    # equation, away from the second-order scheme's truncation error
    for mode, f in zip(sol.modes, solved):
        res, fnorm = residual_norm(pt, mode.degree, mode.psi, f, sol.gs)
        # a forcing whose squares underflow reads zero in both norms
        ratio = res / fnorm if fnorm > 0.0 \
            else (0.0 if res == 0.0 else math.inf)
        cap = 2e-2 if mode.degree == 0 else 1e-2
        checks.append(Check(f"fourth-order residual / forcing ({mode.label})",
                            ratio <= cap, ratio, cap))

    sol.diagnostics.update(diag)
    return ValidationReport(checks=checks)
