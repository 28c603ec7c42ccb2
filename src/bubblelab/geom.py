"""Curvature-tensor algebra and the curvature forcing.

Boundary Riemann tensors are stored as rank-4 arrays ``R[i,k,j,l]`` whose
antisymmetric pairs are the slot pairs (0,1) and (2,3) and whose Ricci
contraction is over slots (0,2).  The projector onto the algebraic
curvature symmetries (antisymmetry, pair symmetry, first Bianchi) is a
single exact pass — the Bianchi defect of a pair-symmetric tensor is
totally antisymmetric, so subtracting it cannot disturb the other
symmetries.

The forcing attached to a bubble is

    E_p(x) = c_n (R[i,k,j,l] x_k x_l / 3 + Q_ij x_n^2) d2U/dx_i dx_j,

summed over tangential indices.  Since the tangential Hessian of U is
a(w) delta_ij + b(w) x_i x_j, the full contraction collapses to

    E_p = c_n ( a/3 <Ric xt, xt> + x_n^2 (a tr Q + b <Q xt, xt>) ),

because R[i,k,j,l] x_i x_k x_j x_l = 0 pointwise by antisymmetry.  In
the gauge of the model (Ric = 0, tr Q = 0) only the trace-free Q part
survives: a single degree-2 angular harmonic with an explicit radial
profile.  `forcing_Ep` keeps the naive index contraction as the
primary pointwise evaluation; the collapsed form drives the separable
integrals and the corrector.

Angular integrals of tensor contractions use a product Gauss rule on
the sphere (`sphere_rule`) that is exact for polynomial integrands up
to the requested degree, so "the integral vanishes" is always a
measured statement about a quadrature, never an assumption.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from . import quad
from .bubble import Bubble, c_n
from .errors import DomainError, InvalidFrame
from .model import Check, CurvatureFrame, ValidationReport

__all__ = [
    "project_riemann",
    "ricci",
    "kulkarni_nomizu",
    "weyl_part",
    "weyl_norm",
    "random_frame",
    "sphere_rule",
    "forcing_Ep",
    "forcing_profiles",
    "paired_halfspace",
    "integral_Ep_jacobi",
    "cancellation_suite",
]


# ---------------------------------------------------------------------------
# algebraic symmetry machinery


def project_riemann(T):
    """Project a rank-4 array onto the algebraic curvature symmetries.

    Antisymmetrize both pairs, symmetrize the pair exchange, then remove
    the first-Bianchi defect (the cyclic sum over the last three slots,
    divided by 3, which is totally antisymmetric).  One pass is exact:
    the projector is idempotent to rounding.
    """
    T = np.asarray(T, dtype=float)
    A = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)
                + T.transpose(1, 0, 3, 2))
    S = 0.5 * (A + A.transpose(2, 3, 0, 1))
    B = (S + S.transpose(0, 2, 3, 1) + S.transpose(0, 3, 1, 2)) / 3.0
    return S - B


def ricci(R):
    """Ricci contraction over slots (0, 2)."""
    return np.einsum("ikil->kl", R)


def kulkarni_nomizu(h, k):
    """(h ^ k)[a,b,c,d] = h_ac k_bd + h_bd k_ac - h_ad k_bc - h_bc k_ad."""
    return (np.einsum("ac,bd->abcd", h, k) + np.einsum("bd,ac->abcd", h, k)
            - np.einsum("ad,bc->abcd", h, k) - np.einsum("bc,ad->abcd", h, k))


def weyl_part(R):
    """Totally trace-free part of an algebraic curvature tensor (dim >= 4)."""
    m = R.shape[0]
    if m < 4:
        raise DomainError(f"Weyl part needs dimension >= 4, got {m}")
    ric = ricci(R)
    scal = float(np.trace(ric))
    g = np.eye(m)
    ric0 = ric - (scal / m) * g
    return R - kulkarni_nomizu(ric0, g) / (m - 2.0) \
        - scal / (2.0 * m * (m - 1.0)) * kulkarni_nomizu(g, g)


def weyl_norm(frame, tol=1e-8):
    """|Weyl|^2 of the boundary tensor, using the gauge shortcut Weyl = R.

    The shortcut is only valid when the boundary Ricci tensor vanishes;
    the trace conditions are checked first and InvalidFrame is raised if
    they fail beyond ``tol`` (relative to the largest component).
    """
    R = frame.riem_boundary
    scale = max(1.0, float(np.max(np.abs(R))) if R.size else 0.0)
    ric_viol = float(np.max(np.abs(ricci(R)))) if R.size else 0.0
    tr_viol = abs(float(np.trace(frame.normal_block)))
    if ric_viol > tol * scale or tr_viol > tol * max(
            1.0, float(np.max(np.abs(frame.normal_block)))):
        raise InvalidFrame(
            f"gauge trace conditions fail: |Ricci|_max={ric_viol:.3e}, "
            f"|tr normal_block|={tr_viol:.3e}")
    return float(np.sum(R * R))


def random_frame(n, rng, scale=1.0, normal_scale=1.0):
    """Random gauge-valid frame: Weyl-type boundary tensor + trace-free block."""
    m = n - 1
    W = weyl_part(project_riemann(rng.normal(size=(m, m, m, m))))
    norm = math.sqrt(float(np.sum(W * W)))
    if norm > 0.0:
        W = W * (scale / norm)
    Q = rng.normal(size=(m, m))
    Q = 0.5 * (Q + Q.T)
    Q -= np.trace(Q) / m * np.eye(m)
    qnorm = math.sqrt(float(np.sum(Q * Q)))
    if qnorm > 0.0:
        Q = Q * (normal_scale / qnorm)
    return CurvatureFrame(riem_boundary=W, normal_block=Q,
                          normal_block_div=float(rng.normal()),
                          weyl_norm_sq=float(np.sum(W * W)))


# ---------------------------------------------------------------------------
# product Gauss quadrature on spheres, exact for polynomials


@lru_cache(maxsize=None)
def sphere_rule(m, degree):
    """Nodes/weights on S^{m-1} integrating all polynomials of degree <= degree.

    Built recursively from theta = (u, sqrt(1-u^2) zeta) with a
    Gauss-Jacobi rule in u (weight (1-u^2)^{(m-3)/2}) and the rule on
    S^{m-2} for zeta; the base circle uses equispaced points.  Returns
    (nodes, weights) with shapes (q, m) and (q,); arrays are read-only.
    """
    if m < 1:
        raise DomainError(f"sphere_rule needs m >= 1, got {m}")
    if m == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif m == 2:
        K = max(int(degree) + 1, 3)
        ang = 2.0 * math.pi * np.arange(K) / K
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(K, 2.0 * math.pi / K)
    else:
        k = int(degree) // 2 + 1
        u, wu = roots_jacobi(k, 0.5 * (m - 3), 0.5 * (m - 3))
        sub_nodes, sub_w = sphere_rule(m - 1, degree)
        s = np.sqrt(1.0 - u * u)
        nodes = np.concatenate(
            [np.repeat(u, len(sub_w))[:, None],
             np.kron(s[:, None], sub_nodes)], axis=1)
        weights = np.kron(wu, sub_w)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# the curvature forcing


def forcing_Ep(frame, b, x):
    """Pointwise forcing by the naive index contraction (the primary form)."""
    b._require_normalized("forcing_Ep")
    x = np.asarray(x, dtype=float)
    n = b.n
    xt, xn = x[:-1], x[-1]
    coeff = np.einsum("ikjl,k,l->ij", frame.riem_boundary, xt, xt) / 3.0 \
        + frame.normal_block * xn ** 2
    hess_t = b.hess_U(x)[:-1, :-1]
    return c_n(n) * float(np.sum(coeff * hess_t))


def _hessian_radials(b):
    """Radial factors of the tangential Hessian: d2U_ij = a delta_ij + b x_i x_j."""
    n = b.n

    def a(r, xn):
        return -(n - 2.0) * b.C * b.w_rx(r, xn) ** (-0.5 * n)

    def bb(r, xn):
        return n * (n - 2.0) * b.C * b.w_rx(r, xn) ** (-0.5 * (n + 2.0))

    return a, bb


def forcing_profiles(frame, b):
    """The forcing as a sum of separable terms coef(r, x_n) * F(theta).

    Returns a list of (coef, F) pairs with coef a broadcasting callable
    and F a callable on (q, n-1) sphere-node arrays, such that
    E_p(r theta, x_n) = sum coef(r, x_n) * F(theta) exactly (the quartic
    antisymmetry contraction is dropped; it vanishes pointwise).
    """
    b._require_normalized("forcing_profiles")
    n = b.n
    cn = c_n(n)
    ric = ricci(frame.riem_boundary)
    Q = frame.normal_block
    trQ = float(np.trace(Q))
    a, bb = _hessian_radials(b)

    def quadform(M):
        return lambda nodes: np.einsum("ij,qi,qj->q", M, nodes, nodes)

    terms = [
        (lambda r, xn: cn * (a(r, xn) / 3.0) * r * r, quadform(ric)),
        (lambda r, xn: cn * a(r, xn) * xn * xn * trQ,
         lambda nodes: np.ones(nodes.shape[0])),
        (lambda r, xn: cn * bb(r, xn) * xn * xn * r * r, quadform(Q)),
    ]
    return terms


def paired_halfspace(terms_a, terms_b, n, degree=4, rel_tol=1e-10):
    """Half-space integral of (sum_a coef*F) * (sum_b coef*F).

    Angular factors are integrated by the sphere-exact product rule,
    radial factors by nested compactified adaptive quadrature.
    """
    nodes, weights = sphere_rule(n - 1, degree)
    total = 0.0
    for coef_a, F_a in terms_a:
        va = np.asarray(F_a(nodes), dtype=float)
        for coef_b, F_b in terms_b:
            ang = float(weights @ (va * np.asarray(F_b(nodes), dtype=float)))
            if ang == 0.0:
                continue

            def inner(xn, ca=coef_a, cb=coef_b):
                return quad.integrate_halfline(
                    lambda r: ca(r, xn) * cb(r, xn) * r ** (n - 2),
                    a=0.0, rel_tol=0.1 * rel_tol, abs_tol=1e-280)

            radial = quad.integrate_halfline(inner, a=0.0, rel_tol=rel_tol,
                                             abs_tol=1e-280)
            total += ang * radial
    return total


def _jacobi_terms(b, s):
    """Separable terms of the kernel element j_s (normalized bubble)."""
    n = b.n
    D = b.pt.D
    if s < n:
        def coef(r, xn):
            return (2.0 - n) * b.C * r * b.w_rx(r, xn) ** (-0.5 * n)

        return [(coef, lambda nodes: nodes[:, s - 1])]

    def coef_n(r, xn):
        return 0.5 * (n - 2.0) * b.C * (r * r + xn * xn + 1.0 - D * D) \
            * b.w_rx(r, xn) ** (-0.5 * n)

    return [(coef_n, lambda nodes: np.ones(nodes.shape[0]))]


def forcing_norm(frame, b, rel_tol=1e-9):
    """L^2 norm of the forcing over the half-space."""
    ep = forcing_profiles(frame, b)
    return math.sqrt(max(paired_halfspace(ep, ep, b.n, degree=5,
                                          rel_tol=rel_tol), 0.0))


def jacobi_norm(b, s, rel_tol=1e-9):
    """L^2 norm of the kernel element j_s (same value for all s < n)."""
    js = _jacobi_terms(b, s)
    return math.sqrt(max(paired_halfspace(js, js, b.n, degree=5,
                                          rel_tol=rel_tol), 0.0))


def integral_Ep_jacobi(frame, b, s, rel_tol=1e-9, ep_norm=None, js_norm=None):
    """(value, scale) of int E_p j_s over the half-space.

    scale = ||E_p||_L2 * ||j_s||_L2; the orthogonality statement is
    |value| <= tol * scale.  Precomputed norms may be passed in when
    sweeping many kernel elements against one frame.
    """
    ep = forcing_profiles(frame, b)
    js = _jacobi_terms(b, s)
    value = paired_halfspace(ep, js, b.n, degree=5, rel_tol=rel_tol)
    if ep_norm is None:
        ep_norm = forcing_norm(frame, b, rel_tol)
    if js_norm is None:
        js_norm = jacobi_norm(b, s, rel_tol)
    return value, ep_norm * js_norm


# ---------------------------------------------------------------------------
# cancellation suite


def cancellation_suite(frame, pt, tol=1e-8, rel_tol=1e-10):
    """Numerically verify the vanishing/ratio identities behind the expansion.

    (1) int (R[i,k,j,l] x_k x_l / 3 + Q_ij x_n^2) d_iU d_jU = 0;
    (2) int x_n^2 xt_1^4 / w^n = 3 int x_n^2 xt_1^2 xt_2^2 / w^n;
    (3) int x_n^2 xt_1^4 / w^n = 3/(n^2-1) int x_n^2 |xt|^4 / w^n;
    (4) int R[i,k,s,l] R[j,m,s,p] x_k x_l x_m x_p d_iU d_jU / 15 = 0
        (second-derivative curvature inputs default to zero here).

    Angular factors are integrated by the sphere-exact rule, radial
    factors by adaptive quadrature; every check reports |value|/scale.
    """
    b = Bubble(pt)
    n = b.n
    m = n - 1
    q = 0.5 * (n - 2.0)
    R = frame.riem_boundary
    Q = frame.normal_block
    grad_amp = 4.0 * q * q * b.C * b.C   # d_iU d_jU = grad_amp w^-n x_i x_j

    def radial(rpow, xnpow):
        def inner(xn):
            return quad.integrate_halfline(
                lambda r: r ** (rpow + n - 2) * xn ** xnpow
                * b.w_rx(r, xn) ** (-float(n)),
                a=0.0, rel_tol=0.1 * rel_tol, abs_tol=1e-280)

        return quad.integrate_halfline(inner, a=0.0, rel_tol=rel_tol,
                                       abs_tol=1e-280)

    nodes, weights = sphere_rule(m, 6)
    checks = []

    # (1) the delta^2 term
    ang_R = float(weights @ np.einsum("ikjl,qk,ql,qi,qj->q", R, nodes, nodes,
                                      nodes, nodes, optimize=True))
    ang_Q = float(weights @ np.einsum("ij,qi,qj->q", Q, nodes, nodes))
    rad4 = radial(4, 0)
    rad2 = radial(2, 2)
    val1 = grad_amp * (ang_R / 3.0 * rad4 + ang_Q * rad2)
    scale1 = grad_amp * quad.sphere_area(m) * (
        math.sqrt(float(np.sum(R * R))) / 3.0 * rad4
        + math.sqrt(float(np.sum(Q * Q))) * rad2)
    checks.append(Check("delta^2 term vanishes", abs(val1) <= tol * scale1,
                        abs(val1) / scale1, tol))

    # (2) factor-3 moment ratio
    ang_1111 = float(weights @ nodes[:, 0] ** 4)
    ang_1122 = float(weights @ (nodes[:, 0] ** 2 * nodes[:, 1] ** 2))
    lhs = ang_1111 * rad2
    rhs = ang_1122 * rad2
    err2 = abs(lhs - 3.0 * rhs) / abs(lhs)
    checks.append(Check("moment ratio factor 3", err2 <= tol, err2, tol))

    # (3) factor 3/(n^2-1) against the full |xt|^4 moment
    full = quad.sphere_area(m) * rad2   # sum over angles of |theta|^4 = omega
    err3 = abs(lhs - 3.0 / (n * n - 1.0) * full) / abs(lhs)
    checks.append(Check("moment ratio factor 3/(n^2-1)", err3 <= tol, err3, tol))

    # (4) quartic curvature term
    A = np.einsum("iksl,qk,ql->qis", R, nodes, nodes, optimize=True)
    ang_RR = float(weights @ np.einsum("qis,qjs,qi,qj->q", A, A, nodes, nodes,
                                       optimize=True))
    rad6 = radial(6, 0)
    val4 = grad_amp / 15.0 * ang_RR * rad6
    scale4 = grad_amp / 15.0 * float(np.sum(R * R)) * rad6 \
        * quad.sphere_area(m)
    checks.append(Check("quartic curvature term vanishes",
                        abs(val4) <= tol * scale4, abs(val4) / scale4, tol))
    return ValidationReport(checks=checks)
