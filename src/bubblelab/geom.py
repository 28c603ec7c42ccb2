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
primary pointwise evaluation.

The collapsed form is held as separable records (`Term`): an angular
factor on sphere nodes, which carries the frame, times a list of
radial monomials (coef, a, b, m) meaning coef x_n^a r^b w^-m.
`forcing_terms` gives the three forcing records (ricci, trace,
normal-block) and `jacobi_terms` the kernel elements j_s.  The same
records drive the corrector's modal profiles and every half-space
pairing.  A pairing multiplies monomials, so its radial factor is a
`quad.MomentTable` half-space moment: a closed-form Beta moment times
a closed-form tail (`paired_moments`).  `paired_halfspace` is the
independent route: it takes a list of record pairs and integrates
each pair's product of pointwise profiles by double-exponential
quadrature, all pairs as the members of one `quad._de_quadrant`
family, whose values are bit for bit those of one call per pair.
`route_gap` compares the two routes on the five self-pairs of the
radial records in one such call.

Angular integrals of tensor contractions use one fully symmetric
sphere rule (`sphere_rule`), fitted to the closed-form sphere moments
and exact to degree 7, so "the integral vanishes" is always a measured
statement about a quadrature, never an assumption.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import quad
from .bubble import Bubble, c_n, check_field_index
from .errors import DomainError, InvalidFrame
from .model import Check, CurvatureFrame, ValidationReport, validate_frame

__all__ = [
    "project_riemann",
    "ricci",
    "kulkarni_nomizu",
    "weyl_part",
    "weyl_norm",
    "random_frame",
    "sphere_rule",
    "forcing_Ep",
    "Term",
    "forcing_terms",
    "jacobi_terms",
    "radial_profile",
    "paired_moments",
    "paired_halfspace",
    "forcing_norm",
    "jacobi_norm",
    "integral_Ep_jacobi",
    "route_gap",
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


_GAUGE_ROWS = ("boundary Ricci vanishes", "normal block trace vanishes")


def weyl_norm(frame):
    """|Weyl|^2 of the boundary tensor, using the gauge shortcut Weyl = R.

    The shortcut is only valid in the gauge, so InvalidFrame is raised
    when validate_frame's "boundary Ricci vanishes" or "normal block
    trace vanishes" row fails.
    """
    bad = [c for c in validate_frame(frame).failures()
           if c.name in _GAUGE_ROWS]
    if bad:
        raise InvalidFrame("gauge trace conditions fail: " + ", ".join(
            f"{c.name} ({c.value:.3e} > {c.bound:.3e})" for c in bad))
    R = frame.riem_boundary
    return float(np.sum(R * R))


def random_frame(n, rng):
    """Random gauge-valid frame: a Weyl-type boundary tensor and a
    trace-free normal block, each of unit Frobenius norm."""
    m = n - 1
    # scaled by the reciprocal: W / norm rounds differently, and every
    # seeded report is built on these bits
    W = weyl_part(project_riemann(rng.normal(size=(m, m, m, m))))
    norm = math.sqrt(float(np.sum(W * W)))
    if norm > 0.0:
        W = W * (1.0 / norm)
    Q = rng.normal(size=(m, m))
    Q = 0.5 * (Q + Q.T)
    Q -= np.trace(Q) / m * np.eye(m)
    qnorm = math.sqrt(float(np.sum(Q * Q)))
    if qnorm > 0.0:
        Q = Q * (1.0 / qnorm)
    return CurvatureFrame(riem_boundary=W, normal_block=Q)


# ---------------------------------------------------------------------------
# a fully symmetric degree-7 rule on spheres


@lru_cache(maxsize=None)
def sphere_rule(m):
    """Nodes/weights on S^{m-1} integrating all polynomials of degree <= 7.

    The nodes are the orbits, under permutations and sign changes of the
    coordinates, of the points with k entries 1/sqrt(k) and the rest 0,
    for k in {1, 2, 3, m}; each orbit has one weight.  Being invariant
    under that group, the rule integrates every odd monomial to 0, and
    with |theta|^2 = 1 every even moment of degree <= 6 follows from
    those of 1, theta_1^4 and theta_1^6.  The weights are the
    minimum-norm least-squares solution of these three conditions, with
    `quad.sphere_monomial` on the right, as in Stroud's fully symmetric
    rules (*Approximate Calculation of Multiple Integrals*, 1971, U_n
    7-1).  The orbits k = 1, 2, 3 alone get a negative weight from
    m = 6; with the fourth, the weights stay positive up to m = 13.  No
    angular integrand here exceeds degree 6 (the quartic curvature term
    of `cancellation_suite`), so the rule has no degree knob.  Returns
    (nodes, weights) with shapes (q, m) and (q,), q = 2 to 3,610 for
    m = 1 to 11; arrays are read-only.
    """
    if m < 1:
        raise DomainError(f"sphere_rule needs m >= 1, got {m}")
    orbits = []
    for k in sorted({1, 2, 3, m} & set(range(1, m + 1))):
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
        signs /= math.sqrt(k)
        orbit = np.zeros((math.comb(m, k), len(signs), m))
        for row, idx in enumerate(itertools.combinations(range(m), k)):
            orbit[row][:, idx] = signs
        orbits.append(orbit.reshape(-1, m))
    # one column per orbit: its sums of 1, theta_1^4 and theta_1^6
    A = np.array([[np.sum(o[:, 0] ** p) for o in orbits] for p in (0, 4, 6)])
    rhs = np.array([quad.sphere_monomial((p,), m) for p in (0, 4, 6)])
    w = np.linalg.lstsq(A, rhs, rcond=None)[0]
    nodes = np.concatenate(orbits)
    weights = np.repeat(w, [len(o) for o in orbits])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# the curvature forcing


def forcing_Ep(frame, b, x):
    """Forcing at the points x (..., n) by the naive index contraction
    (the primary form)."""
    x = np.asarray(x, dtype=float)
    xt = x[..., :-1]
    coeff = np.einsum("ikjl,...k,...l->...ij", frame.riem_boundary, xt, xt) \
        / 3.0 + frame.normal_block * x[..., -1, None, None] ** 2
    hess_t = b.hess_U(x)[..., :-1, :-1]
    return c_n(b.n) * np.sum(coeff * hess_t, axis=(-2, -1))


class Term(NamedTuple):
    """One separable term: angular(theta) * sum coef x_n^a r^b w^-m.

    ``angular`` maps a (q, n-1) array of sphere nodes to q values and
    ``radial`` is a tuple of monomials (coef, a, b, m), with w the
    normalized bubble's w along the slice.  Frame data sit only in the
    angular factor, so the radial monomials depend on (n, D) alone.
    """

    angular: object
    radial: tuple


def _quadform(M):
    return lambda nodes: np.einsum("ij,qi,qj->q", M, nodes, nodes)


def _ones(nodes):
    return np.ones(nodes.shape[0])


def forcing_terms(frame, b):
    """The forcing as three records: ricci, trace and normal-block.

    The tangential Hessian of U is a delta_ij + b x_i x_j with
    a = -(n-2) C w^{-n/2} and b = n(n-2) C w^{-(n+2)/2}, so
    E_p(r theta, x_n) = sum angular(theta) * radial(r, x_n) exactly (the
    quartic antisymmetry contraction is dropped; it vanishes pointwise).
    """
    n = b.n
    amp = c_n(n) * (n - 2.0) * b.C
    trQ = float(np.trace(frame.normal_block))
    return [
        Term(_quadform(ricci(frame.riem_boundary) / 3.0),
             ((-amp, 0, 2, 0.5 * n),)),
        Term(lambda nodes: np.full(nodes.shape[0], trQ),
             ((-amp, 2, 0, 0.5 * n),)),
        Term(_quadform(frame.normal_block),
             ((n * amp, 2, 2, 0.5 * (n + 2.0)),)),
    ]


def jacobi_terms(b, s):
    """The kernel element j_s (1-based, s = n radial) as one record."""
    n = b.n
    check_field_index(n, s)
    if s < n:
        return [Term(lambda nodes: nodes[:, s - 1],
                     (((2.0 - n) * b.C, 0, 1, 0.5 * n),))]
    c = 0.5 * (n - 2.0) * b.C
    return [Term(_ones,
                 ((c, 0, 2, 0.5 * n), (c, 2, 0, 0.5 * n),
                  (c * (1.0 - b.pt.D ** 2), 0, 0, 0.5 * n)))]


def _monomials(radial, r, xn, w):
    """sum coef x_n^a r^b w^-m of ``radial`` at (r, x_n), with w given."""
    return sum(c * xn ** a * r ** p * w ** -m for c, a, p, m in radial)


def radial_profile(radial, b):
    """Pointwise sum coef x_n^a r^b w^-m of a record's monomials, broadcasting."""
    def profile(r, xn):
        return _monomials(radial, r, xn, b.w_rx(r, xn))

    return profile


def _angular_factors(terms, nodes):
    """Each distinct record's angular factor on the sphere nodes, once."""
    return {t: np.asarray(t.angular(nodes), dtype=float)
            for t in dict.fromkeys(terms)}


def paired_moments(terms_a, terms_b, table):
    """Half-space integral of (sum_a term) * (sum_b term), by moments.

    Angular factors are integrated by the degree-7 sphere rule and
    always kept as measured values; each radial product is a half-space
    moment of ``table`` (a closed-form Beta moment times a closed-form
    tail), divided by the sphere area the angular rule carries.
    """
    nodes, weights = sphere_rule(table.n - 1)
    values = _angular_factors([*terms_a, *terms_b], nodes)
    total = 0.0
    for ta in terms_a:
        for tb in terms_b:
            ang = float(weights @ (values[ta] * values[tb]))
            radial = sum(ca * cb * table.halfspace_moment(aa + ab, pa + pb,
                                                          ma + mb)
                         for ca, aa, pa, ma in ta.radial
                         for cb, ab, pb, mb in tb.radial)
            total += ang * radial
    return total / table.omega


def paired_halfspace(pairs, b):
    """The integrals of `paired_moments`, pair by pair, by quadrature.

    ``pairs`` is a list of (term_a, term_b); the value of a pair is its
    sphere-rule angular factor times the half-space integral of the
    product of the two records' pointwise profiles, and the list of
    values follows ``pairs``.  A pair whose angular factor is exactly
    0.0 gets 0.0 and no integral.  The others are the members of one
    family of `quad._de_quadrant`, the tensor exp-sinh rule on
    [0, inf)^2 with its nodes at the bubble's length D, at relative
    tolerance 1e-9: one node set, on whose blocks w, r^{n-2} and each
    distinct record's profile are formed once, while each member keeps
    its own level test, stop level and checks, so its value is bit for
    bit the one a call of its own returns.  This is the independent
    route: it never sees the monomial exponents and shares no closed
    form with the moment route, which calls no quadrature.
    """
    n = b.n
    nodes, weights = sphere_rule(n - 1)
    values = _angular_factors([t for pair in pairs for t in pair], nodes)
    angular = [float(weights @ (values[ta] * values[tb])) for ta, tb in pairs]
    live = [pair for pair, ang in zip(pairs, angular) if ang != 0.0]

    def F(r, xn, which):
        w = b.w_rx(r, xn)
        weight = r ** (n - 2)
        profiles = {}

        def profile(term):
            if term.radial not in profiles:
                profiles[term.radial] = _monomials(term.radial, r, xn, w)
            return profiles[term.radial]

        return [profile(ta) * profile(tb) * weight
                for ta, tb in (live[k] for k in which)]

    radial = iter(quad._de_quadrant(F, 1e-9, b.pt.D, count=len(live))
                  if live else ())
    return [ang * next(radial) if ang != 0.0 else 0.0 for ang in angular]


def forcing_norm(frame, b):
    """L^2 norm of the forcing over the half-space."""
    ep = forcing_terms(frame, b)
    return math.sqrt(max(paired_moments(ep, ep, b.pt.moments), 0.0))


def jacobi_norm(b, s):
    """L^2 norm of the kernel element j_s (same value for all s < n)."""
    js = jacobi_terms(b, s)
    return math.sqrt(max(paired_moments(js, js, b.pt.moments), 0.0))


def integral_Ep_jacobi(frame, b, s, ep_norm=None):
    """(value, scale) of int E_p j_s over the half-space.

    scale = ||E_p||_L2 * ||j_s||_L2; the orthogonality statement is
    |value| <= tol * scale.  A precomputed ||E_p|| may be passed in when
    sweeping many kernel elements against one frame; the sweep shares
    the moments of its point, ``b.pt.moments``.
    """
    value = paired_moments(forcing_terms(frame, b), jacobi_terms(b, s),
                           b.pt.moments)
    if ep_norm is None:
        ep_norm = forcing_norm(frame, b)
    return value, ep_norm * jacobi_norm(b, s)


def route_gap(frame, b):
    """Worst relative gap between the moment route and `paired_halfspace`.

    Every radial record (the three forcing terms, j_1 and j_n) is paired
    with itself under a unit angular factor once through each route, so
    the check covers each monomial list whatever the frame's angular
    weights are.
    """
    records = forcing_terms(frame, b) + jacobi_terms(b, 1) \
        + jacobi_terms(b, b.n)
    units = [rec._replace(angular=_ones) for rec in records]
    direct = paired_halfspace([(unit, unit) for unit in units], b)
    worst = 0.0
    for unit, value in zip(units, direct):
        moments = paired_moments([unit], [unit], b.pt.moments)
        worst = max(worst, abs(value - moments) / abs(moments))
    return worst


# ---------------------------------------------------------------------------
# cancellation suite


def cancellation_suite(frame, pt, tol=1e-8):
    """Numerically verify the vanishing/ratio identities behind the expansion.

    (1) int (R[i,k,j,l] x_k x_l / 3 + Q_ij x_n^2) d_iU d_jU = 0;
    (2) int x_n^2 xt_1^4 / w^n = 3 int x_n^2 xt_1^2 xt_2^2 / w^n;
    (3) int x_n^2 xt_1^4 / w^n = 3/(n^2-1) int x_n^2 |xt|^4 / w^n;
    (4) int R[i,k,s,l] R[j,m,s,p] x_k x_l x_m x_p d_iU d_jU / 15 = 0
        (second-derivative curvature inputs default to zero here).

    Angular factors are integrated by the sphere-exact rule, radial
    factors are half-space moments of ``pt.moments``; every check reports
    |value|/scale.  The radial moment of (4) diverges for n <= 6, and
    that check then fails with the divergence as its detail.
    """
    b = Bubble(pt)
    table = pt.moments
    n = b.n
    m = n - 1
    q = 0.5 * (n - 2.0)
    R = frame.riem_boundary
    Q = frame.normal_block
    grad_amp = 4.0 * q * q * b.C * b.C   # d_iU d_jU = grad_amp w^-n x_i x_j

    def radial(rpow, xnpow):
        return table.halfspace_moment(xnpow, rpow, n) / table.omega

    nodes, weights = sphere_rule(m)
    # A[q, i, s] = R[i,k,s,l] theta_k theta_l, the angular factor of (1)
    # and (4)
    A = np.einsum("iksl,qk,ql->qis", R, nodes, nodes, optimize=True)
    ang_R = float(weights @ np.einsum("qij,qi,qj->q", A, nodes, nodes,
                                      optimize=True))
    ang_RR = float(weights @ np.einsum("qis,qjs,qi,qj->q", A, A, nodes, nodes,
                                       optimize=True))
    checks = []

    # (1) the delta^2 term
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
    name4 = "quartic curvature term vanishes"
    try:
        rad6 = radial(6, 0)
    except DomainError as exc:      # the moment diverges for n <= 6
        checks.append(Check(name4, False, 0.0, tol, detail=str(exc)))
        return ValidationReport(checks=checks)
    val4 = grad_amp / 15.0 * ang_RR * rad6
    scale4 = grad_amp / 15.0 * float(np.sum(R * R)) * rad6 \
        * quad.sphere_area(m)
    checks.append(Check(name4, abs(val4) <= tol * scale4, abs(val4) / scale4,
                        tol))
    return ValidationReport(checks=checks)
