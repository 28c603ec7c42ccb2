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
radial records in one such call.  `decompose_forcing` splits the
forcing into the angular modes that the corrector's grid and the
whole-domain route of `spectral` solve, each mode a record whose
profile is its radial monomials (`radial_profile` evaluates them); it
needs numpy alone, so `locate` reaches it without the sparse solver.

Angular integrals of tensor contractions use one fully symmetric
sphere rule (`sphere_rule`), fitted to the closed-form sphere moments
and exact to degree 7, so "the integral vanishes" is always a measured
statement about a quadrature, never an assumption.  `sphere_pairings`
is the one sphere-rule pairing of two lists of angular factors: the
moment and quadrature routes here, and the angular Gram matrix of both
modal routes, read it.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import quad
from .bubble import Bubble, c_n, check_field_index
from .errors import DecompositionError, DomainError, InvalidFrame
from .model import Check, CurvatureFrame, validate_frame

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
    "sphere_pairings",
    "paired_moments",
    "paired_halfspace",
    "forcing_norm",
    "jacobi_norm",
    "integral_Ep_jacobi",
    "route_gap",
    "ForcingMode",
    "decompose_forcing",
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
    bad = [c for c in validate_frame(frame)
           if c.name in _GAUGE_ROWS and not c.passed]
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


def sphere_pairings(left, right, m):
    """Sphere-rule pairings G[a, b] = sum_q w_q A_a(theta_q) B_b(theta_q).

    ``left`` and ``right`` list records whose ``angular`` maps a (q, m)
    array of `sphere_rule` nodes to q values: `Term`s, `ForcingMode`s or
    the corrector's solved modes.  Each distinct record is evaluated
    once, keyed by identity, since a mode's weight is an array and a
    mode does not hash.  Returns the (len(left), len(right)) array.
    """
    nodes, weights = sphere_rule(m)
    values = {}
    for rec in (*left, *right):
        if id(rec) not in values:
            values[id(rec)] = np.asarray(rec.angular(nodes), dtype=float)
    return np.array([[float(weights @ (values[id(a)] * values[id(b)]))
                      for b in right] for a in left]) \
        .reshape(len(left), len(right))


def paired_moments(terms_a, terms_b, table):
    """Half-space integral of (sum_a term) * (sum_b term), by moments.

    Angular factors are integrated by the degree-7 sphere rule and
    always kept as measured values; each radial product is a half-space
    moment of ``table`` (a closed-form Beta moment times a closed-form
    tail), divided by the sphere area the angular rule carries.
    """
    angular = sphere_pairings(terms_a, terms_b, table.n - 1)
    total = 0.0
    for ta, row in zip(terms_a, angular):
        for tb, ang in zip(terms_b, row.tolist()):
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
    left, right = [ta for ta, _ in pairs], [tb for _, tb in pairs]
    angular = sphere_pairings(left, right, n - 1).diagonal().tolist()
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


def integral_Ep_jacobi(frame, b, s, ep_norm):
    """(value, scale) of int E_p j_s over the half-space.

    scale = ||E_p||_L2 * ||j_s||_L2, with ``ep_norm`` = `forcing_norm`
    computed once for a sweep of kernel elements against one frame; the
    orthogonality statement is |value| <= tol * scale.  The sweep shares
    the moments of its point, ``b.pt.moments``.
    """
    value = paired_moments(forcing_terms(frame, b), jacobi_terms(b, s),
                           b.pt.moments)
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
# angular decomposition of the forcing


class ForcingMode(NamedTuple):
    """One angular component of the forcing: E contribution P(theta) e(r, x_n).

    degree 0 carries a scalar weight with P = 1; degree 2 carries a
    symmetric trace-free matrix weight with P(theta) = <W theta, theta>.
    ``radial`` holds the monomials (coef, a, b, m) of e, as in `Term`,
    and is the profile's one representation: `radial_profile` evaluates
    it pointwise, and a route that needs e's far field reads its powers.
    """

    degree: int
    weight: object
    label: str
    radial: tuple

    def angular(self, nodes):
        """P(theta) on a (q, n-1) array of unit vectors."""
        if self.degree == 0:
            return np.ones(nodes.shape[0])
        W = self.weight
        return np.einsum("ij,qi,qj->q", W, nodes, nodes)


def decompose_forcing(frame, b):
    """Split the forcing into angular modes with radial profiles.

    E_p(r theta, x_n) = sum_modes P_d(theta) e_d(r, x_n), where the
    candidate modes come from the trace/trace-free split of the two
    frame contractions.  Modes whose weight is below 1e-13 of the frame
    scale are dropped (a zero frame yields an empty list).  The
    decomposition is validated two ways: the odd part of E_p over
    antipodal sphere nodes must vanish (degrees 1 and 3 absent), and the
    reconstruction must match the naive contraction at 100 random
    points; a failure raises DecompositionError.
    """
    n = b.n
    m = n - 1
    ric = ricci(frame.riem_boundary)
    Q = np.asarray(frame.normal_block, dtype=float)
    mean_ric = float(np.trace(ric)) / m
    trQ = float(np.trace(Q))
    ric0 = ric - mean_ric * np.eye(m)
    Q0 = Q - (trQ / m) * np.eye(m)
    scale = max(float(np.max(np.abs(frame.riem_boundary), initial=0.0)),
                float(np.max(np.abs(Q), initial=0.0)))
    cutoff = 1e-13 * max(scale, 1e-300)

    # the records' angular factors are <Ric theta, theta>/3, tr Q and
    # <Q theta, theta>; the split below takes their traces apart
    records = [t.radial for t in forcing_terms(frame, b)]

    modes = []
    if abs(mean_ric) + abs(trQ) > cutoff:
        radial0 = tuple((f * c, a, p, k)
                        for f, rec in zip((mean_ric / 3.0, trQ, trQ / m),
                                          records)
                        for c, a, p, k in rec)
        modes.append(ForcingMode(0, 1.0, "trace", radial0))
    if float(np.max(np.abs(ric0), initial=0.0)) > cutoff:
        modes.append(ForcingMode(2, ric0 / 3.0, "boundary-ricci", records[0]))
    if float(np.max(np.abs(Q0), initial=0.0)) > cutoff:
        modes.append(ForcingMode(2, Q0.copy(), "normal-block", records[2]))

    if scale == 0.0:
        return modes            # empty

    # parity: the odd angular part (degrees 1 and 3) must vanish pointwise
    # at three draws of (r, x_n) over a subset of the sphere nodes
    nodes, _ = sphere_rule(m)
    theta = nodes[:: max(1, len(nodes) // 16)]
    rng = np.random.default_rng(1871)
    r, xn = rng.uniform([0.3, 0.0], 3.0, size=(3, 2)).T[:, :, None, None]
    xn = np.broadcast_to(xn, (3, len(theta), 1))
    ep = forcing_Ep(frame, b, np.concatenate([r * theta, xn], axis=-1))
    em = forcing_Ep(frame, b, np.concatenate([-r * theta, xn], axis=-1))
    worst_odd = np.max(np.abs(ep - em)) / 2.0
    odd_scale = max(np.max(np.abs(ep)), np.max(np.abs(em)))
    if worst_odd > 1e-12 * max(odd_scale, 1e-300):
        raise DecompositionError(
            f"odd angular component {worst_odd:.3e} exceeds "
            f"1e-12 * {odd_scale:.3e}")

    # reconstruction against the naive contraction at 100 points
    x = rng.normal(size=(100, n))
    x[:, -1] = np.abs(x[:, -1])
    r = np.linalg.norm(x[:, :-1], axis=-1)
    theta = x[:, :-1] / r[:, None]
    rec = sum(mode.angular(theta)
              * radial_profile(mode.radial, b)(r, x[:, -1])
              for mode in modes)
    ep = forcing_Ep(frame, b, x)
    worst = np.max(np.abs(rec - ep))
    biggest = np.max(np.abs(ep))
    if worst > 1e-10 * max(biggest, 1e-300):
        raise DecompositionError(
            f"reconstruction defect {worst:.3e} exceeds "
            f"1e-10 * {biggest:.3e}")
    return modes


# ---------------------------------------------------------------------------
# cancellation suite


# the bound of every cancellation check, a relative defect
CANCELLATION_TOL = 1e-8


def _vanishing_row(name, val, scale, vacuous):
    """The row of an integral that must vanish: |val| / scale; a zero
    scale leaves nothing to measure, and the row reads 0.0 with the
    ``vacuous`` detail."""
    return Check(name, abs(val) / scale if scale > 0.0 else 0.0,
                 CANCELLATION_TOL, detail="" if scale > 0.0 else vacuous)


def cancellation_suite(frame, pt):
    """Numerically verify the vanishing/ratio identities behind the expansion.

    (1) int (R[i,k,j,l] x_k x_l / 3 + Q_ij x_n^2) d_iU d_jU = 0;
    (2) int x_n^2 xt_1^4 / w^n = 3 int x_n^2 xt_1^2 xt_2^2 / w^n;
    (3) int x_n^2 xt_1^4 / w^n = 3/(n^2-1) int x_n^2 |xt|^4 / w^n;
    (4) int R[i,k,s,l] R[j,m,s,p] x_k x_l x_m x_p d_iU d_jU / 15 = 0
        (second-derivative curvature inputs default to zero here).

    Angular factors are integrated by the sphere-exact rule, radial
    factors are half-space moments of ``pt.moments``.  Returns a list of
    four Check rows, each reporting |value|/scale; rows (1) and (4) read
    0.0 with a "vacuous:" detail when their scale is zero (a zero frame,
    or a zero boundary tensor for (4)).  The radial moment of (4)
    diverges for n <= 6, and that row then fails with the divergence as
    its detail.
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
    checks.append(_vanishing_row("delta^2 term vanishes", val1, scale1,
                                 "vacuous: the frame is zero"))

    # (2) factor-3 moment ratio
    ang_1111 = float(weights @ nodes[:, 0] ** 4)
    ang_1122 = float(weights @ (nodes[:, 0] ** 2 * nodes[:, 1] ** 2))
    lhs = ang_1111 * rad2
    rhs = ang_1122 * rad2
    err2 = abs(lhs - 3.0 * rhs) / abs(lhs)
    checks.append(Check("moment ratio factor 3", err2, CANCELLATION_TOL))

    # (3) factor 3/(n^2-1) against the full |xt|^4 moment
    full = quad.sphere_area(m) * rad2   # sum over angles of |theta|^4 = omega
    err3 = abs(lhs - 3.0 / (n * n - 1.0) * full) / abs(lhs)
    checks.append(Check("moment ratio factor 3/(n^2-1)", err3,
                        CANCELLATION_TOL))

    # (4) quartic curvature term
    name4 = "quartic curvature term vanishes"
    try:
        rad6 = radial(6, 0)
    except DomainError as exc:      # the moment diverges for n <= 6
        checks.append(Check(name4, 0.0, CANCELLATION_TOL, detail=str(exc),
                            passed=False))
        return checks
    val4 = grad_amp / 15.0 * ang_RR * rad6
    scale4 = grad_amp / 15.0 * float(np.sum(R * R)) * rad6 \
        * quad.sphere_area(m)
    checks.append(_vanishing_row(name4, val4, scale4, "vacuous: the boundary "
                                 "tensor is zero"))
    return checks
