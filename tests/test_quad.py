import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import geom, quad
from bubblelab.bubble import Bubble, bubble_energy, crit_interior
from bubblelab.cli import _separable_family, _separable_triples
from bubblelab.errors import DomainError, NonConvergence
from bubblelab.model import ProblemPoint


def brute_one(f, n, **kwargs):
    """`quad.brute_halfspace` of one point integrand: a family of one."""
    return quad.brute_halfspace(lambda X, which: [f(X)], n, count=1,
                                **kwargs)[0]


def quadrant_one(F, *args):
    """`quad._de_quadrant` of one integrand: a family of one."""
    return quad._de_quadrant(lambda r, xn, which: [F(r, xn)], *args,
                             count=1)[0]


def test_beta_moment_spot_values():
    # I(m, 1) = 1/(2(m-1)) and I(1, 0) = pi/2 by hand
    assert quad.I(5, 1) == pytest.approx(1.0 / 8.0, rel=1e-14)
    assert quad.I(1, 0) == pytest.approx(math.pi / 2.0, rel=1e-14)


@given(m=st.integers(2, 15), alpha=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_beta_moment_matches_quadrature(m, alpha):
    if alpha + 1 >= 2 * m:
        with pytest.raises(DomainError):
            quad.I(m, alpha)
        return
    closed = quad.I(m, alpha)
    direct = quad.integrate_halfline(
        lambda t: t ** alpha * (1.0 + t * t) ** (-m), rel_tol=1e-12)
    assert closed == pytest.approx(direct, rel=1e-11)


def test_beta_moment_rejects_bad_arguments():
    with pytest.raises(DomainError):
        quad.I(3, 5)            # alpha + 1 == 2m - 1 is fine, 5+1 >= 6 is not
    with pytest.raises(DomainError):
        quad.I(2, -1)


@given(n=st.integers(8, 16))
@settings(max_examples=20, deadline=None)
def test_ratio_identity(n):
    lhs = quad.I(n, n)
    rhs = (n - 3.0) / (n + 1.0) * quad.I(n, n + 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_phi_power_guards():
    with pytest.raises(DomainError):
        quad.phi_power(3, 2.0, 2.0)     # k - 2m = -1, diverges
    with pytest.raises(DomainError):
        quad.phi_power(0, 4.0, 1.0)     # needs D > 1
    with pytest.raises(DomainError):
        quad.phi_power(1.5, 4.0, 2.0)   # needs an integer k
    for m in (3.25, 3.3, 4.0 + 1e-9):   # needs an integer 2m
        with pytest.raises(DomainError, match="integer 2m"):
            quad.phi_power(0, m, 2.0)


# the tails' 2F1(m, k+1; 2m; z) over the validated range of D, with z and
# w = 1 - z formed as phi_power forms them
_TAIL_DEPTHS = (1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0,
                10.0, 1e3, 1e6, 1e12)
_TAIL_GRID = [(k, 0.5 * h) for k in range(7) for h in range(k + 2, 31)]


def _tail_hyp2f1(k, m, d):
    return quad._hyp2f1(m, k + 1.0, 2.0 * m, 2.0 / (d + 1.0),
                        (d - 1.0) / (d + 1.0))


def test_tail_hypergeometric_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for d in _TAIL_DEPTHS:
            z = 2 / (mpmath.mpf(d) + 1)     # d is exact in mpf
            for k, m in _TAIL_GRID:
                ref = mpmath.hyp2f1(m, k + 1, 2 * m, z)
                worst = max(worst, float(abs(_tail_hyp2f1(k, m, d) - ref)
                                         / ref))
    assert worst < 1e-12


def test_tail_hypergeometric_matches_scipy():
    # scipy's own value rounds z = 2/(D+1) first, so it is a reference
    # only away from D = 1
    from scipy.special import hyp2f1

    for d in _TAIL_DEPTHS:
        if d < 1.01:
            continue
        for k, m in _TAIL_GRID:
            ref = hyp2f1(m, k + 1.0, 2.0 * m, 2.0 / (d + 1.0))
            assert _tail_hyp2f1(k, m, d) == pytest.approx(ref, rel=1e-12)


def test_phi_power_refuses_a_value_beyond_the_float_range():
    # the tail is about 1e690 here
    with pytest.raises(NonConvergence, match="inf"):
        quad.phi_power(0, 60.0, 1.0 + 1e-12)


def test_phi_power_refuses_a_value_below_the_normal_range():
    # the tail is 3.7e-326 at m = 14 (0.0 in floats) and 3.8e-314 at
    # m = 13.5 (a subnormal with about 10 digits)
    for m in (14.0, 13.5):
        with pytest.raises(NonConvergence, match="normal float range"):
            quad.phi_power(0, m, 1e12)


def test_the_tables_tails_stay_normal_at_the_deepest_point():
    # every tail the CLI's tables ask for, n <= 12, at D = 1e12
    for k, m in _TAIL_KEYS:
        assert quad.phi_power(k, m, 1e12) >= 1e-170


def test_phi_aliases():
    d = 2.0
    tbl = quad.MomentTable(8, d)
    assert tbl.phi(3.5) == quad.phi_power(0, 3.5, d)
    assert tbl.phi_hat(2.5) == quad.phi_power(2, 2.5, d)
    assert tbl.phi_tilde(3.5) == quad.phi_power(4, 3.5, d)


# the (k, m) tails the CLI's tables ask for at n = 8..12
_TAIL_KEYS = [(k, 0.5 * h) for k, lo, hi in ((0, 3, 13), (2, 5, 13),
                                             (3, 7, 11), (4, 7, 13),
                                             (6, 11, 15))
              for h in range(lo, hi + 1)]


@given(key=st.sampled_from(_TAIL_KEYS), log_d=st.floats(math.log(1.01),
                                                         math.log(1e3)))
@settings(max_examples=80, deadline=None)
def test_phi_power_closed_form_matches_quadrature(key, log_d):
    k, m = key
    d = math.exp(log_d)
    direct = quad.integrate_halfline(
        lambda t: (t - d) ** k * (t * t - 1.0) ** (-m), a=d, rel_tol=1e-12)
    assert quad.phi_power(k, m, d) == pytest.approx(direct, rel=1e-11)


@given(n=st.integers(8, 14), d=st.sampled_from([1.3, 1.5, 2.0, 3.0, 6.0]))
@settings(max_examples=40, deadline=None)
def test_tail_moment_integration_by_parts(n, d):
    lhs = quad.phi_power(4, 0.5 * (n - 1.0), d)
    rhs = 3.0 / (n - 3.0) * quad.phi_power(2, 0.5 * (n - 3.0), d) \
        - d * quad.phi_power(3, 0.5 * (n - 1.0), d)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_sphere_area_known_values():
    assert quad.sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert quad.sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert quad.sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert quad.sphere_area(7) == pytest.approx(16.0 * math.pi ** 3 / 15.0,
                                                rel=1e-15)


def test_sphere_monomial():
    # int_{S^2} x^2 = |S^2|/3; odd powers vanish
    assert quad.sphere_monomial((2, 0, 0), 3) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-14)
    assert quad.sphere_monomial((1, 2, 0), 3) == 0.0
    # consistency: sum_i int x_i^2 = |S^{m-1}|
    m = 7
    total = sum(quad.sphere_monomial(tuple(2 if j == i else 0
                                           for j in range(m)), m)
                for i in range(m))
    assert total == pytest.approx(quad.sphere_area(m), rel=1e-13)


def moment_integrand(a, b, m, d):
    """x_n^a |xt|^b (|xt|^2 + (x_n+d)^2 - 1)^-m as a batch point integrand."""
    def f(X):
        rt2 = np.sum(X[..., :-1] ** 2, axis=-1)
        return X[..., -1] ** a * rt2 ** (0.5 * b) \
            * (rt2 + (X[..., -1] + d) ** 2 - 1.0) ** -m

    return f


@pytest.mark.parametrize("d", [math.nan, math.inf])
def test_moment_table_needs_a_finite_d_above_one(d):
    with pytest.raises(DomainError, match="finite D > 1"):
        quad.MomentTable(8, d)


def test_halfspace_moment_convergence_precondition():
    tbl = quad.MomentTable(8, 2.0)
    with pytest.raises(DomainError):
        tbl.halfspace_moment(4, 2, 7)   # 2*7 = 14 = 8+4+2, diverges


def test_halfspace_moment_vs_brute():
    n = 8
    tbl = quad.MomentTable(n, 2.0)
    closed = tbl.halfspace_moment(2, 0, n)
    brute = brute_one(moment_integrand(2, 0, n, 2.0), n, rel_tol=1e-9)
    assert closed == pytest.approx(brute, rel=1e-8)


@pytest.mark.parametrize("a,b,m", [(0, 1, 5), (2, 3, 7), (4, 1, 9)])
def test_halfspace_moment_odd_b_vs_brute(a, b, m):
    # the kernel pairings j_s x E_p carry odd powers of r
    n, d = 8, 2.0
    closed = quad.MomentTable(n, d).halfspace_moment(a, b, m)
    brute = brute_one(moment_integrand(a, b, m, d), n, rel_tol=1e-9)
    assert closed == pytest.approx(brute, rel=1e-8)


def test_boundary_moment_vs_radial_quadrature():
    n, d = 8, 2.0
    tbl = quad.MomentTable(n, d)
    closed = tbl.boundary_moment(2, n - 1)
    direct = tbl.omega * quad.integrate_halfline(
        lambda r: r ** (n - 2 + 2) * (r * r + d * d - 1.0) ** -(n - 1.0),
        rel_tol=1e-12)
    assert closed == pytest.approx(direct, rel=1e-11)


def test_boundary_moment_near_d_one_matches_decimal():
    # D^2 - 1 would cancel 6 of the 16 digits here
    n, d = 8, 1.0 + 1e-6
    tbl = quad.MomentTable(n, d)
    with localcontext() as ctx:
        ctx.prec = 50
        dd = Decimal(d)
        bracket = ((dd - 1) * (dd + 1)) ** Decimal(-2.5)
        exact = float(Decimal(tbl.omega * tbl.I(6, n - 2)) * bracket)
    assert tbl.boundary_moment(0, 6) == pytest.approx(exact, rel=1e-14)


def test_moment_table_cache_is_consistent():
    tbl = quad.MomentTable(8, 2.0)
    tbl.halfspace_moment(2, 0, 8)
    tbl.boundary_moment(0, 6)
    tbl.phi_hat(2.5)
    first = tbl.halfspace_moment(2, 0, 8)
    assert tbl.halfspace_moment(2, 0, 8) is first or \
        tbl.halfspace_moment(2, 0, 8) == first
    # a fresh table recomputes every entry bit for bit
    fresh = quad.MomentTable(8, 2.0)
    recompute = {"I": fresh.I, "phi": fresh.phi_power,
                 "hs": fresh.halfspace_moment, "bd": fresh.boundary_moment}
    for (kind, *args), stored in tbl.cache.items():
        assert recompute[kind](*args) == stored


def test_brute_halfspace_warns_on_angular_dependence():
    # an even but non-axisymmetric integrand: only its e_1 slice is seen
    with pytest.warns(RuntimeWarning):
        brute_one(lambda X: X[..., 0] ** 2 * np.exp(-np.sum(X ** 2, axis=-1)),
                  5, rel_tol=1e-6)


def test_integrate_halfline_shifted_origin():
    val = quad.integrate_halfline(lambda t: np.exp(-(t - 2.0)), a=2.0,
                                  rel_tol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("d", [1.01, 30.0, 1e3])
def test_brute_halfspace_sweeps_the_moments(n, d):
    # far from the default D = 2 on both sides, at the rows' 1e-8 bound
    table = quad.MomentTable(n, d)
    for a, b, m in _separable_triples(n)[:3]:
        brute = brute_one(moment_integrand(a, b, m, d), n, rel_tol=1e-9)
        assert brute == pytest.approx(table.halfspace_moment(a, b, m),
                                      rel=1e-8)


@pytest.mark.parametrize("d", [2.0, 1e4, 1e8, 1e12])
def test_brute_halfspace_at_the_points_length(d):
    # every verify-integrals moment at n = 8, on nodes scaled by D
    n = 8
    table = quad.MomentTable(n, d)
    for a, b, m in _separable_triples(n):
        brute = brute_one(moment_integrand(a, b, m, d), n, rel_tol=1e-9,
                          scale=d)
        assert brute == pytest.approx(table.halfspace_moment(a, b, m),
                                      rel=1e-8)


@pytest.mark.parametrize("length", [1e-6, 0.3, 7.0, 1e9])
def test_scale_moves_the_nodes_only(length):
    # a profile of y/L on nodes scaled by L: L times the unit integral,
    # on the same levels, to roundoff
    def unit(y):
        return (1.0 + y * y) ** -3.0

    one = quad.integrate_halfline(unit, rel_tol=1e-12)
    scaled = quad.integrate_halfline(lambda y: unit(y / length),
                                     rel_tol=1e-12, scale=length)
    assert scaled == pytest.approx(length * one, rel=1e-14)
    two = quadrant_one(lambda r, xn: unit(r) * unit(xn), 1e-12, 1.0)
    both = quadrant_one(
        lambda r, xn: unit(r / length) * unit(xn / length), 1e-12, length)
    assert both == pytest.approx(length * length * two, rel=1e-14)


def _never_called(*args):
    raise AssertionError("the integrand was called")


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_every_entry_point_refuses_a_bad_scale(scale):
    with pytest.raises(DomainError, match="scale"):
        quad.integrate_halfline(_never_called, scale=scale)
    with pytest.raises(DomainError, match="scale"):
        quad._de_quadrant(_never_called, 1e-9, scale, count=1)
    with pytest.raises(DomainError, match="scale"):
        quad.brute_halfspace(_never_called, 8, scale=scale, count=1)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 1.0])
def test_every_entry_point_refuses_a_bad_rel_tol(rel_tol):
    # nan ran every level into a stall, inf passed every level and
    # edge test, and 1.0 accepted any two levels
    with pytest.raises(DomainError, match="rel_tol"):
        quad.integrate_halfline(_never_called, rel_tol=rel_tol)
    with pytest.raises(DomainError, match="rel_tol"):
        quad._de_quadrant(_never_called, rel_tol, 1.0, count=1)
    with pytest.raises(DomainError, match="rel_tol"):
        quad.brute_halfspace(_never_called, 8, rel_tol=rel_tol, count=1)


@pytest.mark.parametrize("f,a,rel_tol,message", [
    # (1 + y)^-1.2 decays too slowly for the levels to settle by h = 1/512
    (lambda y: (1.0 + y) ** -1.2, 0.0, 1e-6,
     "half-line quadrature stalled at level 7 (h = 1/512): levels differ "
     "by 7.862e-06 (value=4.999063e+00)"),
    # (1 + y)^-1.5: the levels agree to 1e-10, but about 1.3e-9 of the
    # sum sits on the two edge nodes
    (lambda y: (1.0 + y) ** -1.5, 0.0, 1e-10,
     "half-line quadrature truncated at |t| = 4: edge nodes carry "
     "2.636e-09 of 2.000000e+00"),
    # the message names the node y = a + x, here a = 1, not its offset x
    (lambda y: np.where(y > 3.0, np.nan, np.exp(-y)), 1.0, 1e-10,
     "half-line quadrature: integrand is nan at y = 3.267175e+00"),
])
def test_the_half_line_rule_says_why_it_fails(f, a, rel_tol, message):
    with pytest.raises(NonConvergence) as caught:
        quad.integrate_halfline(f, a=a, rel_tol=rel_tol)
    assert str(caught.value) == message


def test_brute_halfspace_averages_out_odd_parts():
    # (1 + x_1) g: the antipodal slices cancel x_1 g exactly, no warning
    n = 8

    def g(X):
        return np.exp(-np.sum(X ** 2, axis=-1))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = brute_one(lambda X: (1.0 + X[..., 0]) * g(X), n, rel_tol=1e-9)
    assert val == pytest.approx(0.5 * math.pi ** (0.5 * n), rel=1e-9)
    assert val == pytest.approx(brute_one(g, n, rel_tol=1e-9), rel=1e-12)


def test_brute_halfspace_refuses_a_log_divergent_moment():
    # a = b = 0, 2m = n: the integrand decays like |x|^-n
    with pytest.raises(NonConvergence, match="stalled at level|truncated"):
        brute_one(moment_integrand(0, 0, 4, 2.0), 8, rel_tol=1e-9)


def test_brute_halfspace_refuses_nan():
    def holey(X):
        out = np.exp(-np.sum(X ** 2, axis=-1))
        return np.where(X[..., -1] > 1.0, np.nan, out)

    with pytest.raises(NonConvergence, match="integrand is nan"):
        brute_one(holey, 8, rel_tol=1e-9)


def _refuse(*args, **kwargs):
    raise AssertionError("the two routes share an engine")


def test_oracles_and_moment_table_share_no_engine(frame8, monkeypatch):
    # each context builds its own point: a point keeps its moment table,
    # so a table cached before the patch would hide a call into it
    n = 8
    with monkeypatch.context() as mp:
        # the oracles: no half-line rule, no Beta closed form, no table
        for name in ("integrate_halfline", "I", "phi_power", "MomentTable"):
            mp.setattr(quad, name, _refuse)
        pt = ProblemPoint(n=n, K=-56.0, H=2.0)
        d = pt.D
        b = Bubble(pt)
        records = geom.forcing_terms(frame8, b) + geom.jacobi_terms(b, n)
        for a, bb, m in _separable_triples(n)[:3]:
            brute_one(moment_integrand(a, bb, m, d), n, rel_tol=1e-9)
        brute_one(lambda X: np.sum(b.grad_U(X) ** 2, axis=-1), n,
                  rel_tol=1e-9)
        brute_one(lambda X: b.U(X) ** crit_interior(n), n, rel_tol=1e-9)
        geom.paired_halfspace(list(itertools.product(records, records)), b)
    with monkeypatch.context() as mp:
        # the closed forms: no quadrature of any kind, no oracle
        mp.setattr(quad, "_de_quadrant", _refuse)
        mp.setattr(quad, "_exp_sinh", _refuse)
        mp.setattr(quad, "brute_halfspace", _refuse)
        mp.setattr(geom, "paired_halfspace", _refuse)
        mp.setattr(quad, "integrate_halfline", _refuse)
        pt = ProblemPoint(n=n, K=-56.0, H=2.0)
        b = Bubble(pt)
        table = pt.moments
        for a, bb, m in _separable_triples(n):
            table.halfspace_moment(a, bb, m)
        bubble_energy(pt)
        geom.forcing_norm(frame8, b)


def _one_by_one(triples, d):
    """The separable integrands in units of D, one function per triple."""
    inv_d2 = d ** -2

    def single(a, b, m):
        def f(Y):
            yt = Y[..., :-1]
            yt2 = np.einsum("...i,...i->...", yt, yt)
            return Y[..., -1] ** a * yt2 ** (0.5 * b) \
                * (yt2 + (Y[..., -1] + 1.0) ** 2 - inv_d2) ** -m

        return f

    return [single(*t) for t in triples]


def _stop_level(nodes):
    """The level a member stopped at, from the nodes it was evaluated at:
    the (32 2^l + 1)^2 grid, its edge rows and columns and 6 probes."""
    levels = {(32 * 2 ** l + 1) ** 2 + 4 * (32 * 2 ** l + 1) + 2: l
              for l in range(6)}
    return levels[nodes]


@pytest.mark.parametrize("n,d", [(8, 1.5), (8, 2.0), (8, 1e8), (10, 3.0),
                                 (12, 2.0)])
def test_a_family_member_equals_its_own_call_bit_for_bit(n, d):
    triples = _separable_triples(n)
    family = _separable_family(triples, d)
    nodes = [0] * len(triples)

    def counted(Y, which):
        for k in which:
            nodes[k] += Y[0, ..., 0].size
        return family(Y, which)

    together = quad.brute_halfspace(counted, n, rel_tol=1e-9,
                                    count=len(triples))
    alone = [brute_one(f, n, rel_tol=1e-9) for f in _one_by_one(triples, d)]
    assert together == alone
    levels = [_stop_level(c) for c in nodes]
    if (n, d) == (8, 2.0):
        assert sorted(levels) == [2] * 6 + [3] * 6 + [4] * 2
    assert set(levels) <= {2, 3, 4}


def _gauss(r, xn):
    return np.exp(-r * r - xn * xn)


def _family_with(bad):
    """Members 0 and 2 are Gaussians, member 1 is ``bad``."""
    def F(r, xn, which):
        return [bad(r, xn) if k == 1 else _gauss(r, xn) for k in which]

    return F


@pytest.mark.parametrize("bad,rel_tol,message", [
    # not resolved by the finest step: the levels never agree
    (lambda r, xn: np.cos(40.0 * r) ** 2 * _gauss(0.1 * r, xn), 1e-9,
     "member 1.* stalled at level 5"),
    (lambda r, xn: np.where(xn > 1.0, np.nan, _gauss(r, xn)), 1e-9,
     "member 1.*integrand is nan"),
    # (1 + r)^-1.3: the levels agree to 1e-6, but about 6e-6 of the
    # sum sits on the edge nodes
    (lambda r, xn: (1.0 + r) ** -1.3 * _gauss(0.0, xn), 1e-6,
     "member 1.* truncated at"),
])
def test_a_failing_member_is_named(bad, rel_tol, message):
    with pytest.raises(NonConvergence, match=message):
        quad._de_quadrant(_family_with(bad), rel_tol, 1.0, count=3)


def test_a_family_without_a_failing_member_returns_every_value():
    values = quad._de_quadrant(_family_with(_gauss), 1e-12, 1.0, count=3)
    assert values == [quadrant_one(_gauss, 1e-12, 1.0)] * 3
    assert values[0] == pytest.approx(0.25 * math.pi, rel=1e-12)


@pytest.mark.parametrize("count", [0, -1, 1.5, "3"])
def test_a_family_needs_a_positive_integer_count(count):
    with pytest.raises(DomainError, match="count"):
        quad._de_quadrant(_family_with(_gauss), 1e-9, 1.0, count=count)
    with pytest.raises(DomainError, match="count"):
        quad.brute_halfspace(lambda X, which: [], 8, count=count)


def test_the_skew_warning_names_its_member():
    def g(X):
        return np.exp(-np.sum(X ** 2, axis=-1))

    def family(X, which):
        return [X[..., 0] ** 2 * g(X) if k == 1 else g(X) for k in which]

    with pytest.warns(RuntimeWarning) as caught:
        quad.brute_halfspace(family, 5, rel_tol=1e-6, count=3)
    assert [str(w.message).split(":")[0] for w in caught] == [
        "brute_halfspace (member 1)"]


def test_brute_halfspace_names_a_failing_member():
    # member 1 is the log-divergent moment of
    # test_brute_halfspace_refuses_a_log_divergent_moment
    fs = [moment_integrand(2, 0, 8, 2.0), moment_integrand(0, 0, 4, 2.0)]
    with pytest.raises(NonConvergence,
                       match=r"\(member 1\) (stalled at level|truncated)"):
        quad.brute_halfspace(lambda X, which: [fs[k](X) for k in which], 8,
                             rel_tol=1e-9, count=2)
