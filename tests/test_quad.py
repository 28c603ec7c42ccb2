import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import geom, quad
from bubblelab.bubble import Bubble
from bubblelab.errors import DomainError
from bubblelab.model import CurvatureFrame


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


def test_phi_aliases():
    d = 2.0
    assert quad.phi(3.5, d) == quad.phi_power(0, 3.5, d)
    assert quad.phi_hat(2.5, d) == quad.phi_power(2, 2.5, d)
    assert quad.phi_tilde(3.5, d) == quad.phi_power(4, 3.5, d)


@given(n=st.integers(8, 14), d=st.sampled_from([1.3, 1.5, 2.0, 3.0, 6.0]))
@settings(max_examples=40, deadline=None)
def test_tail_moment_integration_by_parts(n, d):
    lhs = quad.phi_tilde(0.5 * (n - 1.0), d)
    rhs = 3.0 / (n - 3.0) * quad.phi_hat(0.5 * (n - 3.0), d) \
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


def test_halfspace_moment_convergence_precondition():
    tbl = quad.MomentTable(8, 2.0)
    with pytest.raises(DomainError):
        tbl.halfspace_moment(4, 2, 7)   # 2*7 = 14 = 8+4+2, diverges


def test_halfspace_moment_vs_brute():
    n = 8
    tbl = quad.MomentTable(n, 2.0)
    closed = tbl.halfspace_moment(2, 0, n)
    brute = quad.brute_halfspace(
        lambda x: float(x[-1] ** 2
                        * (np.sum(x[:-1] ** 2) + (x[-1] + 2.0) ** 2 - 1.0)
                        ** -n), n, rel_tol=1e-9)
    assert closed == pytest.approx(brute, rel=1e-8)


@pytest.mark.parametrize("a,b,m", [(0, 1, 5), (2, 3, 7), (4, 1, 9)])
def test_halfspace_moment_odd_b_vs_brute(a, b, m):
    # the kernel pairings j_s x E_p carry odd powers of r
    n, d = 8, 2.0
    closed = quad.MomentTable(n, d).halfspace_moment(a, b, m)
    brute = quad.brute_halfspace(
        lambda x: float(x[-1] ** a * np.sum(x[:-1] ** 2) ** (0.5 * b)
                        * (np.sum(x[:-1] ** 2) + (x[-1] + d) ** 2 - 1.0)
                        ** -m), n, rel_tol=1e-9)
    assert closed == pytest.approx(brute, rel=1e-8)


def test_orthogonality_sweep_quadrature_budget(pt8, monkeypatch):
    """forcing_norm and the n kernel pairings share one table's tails.

    The count must not depend on the frame's roundoff trace(Q): one
    frame has tr Q exactly 0, the other 2^-52.
    """
    calls = []
    integrate = quad.integrate_halfline

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quad, "integrate_halfline", counted)
    b = Bubble(pt8)
    riem = geom.random_frame(8, np.random.default_rng(3)).riem_boundary
    counts = []
    for eps in (0.0, 2.0 ** -52):
        q = np.diag([1.0, -1.0, eps, 0.0, 0.0, 0.0, 0.0])
        frame = CurvatureFrame(riem_boundary=riem, normal_block=q)
        assert np.trace(frame.normal_block) == eps
        calls.clear()
        table = quad.MomentTable(8, pt8.D)
        ep_norm = geom.forcing_norm(frame, b, table)
        for s in range(1, 9):
            geom.integral_Ep_jacobi(frame, b, s, table, ep_norm=ep_norm)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 40


def test_boundary_moment_vs_radial_quadrature():
    n, d = 8, 2.0
    tbl = quad.MomentTable(n, d)
    closed = tbl.boundary_moment(2, n - 1)
    direct = tbl.omega * quad.integrate_halfline(
        lambda r: r ** (n - 2 + 2) * (r * r + d * d - 1.0) ** -(n - 1.0),
        rel_tol=1e-12)
    assert closed == pytest.approx(direct, rel=1e-11)


def test_moment_table_cache_is_consistent():
    tbl = quad.MomentTable(8, 2.0)
    tbl.halfspace_moment(2, 0, 8)
    tbl.boundary_moment(0, 6)
    tbl.phi_hat(2.5)
    first = tbl.halfspace_moment(2, 0, 8)
    assert tbl.halfspace_moment(2, 0, 8) is first or \
        tbl.halfspace_moment(2, 0, 8) == first
    bit_diff, quad_err = tbl.verify_cache()
    assert bit_diff == 0.0
    assert quad_err < 1e-10


def test_brute_halfspace_warns_on_angular_dependence():
    # a non-axisymmetric integrand is replaced by its angular mean
    with pytest.warns(RuntimeWarning):
        quad.brute_halfspace(
            lambda x: float(x[0] ** 2 * math.exp(-np.sum(x ** 2))),
            5, rel_tol=1e-6)


def test_integrate_halfline_shifted_origin():
    val = quad.integrate_halfline(lambda t: math.exp(-(t - 2.0)), a=2.0,
                                  rel_tol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-11)
