import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import quad
from bubblelab.bubble import (Bubble, alpha_n, bubble_energy,
                              bubble_energy_quadrature, c_n, crit_boundary,
                              crit_interior, jacobi, jacobi_grad,
                              jacobi_laplacian, residual_linearized,
                              residual_model)
from bubblelab.errors import DomainError
from bubblelab.model import ProblemPoint


def test_constants(pt8):
    assert c_n(8) == pytest.approx(28.0 / 6.0, rel=1e-15)
    assert crit_interior(8) == pytest.approx(16.0 / 6.0, rel=1e-15)
    assert crit_boundary(8) == pytest.approx(14.0 / 6.0, rel=1e-15)
    # (4*8*7)^{3/2} / 56^{3/2} = 4^{3/2}
    assert Bubble(pt8).C == pytest.approx(8.0, rel=1e-14)
    assert alpha_n(8) == pytest.approx(224.0 ** 1.5, rel=1e-14)


def test_bubble_needs_supercritical_mean_curvature():
    with pytest.raises(DomainError):
        Bubble(ProblemPoint(n=8, K=-56.0, H=0.2))


@pytest.mark.parametrize("H", [float("nan"), float("inf")])
def test_bubble_needs_a_finite_scaling_quantity(H):
    with pytest.raises(DomainError, match="finite D > 1"):
        Bubble(ProblemPoint(n=8, K=-56.0, H=H))


def test_residuals_at_fixed_points(pt8):
    b = Bubble(pt8)
    x = np.array([[0.5, 0, 0, 0, 0, 0, 0, 1.0],
                  [0, 0, 0, 0, 0, 0, 0, 0.0],
                  [3.0, -2.0, 1.0, 0, 0, 0, 0, 0.0]])
    interior, boundary = residual_model(b, x)
    assert interior.shape == (3,) and boundary.shape == (2,)
    assert np.all(np.abs(interior) < 1e-12)
    assert np.all(np.abs(boundary) < 1e-12)


def _half_on_boundary(n, rng):
    """100 points of the closed half-space, every other one on x_n = 0."""
    x = rng.normal(size=(100, n)) * rng.lognormal(0.0, 1.0, size=(100, 1))
    x[:, -1] = np.abs(x[:, -1])
    x[::2, -1] = 0.0
    return x


def test_pointwise_functions_take_batches(pt8, pt10, rng):
    # one code path: a batch matches its points one by one, to rounding
    # (numpy's array power rounds differently from its scalar power)
    for pt in (pt8, pt10):
        b = Bubble(pt)
        x = _half_on_boundary(pt.n, rng)
        fields = [b.grad_U, b.hess_U] + [
            lambda p, f=f, i=i: f(b, i, p)
            for f in (jacobi_grad, jacobi_laplacian)
            for i in range(1, pt.n + 1)]
        for f in fields:
            batch = f(x)
            single = np.array([f(p) for p in x])
            assert batch.shape == single.shape
            assert np.max(np.abs(batch - single)) \
                <= 1e-13 * np.max(np.abs(batch))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("D", [1.0 + 1e-6, 2.0, 1e8])
def test_grad_U_sq_matches_the_squared_gradient(n, D, rng):
    # the scalar of w against the n-vector it replaces in the energy
    # oracle, on the boundary, near the centre's shadow and far out
    b = Bubble(ProblemPoint(n=n, K=-float(n * (n - 1)), H=D))
    x = np.concatenate([_half_on_boundary(n, rng) * s
                        for s in (1e-3, 1.0, D, 1e3 * D)])
    want = np.sum(b.grad_U(x) ** 2, axis=-1)
    assert np.all(want > 0.0)
    got = b.grad_U_sq_w(b.w(x))
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_residuals_return_one_boundary_value_per_boundary_point(pt8, rng):
    b = Bubble(pt8)
    x = _half_on_boundary(8, rng).reshape(10, 10, 8)
    x[0, 1, -1] = 0.0
    for interior, boundary in [residual_model(b, x)] + [
            residual_linearized(b, i, x) for i in range(1, 9)]:
        assert interior.shape == (10, 10)
        assert boundary.shape == (51,)
        assert np.all(np.abs(boundary) < 1e-8)
    _, boundary = residual_model(b, x[x[..., -1] > 0.0])
    assert boundary.shape == (0,)


def test_residuals_reject_a_batch_with_one_lower_point(pt8, rng):
    b = Bubble(pt8)
    x = _half_on_boundary(8, rng)
    x[37, -1] = -1e-3
    with pytest.raises(DomainError):
        residual_model(b, x)
    with pytest.raises(DomainError):
        residual_linearized(b, 8, x)


def test_residual_model_rejects_lower_halfspace(pt8):
    with pytest.raises(DomainError):
        residual_model(Bubble(pt8), np.array([0, 0, 0, 0, 0, 0, 0, -1.0]))


@given(seed=st.integers(0, 10000))
@settings(max_examples=30, deadline=None)
def test_residuals_random_points(seed):
    pt = ProblemPoint(n=8, K=-56.0, H=2.0)
    b = Bubble(pt)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=8) * rng.lognormal(0.0, 1.0)
    x[-1] = abs(x[-1])
    interior, _ = residual_model(b, x)
    assert abs(interior) < 1e-8


def test_jacobi_fields_solve_linearized_problem(pt8, pt10, rng):
    for pt in (pt8, pt10):
        b = Bubble(pt)
        n = pt.n
        pts = rng.normal(size=(10, n))
        pts[:, -1] = np.abs(pts[:, -1])
        pts[::2, -1] = 0.0
        for i in range(1, n + 1):
            interior, boundary = residual_linearized(b, i, pts)
            assert np.all(np.abs(interior) < 1e-8)
            assert np.all(np.abs(boundary) < 1e-8)


@pytest.mark.parametrize("d", [1.5, 2.0, 10.0])
def test_jacobi_laplacian_matches_finite_differences(d, rng):
    # the fourth-order central stencil in each coordinate, h = 1e-2:
    # truncation about h^4, rounding about eps / h^2
    n, h = 8, 1e-2
    b = Bubble(ProblemPoint(n=n, K=-56.0, H=d))
    x = rng.normal(size=(5, n))
    x[:, -1] = np.abs(x[:, -1]) + 0.1
    steps = h * np.eye(n)[:, None, :]
    for i in range(1, n + 1):
        def j(y):
            return jacobi(b, i, y)

        fd = np.sum(-j(x + 2 * steps) + 16 * j(x + steps) - 30 * j(x)
                    + 16 * j(x - steps) - j(x - 2 * steps), axis=0) \
            / (12 * h * h)
        lap = jacobi_laplacian(b, i, x)
        assert np.max(np.abs(fd - lap)) < 1e-6 * np.max(np.abs(lap))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("d", [1e4, 1e8, 1e12])
def test_linearized_residuals_at_extreme_depth(n, d, rng):
    b = Bubble(ProblemPoint(n=n, K=-float(n * (n - 1)), H=d))
    pts = rng.normal(size=(20, n)) * rng.lognormal(0.0, 1.0, size=(20, 1))
    pts[:, -1] = np.abs(pts[:, -1])
    pts[::2, -1] = 0.0
    for i in range(1, n + 1):
        interior, boundary = residual_linearized(b, i, pts)
        assert np.max(interior) < 1e-13
        assert np.max(boundary) < 1e-13


def test_jacobi_values_are_finite(pt8, rng):
    b = Bubble(pt8)
    x = rng.normal(size=8)
    x[-1] = abs(x[-1])
    vals = [jacobi(b, i, x) for i in range(1, 9)]
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("f", [jacobi, jacobi_grad, jacobi_laplacian])
def test_jacobi_functions_reject_a_field_index_outside_1_to_n(pt8, pt10, f):
    for pt in (pt8, pt10):
        x = np.full((3, pt.n), 0.5)
        for i in (0, pt.n + 1):
            with pytest.raises(DomainError, match="jacobi index"):
                f(Bubble(pt), i, x)


def test_energy_closed_form_vs_quadrature(pt8, pt10):
    for pt in (pt8, pt10):
        closed = bubble_energy(pt)
        direct = bubble_energy_quadrature(pt)
        assert closed == pytest.approx(direct, rel=1e-7)


def _energy_by_separate_calls(pt):
    """The oracle as three quadratures of their own, one per integral,
    each on the oracle's own integrand."""
    n = pt.n
    b = Bubble(pt)
    ts = crit_interior(n)
    grad2, = quad.brute_halfspace(lambda X, _: [b.grad_U_sq_w(b.w(X))], n,
                                  rel_tol=1e-9, scale=pt.D, count=1)
    upow, = quad.brute_halfspace(lambda X, _: [b.U(X) ** ts], n,
                                 rel_tol=1e-9, scale=pt.D, count=1)
    btrace = quad.sphere_area(n - 1) * quad.integrate_halfline(
        lambda r: b.U_rx(r, 0.0) ** crit_boundary(n) * r ** (n - 2),
        rel_tol=1e-9, scale=pt.D)
    return 0.5 * c_n(n) * grad2 + abs(pt.K) / ts * upow \
        - (n - 2.0) * pt.H * btrace


@pytest.mark.parametrize("n,K,H", [(8, -56.0, 2.0), (8, -56.0, 1.5),
                                   (12, -132.0, 2.0), (8, -56.0, 1e8)])
def test_energy_family_equals_separate_calls_bit_for_bit(n, K, H):
    pt = ProblemPoint(n=n, K=K, H=H)
    assert bubble_energy_quadrature(pt) == _energy_by_separate_calls(pt)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("d", [1e4, 1e8, 1e12])
def test_energy_oracle_at_extreme_depth(n, d):
    # all three integrals of the oracle on nodes at the bubble's length D
    pt = ProblemPoint(n=n, K=-float(n * (n - 1)), H=d)
    assert bubble_energy_quadrature(pt) == pytest.approx(
        bubble_energy(pt), rel=1e-7)


def test_energy_frozen_value(pt8):
    assert bubble_energy(pt8) == pytest.approx(1.0767440997271294, rel=1e-13)


def test_energy_decreasing_in_D():
    n, K = 8, -56.0
    h_of_d = lambda d: d * np.sqrt(abs(K) / (n * (n - 1.0)))
    es = [bubble_energy(ProblemPoint(n=n, K=K, H=h_of_d(d)))
          for d in np.linspace(1.1, 5.0, 15)]
    assert all(e2 < e1 for e1, e2 in zip(es, es[1:]))


def test_energy_scaling_in_K(pt8):
    # J ~ |K|^{-(n-2)/2} at fixed D
    base = bubble_energy(pt8)
    quad = bubble_energy(ProblemPoint(n=8, K=4.0 * pt8.K, H=2.0 * pt8.H))
    assert quad / base == pytest.approx(4.0 ** -3.0, rel=1e-12)


def test_radial_slice_matches_full_evaluation(pt8, rng):
    b = Bubble(pt8)
    for _ in range(5):
        x = rng.normal(size=8)
        x[-1] = abs(x[-1])
        r = float(np.linalg.norm(x[:-1]))
        assert b.U_rx(r, x[-1]) == pytest.approx(b.U(x), rel=1e-14)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("d", [1.01, 2.0, 1e4, 1e8, 1e12])
def test_energy_trace_at_extreme_depth(n, d):
    # the boundary trace of bubble_energy_quadrature, by the half-line
    # rule, against C^{2#} times the closed boundary moment
    pt = ProblemPoint(n=n, K=-float(n * (n - 1)), H=d)
    b = Bubble(pt)
    tsh = crit_boundary(n)
    trace = quad.integrate_halfline(
        lambda r: b.U_rx(r, 0.0) ** tsh * r ** (n - 2), rel_tol=1e-9,
        scale=pt.D)
    table = quad.MomentTable(n, pt.D)
    closed = b.C ** tsh * table.boundary_moment(0, n - 1) / table.omega
    assert trace == pytest.approx(closed, rel=1e-12)
