import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import geom, quad
from bubblelab.bubble import Bubble, jacobi
from bubblelab.errors import DomainError, InvalidFrame
from bubblelab.model import CurvatureFrame, ProblemPoint, validate_frame


@given(seed=st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_random_frame_gauge_invariants(seed):
    fr = geom.random_frame(8, np.random.default_rng(seed))
    R, Q = fr.riem_boundary, fr.normal_block
    scale = max(np.max(np.abs(R)), np.max(np.abs(Q)), 1.0)
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < 1e-12 * scale
    assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < 1e-12 * scale
    bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
    assert np.max(np.abs(bianchi)) < 1e-12 * scale
    assert np.max(np.abs(geom.ricci(R))) < 1e-12 * scale
    assert abs(np.trace(Q)) < 1e-12 * scale
    assert np.max(np.abs(Q - Q.T)) < 1e-12 * scale


@given(seed=st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_riemann_projector_idempotent(seed):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(6, 6, 6, 6))
    P = geom.project_riemann(T)
    again = geom.project_riemann(P)
    assert np.max(np.abs(again - P)) < 1e-12 * max(1.0, np.max(np.abs(P)))


def test_weyl_part_is_ricci_free(rng):
    T = rng.normal(size=(7, 7, 7, 7))
    W = geom.weyl_part(geom.project_riemann(T))
    assert np.max(np.abs(geom.ricci(W))) < 1e-11 * max(1.0, np.max(np.abs(W)))


def test_weyl_norm_matches_stored_value(frame8):
    # the frame stores only its tensor: random_frame scales it to unit
    # norm, and the gauge shortcut must agree with the full Weyl part
    W = geom.weyl_part(frame8.riem_boundary)
    assert geom.weyl_norm(frame8) == pytest.approx(float(np.sum(W * W)),
                                                   rel=1e-12)
    assert geom.weyl_norm(frame8) == pytest.approx(1.0, rel=1e-12)


def test_weyl_norm_rejects_traceful_frame(frame8):
    q = frame8.normal_block.copy()
    q[0, 0] += 1.0
    bad = CurvatureFrame(riem_boundary=frame8.riem_boundary, normal_block=q)
    with pytest.raises(InvalidFrame):
        geom.weyl_norm(bad)


def test_weyl_norm_refuses_what_validate_frame_refuses(frame8):
    # a tr Q residue of 1e-9 lies above the frame tolerance 1e-10
    q = frame8.normal_block + 1e-9 / 7 * np.eye(7)
    bad = CurvatureFrame(riem_boundary=frame8.riem_boundary, normal_block=q)
    assert [c.name for c in validate_frame(bad) if not c.passed] == [
        "normal block trace vanishes"]
    with pytest.raises(InvalidFrame, match="normal block trace vanishes"):
        geom.weyl_norm(bad)


@pytest.mark.parametrize("m", range(1, 12))
def test_sphere_rule_exactness(m):
    # the fit imposes only 1, theta_1^4 and theta_1^6; the group
    # invariance must carry every other monomial of degree <= 7, the
    # odd ones and the mixed even ones such as theta_1^2 theta_2^2 theta_3^2
    nodes, w = geom.sphere_rule(m)
    counts = (2, 8, 26, 80, 162, 296, 506, 832, 1346, 2184, 3610)
    assert nodes.shape == (counts[m - 1], m) and w.shape == (counts[m - 1],)
    assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) < 1e-15
    assert np.all(w > 0.0)
    d = min(m, 4)
    area = quad.sphere_area(m)
    for powers in itertools.product(range(8), repeat=d):
        if sum(powers) > 7:
            continue
        mono = np.prod(nodes[:, :d] ** np.array(powers), axis=1)
        assert abs(w @ mono - quad.sphere_monomial(powers, m)) \
            <= 1e-14 * area, powers


def test_sphere_rule_refuses_m_below_one():
    with pytest.raises(DomainError, match="m >= 1"):
        geom.sphere_rule(0)


def test_forcing_is_linear_in_the_frame(pt8, frame8, rng):
    b = Bubble(pt8)
    doubled = CurvatureFrame(riem_boundary=2.0 * frame8.riem_boundary,
                             normal_block=2.0 * frame8.normal_block)
    for _ in range(5):
        x = rng.normal(size=8)
        x[-1] = abs(x[-1])
        one = geom.forcing_Ep(frame8, b, x)
        two = geom.forcing_Ep(doubled, b, x)
        assert two == pytest.approx(2.0 * one, rel=1e-13, abs=1e-15)


def test_forcing_takes_batches(pt8, pt10, rng):
    for pt in (pt8, pt10):
        b = Bubble(pt)
        x = rng.normal(size=(100, pt.n)) \
            * rng.lognormal(0.0, 1.0, size=(100, 1))
        x[:, -1] = np.abs(x[:, -1])
        x[::2, -1] = 0.0
        for frame in (geom.random_frame(pt.n, rng),
                      _traceful_frame(pt.n, rng)):
            batch = geom.forcing_Ep(frame, b, x)
            single = np.array([geom.forcing_Ep(frame, b, p) for p in x])
            assert batch.shape == (100,)
            assert np.max(np.abs(batch - single)) \
                <= 1e-13 * np.max(np.abs(batch))


def test_forcing_vanishes_for_zero_frame(pt8, rng):
    b = Bubble(pt8)
    zero = CurvatureFrame.zero(8)
    x = rng.normal(size=8)
    x[-1] = abs(x[-1])
    assert geom.forcing_Ep(zero, b, x) == 0.0
    assert geom.forcing_norm(zero, b) == 0.0


def test_forcing_orthogonal_to_kernel(pt8, frame8):
    b = Bubble(pt8)
    ep = geom.forcing_norm(frame8, b)
    assert ep > 0.0
    for s in range(1, 9):
        value, scale = geom.integral_Ep_jacobi(frame8, b, s, ep_norm=ep)
        assert abs(value) < 1e-8 * scale


def test_cancellation_suite(pt8, pt10):
    for pt in (pt8, pt10, ProblemPoint(n=12, K=-132.0, H=2.0)):
        fr = geom.random_frame(pt.n, np.random.default_rng(7))
        rows = geom.cancellation_suite(fr, pt)
        assert all(c.passed for c in rows), [(c.name, c.value) for c in rows]
        assert len(rows) == 4


def test_cancellation_suite_reads_a_zero_scale_as_vacuous(pt8):
    # a Weyl-free frame leaves (4) nothing to measure, the zero frame
    # leaves (1) nothing either; (2) and (3) read the moments alone
    zero_r = {"quartic curvature term vanishes":
              "vacuous: the boundary tensor is zero"}
    weyl_free = CurvatureFrame(riem_boundary=np.zeros((7, 7, 7, 7)),
                               normal_block=np.diag([1.0, -1.0] + [0.0] * 5))
    cases = [(weyl_free, zero_r),
             (CurvatureFrame.zero(8),
              {"delta^2 term vanishes": "vacuous: the frame is zero",
               **zero_r})]
    reference = geom.cancellation_suite(
        geom.random_frame(8, np.random.default_rng(7)), pt8)
    for frame, vacuous in cases:
        assert all(c.passed for c in validate_frame(frame))
        rows = geom.cancellation_suite(frame, pt8)
        assert [c.name for c in rows] == [c.name for c in reference]
        assert all(c.passed for c in rows), [(c.name, c.value) for c in rows]
        assert rows[1:3] == reference[1:3]
        for c in rows:
            if c.name in vacuous:
                assert (c.value, c.detail) == (0.0, vacuous[c.name])
            assert c.bound == geom.CANCELLATION_TOL


def test_radial_kernel_element_alt_form(pt8, rng):
    # the dilation generator (2-n)/2 U - sum_a x_a dU/dx_a is j_n
    b = Bubble(pt8)

    def jacobi_alt_n(x):
        return 0.5 * (2.0 - b.n) * b.U(x) - np.sum(x * b.grad_U(x), axis=-1)

    for _ in range(5):
        x = rng.normal(size=8)
        x[-1] = abs(x[-1])
        assert jacobi_alt_n(x) == pytest.approx(jacobi(b, 8, x), rel=1e-12)


def _traceful_frame(n, rng):
    """A frame outside the gauge: Ricci, tr Q and the j_n pairing nonzero."""
    m = n - 1
    Q = rng.normal(size=(m, m))
    return CurvatureFrame(
        riem_boundary=geom.project_riemann(rng.normal(size=(m,) * 4)),
        normal_block=Q + Q.T)


def _paired_sum(terms_a, terms_b, b):
    """The quadrature route's integral of (sum_a term) * (sum_b term)."""
    return sum(geom.paired_halfspace(list(itertools.product(terms_a, terms_b)),
                                     b))


def _at(terms, b, x):
    """Sum of the records' angular times radial factors at the point x."""
    r = float(np.linalg.norm(x[:-1]))
    theta = (x[:-1] / r)[None, :]
    return sum(float(t.angular(theta)[0])
               * float(geom.radial_profile(t.radial, b)(r, x[-1]))
               for t in terms)


@pytest.mark.parametrize("n", [8, 12])
def test_records_match_the_pointwise_forms(n, rng):
    b = Bubble(ProblemPoint(n=n, K=-float(n * (n - 1)), H=2.0))
    frames = (geom.random_frame(n, rng), _traceful_frame(n, rng))
    for _ in range(10):
        x = rng.normal(size=n)
        x[-1] = abs(x[-1])
        for frame in frames:
            assert _at(geom.forcing_terms(frame, b), b, x) == pytest.approx(
                geom.forcing_Ep(frame, b, x), rel=1e-12, abs=1e-300)
        for s in range(1, n + 1):
            assert _at(geom.jacobi_terms(b, s), b, x) == pytest.approx(
                jacobi(b, s, x), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [8, 12])
def test_moment_route_matches_nested_quadrature(n):
    """The moment route against `paired_halfspace` on the same records."""
    b = Bubble(ProblemPoint(n=n, K=-float(n * (n - 1)), H=2.0))
    frame = geom.random_frame(n, np.random.default_rng(40 + n))
    ep = geom.forcing_terms(frame, b)
    ep_norm = geom.forcing_norm(frame, b)
    assert ep_norm ** 2 == pytest.approx(_paired_sum(ep, ep, b),
                                         rel=1e-8)
    for s in (1, n):
        js = geom.jacobi_terms(b, s)
        js_norm = geom.jacobi_norm(b, s)
        assert js_norm ** 2 == pytest.approx(_paired_sum(js, js, b),
                                             rel=1e-8)
        value, scale = geom.integral_Ep_jacobi(frame, b, s, ep_norm=ep_norm)
        # in the gauge both routes measure a roundoff-sized pairing
        assert abs(value - _paired_sum(ep, js, b)) <= 1e-8 * scale


def test_paired_moments_evaluates_each_angular_factor_once(frame8, pt8):
    b = Bubble(pt8)
    calls = []

    def counted(k, angular):
        def f(nodes):
            calls.append(k)
            return angular(nodes)

        return f

    plain = geom.forcing_terms(frame8, b)
    ep = [t._replace(angular=counted(k, t.angular))
          for k, t in enumerate(plain)]
    value = geom.paired_moments(ep, ep, pt8.moments)
    # the parent evaluated 12: each left factor once, each right one
    # once per left term
    assert sorted(calls) == [0, 1, 2]
    assert value == geom.paired_moments(plain, plain, pt8.moments)


def _paired_by_its_own_call(ta, tb, b):
    """One pair's value through a `quad._de_quadrant` call of its own."""
    n = b.n
    nodes, weights = geom.sphere_rule(n - 1)
    ang = float(weights @ (np.asarray(ta.angular(nodes), dtype=float)
                           * tb.angular(nodes)))
    if ang == 0.0:
        return 0.0
    fa = geom.radial_profile(ta.radial, b)
    fb = geom.radial_profile(tb.radial, b)
    return ang * quad._de_quadrant(
        lambda r, xn, _: [fa(r, xn) * fb(r, xn) * r ** (n - 2)], 1e-9,
        b.pt.D, count=1)[0]


def _counted_quadrant(monkeypatch):
    """Patch `quad._de_quadrant` to record the ``count`` of each call."""
    counts = []
    quadrant = quad._de_quadrant

    def counted(F, rel_tol, scale, *, count):
        counts.append(count)
        return quadrant(F, rel_tol, scale, count=count)

    monkeypatch.setattr(quad, "_de_quadrant", counted)
    return counts


@pytest.mark.parametrize("n,d", [(8, 2.0), (12, 2.0), (8, 1e8)])
def test_paired_halfspace_members_equal_their_own_calls(n, d, monkeypatch):
    b = Bubble(ProblemPoint(n=n, K=-float(n * (n - 1)), H=d))
    frame = geom.random_frame(n, np.random.default_rng(40 + n))
    j1 = geom.jacobi_terms(b, 1)
    zero = j1[0]._replace(angular=lambda nodes: np.zeros(nodes.shape[0]))
    pairs = list(itertools.product(geom.forcing_terms(frame, b), j1)) \
        + [(j1[0], j1[0]), (zero, j1[0])]
    alone = [_paired_by_its_own_call(ta, tb, b) for ta, tb in pairs]
    counts = _counted_quadrant(monkeypatch)
    together = geom.paired_halfspace(pairs, b)
    assert together == alone
    assert together[-1] == 0.0
    # one family, of every pair whose angular factor is not 0.0
    assert counts == [sum(v != 0.0 for v in alone)]
    assert counts[0] > 1


def test_paired_halfspace_skips_a_zero_angular_factor(monkeypatch):
    b = Bubble(ProblemPoint(n=8, K=-56.0, H=2.0))
    j1 = geom.jacobi_terms(b, 1)[0]
    zero = j1._replace(angular=lambda nodes: np.zeros(nodes.shape[0]))
    counts = _counted_quadrant(monkeypatch)
    assert geom.paired_halfspace([(zero, j1), (j1, zero)], b) == [0.0, 0.0]
    assert geom.paired_halfspace([], b) == []
    assert counts == []


def test_route_gap_is_one_pairing_call_and_one_pass(frame8, pt8,
                                                    monkeypatch):
    calls = []
    paired = geom.paired_halfspace

    def counted(pairs, b):
        calls.append(len(pairs))
        return paired(pairs, b)

    counts = _counted_quadrant(monkeypatch)
    monkeypatch.setattr(geom, "paired_halfspace", counted)
    assert geom.route_gap(frame8, Bubble(pt8)) <= 1e-8
    assert calls == [5]
    assert counts == [5]


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("d", [1e8, 1e12])
def test_paired_halfspace_at_extreme_depth(n, d):
    # the quadrature route on nodes at the bubble's length D
    b = Bubble(ProblemPoint(n=n, K=-float(n * (n - 1)), H=d))
    table = quad.MomentTable(n, d)
    frame = geom.random_frame(n, np.random.default_rng(40 + n))
    for records in (geom.forcing_terms(frame, b), geom.jacobi_terms(b, 1),
                    geom.jacobi_terms(b, n)):
        assert _paired_sum(records, records, b) == pytest.approx(
            geom.paired_moments(records, records, table), rel=1e-8)


def test_moment_route_matches_nested_quadrature_off_the_gauge(pt8):
    # outside the gauge E_p pairs with j_n well above roundoff, so the
    # two routes are compared on a value that carries digits
    b = Bubble(pt8)
    frame = _traceful_frame(8, np.random.default_rng(5))
    value, scale = geom.integral_Ep_jacobi(frame, b, 8,
                                           geom.forcing_norm(frame, b))
    assert abs(value) > 1e-2 * scale
    direct = _paired_sum(geom.forcing_terms(frame, b),
                         geom.jacobi_terms(b, 8), b)
    assert value == pytest.approx(direct, rel=1e-8)

