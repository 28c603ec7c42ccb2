import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import geom, quad
from bubblelab.bubble import Bubble, jacobi, jacobi_alt_n
from bubblelab.errors import InvalidFrame
from bubblelab.model import CurvatureFrame


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
    assert geom.weyl_norm(frame8) == pytest.approx(frame8.weyl_norm_sq,
                                                   rel=1e-12)


def test_weyl_norm_rejects_traceful_frame(frame8):
    q = frame8.normal_block.copy()
    q[0, 0] += 1.0
    bad = CurvatureFrame(riem_boundary=frame8.riem_boundary, normal_block=q)
    with pytest.raises(InvalidFrame):
        geom.weyl_norm(bad)


def test_sphere_rule_exactness():
    m = 7
    nodes, w = geom.sphere_rule(m, 5)
    assert w.sum() == pytest.approx(quad.sphere_area(m), rel=1e-13)
    for powers in ((2, 0, 0, 0, 0, 0, 0), (4, 0, 0, 0, 0, 0, 0),
                   (2, 2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0),
                   (3, 1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0)):
        mono = np.prod(nodes ** np.array(powers), axis=1)
        assert w @ mono == pytest.approx(quad.sphere_monomial(powers, m),
                                         abs=1e-12)


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
    for pt in (pt8, pt10):
        fr = geom.random_frame(pt.n, np.random.default_rng(7))
        rep = geom.cancellation_suite(fr, pt)
        assert rep.passed, [(c.name, c.value) for c in rep.failures()]
        assert len(rep.checks) == 4


def test_radial_kernel_element_alt_form(pt8, rng):
    b = Bubble(pt8)
    for _ in range(5):
        x = rng.normal(size=8)
        x[-1] = abs(x[-1])
        assert jacobi_alt_n(b, x) == pytest.approx(jacobi(b, 8, x),
                                                   rel=1e-12)
