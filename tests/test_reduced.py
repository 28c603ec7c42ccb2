import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bubblelab import corrector, geom, quad, reduced
from bubblelab.bubble import Bubble, bubble_energy, crit_boundary, \
    crit_interior, c_n
from bubblelab.errors import DomainError, HypothesisFailure
from bubblelab.model import (CurvatureFrame, HessianData, ProblemPoint)


def test_coeff_A_frozen_and_oracle(pt8):
    a = reduced.coeff_A(pt8)
    assert a == pytest.approx(17.496629089332732, rel=1e-13)
    # independent construction: (n-1) times the boundary L2 mass of the
    # bubble, radial quadrature only
    b = Bubble(pt8)
    oracle = 7.0 * quad.sphere_area(7) * quad.integrate_halfline(
        lambda r: r ** 6 * b.U_rx(r, 0.0) ** 2, rel_tol=1e-13)
    assert a == pytest.approx(oracle, rel=1e-12)


def test_coeff_A_scaling_in_K(pt8):
    # U^2 scales like |K|^{-(n-2)/2} and the moment table is K-free
    rescaled = ProblemPoint(n=8, K=4.0 * pt8.K, H=2.0 * pt8.H)
    assert reduced.coeff_A(rescaled) / reduced.coeff_A(pt8) == \
        pytest.approx(4.0 ** -3.0, rel=1e-13)


def test_coeff_B_nonconstant_frozen(pt8):
    hd = HessianData(hessH=np.eye(7), hessK=np.eye(8))
    assert reduced.coeff_B_nonconstant(pt8, hd) == \
        pytest.approx(20.447409289419575, rel=1e-13)


def test_coeff_B_nonconstant_linear(pt8):
    rng = np.random.default_rng(5)
    h = rng.normal(size=(7, 7))
    h = h + h.T
    k = rng.normal(size=(8, 8))
    k = k + k.T
    one = reduced.coeff_B_nonconstant(pt8, HessianData(hessH=h, hessK=k))
    two = reduced.coeff_B_nonconstant(pt8, HessianData(hessH=2 * h,
                                                       hessK=2 * k))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_coeff_B_nonconstant_oracle(pt8):
    # rebuild the coefficient from scratch: exact degree-2 angular
    # integrals on the sphere times adaptive radial/bulk quadrature
    rng = np.random.default_rng(12)
    h = rng.normal(size=(7, 7))
    h = h + h.T
    k = rng.normal(size=(8, 8))
    k = k + k.T
    n = 8
    b = Bubble(pt8)
    nodes, w = geom.sphere_rule(n - 1)
    ang_h = float(w @ np.einsum("ij,qi,qj->q", h, nodes, nodes))
    ang_k = float(w @ np.einsum("ij,qi,qj->q", k[:-1, :-1], nodes, nodes))
    p_bd = crit_boundary(n)
    p_in = crit_interior(n)
    rad_h = quad.integrate_halfline(
        lambda r: r ** n * b.U_rx(r, 0.0) ** p_bd, rel_tol=1e-11)

    def nested(f, rel_tol):
        # scalar adaptive quadrature: the half-line rule's nodes do not
        # follow an inner integrand that peaks at r ~ x_n
        return integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=rel_tol,
                              limit=200)[0]

    bulk_t = nested(
        lambda xn: nested(
            lambda r: r ** n * float(b.U_rx(r, xn)) ** p_in, 1e-11), 1e-9)
    bulk_n = nested(
        lambda xn: xn ** 2 * nested(
            lambda r: r ** (n - 2) * float(b.U_rx(r, xn)) ** p_in, 1e-11),
        1e-9)
    oracle = 0.25 * c_n(n) * (n - 2.0) * ang_h * rad_h \
        + (ang_k * bulk_t
           + k[-1, -1] * quad.sphere_area(n - 1) * bulk_n) / (2.0 * p_in)
    got = reduced.coeff_B_nonconstant(pt8, HessianData(hessH=h, hessK=k))
    assert got == pytest.approx(oracle, rel=1e-8)


def test_coeff_B_nonconstant_dimension_mismatch(pt10):
    hd = HessianData(hessH=np.eye(7), hessK=np.eye(8))
    with pytest.raises(DomainError):
        reduced.coeff_B_nonconstant(pt10, hd)


def test_sign_quantity(pt8):
    s = reduced.compute_S(pt8)
    assert s == pytest.approx(0.48298127382137823, rel=1e-13)
    for n in (8, 10, 12):
        for d in (1.5, 2.0, 3.0):
            pt = ProblemPoint(n=n, K=-float(n * (n - 1)),
                              H=d)  # makes D = d exactly
            s1 = reduced.compute_S(pt)
            s2 = reduced.compute_S_alt(pt)
            assert s1 == pytest.approx(s2, rel=1e-12)
            assert s1 > 0.0
            assert abs(reduced.compute_I2(pt)) < 1e-10
    with pytest.raises(DomainError):
        reduced.compute_S(ProblemPoint(n=6, K=-30.0, H=1.2))


def test_coeff_B_constant_zero_frame(pt8):
    zero = CurvatureFrame.zero(8)
    sol = corrector.solve_corrector(zero, pt8,
                                    corrector.GridSpec(nr=32, nxn=32))
    assert reduced.coeff_B_constant(pt8, zero, sol) == 0.0


def test_coeff_B_constant_frozen(pt8, frame8, sol8):
    b_val = reduced.coeff_B_constant(pt8, frame8, sol8)
    assert b_val == pytest.approx(0.7326165813712846, rel=1e-12)
    assert b_val > 0.0


def test_coeff_B_constant_rejects_foreign_solution(frame8, sol8):
    other = ProblemPoint(n=8, K=-56.0, H=2.5)
    with pytest.raises(DomainError):
        reduced.coeff_B_constant(other, frame8, sol8)
    # gamma is a perturbation weight, not geometry: sharing is legal
    regauged = ProblemPoint(n=8, K=-56.0, H=2.0, gamma=3.0)
    assert reduced.coeff_B_constant(regauged, frame8, sol8) == \
        pytest.approx(0.7326165813712846, rel=1e-12)


def test_reduced_coefficients_validation():
    with pytest.raises(DomainError):
        reduced.ReducedCoefficients(E=1.0, A=1.0, B=1.0, case_tag="bogus")
    with pytest.raises(DomainError):
        reduced.ReducedCoefficients(E=1.0, A=-1.0, B=1.0,
                                    case_tag="non-constants")
    with pytest.raises(DomainError):
        reduced.ReducedCoefficients(E=1.0, A=1.0, B=1.0, case_tag="constants")
    with pytest.raises(HypothesisFailure):
        reduced.ReducedCoefficients(E=1.0, A=1.0, B=1.0, case_tag="constants",
                                    S=-0.5)
    ok = reduced.ReducedCoefficients(E=1.0, A=1.0, B=1.0,
                                     case_tag="constants", S=0.5)
    assert ok.to_json_dict()["S"] == 0.5


@pytest.mark.parametrize("p", [4, 2])
@given(drive=st.floats(0.1, 500.0), b=st.floats(0.1, 50.0))
@settings(max_examples=50, deadline=None)
def test_stationary_depth_is_a_maximum(p, drive, b):
    d0 = reduced.stationary_depth(drive, b, p)
    assert d0 == pytest.approx((drive / (p * b)) ** (1.0 / (p - 1)),
                               rel=1e-12)
    center = reduced.increment(d0, drive, b, p)
    h = 1e-4 * d0
    assert center > reduced.increment(d0 - h, drive, b, p)
    assert center > reduced.increment(d0 + h, drive, b, p)


def test_stationary_depth_guards():
    with pytest.raises(DomainError):
        reduced.stationary_depth(1.0, -2.0, 4)
    with pytest.raises(DomainError):
        reduced.stationary_depth(-1.0, 2.0, 4)
    with pytest.raises(DomainError):
        reduced.stationary_depth(1.0, 0.0, 2)


def test_optimize_constants_gamma_homogeneity(pt8, frame8, sol8):
    def sample(label, gamma):
        pt = ProblemPoint(n=8, K=-56.0, H=2.0, gamma=gamma)
        return reduced.BoundarySample(label=label, coords=(gamma,), pt=pt,
                                      frame=frame8, sol=sol8)

    rep = reduced.optimize_constants([sample("g1", 1.0), sample("g2", 2.0)])
    assert rep.p_star == "g2"           # larger gamma, larger increment
    assert rep.rate == pytest.approx(1.0 / 3.0)
    assert rep.case_tag == "constants"
    rows = {r["sample"]: r for r in rep.table}
    assert rows["g2"]["d0"] / rows["g1"]["d0"] == \
        pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert rows["g2"]["G"] / rows["g1"]["G"] == \
        pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-12)
    assert rep.hypothesis_flags == {"B_positive": True,
                                    "D_above_one_along_sample": True}
    # the constants report carries S; positivity is enforced on build
    assert rep.coefficients.S == pytest.approx(0.48298127382137823,
                                               rel=1e-12)


def test_optimize_constants_ranks_energy_before_increment():
    # H = 2.2 has the larger increment G (96.4 against 23.8) but the
    # smaller bubble energy E (0.525 against 1.077): E, the eps^0 term,
    # decides before G
    frame = geom.random_frame(8, np.random.default_rng(1871))
    gs = corrector.GridSpec(nr=48, nxn=48)
    samples = []
    for label, h_val, gamma in (("H2.0", 2.0, 1.0), ("H2.2", 2.2, 5.0)):
        pt = ProblemPoint(n=8, K=-56.0, H=h_val, gamma=gamma)
        samples.append(reduced.BoundarySample(
            label=label, coords=(h_val,), pt=pt, frame=frame,
            sol=corrector.solve_corrector(frame, pt, gs)))
    rep = reduced.optimize_constants(samples)
    rows = {r["sample"]: r for r in rep.table}
    assert rows["H2.0"]["E"] > rows["H2.2"]["E"]
    assert rows["H2.0"]["G"] < rows["H2.2"]["G"]
    assert rep.p_star == "H2.0"


def test_optimize_constants_needs_corrector_data(pt8):
    s = reduced.BoundarySample(label="p", coords=(0.0,), pt=pt8)
    with pytest.raises(DomainError):
        reduced.optimize_constants([s])


def test_optimize_constants_zero_frame_fails_hypothesis(pt8):
    zero = CurvatureFrame.zero(8)
    sol = corrector.solve_corrector(zero, pt8,
                                    corrector.GridSpec(nr=32, nxn=32))
    s = reduced.BoundarySample(label="p", coords=(0.0,), pt=pt8, frame=zero,
                               sol=sol)
    with pytest.raises(HypothesisFailure, match="B"):
        reduced.optimize_constants([s])


def _line_samples(hess_for=None):
    out = []
    for i in range(9):
        t = 0.25 * i
        pt = ProblemPoint(n=8, K=-56.0, H=2.0 + 0.05 * (t - 1.0) ** 2)
        hess = hess_for(t) if hess_for else \
            HessianData(hessH=np.eye(7), hessK=np.eye(8))
        out.append(reduced.BoundarySample(label=f"t{i}", coords=(t,), pt=pt,
                                          hess=hess))
    return out


def test_optimize_nonconstant_recovers_planted_minimum():
    rep = reduced.optimize_nonconstant(_line_samples())
    assert rep.p_star == "t4"           # t = 1.0, the H minimum
    assert rep.coords == (1.0,)
    assert rep.rate == 1.0
    assert rep.d_star == pytest.approx(
        rep.coefficients.A / (2.0 * rep.coefficients.B), rel=1e-14)
    assert rep.hypothesis_flags["hessians_positive_definite"]


def test_optimize_nonconstant_tie_broken_by_larger_increment(pt8):
    # identical energies: the sharper Hessian has the smaller B, hence
    # the larger increment G = A^2/(4B), and must win the tie
    s1 = reduced.BoundarySample(
        label="soft", coords=(0.0,), pt=pt8,
        hess=HessianData(hessH=np.eye(7), hessK=np.eye(8)))
    s2 = reduced.BoundarySample(
        label="sharp", coords=(1.0,), pt=pt8,
        hess=HessianData(hessH=0.5 * np.eye(7), hessK=0.5 * np.eye(8)))
    rep = reduced.optimize_nonconstant([s1, s2])
    assert rep.p_star == "sharp"


def test_optimize_nonconstant_rejects_indefinite_hessian_at_winner():
    indefinite = np.diag([8.0, -1, -1, -1, -1, -1, -1])

    def hess_for(t):
        if t == 1.0:
            return HessianData(hessH=indefinite, hessK=np.eye(8))
        return HessianData(hessH=np.eye(7), hessK=np.eye(8))

    with pytest.raises(HypothesisFailure, match="positive definite"):
        reduced.optimize_nonconstant(_line_samples(hess_for))


def test_optimize_nonconstant_needs_hessians(pt8):
    s = reduced.BoundarySample(label="p", coords=(0.0,), pt=pt8)
    with pytest.raises(DomainError):
        reduced.optimize_nonconstant([s])


def test_subcritical_samples_are_excluded_with_warning():
    good = _line_samples()
    flat = ProblemPoint(n=8, K=-56.0, H=0.3)    # D < 1: no bubbles there
    bad = reduced.BoundarySample(label="flat", coords=(9.0,), pt=flat,
                                 hess=HessianData(hessH=np.eye(7),
                                                  hessK=np.eye(8)))
    with pytest.warns(UserWarning, match="excluded"):
        rep = reduced.optimize_nonconstant(good + [bad])
    assert rep.p_star == "t4"
    assert not rep.hypothesis_flags["D_above_one_along_sample"]
    assert all(r["sample"] != "flat" for r in rep.table)

    with pytest.raises(DomainError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reduced.optimize_nonconstant([bad])


def test_blowup_report_save(tmp_path):
    rep = reduced.optimize_nonconstant(_line_samples())
    rep.save(tmp_path)
    doc = json.loads((tmp_path / "blowup.json").read_text())
    assert doc["p_star"] == "t4"
    assert doc["rate"] == 1.0
    assert set(doc["J_values"]) == {"A_d", "B_d2", "G"}
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample,E,A,B,d0,G"
    assert len(lines) == 10


@pytest.mark.parametrize("case_tag", ["constants", "non-constants"])
def test_blowup_report_rejects_nonstationary_depth(case_tag, request):
    if case_tag == "constants":
        pt = ProblemPoint(n=8, K=-56.0, H=2.0, gamma=3.0)
        rep = reduced.optimize_constants([reduced.BoundarySample(
            label="p", coords=(0.0,), pt=pt,
            frame=request.getfixturevalue("frame8"),
            sol=request.getfixturevalue("sol8"))])
        p, drive = 4, rep.coefficients.A * pt.gamma
    else:
        rep = reduced.optimize_nonconstant(_line_samples())
        p, drive = 2, rep.coefficients.A
    assert (rep.p, rep.drive, rep.case_tag) == (p, drive, case_tag)
    assert rep.rate == 1.0 / (p - 1)
    # the report's own depth is stationary; a doubled one is not
    dataclasses.replace(rep)
    with pytest.raises(DomainError, match="stationarity"):
        dataclasses.replace(rep, d_star=2.0 * rep.d_star)
