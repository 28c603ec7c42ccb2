import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import corrector, geom
from bubblelab.bubble import Bubble, c_n
from bubblelab.errors import (DecompositionError, DomainError,
                              NonConvergence, SingularSystem)
from bubblelab.model import CurvatureFrame, ProblemPoint


def _jn_grid(b, gg):
    """The radial profile of j_n on the grid's nodes, from geom's record."""
    (term,) = geom.jacobi_terms(b, b.n)
    return geom.radial_profile(term.radial, b)(gg["r"][:, None],
                                               gg["xn"][None, :])


def test_grid_spec_validation_and_round_trip():
    with pytest.raises(DomainError):
        corrector.GridSpec(nr=8, nxn=100)
    with pytest.raises(DomainError):
        corrector.GridSpec(nr=100, nxn=100, r_max=-1.0)
    gs = corrector.GridSpec(nr=64, nxn=48, r_max=30.0, stretch=8.0)
    assert gs.to_json_dict() == {"nr": 64, "nxn": 48, "r_max": 30.0,
                                 "stretch": 8.0}


def _synthetic_forcing(gg, radial_power):
    r, xn = gg["r"][:, None], gg["xn"][None, :]
    return r ** radial_power * np.exp(-0.25 * (r ** 2 + xn ** 2))


def test_solve_mode_degree2_residual_shrinks(pt8):
    results = {}
    for cells in (100, 200):
        gs = corrector.GridSpec(nr=cells, nxn=cells)
        gg = corrector.grid_geometry(gs, 8)
        e = _synthetic_forcing(gg, 2)
        psi, info = corrector.solve_mode(pt8, 2, e, gs)
        res, fnorm = corrector.residual_norm(pt8, 2, psi, e, gs)
        results[cells] = res / fnorm
        assert not info["deflated"]
    assert results[200] < 1e-2
    assert results[100] / results[200] >= 3.0   # second-order scheme


def test_solve_mode_degree0_deflated(pt8):
    b = Bubble(pt8)
    results = {}
    for cells in (100, 200):
        gs = corrector.GridSpec(nr=cells, nxn=cells)
        gg = corrector.grid_geometry(gs, 8)
        jn = _jn_grid(b, gg)
        e = _synthetic_forcing(gg, 0)
        # compatible data: remove the kernel component in the discrete
        # inner product, as the continuum solvability condition demands
        e = e - (np.sum(gg["W"] * jn * e) / np.sum(gg["W"] * jn * jn)) * jn
        psi, info = corrector.solve_mode(pt8, 0, e, gs)
        constraint = abs(np.sum(gg["W"] * jn * psi))
        scale = np.linalg.norm(gg["W"] * jn) * np.linalg.norm(psi)
        assert constraint < 1e-12 * scale
        assert info["deflated"]
        # the gate ran; the smallest Euclidean direction of a healthy
        # bordered system is the kernel-shaped one (see the gate's
        # docstring), well above the raise threshold
        assert info["sigma_min"] >= info["sigma_threshold"]
        assert info["kernel_overlap"] > 0.9
        assert "not kernel leakage" in info["near_singular"]["note"]
        e_eff = e - info["multiplier"] * jn
        res, fnorm = corrector.residual_norm(pt8, 0, psi, e_eff, gs)
        results[cells] = res / fnorm
    # the broad Gaussian is under-resolved in the far field at this grid
    # (measured 1.2e-2 at 200^2); the refinement factor carries the real check
    assert results[200] < 2e-2
    assert results[100] / results[200] >= 3.0


def _loop_assembly(pt, degree, gs):
    """The modal operator assembled node by node, as a reference."""
    n = pt.n
    cn = c_n(n)
    b = Bubble(pt)
    gg = corrector.grid_geometry(gs, n)
    s, t = gg["s"], gg["t"]
    r, xn, rs, rss, ts, tss = (gg[k] for k in ("r", "xn", "rs", "rss",
                                               "ts", "tss"))
    ds, dt = s[1] - s[0], t[1] - t[0]
    M2 = gs.nxn + 1
    lam = degree * (degree + n - 3.0)
    rows, cols, vals = [], [], []

    def add(i, j, i2, j2, v):
        rows.append(i * M2 + j)
        cols.append(i2 * M2 + j2)
        vals.append(v)

    vpot = cn * n * (n + 2.0) * b.w_rx(r[:, None], xn[None, :]) ** (-2.0)
    for i in range(1, gs.nr):
        a1 = 1.0 / rs[i] ** 2
        b1 = -rss[i] / rs[i] ** 3 + (n - 2.0) / (r[i] * rs[i])
        for j in range(1, gs.nxn):
            a2 = 1.0 / ts[j] ** 2
            b2 = -tss[j] / ts[j] ** 3
            add(i, j, i + 1, j, -cn * (a1 / ds ** 2 + b1 / (2 * ds)))
            add(i, j, i - 1, j, -cn * (a1 / ds ** 2 - b1 / (2 * ds)))
            add(i, j, i, j + 1, -cn * (a2 / dt ** 2 + b2 / (2 * dt)))
            add(i, j, i, j - 1, -cn * (a2 / dt ** 2 - b2 / (2 * dt)))
            add(i, j, i, j,
                -cn * (-2.0 * a1 / ds ** 2 - 2.0 * a2 / dt ** 2
                       - lam / r[i] ** 2) + vpot[i, j])
    for j in range(M2):
        if degree >= 1:
            add(0, j, 0, j, 1.0)
        else:
            add(0, j, 0, j, -3.0)
            add(0, j, 1, j, 4.0)
            add(0, j, 2, j, -1.0)
        add(gs.nr, j, gs.nr, j, 1.0)
    ts0 = float(gs.dcoord(0.0))
    robin = 0.5 * n * pt.H * b.U_rx(r, 0.0) ** (2.0 / (n - 2.0))
    for i in range(1, gs.nr):
        add(i, gs.nxn, i, gs.nxn, 1.0)
        add(i, 0, i, 0, -3.0 / (2.0 * dt * ts0) + robin[i])
        add(i, 0, i, 1, 4.0 / (2.0 * dt * ts0))
        add(i, 0, i, 2, -1.0 / (2.0 * dt * ts0))
    size = (gs.nr + 1) * M2
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


@pytest.mark.parametrize("degree", [0, 2])
def test_assembly_is_bitwise_the_node_loop(pt8, degree):
    for gs in (corrector.GridSpec(nr=24, nxn=20),
               corrector.GridSpec(nr=40, nxn=56, r_max=30.0, stretch=8.0)):
        A, interior = corrector._assemble(pt8, degree, gs)
        ref = _loop_assembly(pt8, degree, gs)
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert A.data.tobytes() == ref.data.tobytes()
        assert interior.sum() == (gs.nr - 1) * (gs.nxn - 1)


def _compatible_degree0_forcing(b, gs):
    gg = corrector.grid_geometry(gs, b.n)
    jn = _jn_grid(b, gg)
    e = _synthetic_forcing(gg, 0)
    return e - (np.sum(gg["W"] * jn * e) / np.sum(gg["W"] * jn * jn)) * jn


def test_solve_mode_degree0_is_reproducible(pt8):
    # nothing in the solve draws random numbers: repeats are bit-identical
    gs = corrector.GridSpec(nr=100, nxn=100)
    e = _compatible_degree0_forcing(Bubble(pt8), gs)
    psi1, info1 = corrector.solve_mode(pt8, 0, e, gs)
    psi2, info2 = corrector.solve_mode(pt8, 0, e, gs)
    assert np.array_equal(psi1, psi2)
    assert info1 == info2


def test_block_elimination_matches_explicit_bordered_system(pt8):
    # oracle: the bordered system assembled and factorized explicitly
    b = Bubble(pt8)
    gs = corrector.GridSpec(nr=48, nxn=48)
    gg = corrector.grid_geometry(gs, 8)
    e = _compatible_degree0_forcing(b, gs)
    psi, info = corrector.solve_mode(pt8, 0, e, gs)

    A, interior = corrector._assemble(pt8, 0, gs)
    jn = _jn_grid(b, gg).ravel()
    col = np.where(interior.ravel(), jn, 0.0)
    row = gg["W"].ravel() * jn
    anorm = abs(A).sum(axis=0).max()
    col_scale = anorm / np.linalg.norm(col)
    row_scale = anorm / np.linalg.norm(row)
    bordered = sp.bmat([[A, col_scale * col[:, None]],
                        [row_scale * row[None, :], None]], format="csc")
    rhs = np.concatenate([np.where(interior, e, 0.0).ravel(), [0.0]])
    sol = spla.spsolve(bordered, rhs)
    psi_ref = sol[:-1].reshape(psi.shape)
    assert np.max(np.abs(psi - psi_ref)) <= 1e-9 * np.max(np.abs(psi_ref))
    assert info["multiplier"] == pytest.approx(sol[-1] * col_scale, rel=1e-9)

    d = 1.0 / np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel()
                      + col ** 2)
    a_eq = sp.diags(d) @ A
    check_sys = sp.bmat([[a_eq, (d * col)[:, None]],
                         [(row / np.linalg.norm(row))[None, :], None]],
                        format="csc")
    kernel = np.append(jn / np.linalg.norm(jn), 0.0)
    ref = corrector._conditioning_check(spla.splu(check_sys),
                                        info["base_norm"], kernel)
    assert info["sigma_min"] == pytest.approx(ref["sigma_min"], rel=1e-6)
    assert info["kernel_overlap"] == pytest.approx(ref["kernel_overlap"],
                                                   rel=1e-6)
    assert info["base_norm"] == pytest.approx(abs(a_eq).sum(axis=0).max(),
                                              rel=1e-15)


def test_assembled_operator_inverts_the_solve(pt8):
    # the quadratic form reads e for A psi on the equation rows; this is
    # the equation solve_mode imposes there
    gs = corrector.GridSpec(nr=40, nxn=32)
    e = _synthetic_forcing(corrector.grid_geometry(gs, 8), 2)
    psi, _ = corrector.solve_mode(pt8, 2, e, gs)
    A, interior = corrector._assemble(pt8, 2, gs)
    # the diagnostics take the equation rows to be the grid's interior
    expected = np.zeros_like(interior)
    expected[1:-1, 1:-1] = True
    assert np.array_equal(interior, expected)
    out = (A @ psi.ravel()).reshape(psi.shape)
    assert np.max(np.abs(out - e)[interior]) <= 1e-12 * np.max(np.abs(e))


@pytest.mark.parametrize("rows, cols", [(16, 16), (24, 20), (40, 56),
                                        (401, 401)])
def test_dissection_is_a_permutation_of_the_nodes(rows, cols):
    p = corrector._dissection(rows, cols)
    assert np.array_equal(np.sort(p), np.arange(rows * cols))
    # the first cut is the middle line of the longer side, ordered last
    node = np.arange(rows * cols).reshape(rows, cols)
    last = node[rows // 2] if rows >= cols else node[:, cols // 2]
    assert np.array_equal(p[-last.size:], last)


def _colamd_oracle(pt, degree, e, gs):
    """(psi, multiplier) from SuperLU's default COLAMD order with partial
    pivoting; degree 0 factors the explicitly bordered matrix."""
    A, interior = corrector._assemble(pt, degree, gs)
    rhs = np.where(interior, e, 0.0).ravel()
    if degree > 0:
        return spla.splu(A.tocsc()).solve(rhs).reshape(e.shape), 0.0
    gg = corrector.grid_geometry(gs, pt.n)
    jn = _jn_grid(Bubble(pt), gg).ravel()
    col = np.where(interior.ravel(), jn, 0.0)
    row = gg["W"].ravel() * jn
    anorm = abs(A).sum(axis=0).max()
    col_scale = anorm / np.linalg.norm(col)
    bordered = sp.bmat([[A, col_scale * col[:, None]],
                        [(anorm / np.linalg.norm(row) * row)[None, :], None]],
                       format="csc")
    sol = spla.splu(bordered).solve(np.append(rhs, 0.0))
    return sol[:-1].reshape(e.shape), sol[-1] * col_scale


@pytest.mark.parametrize("degree", [0, 2])
@pytest.mark.parametrize("cells", [(24, 20), (40, 56)])
def test_dissection_solve_matches_pivoted_colamd(pt8, degree, cells):
    gs = corrector.GridSpec(nr=cells[0], nxn=cells[1])
    e = _synthetic_forcing(corrector.grid_geometry(gs, 8), degree)
    psi, info = corrector.solve_mode(pt8, degree, e, gs)
    ref, multiplier = _colamd_oracle(pt8, degree, e, gs)
    assert np.max(np.abs(psi - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert info["multiplier"] == pytest.approx(multiplier, rel=1e-10)


def _normwise_backward_error(A, x, b):
    """||b - A x|| / (||A|| ||x|| + ||b||) in the max norm."""
    A = sp.csr_matrix(A)
    return np.max(np.abs(b - A @ x)) / (
        abs(A).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(b)))


@given(n=st.integers(8, 12), log_excess=st.floats(-6.0, 12.0),
       degree=st.sampled_from([0, 2, 4]), nr=st.integers(16, 48),
       nxn=st.integers(16, 48))
@settings(max_examples=40, deadline=None)
def test_dissection_solve_is_backward_stable(n, log_excess, degree, nr, nxn):
    # D = 1 + 10^log_excess sweeps 1 + 1e-6 .. 1e12.  The sigma_min gate
    # refuses degree 0 once the kernel profile leaves the grid (D >= 30
    # at n = 10); it measures the bordered matrix, not the LU, so it is
    # switched off here to reach those solves.
    D = 1.0 + 10.0 ** log_excess
    pt = ProblemPoint(n=n, K=-n * (n - 1.0), H=D)
    gs = corrector.GridSpec(nr=nr, nxn=nxn)
    e = _synthetic_forcing(corrector.grid_geometry(gs, n), degree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corrector, "_conditioning_check", lambda *args: {})
        psi, info = corrector.solve_mode(pt, degree, e, gs)
    # A psi = the right-hand side the mode solved, and for degree 0 the
    # border row: W-weighted orthogonality to the kernel profile
    A, interior = corrector._assemble(pt, degree, gs)
    solved = e
    if degree == 0:
        gg = corrector.grid_geometry(gs, n)
        jn = _jn_grid(Bubble(pt), gg)
        solved = e - info["multiplier"] * jn
        row = (gg["W"] * jn).ravel()[None, :]
        assert _normwise_backward_error(row, psi.ravel(), [0.0]) <= 1e-14
    solved = np.where(interior, solved, 0.0).ravel()
    assert _normwise_backward_error(A, psi.ravel(), solved) <= 1e-14


class _NoisyLU:
    """A factorization whose solves carry a relative error ``eps``."""

    def __init__(self, lu, eps):
        self.lu, self.eps = lu, eps
        self.rng = np.random.default_rng(7)

    def solve(self, v, trans="N"):
        y = self.lu.solve(v, trans=trans)
        return y * (1.0 + self.eps * self.rng.standard_normal(y.shape))


# degree 0 refines once, which absorbs a 1e-8 error; 1e-4 survives it
@pytest.mark.parametrize("degree, eps", [(2, 1e-8), (0, 1e-4)])
def test_backward_error_gate_refuses_a_perturbed_factor(pt8, monkeypatch,
                                                        degree, eps):
    splu = corrector.spla.splu
    monkeypatch.setattr(corrector.spla, "splu",
                        lambda *a, **k: _NoisyLU(splu(*a, **k), eps))
    gs = corrector.GridSpec(nr=24, nxn=20)
    e = _synthetic_forcing(corrector.grid_geometry(gs, 8), degree)
    with pytest.raises(NonConvergence,
                       match=rf"degree-{degree} solve has backward error "
                             r"\S+ above 1e-12"):
        corrector.solve_mode(pt8, degree, e, gs)


@pytest.mark.parametrize("degree", [0, 2])
def test_solve_mode_factors_once_in_dissection_order(pt8, monkeypatch,
                                                     degree):
    # perfbench's layer map wraps corrector.spla.splu by this name
    calls = []
    splu = corrector.spla.splu

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(corrector.spla, "splu", counted)
    gs = corrector.GridSpec(nr=24, nxn=20)
    e = _synthetic_forcing(corrector.grid_geometry(gs, 8), degree)
    corrector.solve_mode(pt8, degree, e, gs)
    assert calls == [{"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}]


class _CountedLU:
    """A factorization that records the ``trans`` of each of its solves."""

    def __init__(self, lu, calls):
        self.lu, self.calls = lu, calls
        self.shape = lu.shape

    def solve(self, v, trans="N"):
        self.calls.append(trans)
        return self.lu.solve(v, trans=trans)


def test_degree0_solve_makes_ten_lu_solves(pt8, monkeypatch):
    # 2 for the border (z and q), 2 for the solve and its refinement, and
    # 6 for the gate, whose inverse iteration converges in 3 steps here
    calls = []
    splu = corrector.spla.splu
    monkeypatch.setattr(corrector.spla, "splu",
                        lambda *a, **k: _CountedLU(splu(*a, **k), calls))
    gs = corrector.GridSpec(nr=100, nxn=100)
    e = _compatible_degree0_forcing(Bubble(pt8), gs)
    corrector.solve_mode(pt8, 0, e, gs)
    assert len(calls) == 10
    assert calls.count("T") == 4


def test_degree0_gate_matches_a_dense_svd(pt8):
    # second route: the singular triple of the explicitly assembled,
    # row-equilibrated bordered matrix from LAPACK, with no inverse
    # iteration.  sigma_min is 4.4e-9 of sigma_max here, so the dense
    # value itself is good to about eps / 4.4e-9 = 5e-8 (measured 2.4e-10)
    b = Bubble(pt8)
    gs = corrector.GridSpec(nr=24, nxn=20)
    gg = corrector.grid_geometry(gs, 8)
    _, info = corrector.solve_mode(pt8, 0, _compatible_degree0_forcing(b, gs),
                                   gs)
    A, interior = corrector._assemble(pt8, 0, gs)
    jn = _jn_grid(b, gg).ravel()
    col = np.where(interior.ravel(), jn, 0.0)
    row = gg["W"].ravel() * jn
    d = 1.0 / np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel()
                      + col ** 2)
    M = sp.bmat([[sp.diags(d) @ A, (d * col)[:, None]],
                 [(row / np.linalg.norm(row))[None, :], None]]).toarray()
    _, s, vt = np.linalg.svd(M)
    kernel = np.append(jn / np.linalg.norm(jn), 0.0)
    assert info["sigma_min"] == pytest.approx(s[-1], rel=1e-7)
    assert info["kernel_overlap"] == pytest.approx(abs(vt[-1] @ kernel),
                                                   rel=1e-10)


def test_smallest_singular_stops_once_converged():
    # an isolated smallest singular value, 1e-9 against the next at 1.
    # Step k's eigen-residual is about (sigma_1 / sigma_2)^(2 (k - 1))
    # times the seed's share off the singular vector, so the earliest
    # stop, after two steps, comes here
    M, q2 = _orthogonal_test_matrix(60, 1e-9)
    calls = []
    sigma, vec = corrector._smallest_singular(_CountedLU(spla.splu(M), calls))
    assert calls == ["T", "N"] * 2
    assert sigma == pytest.approx(1e-9, rel=1e-12)
    assert abs(vec @ q2[:, -1]) == pytest.approx(1.0, rel=1e-12)


def test_smallest_singular_runs_every_step_without_a_gap():
    # a double smallest singular value 1.0 and the next at 1 + 1/59: each
    # step shrinks the residual by a gap ratio of about 0.97, so the
    # iteration never meets its 1e-8 and runs the full 12 steps
    M, _ = _orthogonal_test_matrix(60, 1.0)
    calls = []
    sigma, _ = corrector._smallest_singular(_CountedLU(spla.splu(M), calls))
    assert calls == ["T", "N"] * 12
    # ||(M^T M)^-1 v|| <= 1 / sigma_min^2 for a unit v: never below 1.0
    assert 1.0 <= sigma < 1.02


class _OverflowingLU:
    """A 'factorization' whose solves return ``value`` at every entry."""

    shape = (8, 8)

    def __init__(self, value):
        self.value = value

    def solve(self, v, trans="N"):
        return np.full(v.shape, self.value)


@pytest.mark.parametrize("value", [1e300, np.inf, np.nan])
def test_smallest_singular_refuses_an_iterate_out_of_range(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="machine-singular"):
            corrector._conditioning_check(_OverflowingLU(value), 1.0,
                                          np.ones(8) / np.sqrt(8.0))


def test_degree0_gate_names_an_overflow_machine_singular():
    # at n = 12, D = 1e8 the kernel profile has left the 16^2 grid and
    # ||M^-1 M^-T v|| overflows on the first step of the gate
    pt = ProblemPoint(n=12, K=-132.0, H=1e8)
    gs = corrector.GridSpec(nr=16, nxn=16)
    e = _synthetic_forcing(corrector.grid_geometry(gs, 12), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="machine-singular"):
            corrector.solve_mode(pt, 0, e, gs)


def _orthogonal_test_matrix(size, smallest):
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.normal(size=(size, size)))
    q2, _ = np.linalg.qr(rng.normal(size=(size, size)))
    svals = np.linspace(1.0, 2.0, size)
    svals[-1] = smallest
    return sp.csc_matrix(q1 @ np.diag(svals) @ q2.T), q2


def test_conditioning_check_raises_on_kernel_leakage():
    # machine-singular along the kernel: the one failure deflation exists
    # to prevent, so the message must say whose direction it is
    M, q2 = _orthogonal_test_matrix(60, 1e-14)
    with pytest.raises(SingularSystem, match="deflation failed"):
        corrector._conditioning_check(spla.splu(M), 1.0, q2[:, -1])


def test_conditioning_check_raises_on_foreign_direction():
    # machine-singular along some other direction is still garbage-in,
    # garbage-out; it raises too, with the attribution negated
    M, q2 = _orthogonal_test_matrix(60, 1e-14)
    with pytest.raises(SingularSystem, match="not kernel-aligned"):
        corrector._conditioning_check(spla.splu(M), 1.0, q2[:, 0])


def test_conditioning_check_records_band_direction():
    # between the raise gate (1e-12 ||A||) and the note band (1e-8 ||A||):
    # observed, reported, never fatal
    M, q2 = _orthogonal_test_matrix(60, 1e-9)
    info = corrector._conditioning_check(spla.splu(M), 1.0, q2[:, 0])
    assert info["sigma_min"] >= info["sigma_threshold"]
    assert info["kernel_overlap"] < 0.5
    assert "near_singular" in info
    assert "without kernel attribution" in info["near_singular"]["note"]


def test_conditioning_check_healthy_matrix():
    M, q2 = _orthogonal_test_matrix(60, 1.0)
    info = corrector._conditioning_check(spla.splu(M), 1.0, q2[:, -1])
    assert info["sigma_min"] >= info["sigma_threshold"]
    assert "near_singular" not in info


def test_decompose_forcing_zero_frame(pt8):
    assert corrector.decompose_forcing(CurvatureFrame.zero(8),
                                       Bubble(pt8)) == []


def test_decompose_forcing_reconstructs(pt8, frame8, rng):
    b = Bubble(pt8)
    modes = corrector.decompose_forcing(frame8, b)
    assert modes
    for fm in modes:
        assert fm.degree in (0, 2)
        if fm.degree == 2:
            W = fm.weight
            assert np.max(np.abs(W - W.T)) < 1e-12
            assert abs(np.trace(W)) < 1e-12 * max(1.0, np.max(np.abs(W)))
    for _ in range(10):
        x = rng.normal(size=8)
        x[-1] = abs(x[-1])
        r = float(np.linalg.norm(x[:-1]))
        theta = (x[:-1] / r)[None, :]
        recon = sum(float(fm.angular(theta)[0]) * float(fm.profile(r, x[-1]))
                    for fm in modes)
        assert recon == pytest.approx(geom.forcing_Ep(frame8, b, x),
                                      rel=1e-10, abs=1e-13)


def test_decompose_forcing_rejects_an_odd_component(pt8, frame8,
                                                    monkeypatch):
    # 1e-8 x_1 is odd in theta, against a forcing of size about 1e-2
    naive = geom.forcing_Ep
    monkeypatch.setattr(geom, "forcing_Ep", lambda frame, b, x:
                        naive(frame, b, x) + 1e-8 * x[..., 0])
    with pytest.raises(DecompositionError, match="odd angular component"):
        corrector.decompose_forcing(frame8, Bubble(pt8))


def test_decompose_forcing_rejects_a_term_that_is_no_mode(pt8, frame8,
                                                         monkeypatch):
    # 1e-8 x_n^2 is even, so it passes the parity check, but no mode holds it
    naive = geom.forcing_Ep
    monkeypatch.setattr(geom, "forcing_Ep", lambda frame, b, x:
                        naive(frame, b, x) + 1e-8 * x[..., -1] ** 2)
    with pytest.raises(DecompositionError, match="reconstruction defect"):
        corrector.decompose_forcing(frame8, Bubble(pt8))


def _off_gauge_frame(n, rng):
    """Ricci and tr Q nonzero: a degree-0 mode beside two degree-2 modes."""
    m = n - 1
    Q = rng.normal(size=(m, m))
    return CurvatureFrame(
        riem_boundary=geom.project_riemann(rng.normal(size=(m,) * 4)),
        normal_block=Q + Q.T)


@pytest.fixture(scope="module")
def sol_three_modes(pt8):
    frame = _off_gauge_frame(8, np.random.default_rng(5))
    return corrector.solve_corrector(frame, pt8,
                                     corrector.GridSpec(nr=48, nxn=48))


def test_pairing_of_three_modes_matches_nodewise_integration(sol_three_modes):
    # independent route: both mode sums evaluated on each sphere node,
    # then integrated over the grid node by node
    sol = sol_three_modes
    assert [m.label for m in sol.modes] == ["trace", "boundary-ricci",
                                            "normal-block"]
    # the two degree-2 modes overlap, so the pairing's cross terms run
    assert sol.angular_gram()[1, 2] != 0.0
    nodes, weights = geom.sphere_rule(7, 5)
    W = sol.grid["W"]
    total = 0.0
    for node, wq in zip(nodes, weights):
        p = [float(m.angular(node[None, :])[0]) for m in sol.modes]
        e = sum(pa * m.e for pa, m in zip(p, sol.modes))
        v = sum(pa * m.psi for pa, m in zip(p, sol.modes))
        total += wq * float(np.sum(W * e * v))
    assert corrector.forcing_pairing(sol) == pytest.approx(total, rel=1e-12)


def test_quadratic_form_of_three_modes_matches_the_assembled_operator(
        pt8, sol_three_modes):
    # oracle: the form paired from A psi, with A rebuilt by _assemble
    sol = sol_three_modes
    rep = corrector.corrector_diagnostics(sol)
    checks = {c.name: c for c in rep.checks}
    G, W = sol.angular_gram(), sol.grid["W"]
    psis = [m.psi for m in sol.modes]
    ops = []
    for m in sol.modes:
        A, interior = corrector._assemble(pt8, m.degree, sol.gs)
        ops.append(np.where(interior, (A @ m.psi.ravel()).reshape(
            m.psi.shape), 0.0))
    qform = corrector._pairing(G, W, ops, psis)
    pairing = corrector.forcing_pairing(sol)
    agree = abs(pairing - qform) / max(abs(pairing), abs(qform))
    assert sol.diagnostics["quadratic_form"] == pytest.approx(qform,
                                                              rel=1e-12)
    row = checks["pairing vs discrete quadratic form"]
    assert row.value == pytest.approx(agree, rel=1e-12)
    assert row.detail == ""     # this forcing has a share on the boundary rows
    # the trace mode has an angular average, so the mass identity is measured
    mass = checks["interior/boundary mass identity"]
    assert mass.detail == ""
    assert mass.value > 0.0
    # the border row alone keeps the degree-0 mode orthogonal to j_n
    assert checks["kernel orthogonality"].passed
    assert all("projection_coefficient" not in m.info for m in sol.modes)


def test_mass_identity_is_vacuous_for_a_deep_degree2_frame():
    # D = 1000: both sides are roundoff, of scales five decades apart;
    # the modes' angular averages alone show the row is vacuous
    pt = ProblemPoint(n=8, K=-56.0, H=1000.0)
    frame = geom.random_frame(8, np.random.default_rng(1871))
    sol = corrector.solve_corrector(frame, pt,
                                    corrector.GridSpec(nr=100, nxn=100))
    rep = corrector.corrector_diagnostics(sol)
    row = {c.name: c for c in rep.checks}["interior/boundary mass identity"]
    assert row.passed
    assert row.value == 0.0
    assert row.detail == "vacuous: no mode has an angular average"


def test_diagnostics_assemble_once_per_mode(pt8, frame8, monkeypatch):
    calls = []
    assemble = corrector._assemble

    def counted(*args):
        calls.append(args[1])
        return assemble(*args)

    monkeypatch.setattr(corrector, "_assemble", counted)
    sol = corrector.solve_corrector(frame8, pt8,
                                    corrector.GridSpec(nr=48, nxn=48))
    corrector.corrector_diagnostics(sol)
    assert sol.modes
    assert calls == [m.degree for m in sol.modes]


def test_solve_corrector_zero_frame(pt8):
    sol = corrector.solve_corrector(CurvatureFrame.zero(8), pt8,
                                    corrector.GridSpec(nr=32, nxn=32))
    assert sol.modes == []


def test_corrector_diagnostics_pass(sol8):
    rep = corrector.corrector_diagnostics(sol8)
    assert rep.passed, [(c.name, c.value) for c in rep.failures()]
    checks = {c.name: c for c in rep.checks}
    assert "kernel orthogonality" in checks
    assert "quadratic form nonnegative" in checks
    assert sol8.diagnostics["decay_exponent"] < -3.0
    # an in-gauge frame has one degree-2 mode: no angular average, and a
    # forcing that vanishes wherever psi does not on the boundary rows
    assert [m.label for m in sol8.modes] == ["normal-block"]
    assert checks["interior/boundary mass identity"].detail == \
        "vacuous: no mode has an angular average"
    assert checks["pairing vs discrete quadratic form"].detail == \
        "vacuous: the forcing vanishes on the boundary rows"
    # the independent route: the fourth-order residual of the solve
    residual = checks["fourth-order residual / forcing (normal-block)"]
    assert residual.bound == 1e-2
    assert 1e-5 < residual.value < residual.bound


def test_forcing_pairing_matches_diagnostics(sol8):
    corrector.corrector_diagnostics(sol8)
    direct = corrector.forcing_pairing(sol8)
    assert direct == pytest.approx(sol8.diagnostics["forcing_pairing"],
                                   rel=1e-12)
    assert direct == pytest.approx(0.33190, rel=2e-3)  # grid-converged value


def test_solution_save_load_round_trip(tmp_path, sol8):
    corrector.corrector_diagnostics(sol8)
    sol8.save(tmp_path)
    with open(tmp_path / "corrector.json") as fh:
        header = json.load(fh)
    assert header["problem"] == sol8.pt.to_json_dict()
    assert header["grid"] == sol8.gs.to_json_dict()
    assert len(header["modes"]) == len(sol8.modes)
    for md, mode in zip(header["modes"], sol8.modes):
        assert md["degree"] == mode.degree and md["label"] == mode.label
        for key, arr in (("psi_csv", mode.psi), ("e_csv", mode.e)):
            back = np.loadtxt(tmp_path / md[key], delimiter=",", ndmin=2)
            np.testing.assert_allclose(back, arr, rtol=0, atol=1e-15)
        # timing keys must never be persisted: identical configs must
        # produce byte-identical files
        assert not any(k.endswith("_seconds") for k in md["info"])


def test_csv_writer_matches_savetxt_byte_for_byte(tmp_path):
    rng = np.random.default_rng(3)
    # signed zeros, subnormals, the extremes of the range and non-finites
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300,
               np.finfo(float).max, np.inf, -np.inf, np.nan]
    wide = rng.normal(size=(150, 7)) * 10.0 ** rng.integers(-300, 300,
                                                            size=(150, 7))
    wide.flat[:len(special)] = special
    for arr in (wide, np.array([special]), np.array(special)[:, None],
                rng.normal(size=(corrector._CSV_ROWS, 3))):
        corrector._write_csv(tmp_path / "ours.csv", arr)
        np.savetxt(tmp_path / "ref.csv", arr, delimiter=",")
        assert (tmp_path / "ours.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()


def test_corrector_is_linear_in_the_frame(pt8, frame8):
    gs = corrector.GridSpec(nr=100, nxn=100)
    doubled = CurvatureFrame(riem_boundary=2.0 * frame8.riem_boundary,
                             normal_block=2.0 * frame8.normal_block)
    one = corrector.solve_corrector(frame8, pt8, gs)
    two = corrector.solve_corrector(doubled, pt8, gs)
    assert [m.label for m in two.modes] == [m.label for m in one.modes]
    # each mode's V_p at every node: its angular weight times its profile
    for m1, m2 in zip(one.modes, two.modes):
        v1 = np.multiply.outer(m1.weight, m1.psi)
        v2 = np.multiply.outer(m2.weight, m2.psi)
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12, atol=0)
