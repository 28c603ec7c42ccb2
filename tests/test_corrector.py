import dataclasses
import json
import math
import tracemalloc
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
    gs = corrector.GridSpec(nr=64, nxn=48)
    assert gs.to_json_dict() == {"nr": 64, "nxn": 48, "r_max": 40.0,
                                 "stretch": 10.0}
    assert [f.name for f in dataclasses.fields(gs)] == ["nr", "nxn"]


@pytest.mark.parametrize("r_max,stretch", [
    (math.inf, 10.0), (40.0, math.inf), (1e30, 10.0), (1e6, 1e100),
    (10.0 ** 12.5, 1e-3), (1.01, 1e50)])
def test_grid_spec_refuses_lengths_whose_powers_overflow(r_max, stretch):
    # the truncation radius and the stretch are the solver's constants:
    # no grid takes its lengths from the caller
    with pytest.raises(TypeError):
        corrector.GridSpec(nr=16, nxn=16, r_max=r_max, stretch=stretch)
    with pytest.raises(TypeError):
        corrector.GridSpec(nr=16, nxn=16, r_max=r_max)


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
        # the kernel-shaped direction lies in the band below 1e-8 ||A||
        assert info["sigma_min"] < 1e-8 * info["base_norm"]
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
               corrector.GridSpec(nr=40, nxn=56)):
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


# the strips are the longest sides MAX_GRID_CELLS admits
DISSECTED_SHAPES = [(16, 16), (24, 20), (40, 56), (401, 401), (17, 40001),
                    (40001, 17)]


@pytest.mark.parametrize("rows, cols", DISSECTED_SHAPES)
def test_dissection_is_a_permutation_of_the_nodes(rows, cols):
    p = corrector._dissection(rows, cols)
    assert np.array_equal(np.sort(p), np.arange(rows * cols))
    # the first cut is the middle line of the longer side, ordered last
    node = np.arange(rows * cols).reshape(rows, cols)
    last = node[rows // 2] if rows >= cols else node[:, cols // 2]
    assert np.array_equal(p[-last.size:], last)


def _plain_dissection(rows, cols, leaf):
    """Second route: the block recursion itself, each block cut in place."""
    out = []

    def order(block):
        h, w = block.shape
        if h * w <= leaf:
            out.append(block.ravel())
        elif h >= w:
            order(block[:h // 2])
            order(block[h // 2 + 1:])
            out.append(block[h // 2])
        else:
            order(block[:, :w // 2])
            order(block[:, w // 2 + 1:])
            out.append(block[:, w // 2])

    order(np.arange(rows * cols).reshape(rows, cols))
    return np.concatenate(out)


@pytest.mark.parametrize("rows, cols", DISSECTED_SHAPES)
def test_dissection_matches_the_plain_block_recursion(rows, cols):
    assert corrector._LEAF_NODES == 4
    assert np.array_equal(corrector._dissection(rows, cols),
                          _plain_dissection(rows, cols, 4))


@pytest.mark.parametrize("degree", [0, 2])
def test_dissection_order_keeps_the_fill_down(pt8, degree):
    # 512,475 and 512,273 nonzeros in L + U with leaves of 4 nodes; 32-node
    # leaves read 572,604 and 572,402
    gs = corrector.GridSpec(nr=100, nxn=100)
    A, _ = corrector._assemble(pt8, degree, gs)
    p = corrector._dissection(gs.nr + 1, gs.nxn + 1)
    lu = spla.splu(A[p][:, p].tocsc(), permc_spec="NATURAL",
                   diag_pivot_thresh=0.0)
    assert lu.L.nnz + lu.U.nnz < 530_000


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
        calls.append((args, kwargs))
        return splu(*args, **kwargs)

    monkeypatch.setattr(corrector.spla, "splu", counted)
    gs = corrector.GridSpec(nr=24, nxn=20)
    e = _synthetic_forcing(corrector.grid_geometry(gs, 8), degree)
    corrector.solve_mode(pt8, degree, e, gs)
    # scipy's SuperLU aborted on a panel of 32; its default is 20
    assert 1 <= corrector._PANEL_SIZE <= 20
    ((args, kwargs),) = calls
    assert kwargs == {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                      "panel_size": corrector._PANEL_SIZE}
    (factored,) = args
    A, _ = corrector._assemble(pt8, degree, gs)
    p = corrector._dissection(gs.nr + 1, gs.nxn + 1)
    assert factored.format == "csc"
    assert (factored != A[p][:, p]).nnz == 0


@pytest.mark.parametrize("degree", [0, 2])
def test_solve_mode_holds_one_operator_copy_while_it_factors(pt8, monkeypatch,
                                                             degree):
    # the memory alive when SuperLU starts: the permuted copy it factors
    # and the grid vectors, with no natural-order copy beside them (that
    # read 2.75 copies; the copy and the vectors read 1.75)
    gs = corrector.GridSpec(nr=100, nxn=100)
    e = _synthetic_forcing(corrector.grid_geometry(gs, 8), degree)
    A, _ = corrector._assemble(pt8, degree, gs)
    one_copy = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    del A
    alive = []
    splu = corrector.spla.splu

    def measured(*args, **kwargs):
        alive.append(tracemalloc.get_traced_memory()[0])
        return splu(*args, **kwargs)

    monkeypatch.setattr(corrector.spla, "splu", measured)
    tracemalloc.start()
    try:
        corrector.solve_mode(pt8, degree, e, gs)
    finally:
        tracemalloc.stop()
    (held,) = alive
    assert held < 2 * one_copy


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
    _, info = corrector.solve_mode(pt8, 0, e, gs)
    assert len(calls) == 10
    assert calls.count("T") == 4
    assert info["gate_steps"] == 3
    assert info["gate_eigen_residual"] <= 1e-8


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
    sigma, vec, steps, residual = corrector._smallest_singular(
        _CountedLU(spla.splu(M), calls))
    assert calls == ["T", "N"] * 2
    assert steps == 2 and residual <= 1e-8
    assert sigma == pytest.approx(1e-9, rel=1e-12)
    assert abs(vec @ q2[:, -1]) == pytest.approx(1.0, rel=1e-12)


def test_smallest_singular_runs_every_step_without_a_gap():
    # a double smallest singular value 1.0 and the next at 1 + 1/59: each
    # step shrinks the residual by a gap ratio of about 0.97, so the
    # iteration never meets its 1e-8 and runs the full 12 steps
    M, _ = _orthogonal_test_matrix(60, 1.0)
    calls = []
    sigma, _, steps, residual = corrector._smallest_singular(
        _CountedLU(spla.splu(M), calls))
    assert calls == ["T", "N"] * 12
    assert steps == 12 and residual > 1e-8
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
    # between the raise gate (1e-12 ||A||) and 1e-8 ||A||: observed,
    # reported in the scalars, never fatal
    M, q2 = _orthogonal_test_matrix(60, 1e-9)
    info = corrector._conditioning_check(spla.splu(M), 1.0, q2[:, 0])
    assert info["sigma_threshold"] <= info["sigma_min"] \
        < 1e-8 * info["base_norm"]
    assert info["kernel_overlap"] < 0.5


def test_conditioning_check_healthy_matrix():
    M, q2 = _orthogonal_test_matrix(60, 1.0)
    info = corrector._conditioning_check(spla.splu(M), 1.0, q2[:, -1])
    assert info["sigma_min"] >= 1e-8 * info["base_norm"]
    # the double smallest singular value keeps the gate from converging:
    # it stops at its cap, and the info dict says so
    assert info["gate_steps"] == 12
    assert info["gate_eigen_residual"] > 1e-8


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
        recon = sum(float(fm.angular(theta)[0])
                    * float(geom.radial_profile(fm.radial, b)(r, x[-1]))
                    for fm in modes)
        assert recon == pytest.approx(geom.forcing_Ep(frame8, b, x),
                                      rel=1e-10, abs=1e-13)


def test_decompose_forcing_rejects_an_odd_component(pt8, frame8,
                                                    monkeypatch):
    # 1e-8 times an odd term in theta, against a forcing of size about
    # 1e-2.  x_1 x_2 x_3 vanishes on every node with fewer than three
    # nonzero entries, so the parity subsample must reach past those
    naive = geom.forcing_Ep
    for odd in (lambda x: x[..., 0],
                lambda x: x[..., 0] * x[..., 1] * x[..., 2]):
        monkeypatch.setattr(geom, "forcing_Ep", lambda frame, b, x, odd=odd:
                            naive(frame, b, x) + 1e-8 * odd(x))
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
    nodes, weights = geom.sphere_rule(7)
    W = sol.grid["W"]
    total = 0.0
    for node, wq in zip(nodes, weights):
        p = [float(m.angular(node[None, :])[0]) for m in sol.modes]
        e = sum(pa * m.e for pa, m in zip(p, sol.modes))
        v = sum(pa * m.psi for pa, m in zip(p, sol.modes))
        total += wq * float(np.sum(W * e * v))
    assert sol.forcing_pairing() == pytest.approx(total, rel=1e-12)


def test_quadratic_form_of_three_modes_matches_the_assembled_operator(
        pt8, sol_three_modes):
    # oracle: the form paired from A psi, with A rebuilt by _assemble
    sol = sol_three_modes
    rows, diag = corrector.corrector_diagnostics(sol)
    checks = {c.name: c for c in rows}
    G, W = sol.angular_gram(), sol.grid["W"]
    psis = [m.psi for m in sol.modes]
    ops = []
    for m in sol.modes:
        A, interior = corrector._assemble(pt8, m.degree, sol.gs)
        ops.append(np.where(interior, (A @ m.psi.ravel()).reshape(
            m.psi.shape), 0.0))
    qform = corrector._pairing(G, W, ops, psis)
    pairing = sol.forcing_pairing()
    agree = abs(pairing - qform) / max(abs(pairing), abs(qform))
    assert diag["quadratic_form"] == pytest.approx(qform, rel=1e-12)
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


def test_kernel_orthogonality_row_is_each_j_on_its_own_grid(pt8,
                                                            sol_three_modes):
    # reference: each j_i's profile evaluated on the grid by itself, as
    # though no two shared a radial record; the row must match it bit
    # for bit
    sol = sol_three_modes
    rows, diag = corrector.corrector_diagnostics(sol)
    row = {c.name: c for c in rows}["kernel orthogonality"]
    b = Bubble(pt8)
    nodes, wq = geom.sphere_rule(7)
    gg, W = sol.grid, sol.grid["W"]
    vnorm = diag["corrector_norm"]
    worst = 0.0
    for i in range(1, 9):
        (term,) = geom.jacobi_terms(b, i)
        ang = term.angular(nodes)
        ji = geom.radial_profile(term.radial, b)(gg["r"][:, None],
                                                 gg["xn"][None, :])
        total = sum((float(wq @ (m.angular(nodes) * ang))
                     * float(np.sum(W * m.psi * ji)) for m in sol.modes), 0.0)
        assert diag[f"orthogonality_j{i}"] == total
        worst = max(worst, abs(total) / (vnorm * math.sqrt(
            float(wq @ (ang * ang)) * float(np.sum(W * ji * ji)))))
    assert row.value == worst


def test_diagnostics_measure_the_solution_and_store_nothing(
        sol_three_modes):
    sol = sol_three_modes
    before = dict(vars(sol))
    modes = [(m.e.copy(), m.psi.copy(), dict(m.info)) for m in sol.modes]
    first = corrector.corrector_diagnostics(sol)
    assert corrector.corrector_diagnostics(sol) == first
    assert vars(sol).keys() == before.keys()
    assert all(vars(sol)[k] is v for k, v in before.items())
    for m, (e, psi, info) in zip(sol.modes, modes):
        assert np.array_equal(m.e, e) and np.array_equal(m.psi, psi)
        assert m.info == info


def test_solve_mode_info_holds_scalars_only(sol_three_modes):
    # corrector.json writes each info dict as it is
    infos = {m.degree: m.info for m in sol_three_modes.modes}
    assert set(infos[2]) == {"deflated", "multiplier"}
    assert set(infos[0]) == {"deflated", "multiplier", "sigma_min",
                             "sigma_threshold", "base_norm", "kernel_overlap",
                             "gate_steps", "gate_eigen_residual"}
    for degree in (0, 2):
        assert {k: type(v) for k, v in infos[degree].items()
                if type(v) not in (int, float, bool)} == {}


def test_mass_identity_is_vacuous_for_a_deep_degree2_frame():
    # D = 1000: both sides are roundoff, of scales five decades apart;
    # the modes' angular averages alone show the row is vacuous
    pt = ProblemPoint(n=8, K=-56.0, H=1000.0)
    frame = geom.random_frame(8, np.random.default_rng(1871))
    sol = corrector.solve_corrector(frame, pt,
                                    corrector.GridSpec(nr=100, nxn=100))
    row = {c.name: c for c in corrector.corrector_diagnostics(sol)[0]}[
        "interior/boundary mass identity"]
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
    rows, diag = corrector.corrector_diagnostics(sol8)
    assert all(c.passed for c in rows), [(c.name, c.value) for c in rows]
    checks = {c.name: c for c in rows}
    assert "kernel orthogonality" in checks
    assert "quadratic form nonnegative" in checks
    assert diag["decay_exponent"] < -3.0
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


@pytest.fixture(scope="module")
def sol100(pt8, frame8):
    return corrector.solve_corrector(frame8, pt8,
                                     corrector.GridSpec(nr=100, nxn=100))


def _raised_envelope(sol, mode):
    """psi times 1 + rho / r_max: the far field lifted against the near."""
    gg = sol.grid
    rho = np.sqrt(np.add.outer(gg["r"] ** 2, (gg["xn"] + sol.pt.D) ** 2))
    return mode.psi * (1.0 + rho / sol.gs.r_max)


_RESIDUAL = "fourth-order residual / forcing (normal-block)"
# a psi wrong in one named way -> (the row it fails, that row's value
# and its bound) on the random frame of seed 11 at n = 8, 100^2
_WRONG_PSI = {
    "scaled by 1.01": (lambda sol, m: 1.01 * m.psi, _RESIDUAL, 1.04e-2, 1e-2),
    "solved at degree 4": (
        lambda sol, m: corrector.solve_mode(sol.pt, 4, m.e, sol.gs)[0],
        _RESIDUAL, 0.487, 1e-2),
    "negated": (lambda sol, m: -m.psi, "quadratic form nonnegative", -0.512,
                1e-6),
    "far field raised": (_raised_envelope, "decay envelope (1+|x|)^{4-n}",
                         1.18, 1.05),
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_PSI))
def test_a_wrong_psi_fails_the_row_that_checks_it(sol100, wrong):
    mutate, name, value, bound = _WRONG_PSI[wrong]
    assert all(c.passed for c in corrector.corrector_diagnostics(sol100)[0])
    sol = corrector.CorrectorSolution(pt=sol100.pt, gs=sol100.gs, modes=[
        dataclasses.replace(m, psi=mutate(sol100, m)) for m in sol100.modes])
    row = {c.name: c for c in corrector.corrector_diagnostics(sol)[0]}[name]
    assert not row.passed
    assert row.bound == bound
    assert row.value == pytest.approx(value, rel=1e-2)


def test_forcing_pairing_matches_diagnostics(sol8):
    _, diag = corrector.corrector_diagnostics(sol8)
    direct = sol8.forcing_pairing()
    assert direct == pytest.approx(diag["forcing_pairing"], rel=1e-12)
    assert direct == pytest.approx(0.33190, rel=2e-3)  # grid-converged value


def test_solution_save_load_round_trip(tmp_path, sol8):
    sol8.save(tmp_path)
    with open(tmp_path / "corrector.json") as fh:
        header = json.load(fh)
    # the header holds what the solve made, and no measurement of it
    assert set(header) == {"problem", "grid", "modes"}
    assert header["problem"] == sol8.pt.to_json_dict()
    assert header["grid"] == sol8.gs.to_json_dict()
    assert len(header["modes"]) == len(sol8.modes)
    for md, mode in zip(header["modes"], sol8.modes):
        assert md["degree"] == mode.degree and md["label"] == mode.label
        assert md["info"] == mode.info
        for key, arr in (("psi_npy", mode.psi), ("e_npy", mode.e)):
            back = np.load(tmp_path / md[key])
            assert back.dtype == np.float64
            assert back.shape == (sol8.gs.nr + 1, sol8.gs.nxn + 1)
            assert np.array_equal(back, arr)
        # timing keys must never be persisted: identical configs must
        # produce byte-identical files
        assert not any(k.endswith("_seconds") for k in md["info"])


@pytest.mark.parametrize("n,seed", [(8, 1), (8, 7), (12, 1), (12, 1871)])
def test_angular_gram_matches_its_closed_form(n, seed):
    # for trace-free symmetric Q0 the fourth moments of theta give
    # int <Q0 theta, theta>^2 = 2 |S^{m-1}| |Q0|_F^2 / (m (m + 2))
    m = n - 1
    # random_frame's normal block is trace-free with unit Frobenius norm
    Q0 = geom.random_frame(n, np.random.default_rng(seed)).normal_block
    mode = corrector.SolvedMode(degree=2, weight=Q0, label="normal-block",
                                e=None, psi=None)
    sol = corrector.CorrectorSolution(
        pt=ProblemPoint(n=n, K=-float(n * (n - 1)), H=2.0),
        gs=corrector.GridSpec(nr=16, nxn=16), modes=[mode])
    area = 2.0 * math.pi ** (m / 2) / math.gamma(m / 2)
    closed = 2.0 * area / (m * (m + 2))
    assert abs(sol.angular_gram()[0, 0] - closed) <= 1e-13 * closed


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


@pytest.mark.parametrize("n", [8, 12])
def test_random_frame_seed_does_not_reach_psi(n):
    # the one reachable mode's radial profile is frame-free, and the
    # frame reaches the pairing only through the unit norm of Q0: the
    # seed moves the frame and its weights, never the solve
    pt = ProblemPoint(n=n, K=-float(n * (n - 1)), H=2.0)
    gs = corrector.GridSpec(nr=48, nxn=48)
    sols = [corrector.solve_corrector(
        geom.random_frame(n, np.random.default_rng(seed)), pt, gs)
        for seed in (1, 7, 1871)]
    first = sols[0].modes[0]
    for sol in sols:
        assert [m.label for m in sol.modes] == ["normal-block"]
        assert np.array_equal(sol.modes[0].e, first.e)
        assert np.array_equal(sol.modes[0].psi, first.psi)
    pairings = [sol.forcing_pairing() for sol in sols]
    assert max(pairings) - min(pairings) <= 1e-14 * abs(pairings[0])
