import time

import numpy as np
import pytest

from bubblelab import cli, corrector, geom, reduced, spectral
from bubblelab.bubble import Bubble
from bubblelab.errors import DomainError, NonConvergence
from bubblelab.model import CurvatureFrame, ProblemPoint


def _point(n, D):
    """The point of dimension n at depth D, with K = -n(n-1) so that D = H."""
    return ProblemPoint(n=n, K=-n * (n - 1.0), H=D)


def _solve(n, D, seed=11):
    frame = geom.random_frame(n, np.random.default_rng(seed))
    return frame, spectral.solve_pairing(frame, _point(n, D))


def _radial(sol):
    """c = int e psi r^{n-2} of the one normal-block mode, finer level."""
    assert [m.label for m in sol.modes] == ["normal-block"]
    return float(sol.radial[-1][0, 0])


@pytest.fixture(scope="module")
def readme():
    """(frame, solution) at the README point n = 8, D = 2."""
    return _solve(8, 2.0)


def test_pairing_at_the_readme_depth(readme):
    # the whole-domain value of n = 8, D = 2; the 400^2 grid on
    # [0, 40]^2 reads 0.316114
    _, sol = readme
    assert _radial(sol) == pytest.approx(0.34962524,
                                         rel=spectral.AGREEMENT_MAX)
    assert sol.agreement() <= spectral.AGREEMENT_MAX
    assert sol.backward_error <= 1e-12
    coarse, fine = sol.pairings()
    assert sol.forcing_pairing() == fine
    assert sol.to_json_dict() == {"levels": list(spectral.LEVELS),
                                  "values": [coarse, fine],
                                  "agreement": sol.agreement(),
                                  "bound": spectral.AGREEMENT_MAX}


def test_grid_and_spectral_routes_agree_where_the_box_holds_the_mode():
    # at n = 12 the mode decays as rho^-8, so the truncated grid's pairing
    # is close to the whole-domain one: 0.00176412 against 0.00176446
    frame, sol = _solve(12, 2.0)
    grid = corrector.solve_corrector(frame, sol.pt,
                                     corrector.GridSpec(nr=200, nxn=200))
    (mode,) = grid.modes
    c_grid = float(np.sum(grid.grid["W"] * mode.e * mode.psi))
    assert c_grid == pytest.approx(_radial(sol), rel=5e-4)


def test_pairing_follows_the_large_depth_law():
    # c(n, D) ~ kappa_n D^{6-n}
    scaled = [_radial(_solve(8, D)[1]) * D ** 2 for D in (100.0, 1000.0)]
    assert scaled[0] == pytest.approx(scaled[1], rel=1e-3)


def test_zero_frame_pairs_to_zero(tmp_path, capsys):
    sol = spectral.solve_pairing(CurvatureFrame.zero(8), _point(8, 2.0))
    assert sol.modes == [] and sol.forcing_pairing() == 0.0
    assert sol.agreement() == 0.0
    cfg = tmp_path / "c.json"
    cfg.write_text('{"frame": "zero", "samples": [{"label": "p0"}]}')
    assert cli.main(["locate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
    assert "B(p) <= 0" in capsys.readouterr().err


def _off_gauge_frame():
    """Ricci and tr Q nonzero: trace (degree 0), boundary-ricci and
    normal-block modes."""
    rng = np.random.default_rng(3)
    Q = rng.normal(size=(7, 7))
    return CurvatureFrame(
        riem_boundary=geom.project_riemann(rng.normal(size=(7,) * 4)),
        normal_block=Q + Q.T)


def test_both_routes_take_one_angular_gram():
    # a trace-free Ricci beside a trace-free Q: two degree-2 modes that
    # overlap on the sphere, and no degree-0 mode
    rng = np.random.default_rng(5)
    m = 7
    h = rng.normal(size=(m, m))
    h = h + h.T - 2.0 * np.trace(h) / m * np.eye(m)
    Q = rng.normal(size=(m, m))
    Q = Q + Q.T - 2.0 * np.trace(Q) / m * np.eye(m)
    frame = CurvatureFrame(riem_boundary=geom.kulkarni_nomizu(h, np.eye(m)),
                           normal_block=Q)
    pt = _point(8, 2.0)
    grid = corrector.solve_corrector(frame, pt,
                                     corrector.GridSpec(nr=48, nxn=48))
    whole = spectral.solve_pairing(frame, pt)
    assert [mode.label for mode in whole.modes] == ["boundary-ricci",
                                                    "normal-block"]
    assert whole.gram[0, 1] != 0.0
    assert np.array_equal(grid.angular_gram(), whole.gram)


def test_degree0_mode_is_refused():
    with pytest.raises(DomainError, match="degree-0 mode 'trace'"):
        spectral.solve_pairing(_off_gauge_frame(), _point(8, 2.0))


def test_low_dimension_is_refused():
    frame = geom.random_frame(6, np.random.default_rng(1))
    with pytest.raises(DomainError, match="n <= 6"):
        spectral.solve_pairing(frame, _point(6, 2.0))


def test_unresolved_inner_length_raises():
    # at D = 1.01, n = 12, the levels differ by about 4e-2
    with pytest.raises(NonConvergence, match="differ by"):
        _solve(12, 1.01)


def test_an_inaccurate_solve_raises(monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda A, b: solve(A, b) * (1.0 + 1e-9))
    with pytest.raises(NonConvergence, match="backward error"):
        _solve(8, 2.0)


def test_coefficient_B_reads_the_spectral_pairing(readme):
    frame, sol = readme
    pt = sol.pt
    b_val = reduced.coeff_B_constant(pt, frame, sol)
    rest = reduced.coeff_B_constant(pt, frame, _Zero(pt))
    assert b_val == pytest.approx(0.5 * sol.forcing_pairing() + rest,
                                  rel=1e-15)
    # B moves from the grid's 0.7326 to about 0.7502
    assert b_val == pytest.approx(0.75024, rel=1e-5)


class _Zero:
    """A solution whose forcing pairing vanishes: B's other two terms."""

    def __init__(self, pt):
        self.pt = pt

    def forcing_pairing(self):
        return 0.0


def _dense(op):
    """The full system of N^2 nodes as one dense matrix, assembled entry
    by entry from the factors of `spectral._operator`: (A, rhs)."""
    M = len(op.robin)
    # A4[i, j, k, l]: the row of node (s_i, t_j), the column of (s_k, t_l)
    A4 = np.zeros((M, M, M, M))
    i = np.arange(M)
    A4[:, i, :, i] = op.S
    A4[i, :, i, :] += op.T
    A4[i[:, None], i, i[:, None], i] += op.pot
    # theta = 0 (the last t node): the Robin row
    A4[:, -1] = 0.0
    A4[i, -1, i, :] = op.robin_row
    A4[i, -1, i, -1] += op.robin
    rhs = op.f.copy()
    rhs[:, -1] = 0.0
    return A4.reshape(M * M, M * M), rhs.ravel()


def _dense_rows(A, op):
    """The row scales and ||A|| of the dense ``A``, asserted equal to
    those `spectral._rows` reads off ``op``'s factors."""
    absolute = np.abs(A)
    scale = absolute.max(axis=1)
    norm = np.max(absolute.sum(axis=1) / scale)
    kron_scale, kron_norm = spectral._rows(op)
    assert np.allclose(kron_scale.ravel(), scale, rtol=1e-14, atol=0.0)
    assert kron_norm == pytest.approx(norm, rel=1e-14)
    return scale, norm


def test_row_norm_attained_on_a_robin_row():
    # diagonal S and T leave the interior rows one entry each, so the
    # largest row ratio of ||A|| sits on a Robin row
    M = 6
    rng = np.random.default_rng(5)
    op = spectral._Operator(
        S=np.diag(rng.uniform(1.0, 2.0, M)),
        T=np.diag(rng.uniform(1.0, 2.0, M)),
        pot=rng.uniform(0.0, 1.0, (M, M)), robin_row=np.ones(M),
        robin=rng.uniform(-1.0, 1.0, M), f=np.zeros((M, M)))
    A, _ = _dense(op)
    scale, _ = _dense_rows(A, op)
    ratios = (np.abs(A).sum(axis=1) / scale).reshape(M, M)
    assert np.argmax(ratios) % M == M - 1


@pytest.mark.parametrize("N", spectral.LEVELS)
@pytest.mark.parametrize("D", [1.1, 2.0, 100.0])
@pytest.mark.parametrize("n", [8, 12])
def test_eliminated_solve_matches_the_full_dense_system(n, D, N):
    pt = _point(n, D)
    b = Bubble(pt)
    (mode,) = geom.decompose_forcing(
        geom.random_frame(n, np.random.default_rng(11)), b)
    op = spectral._operator(b, mode, N)
    A, rhs = _dense(op)
    scale, norm = _dense_rows(A, op)

    f, phi, berr = spectral._level(b, mode, N)
    assert np.array_equal(f, op.f)
    reference = np.linalg.solve(A / scale[:, None], rhs / scale)
    assert np.max(np.abs(phi.ravel() - reference)) \
        <= 1e-12 * np.max(np.abs(phi))
    # the backward error of the full system, read densely
    resid = (rhs - A @ phi.ravel()) / scale
    dense_berr = np.max(np.abs(resid)) \
        / (norm * np.max(np.abs(phi)) + np.max(np.abs(rhs / scale)))
    assert dense_berr <= spectral.BACKWARD_ERROR_MAX
    assert berr <= spectral.BACKWARD_ERROR_MAX


def _inline(fn, *args):
    """`spectral._beside` without the worker: fn runs at once."""
    value = fn(*args)
    return lambda: value


def test_the_coarse_level_beside_the_fine_one_moves_no_bit(monkeypatch):
    frame, beside = _solve(8, 2.0)
    monkeypatch.setattr(spectral, "_beside", _inline)
    serial = spectral.solve_pairing(frame, beside.pt)
    assert len(serial.radial) == len(beside.radial) == 2
    for a, b in zip(serial.radial, beside.radial):
        assert a.tobytes() == b.tobytes()
    assert serial.backward_error == beside.backward_error


@pytest.mark.parametrize("fine_fails", [False, True])
def test_a_coarse_level_error_comes_first(monkeypatch, tmp_path, capsys,
                                          fine_fails):
    level = spectral._level

    def failing(b, mode, N):
        if N == spectral.LEVELS[0]:
            time.sleep(0.05)        # the fine level ends first
            raise NonConvergence("coarse level failed")
        if fine_fails:
            raise NonConvergence("fine level failed")
        return level(b, mode, N)

    monkeypatch.setattr(spectral, "_level", failing)
    with pytest.raises(NonConvergence, match="^coarse level failed$"):
        _solve(8, 2.0)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"frame": "random", "seed": 11, "samples": '
                   '[{"label": "p0"}]}')
    assert cli.main(["locate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "NonConvergence: coarse level failed\n"


def test_a_fine_level_error_alone_reaches_the_caller(monkeypatch):
    level = spectral._level

    def failing(b, mode, N):
        if N == spectral.LEVELS[1]:
            raise NonConvergence("fine level failed")
        return level(b, mode, N)

    monkeypatch.setattr(spectral, "_level", failing)
    with pytest.raises(NonConvergence, match="^fine level failed$"):
        _solve(8, 2.0)
