import numpy as np
import pytest

from bubblelab import corrector, geom, reduced, spectral
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
    from bubblelab import cli
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


def test_every_mode_carries_the_monomials_of_its_profile():
    # the far-field row reads a mode's monomials, the nodes its profile
    b = Bubble(_point(8, 2.0))
    modes = geom.decompose_forcing(_off_gauge_frame(), b)
    assert [m.label for m in modes] == ["trace", "boundary-ricci",
                                        "normal-block"]
    r, xn = np.meshgrid(np.geomspace(1e-3, 1e3, 13),
                        np.geomspace(1e-3, 1e3, 11))
    for mode in modes:
        np.testing.assert_allclose(
            geom.radial_profile(mode.radial, b)(r, xn), mode.profile(r, xn),
            rtol=1e-13, atol=0.0)


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
