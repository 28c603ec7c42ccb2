"""Every row a command writes can fail: one harness of named mutations.

A mutation puts a small, named error into one route of one command by
monkeypatching it: a closed form, an oracle, a constant, a frame or a
solved psi.  It names the exact set of rows that then fail, and the
value each reads.  The command must exit 1, and every row
must keep the op and the bound it has in the unmutated run.

`test_every_row_fails_under_some_mutation` checks that each row name
written by the three verify commands at their defaults and by
`corrector` on random frame seed 11 at 100^2 fails under some mutation,
so a new row without a mutation fails the suite.
"""
import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from bubblelab import bubble, cli, corrector, geom, hyperbolic, quad, reduced
from bubblelab.model import CurvatureFrame, GridSpec, ProblemPoint

# the corrector run the corrector mutations start from
_CORRECTOR = {"frame": "random", "seed": 11, "grid": {"nr": 100, "nxn": 100}}
# verify-bubble at |K| = 1 and D = 2, where the closed-form energy does
# not depend on its |K| exponent
_UNIT_K = {"K": -1.0, "H": 2.0 / math.sqrt(56.0)}


def _replace(owner, name, make):
    """A patch: owner.name becomes make(the real owner.name)."""
    def patch(mp, sol):
        mp.setattr(owner, name, make(getattr(owner, name)))
    return patch


def _scale(owner, name, factor):
    """A patch: every result of owner.name times ``factor``."""
    return _replace(owner, name,
                    lambda real: lambda *args: real(*args) * factor)


def _both(*patches):
    """A patch: each of ``patches`` in turn."""
    def patch(mp, sol):
        for each in patches:
            each(mp, sol)
    return patch


def _scale_each(owner, name, factor):
    """A patch: every member of owner.name's list result times ``factor``."""
    return _replace(owner, name, lambda real: lambda *args, **kwargs: [
        v * factor for v in real(*args, **kwargs)])


def _frame(change):
    """A patch: `geom.random_frame` returns change(R, Q) as its frame."""
    def make(real):
        def frame(n, rng):
            fr = real(n, rng)
            return CurvatureFrame(*change(fr.riem_boundary, fr.normal_block))
        return frame
    return _replace(geom, "random_frame", make)


def _radius(change):
    """A patch: the hyperbolic picture takes R = change(picture), and mu0
    and mu1 follow R through their closed forms."""
    def make(real):
        def picture(D):
            R = change(real(D))
            return hyperbolic.HyperbolicPicture(
                D=float(D), R=R, mu0=2.0 * R / (1.0 + R * R),
                mu1=(1.0 + R * R) / (2.0 * R))
        return picture
    return _replace(hyperbolic, "hyperbolic_picture", make)


def _eigenvalue(field, factor):
    """A patch: the picture's ``field`` (mu0 or mu1) alone times factor."""
    return _replace(hyperbolic, "hyperbolic_picture", lambda real: lambda D: (
        dataclasses.replace(real(D), **{field: getattr(real(D), field)
                                        * factor})))


def _laplacian(first_mode):
    """A patch: the Laplacian of the plain phi0 or phi1 times 1 + 1e-6."""
    def make(real):
        def eigenfunction(which, form, x, gap=None):
            val, lap, dr = real(which, form, x, gap)
            if (which != 0) == first_mode and form == "plain":
                lap = lap * (1.0 + 1e-6)
            return val, lap, dr
        return eigenfunction
    return _replace(hyperbolic, "_eigenfunction", make)


def _modes(change):
    """A patch: the corrector solve returns the 100^2 solution with each
    mode replaced by change(sol, mode)."""
    def patch(mp, sol):
        wrong = corrector.CorrectorSolution(pt=sol.pt, gs=sol.gs, modes=[
            change(sol, mode) for mode in sol.modes])
        mp.setattr(corrector, "solve_corrector", lambda *args: wrong)
    return patch


def _raised_envelope(sol, mode):
    """psi times 1 + rho / r_max: the far field lifted against the near."""
    gg = sol.grid
    rho = np.sqrt(np.add.outer(gg["r"] ** 2, (gg["xn"] + sol.pt.D) ** 2))
    return dataclasses.replace(mode, psi=mode.psi * (1.0 + rho / sol.gs.r_max))


def _forced_rim(sol, mode):
    """The forcing set to 1e-3 of max|e| on the x_n = 0 row."""
    e = mode.e.copy()
    e[:, 0] = 1e-3 * np.max(np.abs(e))
    return dataclasses.replace(mode, e=e)


def _tilted_rule(real):
    """The sphere rule with each weight times 1 + 1e-6 theta_1^2."""
    def rule(m):
        nodes, weights = real(m)
        return nodes, weights * (1.0 + 1e-6 * nodes[:, 0] ** 2)
    return rule


def _not_antisymmetric(R, Q):
    """R + 1e-3 delta_ik delta_sl, which breaks the first pair's
    antisymmetry."""
    g = np.eye(R.shape[0])
    return R + 1e-3 * np.einsum("ik,sl->iksl", g, g), Q


_BETA = "beta moments against quadrature (44 pairs)"
_TAIL = "tail moments against quadrature (45 triples)"
_RATIO = [f"beta-moment ratio identity n={k}" for k in range(8, 13)]
_IBP = [f"tail-moment integration by parts n={k} D={d}"
        for k in range(8, 13) for d in (1.5, 2.0, 3.0)]
_SEPARABLE = {t: "separable half-space moment (a={}, b={}, m={})".format(*t)
              for t in cli._separable_triples(8)}
_S_AGREE = "sign quantity: two expressions agree"
_ENERGY = "bubble energy: closed form vs quadrature"
_DELTA2 = "delta^2 term vanishes"
_ORTHOGONAL = "forcing orthogonal to the kernel (8 fields)"
_RADIUS = "ball radius inverts to mu1 = D (this D and 1.5, 2, 3, 10)"
_PRODUCT = "eigenvalue product mu0 mu1 = 1"
_AT_2 = "ball radius closed form at D=2"
_PHI0 = "steklov residual: standard operator + phi0"
_PHI1 = "steklov residual: standard operator + phi1-plain"
_RESIDUAL = "fourth-order residual / forcing (normal-block)"
_DECAY = "decay envelope (1+|x|)^{4-n}"
_MASS = "interior/boundary mass identity"

# name -> (command, config or None, patch, {failing row: the value it
# reads, to 1%})
MUTATIONS = {
    # verify-integrals
    "beta closed form x (1 + 1e-9)": (
        "verify-integrals", None, _scale(quad, "I", 1.0 + 1e-9),
        {_BETA: 1e-9}),
    "beta closed form x (1 + 1e-10 alpha)": (
        "verify-integrals", None, _replace(
            quad, "I", lambda real: lambda m, a: real(m, a) * (1 + 1e-10 * a)),
        {_BETA: 7e-10, **dict.fromkeys(_RATIO, 2e-10)}),
    "tail closed form x (1 + 1e-9)": (
        "verify-integrals", None, _scale(quad, "phi_power", 1.0 + 1e-9),
        {_TAIL: 1e-9}),
    "tail closed form x (1 + 1e-7) at k = 4": (
        "verify-integrals", None, _replace(
            quad, "phi_power", lambda real: lambda k, m, D: real(k, m, D)
            * (1.0 + 1e-7 * (k == 4))),
        {_TAIL: 1e-7, **dict.fromkeys(_IBP, 1e-7),
         **{row: 1e-7 for (a, _, _), row in _SEPARABLE.items() if a == 4},
         _S_AGREE: 9.3e-8}),
    "half-space oracle x (1 + 1e-7)": (
        "verify-integrals", None,
        _scale_each(quad, "brute_halfspace", 1.0 + 1e-7),
        dict.fromkeys(_SEPARABLE.values(), 1e-7)),
    "second expression of S x (1 + 1e-7)": (
        "verify-integrals", None,
        _scale(reduced, "compute_S_alt", 1.0 + 1e-7), {_S_AGREE: 1e-7}),
    "S negated": (
        "verify-integrals", None, _scale(reduced, "compute_S", -1.0),
        {_S_AGREE: 2.0, "sign quantity positive": -0.483}),
    "c_n of the depth-4 bracket x (1 + 1e-7)": (
        "verify-integrals", None, _scale(reduced, "c_n", 1.0 + 1e-7),
        {"vanishing second bracket of the depth-4 term": 1e-7}),
    # a negative scale must not turn the bracket's defect negative
    "amplitude negated, c_n of the depth-4 bracket x (1 + 1e-7)": (
        "verify-integrals", None,
        _both(_scale(reduced, "_amplitude_sq", -1.0),
              _scale(reduced, "c_n", 1.0 + 1e-7)),
        {"sign quantity positive": -0.483,
         "vanishing second bracket of the depth-4 term": 1e-7}),
    # verify-bubble
    "Laplacian of U x (1 + 1e-7)": (
        "verify-bubble", None,
        _scale(bubble.Bubble, "laplacian_U", 1.0 + 1e-7),
        {"model problem interior residual (100 points)": 1e-7}),
    "gradient of U x (1 + 1e-7)": (
        "verify-bubble", None, _scale(bubble.Bubble, "grad_U", 1.0 + 1e-7),
        {"model problem boundary residual (50 points)": 1e-7}),
    "Laplacian of the kernel fields x (1 + 1e-7)": (
        "verify-bubble", None,
        _scale(bubble, "jacobi_laplacian", 1.0 + 1e-7),
        {"linearized problem residuals (8 kernel fields x 100 points)":
         1e-7}),
    "energy closed form x (1 + 1e-5)": (
        "verify-bubble", None, _scale(cli, "bubble_energy", 1.0 + 1e-5),
        {_ENERGY: 1e-5}),
    "energy closed form negated": (
        "verify-bubble", None, _scale(cli, "bubble_energy", -1.0),
        {_ENERGY: 2.0, "bubble energy decreasing in D": 216.4}),
    "energy |K| exponent short by 1/2, at |K| = 1": (
        "verify-bubble", _UNIT_K, _replace(
            cli, "bubble_energy",
            lambda real: lambda pt: real(pt) * abs(pt.K) ** 0.5),
        {"bubble energy |K|-scaling at fixed D": 1.0}),
    "normal block + 1e-6 I": (
        "verify-bubble", None,
        _frame(lambda R, Q: (R, Q + 1e-6 * np.eye(len(Q)))),
        {_DELTA2: 8.93e-8, _ORTHOGONAL: 1.58e-6}),
    "boundary tensor not antisymmetric, by 1e-3": (
        "verify-bubble", None, _frame(_not_antisymmetric),
        {_DELTA2: 9.11e-4, "quartic curvature term vanishes": 1e-6,
         _ORTHOGONAL: 5.38e-3}),
    "sphere-rule weights x (1 + 1e-6 theta_1^2)": (
        "verify-bubble", None, _replace(geom, "sphere_rule", _tilted_rule),
        {"moment ratio factor 3": 1.82e-7,
         "moment ratio factor 3/(n^2-1)": 4.55e-7}),
    "sphere area x (1 + 1e-7)": (
        "verify-bubble", None, _scale(quad, "sphere_area", 1.0 + 1e-7),
        {"moment ratio factor 3/(n^2-1)": 1e-7}),
    "paired half-space quadrature x (1 + 1e-7)": (
        "verify-bubble", None,
        _scale_each(geom, "paired_halfspace", 1.0 + 1e-7),
        {"separable pairings: moments vs double-exponential quadrature "
         "(5 radial records)": 1e-7}),
    # verify-hyperbolic
    "ball radius x (1 + 1e-13)": (
        "verify-hyperbolic", None, _radius(lambda hp: hp.R * (1.0 + 1e-13)),
        {_RADIUS: 9.93e-14, _AT_2: 2.66e-14}),
    "ball radius with sqrt(D^2 - 1) doubled": (
        "verify-hyperbolic", None, _radius(lambda hp: 1.0 / (
            hp.D + 2.0 * math.sqrt(hp.D - 1.0) * math.sqrt(hp.D + 1.0))),
        {_RADIUS: 0.497, _AT_2: 0.0849,
         "approach to the unit ball as D -> 1+": 2.82e-3}),
    "mu0 x (1 + 1e-9)": (
        "verify-hyperbolic", None, _eigenvalue("mu0", 1.0 + 1e-9),
        {_PRODUCT: 1e-9, _PHI0: 5.77e-10}),
    "mu1 x (1 + 1e-9)": (
        "verify-hyperbolic", None, _eigenvalue("mu1", 1.0 + 1e-9),
        {_RADIUS: 1e-9, _PRODUCT: 1e-9, _PHI1: 4.66e-10}),
    "phi0 Laplacian x (1 + 1e-6)": (
        "verify-hyperbolic", None, _laplacian(first_mode=False),
        {_PHI0: 8.28e-6}),
    "phi1-plain Laplacian x (1 + 1e-6)": (
        "verify-hyperbolic", None, _laplacian(first_mode=True),
        {_PHI1: 6.10e-7}),
    # corrector, on the 100^2 solve of random frame seed 11
    "psi scaled by 1.01": (
        "corrector", _CORRECTOR,
        _modes(lambda sol, m: dataclasses.replace(m, psi=1.01 * m.psi)),
        {_RESIDUAL: 1.04e-2}),
    "psi solved at degree 4": (
        "corrector", _CORRECTOR, _modes(lambda sol, m: dataclasses.replace(
            m, psi=corrector.solve_mode(sol.pt, 4, m.e, sol.gs)[0])),
        {_RESIDUAL: 0.487}),
    "psi negated": (
        "corrector", _CORRECTOR,
        _modes(lambda sol, m: dataclasses.replace(m, psi=-m.psi)),
        {"quadratic form nonnegative": -0.512, _RESIDUAL: 2.0}),
    "psi far field raised": (
        "corrector", _CORRECTOR, _modes(_raised_envelope),
        {_DECAY: 1.18, _RESIDUAL: 0.215}),
    "angular weight + 1e-6 I": (
        "corrector", _CORRECTOR, _modes(lambda sol, m: dataclasses.replace(
            m, weight=m.weight + 1e-6 * np.eye(len(m.weight)))),
        {"kernel orthogonality": 2.17e-6, _MASS: 0.915}),
    "forcing on the x_n = 0 row": (
        "corrector", _CORRECTOR, _modes(_forced_rim),
        {"pairing vs discrete quadratic form": 0.0193}),
}


def _report(out, command, config):
    """(exit code, {row name: (op, bound, passed, value)}) of one run."""
    out.mkdir(parents=True)
    args = [command, "--out", str(out)]
    if config is not None:
        path = out / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if command == "corrector":
        rows = json.loads((out / "diagnostics.json").read_text())["checks"]
    else:
        rows = json.loads((out / "verify_report.json").read_text())[
            "identities"]
    return code, {r["name"]: (r["op"], r["bound"], r["passed"], r["value"])
                  for r in rows}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The unmutated report of (command, config), each run once."""
    runs = {}

    def report(command, config):
        key = (command, json.dumps(config))
        if key not in runs:
            code, rows = _report(tmp_path_factory.mktemp("clean") / "out",
                                 command, config)
            assert code == 0
            runs[key] = rows
        return runs[key]

    return report


@pytest.fixture(scope="module")
def sol100():
    """The solve behind `_CORRECTOR`'s run, made once."""
    return corrector.solve_corrector(
        geom.random_frame(8, np.random.default_rng(11)),
        ProblemPoint(n=8, K=-56.0, H=2.0), GridSpec(nr=100, nxn=100))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_mutation_fails_exactly_its_rows(name, monkeypatch, tmp_path,
                                           clean, sol100):
    command, config, patch, failing = MUTATIONS[name]
    before = clean(command, config)
    patch(monkeypatch, sol100)
    code, after = _report(tmp_path / "out", command, config)
    assert code == 1
    assert {row for row, (_, _, passed, _) in after.items()
            if not passed} == set(failing)
    # the same rows, each with the op and the bound it states unmutated
    assert {row: (op, bound) for row, (op, bound, _, _) in after.items()} \
        == {row: (op, bound) for row, (op, bound, _, _) in before.items()}
    for row, value in failing.items():
        assert after[row][3] == pytest.approx(value, rel=1e-2), row


def test_every_row_fails_under_some_mutation(clean):
    written = set()
    for command in ("verify-integrals", "verify-bubble", "verify-hyperbolic"):
        written |= set(clean(command, None))
    written |= set(clean("corrector", _CORRECTOR))
    failing = set().union(*(rows for *_, rows in MUTATIONS.values()))
    assert sorted(written - failing) == []
