import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from bubblelab import hyperbolic
from bubblelab.errors import DomainError

CANDIDATES = [(0, "plain"), ((1, 1), "radial"), ((1, 1), "plain")]


def _ball_points(n, R, rng, count=25):
    """``count`` points with |x| uniform in (0.05 R, 0.95 R)."""
    v = rng.normal(size=(count, n))
    return v * (rng.uniform(0.05, 0.95, size=count) * R
                / np.linalg.norm(v, axis=-1))[:, None]


def test_hyperbolic_picture_closed_forms():
    hp = hyperbolic.hyperbolic_picture(2.0)
    assert hp.R == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)
    assert hp.mu0 * hp.mu1 == pytest.approx(1.0, abs=1e-15)
    assert hp.mu1 == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DomainError):
        hyperbolic.hyperbolic_picture(1.0)


def test_steklov_annihilating_variants():
    hp = hyperbolic.hyperbolic_picture(2.0)
    rows = hyperbolic.steklov_variants(hp, 8, seed=3)
    assert len(rows) == 6
    # each row is keyed by its pair and carries its own verdict
    assert all(c.name == f"{op} operator + {lab}"
               for (op, lab), c in rows.items())
    got = {key for key, c in rows.items() if c.passed}
    # the standard Poincare operator kills the ground mode and the plain
    # first mode; the flat-drift variant kills neither
    assert ("standard", "phi0") in got
    assert ("standard", "phi1-plain") in got
    assert not any(op == "flat-drift" for op, _ in got)


def test_a_nan_boundary_residual_fails_its_row(monkeypatch):
    real = hyperbolic.steklov_residual

    def nan_on_the_sphere(*args, **kwargs):
        interior, boundary = real(*args, **kwargs)
        boundary = boundary.copy()
        boundary[3] = math.nan
        return interior, boundary

    monkeypatch.setattr(hyperbolic, "steklov_residual", nan_on_the_sphere)
    hp = hyperbolic.hyperbolic_picture(2.0)
    row = hyperbolic.steklov_variants(hp, 8, seed=3)["standard", "phi0"]
    # the row reads NaN when either of its two residuals does
    assert math.isnan(row.value) and not row.passed
    assert row.detail.endswith("boundary nan")


@pytest.mark.parametrize("D", [1.0 + 1e-9, 1.0 + 1e-6, 2.0, 1e8])
def test_gap_is_one_minus_R_squared_to_rounding(D):
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(D)
        root = (d * d - 1).sqrt()
        exact = 2 * (d - root) * root
    hp = hyperbolic.hyperbolic_picture(D)
    assert abs(Decimal(hp.gap) - exact) <= Decimal(1e-14) * exact


@pytest.mark.parametrize("n", [8, 10, 12])
def test_steklov_annihilating_variants_near_the_unit_ball(n):
    # at D = 1 + 1e-9, phi ~ 1 / (1 - R^2) ~ 1e4 on the sphere: 1 - R^2
    # formed by subtraction carried ~1e-11 relative rounding into a
    # residual of 1e-7, against the bound 1e-10
    hp = hyperbolic.hyperbolic_picture(1.0 + 1e-9)
    rows = hyperbolic.steklov_variants(hp, n)
    assert {("standard", "phi0"), ("standard", "phi1-plain")} \
        <= {key for key, c in rows.items() if c.passed}


@pytest.mark.parametrize("n", [8, 10])
def test_steklov_residual_takes_batches(n, rng):
    # a batch matches its points one by one, to rounding.  The scale is
    # the residual's largest term, n |phi| inside and mu |phi| on the
    # sphere: the annihilating residuals are themselves pure rounding
    hp = hyperbolic.hyperbolic_picture(2.0)
    x = _ball_points(n, hp.R, rng)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    for which, form in CANDIDATES + [((1, n), "plain")]:
        mu = hp.mu0 if which == 0 else hp.mu1
        val = hyperbolic._eigenfunction(which, form, x)[0]
        valb = hyperbolic._eigenfunction(which, form, x * (hp.R / r))[0]
        for operator in ("standard", "flat-drift"):
            interior, boundary = hyperbolic.steklov_residual(
                hp, which, x, operator=operator, form=form)
            assert interior.shape == boundary.shape == (25,)
            single = np.array([hyperbolic.steklov_residual(
                hp, which, p, operator=operator, form=form) for p in x])
            assert np.max(np.abs(interior - single[:, 0])) \
                <= 1e-13 * max(np.max(np.abs(interior)),
                               n * np.max(np.abs(val)))
            assert np.max(np.abs(boundary - single[:, 1])) \
                <= 1e-13 * max(np.max(np.abs(boundary)),
                               mu * np.max(np.abs(valb)))


@pytest.mark.parametrize("which, form", CANDIDATES)
def test_radial_derivative_matches_a_central_difference(which, form, rng):
    n = 8
    x = _ball_points(n, 0.9, rng)
    e = x / np.linalg.norm(x, axis=-1, keepdims=True)
    h = 1e-6
    _, _, dr = hyperbolic._eigenfunction(which, form, x)
    plus = hyperbolic._eigenfunction(which, form, x + h * e)[0]
    minus = hyperbolic._eigenfunction(which, form, x - h * e)[0]
    fd = (plus - minus) / (2.0 * h)
    assert np.max(np.abs(dr - fd)) <= 1e-8 * np.max(np.abs(dr))


def test_steklov_residual_rejects_bad_input(rng):
    hp = hyperbolic.hyperbolic_picture(2.0)
    x = _ball_points(8, hp.R, rng, count=3)
    with pytest.raises(DomainError, match="form"):
        hyperbolic.steklov_residual(hp, (1, 1), x, form="plian")
    with pytest.raises(DomainError, match="operator"):
        hyperbolic.steklov_residual(hp, 0, x, operator="flat")
    for which in ((1, 0), (1, 9), (2, 1), 1):
        with pytest.raises(DomainError, match="mode"):
            hyperbolic.steklov_residual(hp, which, x)
    for radius in (0.0, 1.0, 1.5, math.nan):
        y = x.copy()
        y[1] = 0.0
        y[1, 0] = radius
        with pytest.raises(DomainError, match=r"\|x\|"):
            hyperbolic.steklov_residual(hp, 0, y)


def test_hyperbolic_import_loads_no_scipy_sparse():
    # a fresh interpreter: this one has imported it for other tests
    src = str(Path(hyperbolic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, bubblelab.hyperbolic; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"
