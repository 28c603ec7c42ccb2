"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single pass/fail
line with the measured worst case next to the allowed bound.  Run with
``pytest -v tests/test_acceptance.py`` to get one verdict line per
criterion; add ``-s`` to see the measured numbers as they stream.
"""

import json
import math
import time

import numpy as np

from bubblelab import cli, corrector, geom, hyperbolic, quad, reduced
from bubblelab.bubble import (Bubble, bubble_energy,
                              bubble_energy_quadrature, residual_linearized,
                              residual_model)
from bubblelab.model import HessianData, ProblemPoint


def _line(num, label, worst, bound, ok=None):
    if ok is None:
        ok = worst < bound
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} "
          f"(measured {worst:.3e}, allowed {bound:.3e})")
    assert ok, f"criterion {num}: {label}: {worst:.6e} vs {bound:.6e}"


def _point(n, d):
    # K = -n(n-1) makes D = H exactly, so d is hit with no rounding
    return ProblemPoint(n=n, K=-float(n * (n - 1)), H=float(d))


def test_criterion_01_beta_moment_suite():
    start = time.perf_counter()
    pairs = [(m, a) for m in range(4, 13) for a in (1, 2, 3, 5, 7)
             if a + 1 < 2 * m]
    assert len(pairs) >= 40
    worst = 0.0
    for m, a in pairs:
        closed = quad.I(m, a)
        direct = quad.integrate_halfline(
            lambda t, _m=m, _a=a: t ** _a * (1.0 + t * t) ** (-_m),
            rel_tol=1e-12)
        worst = max(worst, abs(closed - direct) / abs(direct))
    elapsed = time.perf_counter() - start
    _line(1, f"Beta moments, {len(pairs)} pairs in {elapsed:.2f}s",
          worst, 1e-10, ok=worst < 1e-10 and elapsed < 5.0)


def test_criterion_02_moment_ratio_identity():
    worst = max(abs(quad.I(n, n) - (n - 3.0) / (n + 1.0) * quad.I(n, n + 2))
                / quad.I(n, n) for n in range(8, 13))
    _line(2, "moment ratio identity, n in 8..12", worst, 1e-10)


def test_criterion_03_integration_by_parts():
    worst = 0.0
    for n in range(8, 13):
        for d in (1.5, 2.0, 3.0):
            lhs = quad.phi_power(4, 0.5 * (n - 1.0), d)
            rhs = 3.0 / (n - 3.0) * quad.phi_power(2, 0.5 * (n - 3.0), d) \
                - d * quad.phi_power(3, 0.5 * (n - 1.0), d)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    _line(3, "tail-moment integration by parts, 15 combinations",
          worst, 1e-8)


def test_criterion_04_separable_reduction():
    start = time.perf_counter()
    n, d = 8, 2.0
    tbl = quad.MomentTable(n, d)
    quoted = [(4, 2, n), (2, 4, n), (0, 2, n - 2)]
    extras = [(0, 0, n - 2), (2, 0, n - 2), (0, 2, n), (2, 2, n),
              (4, 0, n), (0, 4, n), (2, 0, n), (0, 0, n), (4, 4, n + 1),
              (6, 0, n + 1), (2, 2, n + 1)]
    assert len(extras) >= 10
    worst = 0.0
    for a, b, m in quoted + extras:
        closed = tbl.halfspace_moment(a, b, m)
        brute, = quad.brute_halfspace(
            lambda X, which, _a=a, _b=b, _m=m: [
                X[..., -1] ** _a
                * np.sum(X[..., :-1] ** 2, axis=-1) ** (0.5 * _b)
                * (np.sum(X[..., :-1] ** 2, axis=-1) + (X[..., -1] + d) ** 2
                   - 1.0) ** -_m],
            n, rel_tol=1e-9, count=1)
        worst = max(worst, abs(closed - brute) / abs(closed))
    elapsed = time.perf_counter() - start
    _line(4, f"separable reduction, {len(quoted) + len(extras)} triples "
          f"in {elapsed:.2f}s", worst, 1e-8,
          ok=worst < 1e-8 and elapsed < 60.0)


def test_criterion_05_bubble_exactness():
    worst = 0.0
    rng = np.random.default_rng(101)
    for n in (8, 10):
        pt = _point(n, 2.0)
        b = Bubble(pt)
        pts = rng.normal(size=(100, n)) * rng.lognormal(0.0, 1.0,
                                                        size=(100, 1))
        pts[:, -1] = np.abs(pts[:, -1])
        pts[::2, -1] = 0.0
        worst = max(worst, *map(np.max, residual_model(b, pts)))
        for i in range(1, n + 1):
            worst = max(worst, *map(np.max, residual_linearized(b, i, pts)))
    _line(5, "bubble and kernel residuals, 100 points, n in {8, 10}",
          worst, 1e-8, ok=worst <= 1e-8)


def test_criterion_06_bubble_energy():
    worst = 0.0
    for n in (8, 10):
        for d in (1.5, 2.0):
            pt = _point(n, d)
            closed = bubble_energy(pt)
            direct = bubble_energy_quadrature(pt)
            worst = max(worst, abs(closed - direct) / abs(closed))
    _line(6, "bubble energy closed form vs quadrature", worst, 1e-6)


def test_criterion_07_hyperbolic_picture(tmp_path):
    worst = 0.0
    for d in (1.5, 2.0, 3.0, 10.0):
        hp = hyperbolic.hyperbolic_picture(d)
        worst = max(worst,
                    abs(hp.R - (d - math.sqrt(d * d - 1.0))),
                    abs(hp.mu0 - 2.0 * hp.R / (1.0 + hp.R ** 2)),
                    abs(hp.mu1 - d) / d)
    resid = 0.0
    hp = hyperbolic.hyperbolic_picture(2.0)
    annihilating = [c for c in hyperbolic.steklov_variants(
        hp, 8, seed=0).values() if c.passed]
    assert annihilating, "no operator variant annihilates the eigenfunctions"
    for c in annihilating:
        resid = max(resid, c.value)
    # the variant table must also reach the emitted report
    assert cli.main(["verify-hyperbolic", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(doc["variants"]) == 6
    print(f"    closed-form defect {worst:.3e}, annihilating residual "
          f"{resid:.3e}, variant table emitted with 6 rows")
    _line(7, "hyperbolic closed forms and Steklov residuals", worst, 1e-14,
          ok=worst < 1e-14 and resid <= 1e-10)


def test_criterion_08_forcing_orthogonality():
    worst = 0.0
    pt = _point(8, 2.0)
    b = Bubble(pt)
    for seed in range(20):
        frame = geom.random_frame(8, np.random.default_rng(1000 + seed))
        ep = geom.forcing_norm(frame, b)
        for s in range(1, 9):
            value, scale = geom.integral_Ep_jacobi(frame, b, s, ep_norm=ep)
            worst = max(worst, abs(value) / scale)
    _line(8, "forcing orthogonal to the kernel, 20 frames x 8 fields",
          worst, 1e-8, ok=worst <= 1e-8)


def test_criterion_09_cancellation_suite():
    worst = 0.0
    for n in (8, 10):
        pt = _point(n, 2.0)
        frame = geom.random_frame(n, np.random.default_rng(500 + n))
        rows = geom.cancellation_suite(frame, pt)
        assert len(rows) == 4
        for c in rows:
            assert c.passed, f"{c.name}: {c.value:.3e}"
            worst = max(worst, c.value)
    _line(9, "cancellation suite, n in {8, 10}", worst, 1e-8,
          ok=worst <= 1e-8)


def test_criterion_10_corrector(pt8, frame8):
    start = time.perf_counter()
    res_rel = {}
    for cells in (100, 200, 400):
        gs = corrector.GridSpec(nr=cells, nxn=cells)
        sol = corrector.solve_corrector(frame8, pt8, gs)
        worst = 0.0
        for mode in sol.modes:
            res, fnorm = corrector.residual_norm(pt8, mode.degree, mode.psi,
                                                 mode.e, gs)
            worst = max(worst, res / fnorm)
        res_rel[cells] = worst
        if cells == 400:
            checks = {c.name: c
                      for c in corrector.corrector_diagnostics(sol)[0]}
    elapsed = time.perf_counter() - start

    factor1 = res_rel[100] / res_rel[200]
    factor2 = res_rel[200] / res_rel[400]
    ortho = checks["kernel orthogonality"].value
    identity = checks["interior/boundary mass identity"].value
    positive = checks["quadratic form nonnegative"].passed
    ok = (res_rel[400] < 1e-4 and ortho < 1e-6 and identity < 1e-3
          and positive and factor1 >= 3.0 and factor2 >= 3.0
          and elapsed < 600.0)
    print(f"    residuals {res_rel[100]:.3e} -> {res_rel[200]:.3e} -> "
          f"{res_rel[400]:.3e} (factors {factor1:.2f}, {factor2:.2f}), "
          f"orthogonality {ortho:.2e}, identity {identity:.2e}, "
          f"{elapsed:.1f}s")
    _line(10, "corrector residual, projection, identity, refinement",
          res_rel[400], 1e-4, ok=ok)


def test_criterion_11_sign_quantity():
    worst_agree = 0.0
    worst_i2 = 0.0
    for n in range(8, 13):
        for d in (1.5, 2.0, 3.0):
            pt = _point(n, d)
            s1 = reduced.compute_S(pt)
            s2 = reduced.compute_S_alt(pt)
            assert s1 > 0.0, f"S <= 0 at n={n}, D={d}"
            worst_agree = max(worst_agree, abs(s1 - s2) / abs(s1))
            worst_i2 = max(worst_i2, abs(reduced.compute_I2(pt)))
    ok = worst_agree < 1e-8 and worst_i2 < 1e-8
    _line(11, "sign quantity: agreement, positivity, vanishing bracket",
          max(worst_agree, worst_i2), 1e-8, ok=ok)


def test_criterion_12_locator(pt8, frame8, sol8):
    # constants: closed stationary depth against a dense grid search
    a_val = reduced.coeff_A(pt8)
    b_val = reduced.coeff_B_constant(pt8, frame8, sol8)
    closed = reduced.stationary_depth(a_val * 1.0, b_val, 4)
    lo, hi = 0.01, 10.0
    for _ in range(5):
        grid = np.linspace(lo, hi, 4001)
        vals = reduced.increment(grid, a_val * 1.0, b_val, 4)
        k = int(np.argmax(vals))
        lo, hi = grid[max(k - 2, 0)], grid[min(k + 2, 4000)]
    searched = 0.5 * (lo + hi)
    defect = abs(searched - closed) / closed

    # non-constants: planted interior minimum on a sample mesh
    p0 = (0.75, 1.25)
    samples = []
    for i in range(9):
        for j in range(9):
            u, v = 0.25 * i, 0.25 * j
            h_val = 2.0 + 0.03 * (u - p0[0]) ** 2 + 0.04 * (v - p0[1]) ** 2
            samples.append(reduced.BoundarySample(
                label=f"s{i}{j}", coords=(u, v),
                pt=ProblemPoint(n=8, K=-56.0, H=h_val),
                hess=HessianData(hessH=np.eye(7), hessK=np.eye(8))))
    rep = reduced.optimize_nonconstant(samples)
    cell = max(abs(rep.coords[0] - p0[0]), abs(rep.coords[1] - p0[1]))
    depth_defect = abs(rep.d_star - rep.coefficients.A
                       / (2.0 * rep.coefficients.B)) / rep.d_star
    ok = defect < 1e-8 and cell <= 0.25 and depth_defect < 1e-14
    print(f"    constants grid-search defect {defect:.3e}, planted-minimum "
          f"offset {cell:.3g}, depth defect {depth_defect:.3e}")
    _line(12, "blow-up locator, both scaling regimes", defect, 1e-8, ok=ok)


def test_criterion_13_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["verify-integrals", "--out", str(out)]) == 0
        assert cli.main(["verify-hyperbolic", "--out", str(out / "h")]) == 0
        outs.append((out / "verify_report.json").read_bytes()
                    + (out / "h" / "verify_report.json").read_bytes())
    same = outs[0] == outs[1]
    _line(13, "byte-identical verification reports", 0.0 if same else 1.0,
          0.5, ok=same)
