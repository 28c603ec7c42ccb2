"""Command-line surface: configuration, dispatch, deterministic reports.

Five subcommands: three verification suites (`verify-integrals`,
`verify-bubble`, `verify-hyperbolic`) that write a `verify_report.json`
of identity rows, `corrector` which solves the modal problems and emits
each mode's forcing and solution profiles as exact float64 `.npy` files
(read back with `np.load(path)`, rows the radial index) plus a
diagnostics JSON, and `locate` which maximizes the reduced energy over
a boundary sample and emits `blowup.json` + `samples.csv`.

Exit codes: 0 success, 1 numeric or hypothesis failure, 2 configuration
failure.  Reports are byte-deterministic: identical configuration means
identical bytes (fixed seeds, sorted keys, shortest round-trip floats,
no timestamps or timings in any emitted file).

Configuration is one JSON object, checked against one key table that
also supplies the defaults; unknown keys, also inside `grid` and
inside a `locate` sample, are refused, and so is a key that the chosen
`locate` case never reads, unless it holds its default.  File paths
inside it resolve relative to the config file's directory.  `--schema`
prints that table for a subcommand, with its output formats, and exits.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import geom, hyperbolic, quad, reduced
from .bubble import (Bubble, bubble_energy, bubble_energy_quadrature,
                     residual_linearized, residual_model)
from .errors import (BubbleLabError, ConfigError, DomainError,
                     HypothesisFailure, NonConvergence, SingularSystem)
from .model import (MAX_DIMENSION, MAX_GAMMA, MAX_GRID_CELLS,
                    OVERRIDE_MIN_DIMENSION, SUPPORTED_MIN_DIMENSION,
                    CurvatureFrame, GridSpec, HessianData, ProblemPoint,
                    validate_frame, validate_hessians, validate_point,
                    write_json)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2

_QUAD_TOL = 1e-12

# The one config schema: key -> (kind, default, doc).  It drives the
# defaults, the kind checks and --schema.  Point bounds live in
# model.validate_point and grid bounds in model.GridSpec, whose field
# defaults are the grid defaults; the kind "count" carries the bound of
# the one key only the CLI reads.  A null value stands for the default,
# and is accepted only where the default is null.
_KEYS = {
    "n": ("integer", 8, f"dimension, {SUPPORTED_MIN_DIMENSION} <= n <= "
          f"{MAX_DIMENSION} (from {OVERRIDE_MIN_DIMENSION} with "
          "--override-dimension-gate, which locate refuses)"),
    "K": ("number", -56.0, "prescribed scalar curvature, < 0"),
    "H": ("number", 2.0, "prescribed boundary mean curvature; "
          "D = sqrt(n(n-1)) H / sqrt(|K|) must exceed 1"),
    "gamma": ("number", 1.0, "perturbation weight gamma(p), 0 < gamma "
              f"<= {MAX_GAMMA:g}"),
    "seed": ("count", 1871, "seed of every random draw"),
    "frame": (("zero", "random"), "zero",
              "curvature frame, unless frame_file is given "
              "(not the non-constants case)"),
    "frame_file": ("string", None, "path to a curvature-frame JSON, "
                   "relative to the config file (not the non-constants "
                   "case)"),
    "grid": ({
        "nr": ("integer", GridSpec.nr, "radial cells, >= 16"),
        "nxn": ("integer", GridSpec.nxn, "normal cells, >= 16; "
                f"nr * nxn <= {MAX_GRID_CELLS}"),
    }, {}, "modal solver grid of corrector, on [0, r_max]^2 with "
       f"r_max = {GridSpec.r_max:g} and stretch {GridSpec.stretch:g}"),
    "case": (("constants", "non-constants"), "constants", "reduced-energy "
             "regime"),
    "samples": ("array", None, "list of {label, coords, gamma} (constants) "
                "or {label, coords, H[, gamma]} (non-constants); a label "
                "is a string or an integer"),
    "hessH": ("matrix", "identity", "(n-1)x(n-1) Hessian of H "
              "(non-constants case)"),
    "hessK": ("matrix", "identity", "n x n Hessian of K "
              "(non-constants case)"),
}
# the keys a locate case never reads; they must keep their defaults
_CASE_FOREIGN = {"constants": ("hessH", "hessK"),
                 "non-constants": ("frame", "frame_file")}
_POINT_KEYS = ("n", "K", "H", "gamma", "seed")
_ACCEPTS = {
    "verify-integrals": _POINT_KEYS,
    "verify-bubble": _POINT_KEYS,
    "verify-hyperbolic": _POINT_KEYS,
    "corrector": _POINT_KEYS + ("frame", "frame_file", "grid"),
    "locate": _POINT_KEYS + ("frame", "frame_file", "case", "samples",
                             "hessH", "hessK"),
}


def _is_int(v):
    # JSON integers beyond 2^53 are not exact in most readers
    return type(v) is int and abs(v) <= 2 ** 53


def _is_number(v):
    return _is_int(v) or (type(v) is float and math.isfinite(v))


# kind -> (description, predicate); a tuple kind lists the allowed strings
_KINDS = {
    "integer": ("an integer", _is_int),
    "count": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "number": ("a finite number", _is_number),
    "string": ("a string", lambda v: type(v) is str),
    "array": ("an array", lambda v: type(v) is list),
    "matrix": ("'identity' or an array",
               lambda v: v == "identity" or type(v) is list),
}


def _kind(kind):
    if isinstance(kind, tuple):
        return ("one of " + ", ".join(map(repr, kind)), lambda v: v in kind)
    return _KINDS[kind]


def _checked(kind, name, value):
    """``value`` if it has the JSON kind, as a float for a number kind."""
    what, ok = _kind(kind)
    if not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return float(value) if kind == "number" else value


def _walk(table, raw, where):
    """Check a config object against a table; fill in the defaults.

    Unknown keys and values of the wrong JSON kind raise ConfigError;
    a nested table (the grid) is walked the same way.
    """
    if type(raw) is not dict:
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    cfg = {}
    for key, (kind, default, _) in table.items():
        value = raw.get(key, default)
        if isinstance(kind, dict):
            cfg[key] = _walk(kind, value, key)
        elif value is None and default is None:
            cfg[key] = None
        else:
            cfg[key] = _checked(kind, key if where == "config"
                                else f"{where}.{key}", value)
    return cfg


def _schema_doc(table, keys):
    doc = {}
    for key in keys:
        kind, default, text = table[key]
        if isinstance(kind, dict):
            doc[key] = _schema_doc(kind, kind)
        else:
            doc[key] = (f"{_kind(kind)[0]}: {text} "
                        f"(default {json.dumps(default)})")
    return doc


_VERIFY_OUTPUTS = {"verify_report.json":
                   "command, parameters, identities[{name, passed, "
                   "value, bound, detail}], count, all_passed"}
_OUTPUTS = {
    "verify-integrals": _VERIFY_OUTPUTS,
    "verify-bubble": _VERIFY_OUTPUTS,
    "verify-hyperbolic": _VERIFY_OUTPUTS,
    "corrector": {
        "corrector.json": "problem, grid, modes[{degree, label, weight, "
                          "e_npy, psi_npy, info}]",
        "mode<k>_<label>_e.npy / _psi.npy":
            "(nr+1) x (nxn+1) float64 arrays, rows = radial index, "
            "read with np.load(path)",
        "diagnostics.json": "command, parameters, checks[...], diagnostics, "
                            "all_passed",
    },
    "locate": {
        "blowup.json": "p_star, coords, d_star, rate, case_tag, "
                       "coefficients{E, A, B, S?}, gamma, J_values, "
                       "hypothesis_flags, depth_convention, and in the "
                       "constants case pairing{levels, values, agreement, "
                       "bound}: the forcing pairing behind B at the two "
                       "Chebyshev levels, their relative gap and its bound",
        "samples.csv": "columns: sample, E, A, B, d0, G "
                       "(d0/G empty when B <= 0 at that sample)",
    },
}


def _schema(command):
    return {"command": command,
            "config": _schema_doc(_KEYS, _ACCEPTS[command]),
            "outputs": _OUTPUTS[command]}


def _point(n, K, H, gamma, where="", override=False):
    """A ProblemPoint that passes validate_point, or one ConfigError line."""
    pt = ProblemPoint(n=n, K=K, H=H, gamma=gamma)
    rep = validate_point(pt, override_dimension_gate=override)
    if not rep.passed:
        raise ConfigError(where + "; ".join(c.detail
                                            for c in rep.failures()))
    return pt


def _load_config(args, command):
    """Merge file config, defaults and flags; validate; resolve paths."""
    if command == "locate" and args.override_dimension_gate:
        # the blow-up point is the n >= 8 result; the override is for
        # identity verification below it
        raise ConfigError("locate does not take --override-dimension-gate")
    raw = {}
    base_dir = os.getcwd()
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        base_dir = os.path.dirname(os.path.abspath(args.config))
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _walk({k: _KEYS[k] for k in _ACCEPTS[command]}, raw, "config")
    if command == "locate":
        foreign = _CASE_FOREIGN[cfg["case"]]
        default = _walk({k: _KEYS[k] for k in foreign}, {}, "config")
        given = [k for k in foreign if cfg[k] != default[k]]
        if given:
            raise ConfigError(f"case {cfg['case']!r} does not read "
                              f"{', '.join(given)}")
    cfg["_override"] = args.override_dimension_gate
    cfg["_pt"] = _point(cfg["n"], cfg["K"], cfg["H"], cfg["gamma"],
                        override=cfg["_override"])
    if "grid" in cfg:
        try:
            cfg["grid"] = GridSpec(**cfg["grid"])
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    out = args.out or "out"
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") \
            from exc
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory not writable: {out}")
    cfg["_out"] = out
    cfg["_base_dir"] = base_dir
    return cfg


def _parameters(cfg, with_grid=False):
    """The deterministic config echo embedded in every report."""
    pt = cfg["_pt"]
    doc = {"n": pt.n, "K": pt.K, "H": pt.H, "gamma": pt.gamma,
           "D": pt.D, "seed": cfg["seed"],
           "override_dimension_gate": cfg["_override"]}
    if with_grid:
        doc["grid"] = cfg["grid"].to_json_dict()
    return doc


def _row(name, value, bound, detail="", passed=None):
    value = float(value)
    bound = float(bound)
    if passed is None:
        passed = value <= bound
    return {"name": name, "passed": bool(passed), "value": value,
            "bound": bound, "detail": detail}


def _report_rows(report):
    return [_row(c.name, c.value, c.bound, detail=c.detail, passed=c.passed)
            for c in report.checks]


def _print_rows(rows):
    """One console line per row.

    A failed row also prints its detail, and so does a passing row that
    holds by structure (its detail starts with "vacuous:"), tagged
    [vacuous] instead of [pass].
    """
    for r in rows:
        vacuous = r["detail"].startswith("vacuous:")
        tag = "FAIL" if not r["passed"] else "vacuous" if vacuous else "pass"
        line = (f"[{tag}] {r['name']}: "
                f"{r['value']:.3e} (bound {r['bound']:.3e})")
        if tag != "pass" and r["detail"]:
            line += f": {r['detail']}"
        print(line)


def _write_report(cfg, command, rows, extra=None):
    doc = {"command": command, "parameters": _parameters(cfg),
           "identities": rows, "count": len(rows),
           "all_passed": all(r["passed"] for r in rows)}
    if extra:
        doc.update(extra)
    path = os.path.join(cfg["_out"], "verify_report.json")
    write_json(path, doc)
    _print_rows(rows)
    print(f"{'all passed' if doc['all_passed'] else 'FAILURES'} — "
          f"{len(rows)} identities -> {path}")
    return EXIT_OK if doc["all_passed"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# verify suites

def _separable_triples(n):
    """The three moments the coefficients use first, then extras;
    convergent ones only."""
    quoted = [(4, 2, n), (2, 4, n), (0, 2, n - 2)]
    extras = [(0, 0, n - 2), (2, 0, n - 2), (0, 2, n), (2, 2, n),
              (4, 0, n), (0, 4, n), (2, 0, n), (0, 0, n), (4, 4, n + 1),
              (6, 0, n + 1), (2, 2, n + 1)]
    return [(a, b, m) for a, b, m in quoted + extras if 2 * m > n + a + b]


def _separable_family(triples, D):
    """The integrands of the separable oracle, as one `brute_halfspace` family.

    Member k of ``triples`` = [(a, b, m), ...] is x_n^a |xt|^b
    (|xt|^2 + (x_n+D)^2 - 1)^-m written in units of D, y = x/D, so that
    no factor leaves the float range before the others meet it: its
    integral times D^(n+a+b-2m) is the moment.  The integrand is
    y_n^a |yt|^b (|yt|^2 + (y_n+1)^2 - D^-2)^-m, from the definition;
    a block forms |yt|^2, y_n, the base and each distinct power once,
    with the operations of one member's own expression, so each value
    is the one that member's own call returns.
    """
    inv_d2 = D ** -2

    def family(Y, which):
        yt = Y[..., :-1]
        yt2 = np.einsum("...i,...i->...", yt, yt)
        # a contiguous copy: powers of the strided view run 1.5x slower
        yn = np.ascontiguousarray(Y[..., -1])
        base = yt2 + (yn + 1.0) ** 2 - inv_d2
        chosen = [triples[k] for k in which]
        a_s, b_s, m_s = (set(e) for e in zip(*chosen))
        yn_a = {a: yn ** a for a in a_s}
        yt_b = {b: yt2 ** (0.5 * b) for b in b_s}
        base_m = {m: base ** -m for m in m_s}
        return [yn_a[a] * yt_b[b] * base_m[m] for a, b, m in chosen]

    return family


def cmd_verify_integrals(cfg):
    pt = cfg["_pt"]
    n = pt.n
    rows = []

    pairs = [(m, a) for m in range(4, 13) for a in (1, 2, 3, 5, 7)
             if a + 1 < 2 * m]
    worst = 0.0
    for m, a in pairs:
        closed = quad.I(m, a)
        direct = quad.integrate_halfline(
            lambda t, _m=m, _a=a: t ** _a * (1.0 + t * t) ** (-_m),
            rel_tol=_QUAD_TOL)
        worst = max(worst, abs(closed - direct) / abs(direct))
    rows.append(_row(f"beta moments against quadrature ({len(pairs)} pairs)",
                     worst, 1e-10))

    for k in range(8, 13):
        lhs = quad.I(k, k)
        rhs = (k - 3.0) / (k + 1.0) * quad.I(k, k + 2)
        rows.append(_row(f"beta-moment ratio identity n={k}",
                         abs(lhs - rhs) / lhs, 1e-10))

    # the three tails of each integration-by-parts identity, by closed
    # form and by quadrature; the identity rows then read the closed form
    ibp = [(k, dd) for k in range(8, 13) for dd in (1.5, 2.0, 3.0)]
    worst = 0.0
    for k, dd in ibp:
        for p, m in ((4, 0.5 * (k - 1.0)), (2, 0.5 * (k - 3.0)),
                     (3, 0.5 * (k - 1.0))):
            closed = quad.phi_power(p, m, dd)
            direct = quad.integrate_halfline(
                lambda t, _p=p, _m=m, _d=dd: (t - _d) ** _p
                * (t * t - 1.0) ** (-_m), a=dd, rel_tol=_QUAD_TOL, scale=dd)
            worst = max(worst, abs(closed - direct) / abs(direct))
    rows.append(_row(f"tail moments against quadrature ({3 * len(ibp)} "
                     "triples)", worst, 1e-10))

    for k, dd in ibp:
        lhs = quad.phi_power(4, 0.5 * (k - 1.0), dd)
        rhs = 3.0 / (k - 3.0) * quad.phi_power(2, 0.5 * (k - 3.0), dd) \
            - dd * quad.phi_power(3, 0.5 * (k - 1.0), dd)
        rows.append(_row(f"tail-moment integration by parts n={k} D={dd}",
                         abs(lhs - rhs) / abs(lhs), 1e-8))

    # the oracle integrates the triples in units of D, as one family
    triples = _separable_triples(n)
    brutes = quad.brute_halfspace(_separable_family(triples, pt.D), n,
                                  rel_tol=1e-9, count=len(triples))
    for (a, b, m), brute in zip(triples, brutes):
        closed = pt.moments.halfspace_moment(a, b, m)
        brute = pt.D ** (n + a + b - 2.0 * m) * brute
        rows.append(_row(f"separable half-space moment (a={a}, b={b}, m={m})",
                         abs(closed - brute) / abs(closed), 1e-8))

    if n >= 7:
        s1 = reduced.compute_S(pt)
        s2 = reduced.compute_S_alt(pt)
        rows.append(_row("sign quantity: two expressions agree",
                         abs(s1 - s2) / abs(s1), 1e-8))
        rows.append(_row("sign quantity positive", s1, 0.0,
                         detail="value must exceed the bound",
                         passed=s1 > 0.0))
        scale = 0.5 * reduced._amplitude_sq(pt) \
            * pt.moments.halfspace_moment(2, 0, n - 2)
        rows.append(_row("vanishing second bracket of the depth-4 term",
                         abs(reduced.compute_I2(pt)) / scale, 1e-8))
    return _write_report(cfg, "verify-integrals", rows)


def cmd_verify_bubble(cfg):
    pt = cfg["_pt"]
    n = pt.n
    b = Bubble(pt)
    rng = np.random.default_rng(cfg["seed"])
    rows = []

    pts = rng.normal(size=(100, n)) * rng.lognormal(0.0, 1.0, size=(100, 1))
    pts[:, -1] = np.abs(pts[:, -1])
    pts[::2, -1] = 0.0          # half the sample probes the boundary trace
    ri, rb = residual_model(b, pts)
    rows.append(_row("model problem interior residual (100 points)",
                     np.max(ri), 1e-8))
    rows.append(_row("model problem boundary residual (50 points)",
                     np.max(rb), 1e-8))

    worst = max(np.max(np.concatenate(residual_linearized(b, i, pts)))
                for i in range(1, n + 1))
    rows.append(_row(f"linearized problem residuals ({n} kernel fields "
                     "x 100 points)", worst, 1e-8))

    closed = bubble_energy(pt)
    direct = bubble_energy_quadrature(pt)
    rows.append(_row("bubble energy: closed form vs quadrature",
                     abs(closed - direct) / abs(closed), 1e-6))

    ds = np.linspace(1.2, 4.0, 12)
    es = [bubble_energy(ProblemPoint(
              n=n, K=pt.K,
              H=float(d) * math.sqrt(abs(pt.K) / (n * (n - 1.0)))))
          for d in ds]
    slope = max(e2 - e1 for e1, e2 in zip(es, es[1:]))
    rows.append(_row("bubble energy decreasing in D", slope, 0.0,
                     detail="max forward difference, must be negative",
                     passed=slope < 0.0))

    pt4 = ProblemPoint(n=n, K=4.0 * pt.K, H=2.0 * pt.H)
    ratio = bubble_energy(pt4) / closed
    expected = 4.0 ** (-0.5 * (n - 2.0))
    rows.append(_row("bubble energy |K|-scaling at fixed D",
                     abs(ratio - expected) / expected, 1e-10))

    frame = geom.random_frame(n, rng)
    suite = geom.cancellation_suite(frame, pt)
    rows.extend(_report_rows(suite))

    ep_norm = geom.forcing_norm(frame, b)
    worst = 0.0
    for s in range(1, n + 1):
        val, scale = geom.integral_Ep_jacobi(frame, b, s, ep_norm=ep_norm)
        worst = max(worst, abs(val) / scale)
    rows.append(_row(f"forcing orthogonal to the kernel ({n} fields)",
                     worst, 1e-8))
    rows.append(_row("separable pairings: moments vs double-exponential "
                     "quadrature (5 radial records)",
                     geom.route_gap(frame, b), 1e-8))
    return _write_report(cfg, "verify-bubble", rows)


def cmd_verify_hyperbolic(cfg):
    pt = cfg["_pt"]
    n = pt.n
    rows = []

    hp = hyperbolic.hyperbolic_picture(pt.D)
    rows.append(_row("ball radius inverts to mu1 = D",
                     abs(hp.mu1 - pt.D) / pt.D, 1e-14))
    rows.append(_row("eigenvalue product mu0 mu1 = 1",
                     abs(hp.mu0 * hp.mu1 - 1.0), 1e-14))
    hp2 = hyperbolic.hyperbolic_picture(2.0)
    rows.append(_row("ball radius closed form at D=2",
                     abs(hp2.R - (2.0 - math.sqrt(3.0))), 1e-14))
    worst = max(abs((1.0 + (h := hyperbolic.hyperbolic_picture(d)).R ** 2)
                    / (2.0 * h.R) - d) / d
                for d in (1.5, 2.0, 3.0, 10.0))
    rows.append(_row("radius round trip D in {1.5, 2, 3, 10}", worst, 1e-14))
    hp_lim = hyperbolic.hyperbolic_picture(1.0 + 1e-6)
    rows.append(_row("approach to the unit ball as D -> 1+",
                     1.0 - hp_lim.R, 2e-3,
                     detail="R = 1 - sqrt(2e-6) + O(e-6) at D = 1 + 1e-6"))

    vrep, annihilating = hyperbolic.steklov_variants(hp, n, seed=cfg["seed"])
    rows.append(_row("an annihilating operator variant exists",
                     float(len(annihilating)), 0.0,
                     detail=", ".join(f"{op} + {lab}"
                                      for op, lab in annihilating),
                     passed=len(annihilating) > 0))
    measured = {c.name: c for c in vrep.checks}
    for op, lab in annihilating:
        c = measured[f"{op} operator + {lab}"]
        rows.append(_row(f"steklov residual: {op} operator + {lab}",
                         c.value, c.bound, detail=c.detail))
    variants = [{"combination": c.name, "residual": c.value,
                 "detail": c.detail} for c in vrep.checks]
    return _write_report(cfg, "verify-hyperbolic", rows,
                         extra={"variants": variants,
                                "annihilating": [list(p)
                                                 for p in annihilating]})


# ---------------------------------------------------------------------------
# corrector and locator

def _build_frame(cfg):
    """The config's curvature frame, checked against the gauge and n.

    A valid frame file is projected onto the gauge (R to its Weyl part,
    Q to its trace-free part): validate_frame admits residues far above
    the cutoff below which decompose_forcing drops a degree-0 mode.
    """
    n = cfg["_pt"].n
    path = cfg["frame_file"]
    if path is not None:
        full = os.path.join(cfg["_base_dir"], path)
        if not os.path.exists(full):
            raise ConfigError(f"frame file not found: {full}")
        try:
            with open(full) as fh:
                frame = CurvatureFrame.from_json_dict(json.load(fh))
        except (OSError, DomainError, KeyError, TypeError, ValueError,
                RecursionError) as exc:
            raise ConfigError(f"invalid frame file {full}: {exc}") from exc
        if frame.n != n:
            raise ConfigError(f"frame file {full} has n = {frame.n}, "
                              f"the config has n = {n}")
    elif cfg["frame"] == "random":
        frame = geom.random_frame(n, np.random.default_rng(cfg["seed"]))
    else:
        frame = CurvatureFrame.zero(n)
    bad = [c.name for c in validate_frame(frame).failures()]
    if bad:
        raise ConfigError(f"curvature frame fails validation: "
                          f"{', '.join(bad)}")
    if path is not None:
        m = frame.m
        Q = frame.normal_block
        frame = CurvatureFrame(
            riem_boundary=geom.weyl_part(frame.riem_boundary),
            normal_block=Q - np.trace(Q) / m * np.eye(m))
    return frame


def cmd_corrector(cfg):
    from . import corrector     # scipy.sparse: this command alone

    pt = cfg["_pt"]
    frame = _build_frame(cfg)
    gs = cfg["grid"]
    out = cfg["_out"]
    path = os.path.join(out, "diagnostics.json")
    doc = {"command": "corrector", "parameters": _parameters(cfg,
                                                             with_grid=True)}
    try:
        sol = corrector.solve_corrector(frame, pt, gs)
        rep = corrector.corrector_diagnostics(sol)
    except (SingularSystem, NonConvergence) as exc:
        doc["error"] = f"{type(exc).__name__}: {exc}"
        write_json(path, doc)
        print(f"corrector solve failed: {doc['error']}", file=sys.stderr)
        return EXIT_NUMERIC
    sol.save(out)
    rows = _report_rows(rep)
    doc["checks"] = rows
    doc["diagnostics"] = {k: v for k, v in sol.diagnostics.items()
                          if isinstance(v, (int, float, bool, str))}
    doc["modes"] = [{"degree": m.degree, "label": m.label} for m in sol.modes]
    doc["all_passed"] = all(r["passed"] for r in rows)
    write_json(path, doc)
    _print_rows(rows)
    print(f"{len(sol.modes)} modes -> {out}")
    return EXIT_OK if doc["all_passed"] else EXIT_NUMERIC


def _parse_samples(cfg, need_h):
    """(label, coords, ProblemPoint) per sample; each point is validated."""
    pt = cfg["_pt"]
    if not cfg["samples"]:
        raise ConfigError("locate needs a non-empty 'samples' list")
    out = []
    labels = set()
    for i, entry in enumerate(cfg["samples"]):
        label = entry.get("label") if type(entry) is dict else None
        # the reports hold str(label), faithful for a string or an integer
        if type(label) is not str and not _is_int(label):
            raise ConfigError(f"sample {i} must be an object whose label is "
                              f"a string or an integer")
        where = f"sample {label!r}: "
        label = str(label)
        if label in labels:
            raise ConfigError(f"{where}the label repeats an earlier sample's")
        labels.add(label)
        unknown = sorted(set(entry) - {"label", "coords", "gamma", "H"})
        if unknown:
            raise ConfigError(f"{where}unknown keys: {', '.join(unknown)}")
        coords = entry.get("coords", [i])
        if type(coords) is not list or not all(map(_is_number, coords)):
            raise ConfigError(f"{where}coords must be an array of finite "
                              f"numbers, got {coords!r}")
        gamma = _checked("number", f"{where}gamma",
                         entry.get("gamma", pt.gamma))
        if need_h != ("H" in entry):
            raise ConfigError(f"{where}a sample gives H exactly in the "
                              "non-constants case")
        h_val = _checked("number", f"{where}H", entry["H"]) if need_h \
            else pt.H
        out.append((label, tuple(map(float, coords)),
                    _point(pt.n, pt.K, h_val, gamma, where)))
    return out


def _parse_hessian(value, size, name):
    if value == "identity":
        return np.eye(size)
    if len(value) != size or not all(
            type(row) is list and len(row) == size
            and all(map(_is_number, row)) for row in value):
        raise ConfigError(f"{name} must be 'identity' or a {size}x{size} "
                          f"array of finite numbers")
    return np.array(value, dtype=float)


def cmd_locate(cfg):
    pt = cfg["_pt"]
    n = pt.n
    if cfg["case"] == "constants":
        from . import spectral      # only the constants case pairs modes

        parsed = _parse_samples(cfg, need_h=False)
        frame = _build_frame(cfg)
        # one geometry, many gammas: the pairing solve is shared
        sol = spectral.solve_pairing(frame, pt)
        samples = [reduced.BoundarySample(label=lab, coords=coords,
                                          pt=sample_pt, frame=frame, sol=sol)
                   for lab, coords, sample_pt in parsed]
        report = reduced.optimize_constants(samples)
        report.pairing = sol.to_json_dict()
    else:
        hess = HessianData(
            hessH=_parse_hessian(cfg["hessH"], n - 1, "hessH"),
            hessK=_parse_hessian(cfg["hessK"], n, "hessK"))
        bad = [c.name for c in validate_hessians(
            hess, require_definite=False).failures()]
        if bad:
            raise ConfigError(f"curvature Hessians fail validation: "
                              f"{', '.join(bad)}")
        samples = [reduced.BoundarySample(label=lab, coords=coords,
                                          pt=sample_pt, hess=hess)
                   for lab, coords, sample_pt in _parse_samples(cfg,
                                                                need_h=True)]
        report = reduced.optimize_nonconstant(samples)
    report.save(cfg["_out"])
    print(f"blow-up point {report.p_star} at depth d = {report.d_star:.8g}, "
          f"rate eps^{report.rate:.6g} -> {cfg['_out']}")
    return EXIT_OK


_DISPATCH = {
    "verify-integrals": cmd_verify_integrals,
    "verify-bubble": cmd_verify_bubble,
    "verify-hyperbolic": cmd_verify_hyperbolic,
    "corrector": cmd_corrector,
    "locate": cmd_locate,
}

_HELP = {
    "verify-integrals": "moment identities: beta and tail suites, ratio, "
                        "integration by parts, separable reduction, sign "
                        "quantity",
    "verify-bubble": "bubble residuals, energy, cancellation suite, forcing "
                     "orthogonality",
    "verify-hyperbolic": "ball radius, Steklov eigenvalues, operator "
                         "variant report",
    "corrector": "solve the modal corrector problems, emit profiles and "
                 "diagnostics",
    "locate": "maximize the reduced energy over a boundary sample",
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bubblelab",
        description="desk-scale verification of a boundary bubble "
                    "construction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", metavar="PATH",
                       help="flat JSON config (paths resolve relative to it)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: 'out')")
        p.add_argument("--override-dimension-gate", action="store_true",
                       help="allow 5 <= n < 8 for exploration (not locate)")
        p.add_argument("--schema", action="store_true",
                       help="print config/output schema and exit")
    args = parser.parse_args(argv)
    if args.schema:
        print(json.dumps(_schema(args.command), indent=2, sort_keys=True))
        return EXIT_OK
    try:
        cfg = _load_config(args, args.command)
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BubbleLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
