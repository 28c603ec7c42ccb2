"""One benchmark command, run in a fresh interpreter as a user would run it.

Usage: python3 perfbench/child.py JOB.json SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
spans interpreter start-up and ``import bubblelab.cli``.  The job runs
one CLI command through ``bubblelab.cli.main`` or the library-level
degree-0 solve, checks its outputs, and writes a result JSON next to
the job file.  With ``"trace": true`` the package's layers are wrapped
(see spans.py) after set-up and before the command.
"""
import sys
import time

import bubblelab.cli

SETUP_S = time.monotonic() - float(sys.argv[2])

import hashlib  # noqa: E402  (kept out of the timed set-up)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from bubblelab import corrector  # noqa: E402
from bubblelab.bubble import Bubble, jacobi  # noqa: E402
from bubblelab.errors import SingularSystem  # noqa: E402
from bubblelab.model import ProblemPoint  # noqa: E402


def _digest(out):
    """sha256 over the names and bytes of every report file, and their size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _identity_rows(rows, all_passed):
    """(margin, problem) of report rows {name, passed, value, bound}.

    The margin is the largest value/bound over the rows that state
    ``value <= bound`` with bound > 0; rows that test a sign or an
    existence pass on another condition and are left out.
    """
    failed = [r["name"] for r in rows if not r["passed"]]
    if failed or not all_passed:
        return None, "failed rows: " + "; ".join(failed or ["all_passed"])
    ratios = [r["value"] / r["bound"] for r in rows
              if r["bound"] > 0.0 and r["passed"] == (r["value"] <= r["bound"])]
    return max(ratios, default=None), None


def _check_verify(out, job):
    with open(os.path.join(out, "verify_report.json")) as fh:
        doc = json.load(fh)
    return _identity_rows(doc["identities"], doc["all_passed"])


def _check_corrector(out, job):
    with open(os.path.join(out, "diagnostics.json")) as fh:
        doc = json.load(fh)
    return _identity_rows(doc["checks"], doc["all_passed"])


def _check_locate(out, job):
    """Selected sample, hypothesis flags and the stationarity of d_star."""
    with open(os.path.join(out, "blowup.json")) as fh:
        doc = json.load(fh)
    with open(job["config"]) as fh:
        labels = [s["label"] for s in json.load(fh)["samples"]]
    if doc["p_star"] not in labels:
        return None, f"p_star {doc['p_star']!r} is not a sample label"
    bad = [k for k, v in doc["hypothesis_flags"].items() if not v]
    if bad:
        return None, "hypothesis flags false: " + ", ".join(bad)
    coeff = doc["coefficients"]
    drive = coeff["A"] * doc["gamma"]
    defect = abs(drive - 4.0 * doc["d_star"] ** 3 * coeff["B"]) / abs(drive)
    if not defect <= 1e-9:
        return None, f"d_star not stationary: A gamma vs 4 d^3 B off by {defect:.3e}"
    return None, None


_CHECKS = {"verify-integrals": _check_verify, "verify-bubble": _check_verify,
           "verify-hyperbolic": _check_verify, "corrector": _check_corrector,
           "locate": _check_locate}


def run_cli(job, result):
    out = job["out"]
    argv = [job["command"], "--config", job["config"], "--out", out]
    start = perf_counter()
    code = bubblelab.cli.main(argv)
    result["cmd_s"] = perf_counter() - start
    result["times"] = {job["command"]: result["cmd_s"]}
    result["digest"], result["report_bytes"] = _digest(out)
    if code != 0:
        result["problem"] = f"exit code {code}"
        return
    result["margin"], result["problem"] = _CHECKS[job["command"]](out, job)


# The degree-0 case of test_solve_mode_degree0_deflated: n = 8, K = -56,
# H = 2 and a compatible Gaussian forcing, solved on the 100^2 and 200^2
# grids with that test's checks.  The CLI practically never reaches
# degree 0, so this is the only route to the bordered factorization and
# the conditioning gate.
DEGREE0_GRIDS = (100, 200)
DEGREE0_RESIDUAL_BOUND = 2e-2       # on the finer grid
DEGREE0_REFINEMENT = 3.0            # residual ratio coarse / fine, at least
DEGREE0_CONSTRAINT_BOUND = 1e-12
# solve_mode borders the system with a scale from scipy's onenormest,
# which draws random probe vectors, so repeated solves agree only to
# rounding amplified by the bordered system's Euclidean condition number
# (sigma_min is about 3e-10 of the operator norm; measured differences
# 8e-12 to 2.5e-9 relative).  Digests would differ, so repeated
# solutions are compared at this relative tolerance instead.
DEGREE0_REPEAT_TOL = 1e-5


def _degree0_solve(pt, cells, amplitude, ratios, problems):
    """Solve one grid, check it; return (seconds, psi, multiplier, residual)."""
    gs = corrector.GridSpec(nr=cells, nxn=cells)
    gg = corrector.grid_geometry(gs, pt.n)
    r, xn, W = gg["r"], gg["xn"], gg["W"]
    x = np.zeros((r.size, xn.size, pt.n))
    x[..., 0] = r[:, None]
    x[..., -1] = xn[None, :]
    jn = jacobi(Bubble(pt), pt.n, x)
    e = amplitude * np.exp(-0.25 * (r[:, None] ** 2 + xn[None, :] ** 2))
    # compatible data: remove the kernel component in the discrete inner
    # product, as the continuum solvability condition demands
    e = e - (np.sum(W * jn * e) / np.sum(W * jn * jn)) * jn

    start = perf_counter()
    psi, info = corrector.solve_mode(pt, 0, e, gs)
    seconds = perf_counter() - start

    res, fnorm = corrector.residual_norm(pt, 0, psi, e - info["multiplier"] * jn,
                                         gs)
    constraint = abs(float(np.sum(W * jn * psi)))
    scale = float(np.linalg.norm(W * jn) * np.linalg.norm(psi))
    ratios[f"constraint {cells}^2"] = constraint / (DEGREE0_CONSTRAINT_BOUND
                                                    * scale)
    ratios[f"sigma gate {cells}^2"] = info["sigma_threshold"] / info["sigma_min"]
    if not info["deflated"]:
        problems.append(f"{cells}^2 solve was not deflated")
    if not info["kernel_overlap"] > 0.9:
        problems.append(f"{cells}^2 kernel overlap "
                        f"{info['kernel_overlap']:.3g} <= 0.9")
    return seconds, psi, info["multiplier"], res / fnorm


def run_degree0(job, result):
    pt = ProblemPoint(n=8, K=-56.0, H=2.0)
    ratios, problems, solved = {}, [], {}
    for cells in DEGREE0_GRIDS:
        try:
            solved[cells] = _degree0_solve(pt, cells, job["amplitude"], ratios,
                                           problems)
        except SingularSystem as exc:
            result["problem"] = f"SingularSystem raised at {cells}^2: {exc}"
            return
    coarse, fine = (solved[c][3] for c in DEGREE0_GRIDS)
    ratios["residual"] = fine / DEGREE0_RESIDUAL_BOUND
    ratios["refinement"] = DEGREE0_REFINEMENT * fine / coarse
    result["times"] = {f"solve {c}^2": solved[c][0] for c in DEGREE0_GRIDS}
    result["cmd_s"] = sum(result["times"].values())
    result["margin"] = max(ratios.values())
    problems += [f"{k} at {v:.3g} of its bound" for k, v in ratios.items()
                 if not v < 1.0]

    arrays = {}
    for c in DEGREE0_GRIDS:
        arrays[f"psi{c}"] = solved[c][1]
        arrays[f"mult{c}"] = np.array(solved[c][2])
    ref = job["reference"]
    if os.path.exists(ref):
        with np.load(ref) as saved:
            drift = max(float(np.max(np.abs(arrays[k] - saved[k]))
                              / np.max(np.abs(saved[k]))) for k in arrays)
        if not drift <= DEGREE0_REPEAT_TOL:
            problems.append(f"solution differs from the first solve by "
                            f"{drift:.3e} relative")
    else:
        np.savez(ref, **arrays)
    result["problem"] = "; ".join(problems) or None


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer(job["run_id"])
        spans.install(tracer)
    result = {"setup_s": SETUP_S, "problem": None}
    try:
        if job["kind"] == "cli":
            run_cli(job, result)
        else:
            run_degree0(job, result)
    except Exception:
        result["problem"] = traceback.format_exc()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    if tracer is not None:
        tracer.counts["report.bytes"] += result.get("report_bytes", 0)
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
