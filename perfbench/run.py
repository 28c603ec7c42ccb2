"""Time-to-verified-report benchmark for bubblelab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|frame|degree0 --seed N \
        --seconds S --trace 0|1

Every command of a workload runs in a fresh interpreter (perfbench/child.py),
one child at a time, with the package imported from ./src and BLAS/OpenMP
pinned to one thread.  A run repeats the workload while the next repetition
still fits in S seconds (at least once) and prints, as its last line, one
JSON object: with ``--trace 0`` the end-to-end metrics (medians over the
repetitions), with ``--trace 1`` the per-layer metrics of one extra traced
repetition and the tracing overhead.  Every output is checked; a command
that exits non-zero, fails a check row or writes a report whose digest
differs from the first repetition counts as failed.

Workloads (--seed becomes the config ``seed`` of every command except
verify-bubble, which runs at its default config):
  verify   verify-integrals, verify-bubble, verify-hyperbolic at the
           default point (n=8, K=-56, H=2);
           primary_s = verify-bubble, secondary_s = verify-integrals
  frame    corrector (random frame, 400^2 grid), then the README locate
           example; primary_s = corrector, secondary_s = locate
  degree0  library solve_mode at degree 0 on the 100^2 and 200^2 grids,
           with the checks of test_solve_mode_degree0_deflated;
           primary_s = the 200^2 solve, secondary_s = the 100^2 solve
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import spans  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0

COMMANDS = {
    "verify": ["verify-integrals", "verify-bubble", "verify-hyperbolic"],
    "frame": ["corrector", "locate"],
    "degree0": ["degree0"],
}
# the timings reported as primary_s and secondary_s
STEPS = {
    "verify": ("verify-bubble", "verify-integrals"),
    "frame": ("corrector", "locate"),
    "degree0": ("solve 200^2", "solve 100^2"),
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "primary_s": "s",
              "secondary_s": "s", "peak_rss_mb": "MB", "check_margin": "ratio",
              "pass_ratio": "ratio"}


def locate_config(seed):
    """The README's constants-case locate example."""
    return {"n": 8, "K": -56.0, "H": 2.0, "case": "constants",
            "frame": "random", "seed": seed,
            "samples": [{"label": "p0", "coords": [0.0], "gamma": 1.0},
                        {"label": "p1", "coords": [1.0], "gamma": 1.5}]}


def make_jobs(workload, seed, work):
    """Job templates of one repetition; inputs depend on ``seed`` only."""
    jobs = []
    for command in COMMANDS[workload]:
        if command == "degree0":
            rng = random.Random(seed)
            amplitude = rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-1.0, 1.0)
            jobs.append({"kind": "degree0", "command": command,
                         "amplitude": amplitude,
                         "reference": os.path.join(work, "degree0_ref.npz")})
            continue
        if command == "locate":
            cfg = locate_config(seed)
        elif command == "corrector":
            cfg = {"frame": "random", "seed": seed}
        elif command == "verify-bubble":
            # the default config: its seed draws the random frame, and
            # frames whose roundoff trace(Q) is exactly 0 skip about a
            # third of the quadrature (1573 instead of 2119
            # integrate_halfline calls), which would make the timing
            # depend on the seed rather than on the code
            cfg = {}
        else:
            cfg = {"seed": seed}
        path = os.path.join(work, f"{command}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        jobs.append({"kind": "cli", "command": command, "config": path})
    return jobs


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(job, env, work, deadline):
    """Run one child to completion; return its result dict."""
    with open(job["job"], "w") as fh:
        json.dump(job, fh)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, job["job"], repr(spawned)],
                              env=env, cwd=work, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problem": f"no result within {timeout:.0f} s"}
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        return {"problem": f"child exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"}
    with open(job["result"]) as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    return result


def run_repetition(templates, k, trace, env, work, deadline):
    """Run every command of the workload once; return (wall, results)."""
    rep = os.path.join(work, f"rep{k}")
    os.makedirs(rep)
    jobs = []
    for t in templates:
        job = dict(t, trace=trace, run_id=f"rep{k}/{t['command']}",
                   job=os.path.join(rep, t["command"] + ".job.json"),
                   result=os.path.join(rep, t["command"] + ".result.json"))
        if t["kind"] == "cli":
            job["out"] = os.path.join(rep, t["command"])
        jobs.append(job)
    start = time.monotonic()
    results = [spawn(job, env, work, deadline) for job in jobs]
    wall = time.monotonic() - start
    shutil.rmtree(rep)
    for job, res in zip(jobs, results):
        res["command"] = job["command"]
    return wall, results


def check_repeats(reps):
    """Mark as failed a report whose digest differs from the first one."""
    first = {}
    for _, results in reps:
        for res in results:
            digest = res.get("digest")
            if digest is None:
                continue
            ref = first.setdefault(res["command"], digest)
            if digest != ref and res["problem"] is None:
                res["problem"] = "report digest differs from the first run"


def timings(results):
    out = {}
    for res in results:
        out.update(res["times"])
    return out


def end_to_end(workload, reps):
    """Medians over the untraced repetitions whose commands all passed."""
    good = [(wall, results) for wall, results in reps
            if all(r["problem"] is None for r in results)]
    if not good:
        return {}
    primary, secondary = STEPS[workload]
    margins = [max((r["margin"] for r in results if r.get("margin") is not None),
                   default=0.0) for _, results in good]
    values = {
        "setup_s": statistics.median(r["setup_s"] for _, results in good
                                     for r in results),
        "wall_s": statistics.median(wall for wall, _ in good),
        "primary_s": statistics.median(timings(res)[primary]
                                       for _, res in good),
        "secondary_s": statistics.median(timings(res)[secondary]
                                         for _, res in good),
        "peak_rss_mb": statistics.median(max(r["maxrss_mb"] for r in results)
                                         for _, results in good),
        "check_margin": max(margins),
    }
    return values


def per_layer(workload, traced, untraced_walls, seed):
    """Per-layer metrics of the traced repetition, plus the trace file."""
    wall, results = traced
    merged_spans, counts = spans.merge(
        (r.get("spans", []), r.get("counts", {})) for r in results)
    values = spans.layer_metrics(merged_spans, counts)
    values["trace.overhead_s"] = wall - statistics.median(untraced_walls)
    missing = [name for name, (_, where) in spans.LAYER_METRICS.items()
               if workload in where and not values[name]]
    path = os.path.join(STATE, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "wall_s": wall,
                   "fields": ["name", "start", "end", "parent", "run_id"],
                   "spans": merged_spans, "counts": counts}, fh)
    return values, missing, path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (it seeds numpy generators)")
    if not os.path.isfile(os.path.join(SRC, "bubblelab", "cli.py")):
        print(f"perfbench: no bubblelab sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()
    try:
        # compile the package and warm the page cache as an installed
        # package would be; not measured
        subprocess.run([sys.executable, "-c", "import bubblelab.cli"],
                       env=env, cwd=work, check=True, timeout=CHILD_TIMEOUT_S)
        templates = make_jobs(args.workload, args.seed, work)
        window = time.monotonic()
        reps = []
        reserve = 2.0 if args.trace else 1.0
        while True:
            reps.append(run_repetition(templates, len(reps), False, env, work,
                                       deadline))
            estimate = statistics.median(wall for wall, _ in reps)
            if time.monotonic() - window + reserve * estimate > args.seconds:
                break
        traced = None
        if args.trace:
            traced = run_repetition(templates, len(reps), True, env, work,
                                    deadline)
        done = reps + ([traced] if traced else [])
        check_repeats(done)
        layer = per_layer(args.workload, traced, [w for w, _ in reps],
                          args.seed) if traced else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [r for _, results in done for r in results]
    failed = [r for r in every if r["problem"] is not None]
    print(f"perfbench {args.workload} seed={args.seed} repetitions={len(reps)}"
          f"{' +1 traced' if traced else ''} threads: "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    for k, (wall, results) in enumerate(done):
        label = "traced" if traced and k == len(reps) else f"rep{k}"
        for r in results:
            status = "ok" if r["problem"] is None else "FAILED"
            print(f"  {label:7s} {r['command']:18s} {status:6s} "
                  f"setup {r.get('setup_s', float('nan')):.3f} s  "
                  f"command {r.get('cmd_s', float('nan')):.3f} s  "
                  f"process {r.get('wall_s', float('nan')):.3f} s")
            if r["problem"] is not None:
                print("    " + r["problem"].replace("\n", "\n    "))
        print(f"  {label:7s} wall {wall:.3f} s")
    print(f"  fail_ratio {len(failed)}/{len(every)}")

    if traced:
        metrics, missing, path = layer
        if missing:
            print("perfbench: layers report zero on their own workload "
                  f"{args.workload}: {', '.join(missing)}", file=sys.stderr)
            return 1
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(args.workload, reps)
        if metrics:
            metrics["pass_ratio"] = 1.0 - len(failed) / len(every)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:38s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed, "attempted": len(every), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
