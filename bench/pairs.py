"""Alternating before/after runs of perfbench, written as one BENCH_*.json.

Usage, from the root of a checkout:

    python3 bench/pairs.py --before DIR --after DIR --out BENCH_topic.json \
        --pairs degree0:500-509 frame:510-512 verify:520-522 \
        --traced degree0:530 frame:531 --seconds 40 --walls 5

``--before`` and ``--after`` are two checkouts (each with its own
perfbench/ and src/).  For every seed of ``--pairs`` the workload runs
once in each checkout, untraced, one run at a time; the side that runs
first alternates from pair to pair, so slow drift of the machine falls
on both sides alike.  Every seed of ``--traced`` gets one ``--trace 1``
run per side.  The output holds every run's metrics, and per workload
and end-to-end metric each side's median and quartiles, how many pairs
the after side won, how many runs errored on each side, and a verdict
against BENCHMARK.json's bound (see `verdict`).  ``--walls N`` adds N
alternating rounds of fresh-process walls and peak RSS per side: a
bare ``import bubblelab.cli`` and each CLI command at its defaults,
except that ``corrector`` runs a random frame (seed 11) so that it
solves a mode, on the default 400^2 grid and again ("corrector 800^2")
on the largest grid MAX_GRID_CELLS admits, and ``locate`` runs the
README example.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
README_LOCATE = {"n": 8, "K": -56.0, "H": 2.0, "case": "constants",
                 "frame": "random", "seed": 11,
                 "samples": [{"label": "p0", "coords": [0.0], "gamma": 1.0},
                             {"label": "p1", "coords": [1.0], "gamma": 1.5}]}
# the zero frame has no mode: a default corrector run would solve nothing
CORRECTOR = {"frame": "random", "seed": 11}
# each config-taking wall: its name, the CLI command and the config
CONFIGURED = (("corrector", "corrector", CORRECTOR),
              ("corrector 800^2", "corrector",
               {**CORRECTOR, "grid": {"nr": 800, "nxn": 800}}),
              ("locate", "locate", README_LOCATE))


def run(root, workload, seed, seconds, trace):
    """One perfbench run in ``root``; its final JSON line plus the wall."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    out = proc.stdout.strip().splitlines()
    result = json.loads(out[-1]) if proc.returncode == 0 and out else \
        {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result["run_s"] = time.monotonic() - start
    return result


def fresh(args, cwd, env):
    """(exit code, wall s, peak RSS MB) of one fresh interpreter running
    ``args``.

    The peak is the child's ``ru_maxrss`` (kB on Linux) as ``os.wait4``
    returns it, in the MB of perfbench's ``peak_rss_mb``.  Linux keeps
    that high-water mark across exec, so it starts from this process's
    own footprint: this script loads neither numpy nor scipy, so it
    stays below the least of the commands it times, a bare
    ``import bubblelab.cli``, which loads numpy.
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    # reaped here: Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def walls(sides, rounds):
    """Fresh-process walls and peak RSS per command and side, sides
    alternating; each side's runs under its name ("before", "after"),
    its peaks under "<side>_rss_mb", and the medians of both."""
    with tempfile.TemporaryDirectory() as work:
        out_dir = os.path.join(work, "out")
        commands = {"import bubblelab.cli": ["-c", "import bubblelab.cli"]}
        for cmd in ("verify-integrals", "verify-bubble", "verify-hyperbolic"):
            commands[cmd] = ["-m", "bubblelab.cli", cmd, "--out", out_dir]
        for k, (name, cmd, doc) in enumerate(CONFIGURED):
            config = os.path.join(work, f"config{k}.json")
            with open(config, "w") as fh:
                json.dump(doc, fh)
            commands[name] = ["-m", "bubblelab.cli", cmd, "--out", out_dir,
                              "--config", config]
        out = {name: {key: [] for key in ("before", "after", "before_rss_mb",
                                          "after_rss_mb")}
               for name in commands}
        for k in range(rounds):
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            for name, args in commands.items():
                for side in order:
                    env = dict(os.environ, **THREAD_ENV,
                               PYTHONPATH=os.path.join(sides[side], "src"))
                    code, wall, rss = fresh(args, work, env)
                    if code != 0:
                        raise RuntimeError(f"{name} on the {side} side exited "
                                           f"{code}")
                    out[name][side].append(wall)
                    out[name][f"{side}_rss_mb"].append(rss)
    for runs in out.values():
        for side in ("before", "after"):
            runs[f"{side}_median"] = statistics.median(runs[side])
            runs[f"{side}_rss_mb_median"] = statistics.median(
                runs[f"{side}_rss_mb"])
    return out


def seeds(spec):
    """'degree0:500-509' -> ('degree0', [500, ..., 509])."""
    workload, _, span = spec.partition(":")
    lo, _, hi = span.partition("-")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(before, after, wins, direction, bound):
    """How the after side stands against the before side on one metric.

    "gain": the after side wins at least 9 of every 10 pairs, and its
    median is better by more than the before side's interquartile
    range.  "worse": the after median is worse than the before median by
    more than ``bound``, a share of the before median.  "unresolved":
    either side's interquartile range is wider than that bound, so the
    runs spread too widely to tell, unless every after run is better
    than every before run.  Otherwise "no worse".
    """
    sign = 1.0 if direction == "lower" else -1.0    # costs: lower wins
    cost_before = [sign * v for v in before]
    cost_after = [sign * v for v in after]
    gap = statistics.median(cost_before) - statistics.median(cost_after)
    lo, hi = quartiles(before)
    if 10 * wins >= 9 * len(before) and gap > hi - lo:
        return "gain"
    limit = bound * abs(statistics.median(before))
    if -gap > limit:
        return "worse"
    after_lo, after_hi = quartiles(after)
    spread = max(hi - lo, after_hi - after_lo)
    if spread > limit and max(cost_after) >= min(cost_before):
        return "unresolved"
    return "no worse"


def summarize(pairs, better, bounds=None):
    """Each side's median and quartiles, and after-side wins, per metric.

    A tie counts as a win for neither side.  A pair with an errored run
    (no metrics) is left out of the medians; ``before_errors`` and
    ``after_errors`` count each side's errored runs.  ``bounds`` maps a metric to the share of the before
    median by which the after one may be worse (BENCHMARK.json's
    bound; 0 when missing), and each metric gets a `verdict`.
    """
    bounds = bounds or {}
    errors = {side: sum("error" in p[side] for p in pairs)
              for side in ("before", "after")}
    out = {}
    for name, direction in better.items():
        rows = [(p["before"]["metrics"][name]["value"],
                 p["after"]["metrics"][name]["value"]) for p in pairs
                if name in p["before"].get("metrics", {})
                and name in p["after"].get("metrics", {})]
        if not rows:
            if any(errors.values()):
                out[name] = {"pairs": 0, "before_errors": errors["before"],
                             "after_errors": errors["after"],
                             "verdict": "unresolved"}
            continue
        before = [b for b, _ in rows]
        after = [a for _, a in rows]
        wins = sum((a < b) if direction == "lower" else (a > b)
                   for b, a in rows)
        out[name] = {"before_median": statistics.median(before),
                     "after_median": statistics.median(after),
                     "before_quartiles": quartiles(before),
                     "after_quartiles": quartiles(after),
                     "after_wins": wins, "pairs": len(rows),
                     "before_errors": errors["before"],
                     "after_errors": errors["after"],
                     "verdict": verdict(before, after, wins, direction,
                                        bounds.get(name, 0.0))}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", nargs="+", default=[])
    ap.add_argument("--traced", nargs="*", default=[])
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--walls", type=int, default=0)
    args = ap.parse_args(argv)
    sides = {"before": os.path.abspath(args.before),
             "after": os.path.abspath(args.after)}
    with open(os.path.join(sides["before"], "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}

    from importlib.metadata import version
    report = {
        "command": " ".join(["bench/pairs.py", "--pairs", *args.pairs,
                             "--traced", *args.traced,
                             "--seconds", f"{args.seconds:g}",
                             "--walls", str(args.walls)]),
        "sides": {side: os.path.basename(root)
                  for side, root in sides.items()},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy"),
                    "platform": platform.platform()},
        "seconds": args.seconds, "workloads": {}, "traced": {},
    }
    for spec in args.pairs:
        workload, seed_list = seeds(spec)
        pairs = []
        for k, seed in enumerate(seed_list):
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, seed, args.seconds, 0)
            print(json.dumps({"workload": workload, **pair}), flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {
            "pairs": pairs, "summary": summarize(pairs, better, bounds)}
    for spec in args.traced:
        workload, seed_list = seeds(spec)
        for seed in seed_list:
            runs = {side: run(root, workload, seed, args.seconds, 1)
                    for side, root in sides.items()}
            print(json.dumps({"workload": workload, "seed": seed, **runs}),
                  flush=True)
            report["traced"][f"{workload}:{seed}"] = runs
    if args.walls:
        report["walls"] = walls(sides, args.walls)
        print(json.dumps({"walls": report["walls"]}), flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
