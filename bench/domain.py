"""The domain table: every CLI command over a grid of (n, D), as DOMAIN.json.

Usage, from the root of a checkout:

    python3 bench/domain.py --out DOMAIN.json [--root DIR] [--against OLD.json]

Each command runs at n in DIMENSIONS and D in DEPTHS, with K = -n(n-1)
so that D = H: the three verify commands at their defaults otherwise,
``corrector`` on a random frame (seed 11) at 200^2, and ``locate`` on
the README's two constants samples.  Runs go two
at a time, each in a fresh directory, with the package of ``--root``
(default: the checkout holding this script).  A cell records the exit
code, the first failing row the command printed or else, on a nonzero
exit, the last line of its standard error, and whether a Python
traceback appeared.  DOMAIN.json holds no timing, so that two sweeps of
one tree write the same file.  ``--against`` names an earlier table;
every cell that differs from it is printed, and the script exits 1 if a
cell that exited 0 there no longer does.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pairs import CORRECTOR, README_LOCATE, THREAD_ENV  # noqa: E402

COMMANDS = ("verify-integrals", "verify-bubble", "verify-hyperbolic",
            "corrector", "locate")
DIMENSIONS = (8, 10, 12)
DEPTHS = (1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0,
          1e4, 1e8, 1e12)
JOBS = 2
TIMEOUT_S = 900


def config(command, n, D):
    """The config of one cell: the point (n, -n(n-1), D) and the command's
    own keys."""
    point = {"n": n, "K": -float(n * (n - 1)), "H": D}
    if command == "corrector":
        return {**CORRECTOR, "grid": {"nr": 200, "nxn": 200}, **point}
    if command == "locate":
        return {**README_LOCATE, **point}
    return point


def cell(command, n, D, code, stdout, stderr):
    """One row of the table from a finished run.

    ``first`` is the first ``[FAIL]`` line of standard output; failing
    that, on a nonzero exit, the last non-empty line of standard error
    (the CLI's error line, or the exception ending a traceback); else
    None.
    """
    fails = [line for line in stdout.splitlines() if line.startswith("[FAIL]")]
    errors = [line for line in stderr.splitlines() if line.strip()]
    first = fails[0] if fails else errors[-1] if code != 0 and errors \
        else None
    return {"command": command, "n": n, "D": D, "exit": code, "first": first,
            "traceback": "Traceback (most recent call last)" in stderr}


def run(root, command, n, D):
    """Run one cell with ``root``'s package in a directory of its own."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(config(command, n, D), fh)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bubblelab.cli", command, "--config",
                 "config.json", "--out", "out"],
                cwd=work, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return cell(command, n, D, None, "",
                        f"timeout after {TIMEOUT_S} s")
    return cell(command, n, D, proc.returncode, proc.stdout, proc.stderr)


def changes(before, after):
    """(old cell or None, new cell or None) for every cell that differs.

    Cells are matched on (command, n, D); a cell present on one side
    only pairs with None.
    """
    def keyed(doc):
        return {(c["command"], c["n"], c["D"]): c for c in doc["cells"]}

    old, new = keyed(before), keyed(after)
    return [(old.get(k), new.get(k)) for k in sorted(set(old) | set(new))
            if old.get(k) != new.get(k)]


def broken(old, new):
    """True when a cell that exited 0 before no longer does."""
    return old is not None and old["exit"] == 0 \
        and (new is None or new["exit"] != 0)


def describe(c):
    if c is None:
        return "absent"
    return f"exit {c['exit']}" + (f": {c['first']}" if c["first"] else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    grid = [(command, n, D) for command in COMMANDS for n in DIMENSIONS
            for D in DEPTHS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        cells = list(pool.map(lambda c: run(root, *c), grid))
    doc = {"command": "bench/domain.py", "commands": list(COMMANDS),
           "dimensions": list(DIMENSIONS), "depths": list(DEPTHS),
           "K": "-n(n-1)", "cells": cells}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{sum(c['exit'] == 0 for c in cells)} of {len(cells)} cells "
          f"exit 0, {sum(c['traceback'] for c in cells)} tracebacks")
    if args.against is None:
        return 0
    with open(args.against) as fh:
        diff = changes(json.load(fh), doc)
    for old, new in diff:
        c = new or old
        print(f"{c['command']} n={c['n']} D={c['D']!r}: {describe(old)} "
              f"-> {describe(new)}")
    print(f"{len(diff)} cells differ")
    return 1 if any(broken(old, new) for old, new in diff) else 0


if __name__ == "__main__":
    sys.exit(main())
