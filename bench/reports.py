"""Byte-for-byte comparison of the reports two checkouts write.

Usage, from the root of a checkout:

    python3 bench/reports.py --before DIR --after DIR

``--before`` and ``--after`` are two checkouts (each with its own src/).
Each side runs the same CLI commands, one at a time, each in a fresh
directory of its own: ``verify-integrals``, ``verify-bubble`` and
``verify-hyperbolic`` at their defaults, all three again at n = 12
(K = -132, H = 2), at H = 1.5, at H = 1e8 and at H = 1.000001 (where
verify-bubble exits 1 with a failing row and its detail),
``corrector`` on ``{"frame": "random", "seed": 11}`` at the default
400^2 grid and again at a given 200^2 grid (the grid of
``bench/domain.py``'s corrector cells), ``corrector`` at its defaults
(the zero frame, whose every diagnostics row is vacuous), the README
constants ``locate``, and a non-constants ``locate`` over nine
samples with a per-sample H (that case reads no gamma).  Every file a command writes is
compared between the sides, and so is a ``console.txt`` holding its
exit code and standard output (standard error is left out: Python's
warnings name source paths, which differ between checkouts).  The
script prints each file that differs or exists on one side only, and
under a ``.json`` file on both sides the dotted key paths whose values
differ or exist on one side only (``parameters.n``, ``checks.3.value``);
it exits 1 if a file differs, 0 if every file is byte-identical.  The two
trees are written to a temporary directory, which is removed when no
file differs and otherwise kept, and named, for inspection.
"""
import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pairs import CORRECTOR, README_LOCATE, THREAD_ENV  # noqa: E402

NONCONSTANT_LOCATE = {
    "case": "non-constants", "hessH": "identity", "hessK": "identity",
    "samples": [{"label": f"t{i}", "coords": [0.25 * i],
                 "H": 2.0 + 0.05 * (0.25 * i - 1.0) ** 2}
                for i in range(9)]}
# the points beside the default at which every verify command runs
VERIFY_POINTS = [("n12", {"n": 12, "K": -132.0, "H": 2.0}),
                 ("H1.5", {"H": 1.5}),
                 ("H1e8", {"H": 1e8}),
                 ("H1.000001", {"H": 1.000001})]
# (run name, subcommand, config or None for the defaults)
RUNS = [("verify-integrals", "verify-integrals", None),
        ("verify-bubble", "verify-bubble", None),
        ("verify-hyperbolic", "verify-hyperbolic", None),
        *((f"{command}-{label}", command, point)
          for label, point in VERIFY_POINTS
          for command in ("verify-integrals", "verify-bubble",
                          "verify-hyperbolic")),
        ("corrector", "corrector", CORRECTOR),
        ("corrector-200", "corrector", {**CORRECTOR,
                                        "grid": {"nr": 200, "nxn": 200}}),
        ("corrector-zero", "corrector", None),
        ("locate-constants", "locate", README_LOCATE),
        ("locate-nonconstants", "locate", NONCONSTANT_LOCATE)]


def write_reports(root, tree):
    """Run every command of RUNS with ``root``'s package under ``tree``.

    Each run gets ``tree/<name>``: its config, its ``out`` directory
    (given to the CLI as a relative path, so the console text names the
    same directory on both sides) and its ``console.txt``.
    """
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.path.join(root, "src"))
    for name, command, config in RUNS:
        work = os.path.join(tree, name)
        os.makedirs(work)
        args = [sys.executable, "-m", "bubblelab.cli", command, "--out", "out"]
        if config is not None:
            with open(os.path.join(work, "config.json"), "w") as fh:
                json.dump(config, fh)
            args += ["--config", "config.json"]
        proc = subprocess.run(args, cwd=work, env=env, capture_output=True,
                              text=True)
        with open(os.path.join(work, "console.txt"), "w") as fh:
            fh.write(f"exit {proc.returncode}\n{proc.stdout}")


def differing_files(before, after):
    """Relative paths, sorted, of files that differ between two trees.

    A file differs when its bytes differ or when it exists in one tree
    only.
    """
    out = []
    for top, other in ((before, after), (after, before)):
        for dirpath, _, names in os.walk(top):
            for name in names:
                rel = os.path.relpath(os.path.join(dirpath, name), top)
                mate = os.path.join(other, rel)
                if not os.path.isfile(mate):
                    out.append(rel)
                elif top == before and not filecmp.cmp(
                        os.path.join(top, rel), mate, shallow=False):
                    out.append(rel)
    return sorted(out)


_MISSING = object()


def _child(doc, key):
    if isinstance(doc, dict):
        return doc.get(key, _MISSING)
    return doc[key] if key < len(doc) else _MISSING


def differing_keys(before, after, path=""):
    """Dotted key paths at which two JSON documents differ.

    A path differs when its values differ, also in kind (1 against
    1.0), or when it exists in one document only; a list item's key is
    its index.  Object keys are visited in sorted order.
    """
    if isinstance(before, (dict, list)) and type(before) is type(after):
        keys = sorted(before.keys() | after.keys()) \
            if isinstance(before, dict) else range(max(len(before),
                                                       len(after)))
        return [p for key in keys
                for p in differing_keys(_child(before, key),
                                        _child(after, key),
                                        f"{path}.{key}" if path else str(key))]
    if type(before) is type(after) and before == after:
        return []
    return [path or "(the whole document)"]


def differing_file_keys(before, after, rel):
    """differing_keys of the file ``rel`` in two trees, if it is a
    ``.json`` file in both; otherwise no key path."""
    sides = [os.path.join(top, rel) for top in (before, after)]
    if not rel.endswith(".json") or not all(map(os.path.isfile, sides)):
        return []
    docs = []
    for side in sides:
        with open(side) as fh:
            docs.append(json.load(fh))
    return differing_keys(*docs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    args = ap.parse_args(argv)
    base = tempfile.mkdtemp(prefix="reports-")
    trees = {side: os.path.join(base, side) for side in ("before", "after")}
    for side, tree in trees.items():
        write_reports(os.path.abspath(getattr(args, side)), tree)
    diff = differing_files(trees["before"], trees["after"])
    for rel in diff:
        print(f"differs: {rel}")
        for path in differing_file_keys(trees["before"], trees["after"], rel):
            print(f"  key: {path}")
    compared = sum(len(names) for _, _, names in os.walk(trees["before"]))
    print(f"{len(diff)} of {compared} files differ")
    if not diff:
        shutil.rmtree(base)
        return 0
    print(f"both trees kept in {base}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
