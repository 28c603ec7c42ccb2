"""Self-test: every metric declared in BENCHMARK.json is emitted, with its unit.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

Runs each workload once untraced and once traced with a one-second
budget (one repetition each), prints every metric by name and unit, and
exits 1 if a run fails, reports an incorrect result, or emits a metric
set or unit that differs from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, problem = run(workload, args.seed, trace)
            where = f"{workload} --trace {trace}"
            if problem:
                problems.append(f"{where}: {problem}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: incorrect result")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and want[k] != got[k]]}")
            print(f"{where}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
