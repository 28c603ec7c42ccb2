import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PAIRS)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _run(wall_s, pass_ratio):
    return {"metrics": {"wall_s": {"value": wall_s},
                        "pass_ratio": {"value": pass_ratio}}}


def test_summarize_reports_both_sides_and_counts_ties_for_neither():
    rows = [(3.0, 2.0, 1.0, 1.0), (4.0, 4.0, 1.0, 0.5), (5.0, 6.0, 1.0, 1.0)]
    got = pairs.summarize(
        [{"before": _run(wb, pb), "after": _run(wa, pa)}
         for wb, wa, pb, pa in rows],
        {"wall_s": "lower", "pass_ratio": "higher", "absent": "lower"})
    assert set(got) == {"wall_s", "pass_ratio"}
    wall = got["wall_s"]
    assert wall["before_median"] == 4.0 and wall["after_median"] == 4.0
    assert wall["before_quartiles"] == pytest.approx([3.5, 4.5])
    assert wall["after_quartiles"] == pytest.approx([3.0, 5.0])
    # 3 -> 2 is a win, 4 -> 4 a tie, 5 -> 6 a loss
    assert wall["after_wins"] == 1 and wall["pairs"] == 3
    ratio = got["pass_ratio"]
    assert ratio["after_wins"] == 0
    assert ratio["after_quartiles"] == pytest.approx([0.75, 1.0])


def test_summarize_counts_errored_runs_per_side():
    runs = [{"before": _run(4.0, 1.0), "after": _run(3.0, 1.0)},
            {"before": {"error": "exit 1"}, "after": _run(3.0, 1.0)},
            {"before": _run(4.0, 1.0), "after": {"error": "exit 2"}},
            {"before": _run(4.0, 1.0), "after": {"error": "exit 2"}}]
    got = pairs.summarize(runs, {"wall_s": "lower"})
    wall = got["wall_s"]
    assert wall["pairs"] == 1
    assert (wall["before_errors"], wall["after_errors"]) == (1, 2)
    every = pairs.summarize(runs[1:], {"wall_s": "lower"})["wall_s"]
    assert every["pairs"] == 0 and every["verdict"] == "unresolved"
    assert pairs.summarize(runs[:1], {"wall_s": "lower"})["wall_s"][
        "after_errors"] == 0


def _verdict(before, after, direction="lower", bound=0.25):
    runs = [{"before": _run(b, 1.0), "after": _run(a, 1.0)}
            for b, a in zip(before, after)]
    return pairs.summarize(runs, {"wall_s": direction},
                           {"wall_s": bound})["wall_s"]["verdict"]


def test_verdict_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    before = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert _verdict(before, [0.5] * 10) == "gain"
    # eight wins in ten: no gain, however large the gap
    assert _verdict(before, [0.5] * 8 + [1.1, 1.2]) == "no worse"
    # ten wins, but the gap is inside the before side's quartiles
    assert _verdict(before, [b - 0.005 for b in before]) == "no worse"
    # higher is better: the same runs read the other way
    assert _verdict(before, [0.5] * 10, "higher") == "worse"
    assert _verdict([0.5] * 10, before, "higher") == "gain"


def test_verdict_reads_the_bound_against_the_before_median():
    before = [1.0] * 10
    assert _verdict(before, [1.2] * 10) == "no worse"
    assert _verdict(before, [1.3] * 10) == "worse"
    assert _verdict(before, [1.3] * 10, bound=0.5) == "no worse"
    # the median is inside the bound, the after runs' spread is not
    assert _verdict(before, [1.0] * 6 + [1.4] * 4) == "unresolved"
    # the before runs spread wider than the bound: unresolved, unless
    # every after run beats every before run
    wide = [1.0, 1.5] * 5
    assert _verdict(wide, wide) == "unresolved"
    assert _verdict(wide, [0.9] * 10) == "no worse"
    # a missing bound allows no loss of the median
    runs = [{"before": _run(1.0, 1.0), "after": _run(1.01, 1.0)}]
    assert pairs.summarize(runs, {"wall_s": "lower"})["wall_s"][
        "verdict"] == "worse"


def test_fresh_reads_the_child_peak_rss(tmp_path):
    # a child's ru_maxrss starts from its parent's footprint, so the
    # parent here is a fresh interpreter that, like pairs.py, holds
    # neither numpy nor scipy: a child holding 64 MB at once peaks
    # above it, and a bare one stays far below
    code = (f"import json, os, sys\nsys.path.insert(0, {str(_PAIRS.parent)!r})"
            "\nimport pairs\nhold = 'b = bytearray(64 * 2 ** 20); "
            "b[::4096] = b\"x\" * len(b[::4096])'\n"
            "print(json.dumps([pairs.fresh(['-c', c], '.', dict(os.environ))"
            " for c in (hold, 'pass')]))")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    (code, wall, rss), (_, _, bare) = json.loads(out)
    assert code == 0 and wall > 0.0
    assert 64.0 < rss < 64.0 + 64.0
    assert bare < 32.0
    assert pairs.fresh(["-c", "raise SystemExit(3)"], tmp_path,
                       dict(os.environ))[0] == 3


def test_walls_record_each_run_peak_rss_beside_its_wall(monkeypatch):
    seen = iter(range(1, 100))
    configs = {}    # run k -> the config it read, if any

    def fake(args, cwd, env):
        k = next(seen)
        if "--config" in args:
            with open(args[args.index("--config") + 1]) as fh:
                configs[k] = json.load(fh)
        return 0, 0.1 * k, 10.0 * k

    monkeypatch.setattr(pairs, "fresh", fake)
    out = pairs.walls({"before": "b", "after": "a"}, 3)
    assert list(out) == ["import bubblelab.cli", "verify-integrals",
                         "verify-bubble", "verify-hyperbolic", "corrector",
                         "corrector 800^2", "locate"]
    for runs in out.values():
        for side in ("before", "after"):
            assert len(runs[side]) == len(runs[f"{side}_rss_mb"]) == 3
            # each peak belongs to the run of the same index
            assert runs[f"{side}_rss_mb"] == pytest.approx(
                [100.0 * w for w in runs[side]])
            assert runs[f"{side}_median"] == sorted(runs[side])[1]
            assert runs[f"{side}_rss_mb_median"] == \
                sorted(runs[f"{side}_rss_mb"])[1]
    # both README peaks: the random frame on the default grid and on 800^2
    for name, grid in (("corrector", None),
                       ("corrector 800^2", {"nr": 800, "nxn": 800})):
        for side in ("before", "after"):
            for wall in out[name][side]:
                doc = configs[round(wall / 0.1)]
                assert doc.get("grid") == grid
                assert (doc["frame"], doc["seed"]) == ("random", 11)
    # the first round runs the before side first, the second the after
    first = out["import bubblelab.cli"]
    assert first["before"][0] < first["after"][0]
    assert first["after"][1] < first["before"][1]
    monkeypatch.setattr(pairs, "fresh", lambda args, cwd, env: (1, 0.1, 1.0))
    with pytest.raises(RuntimeError, match="import bubblelab.cli on the "
                                           "before side exited 1"):
        pairs.walls({"before": "b", "after": "a"}, 1)
