import importlib.util
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
