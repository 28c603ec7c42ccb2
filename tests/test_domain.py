import importlib.util
from pathlib import Path

_DOMAIN = Path(__file__).resolve().parents[1] / "bench" / "domain.py"
_spec = importlib.util.spec_from_file_location("domain", _DOMAIN)
domain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(domain)

WARNING = ("/src/bubblelab/quad.py:412: RuntimeWarning: brute_halfspace: "
           "integrand is not a function of (|xt|, x_n)\n"
           "  warnings.warn(\n")


def test_a_failing_row_comes_before_the_error_stream():
    stdout = ("[pass] eigenvalue product mu0 mu1 = 1: 0.000e+00 <= "
              "1.000e-14\n"
              "[FAIL] steklov residual: standard operator + phi0: "
              "8.275e-06 <= 1.000e-10: interior 8.275e-06, boundary "
              "1.776e-15\n"
              "[FAIL] a later row\n"
              "FAILURES — 6 identities -> out/verify_report.json\n")
    got = domain.cell("verify-hyperbolic", 8, 1.0 + 1e-9, 1, stdout, WARNING)
    assert got == {"command": "verify-hyperbolic", "n": 8, "D": 1.0 + 1e-9,
                   "exit": 1, "traceback": False,
                   "first": "[FAIL] steklov residual: standard operator + "
                            "phi0: 8.275e-06 <= 1.000e-10: interior "
                            "8.275e-06, boundary 1.776e-15"}


def test_an_error_exit_takes_the_last_line_of_the_error_stream():
    stderr = WARNING + "DecompositionError: defect 2.018e-109\n\n"
    got = domain.cell("locate", 12, 1e12, 1, "", stderr)
    assert got["first"] == "DecompositionError: defect 2.018e-109"
    assert not got["traceback"]
    crash = ("Traceback (most recent call last):\n  File \"cli.py\", line 1\n"
             "ValueError: boom\n")
    got = domain.cell("corrector", 10, 2.0, 1, "", crash)
    assert got["first"] == "ValueError: boom" and got["traceback"]


def test_a_passing_run_has_no_first_line_even_with_warnings():
    got = domain.cell("verify-bubble", 8, 2.0, 0,
                      "[pass] row: 1.000e-16 <= 1.000e-06\nall passed\n",
                      WARNING)
    assert got["exit"] == 0 and got["first"] is None


def test_every_cell_runs_at_K_minus_n_n_minus_1_so_that_D_is_H():
    for command in domain.COMMANDS:
        cfg = domain.config(command, 10, 1.5)
        assert (cfg["n"], cfg["K"], cfg["H"]) == (10, -90.0, 1.5)
    assert domain.config("corrector", 8, 2.0)["grid"] == {"nr": 200,
                                                          "nxn": 200}
    assert domain.config("corrector", 8, 2.0)["frame"] == "random"
    assert domain.config("locate", 12, 3.0)["samples"] \
        == domain.README_LOCATE["samples"]
    assert "grid" not in domain.config("locate", 12, 3.0)
    assert domain.config("verify-bubble", 8, 2.0) == {"n": 8, "K": -56.0,
                                                      "H": 2.0}


_STEKLOV = ("[FAIL] steklov residual: standard operator + phi0: 1.200e-07 <= "
            "1.000e-10")
_DECAY = "[FAIL] decay envelope (1+|x|)^{{4-n}}: {:.3e} <= 1.050e+00"


def _doc(*cells):
    return {"cells": [{"command": c, "n": n, "D": d, "exit": e, "first": f,
                       "traceback": False} for c, n, d, e, f in cells]}


def test_changes_pairs_cells_on_command_n_and_D():
    before = _doc(("verify-hyperbolic", 8, 1.000000001, 1, _STEKLOV),
                  ("corrector", 8, 3.0, 1, _DECAY.format(1.069)),
                  ("verify-bubble", 8, 2.0, 0, None),
                  ("locate", 8, 2.0, 0, None))
    after = _doc(("verify-bubble", 8, 2.0, 0, None),
                 ("corrector", 8, 3.0, 1, _DECAY.format(1.070)),
                 ("verify-hyperbolic", 8, 1.000000001, 0, None),
                 ("locate", 8, 100.0, 0, None))
    got = domain.changes(before, after)
    assert [(old or new)["command"] for old, new in got] == [
        "corrector", "locate", "locate", "verify-hyperbolic"]
    assert [domain.broken(old, new) for old, new in got] == [
        False, True, False, False]
    assert domain.changes(after, after) == []
    assert domain.broken(before["cells"][2],
                         {**before["cells"][2], "exit": 2})
    assert domain.describe(None) == "absent"
    assert domain.describe(before["cells"][1]) == \
        "exit 1: [FAIL] decay envelope (1+|x|)^{4-n}: 1.069e+00 <= 1.050e+00"
