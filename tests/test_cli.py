import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblelab import cli, corrector, geom, quad


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(*args):
    return cli.main(list(args))


def test_schema_exits_clean(capsys):
    for cmd in ("verify-integrals", "verify-bubble", "verify-hyperbolic",
                "corrector", "locate"):
        assert _run(cmd, "--schema") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == cmd
        assert "config" in doc and "outputs" in doc


def _fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this package;
    this one may have imported scipy for a test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


@pytest.mark.parametrize("module", ["bubblelab.cli", "bubblelab.reduced"])
def test_cli_and_reduced_imports_load_no_scipy(module):
    assert _fresh(f"import sys, {module}; print({_SCIPY_LOADED})") \
        .strip() == "[]"


@pytest.mark.parametrize("command", ["verify-integrals", "verify-bubble",
                                     "verify-hyperbolic"])
def test_verify_commands_run_without_scipy(tmp_path, command):
    code = ("import sys\nfrom bubblelab import cli\n"
            f"code = cli.main([{command!r}, '--out', {str(tmp_path)!r}])\n"
            f"print(code, {_SCIPY_LOADED})")
    assert _fresh(code).splitlines()[-1] == "0 []"


_README_LOCATE = {"n": 8, "K": -56.0, "H": 2.0, "case": "constants",
                  "frame": "random", "seed": 11,
                  "samples": [{"label": "p0", "coords": [0.0], "gamma": 1.0},
                              {"label": "p1", "coords": [1.0], "gamma": 1.5}]}


def test_readme_locate_runs_without_scipy(tmp_path):
    # the constants case pairs its modes by the dense spectral route
    cfg = _write(tmp_path, "c.json", _README_LOCATE)
    code = ("import sys\nfrom bubblelab import cli\n"
            f"code = cli.main(['locate', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            f"print(code, {_SCIPY_LOADED})")
    assert _fresh(code).splitlines()[-1] == "0 []"


def test_the_tracer_reads_every_frame_layer(tmp_path):
    """Under the benchmark's tracer, a corrector run on a small grid and
    the README locate leave no frame-workload metric of
    ``spans.LAYER_METRICS`` at zero.  The report bytes are added as the
    benchmark's child adds them, from the files written."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    corrector_cfg = _write(tmp_path, "corrector.json", {
        "frame": "random", "grid": {"nr": 48, "nxn": 48}})
    locate_cfg = _write(tmp_path, "locate.json", _README_LOCATE)
    runs = [["corrector", "--config", corrector_cfg, "--out",
             str(tmp_path / "corrector")],
            ["locate", "--config", locate_cfg, "--out",
             str(tmp_path / "locate")]]
    code = (f"import json, os, sys\nsys.path.insert(0, {str(perfbench)!r})\n"
            "import spans\nfrom bubblelab import cli\n"
            "tracer = spans.Tracer(0)\nspans.install(tracer)\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "tracer.counts['report.bytes'] += sum(\n"
            "    os.path.getsize(os.path.join(argv[-1], name))\n"
            f"    for argv in {runs!r} for name in os.listdir(argv[-1]))\n"
            "got = spans.layer_metrics(tracer.spans, tracer.counts)\n"
            "frame = [m for m, (_, on) in spans.LAYER_METRICS.items() "
            "if 'frame' in on]\n"
            "print(json.dumps([codes, len(frame), "
            "[m for m in frame if not got[m]]]))")
    codes, metrics, zero = json.loads(_fresh(code).splitlines()[-1])
    assert codes == [0, 0]
    assert metrics >= 14 and zero == []


def test_the_tracer_reads_every_verify_layer(tmp_path):
    """The benchmark's tracer wraps the package's layers by name: under
    it, the three verify commands leave no verify-workload metric of
    ``spans.LAYER_METRICS`` at zero, so a renamed or re-signed traced
    function fails here."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (f"import json, sys\nsys.path.insert(0, {str(perfbench)!r})\n"
            "import spans\nfrom bubblelab import cli\n"
            "tracer = spans.Tracer(0)\nspans.install(tracer)\n"
            f"codes = [cli.main([c, '--out', {str(tmp_path)!r}]) for c in "
            "('verify-integrals', 'verify-bubble', 'verify-hyperbolic')]\n"
            "got = spans.layer_metrics(tracer.spans, tracer.counts)\n"
            "verify = [m for m, (_, on) in spans.LAYER_METRICS.items() "
            "if 'verify' in on]\n"
            "print(json.dumps([codes, len(verify), "
            "[m for m in verify if not got[m]]]))")
    codes, metrics, zero = json.loads(_fresh(code).splitlines()[-1])
    assert codes == [0, 0, 0]
    assert metrics >= 14 and zero == []


def test_verify_integrals_default(tmp_path, capsys):
    assert _run("verify-integrals", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["all_passed"] and doc["count"] >= 12
    assert doc["parameters"]["n"] == 8
    for row in doc["identities"]:
        assert set(row) == {"name", "passed", "value", "bound", "detail"}


def test_dimension_gate_refuses_low_n(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"n": 6})
    assert _run("verify-integrals", "--config", cfg,
                "--out", str(tmp_path)) == 2
    assert "dimension gate" in capsys.readouterr().err


def test_dimension_gate_override(tmp_path):
    cfg = _write(tmp_path, "c.json", {"n": 6})
    assert _run("verify-integrals", "--config", cfg, "--out", str(tmp_path),
                "--override-dimension-gate") == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    # divergent rows are filtered at low dimension, never reported failing
    assert doc["all_passed"]
    assert doc["count"] < 38


def test_verify_bubble_reports_the_divergent_quartic_moment(tmp_path,
                                                            capsys):
    # the quartic check's radial moment (a=0, b=6, m=n) needs 2n > n + 6
    cfg = _write(tmp_path, "c.json", {"n": 6})
    assert _run("verify-bubble", "--config", cfg, "--out", str(tmp_path),
                "--override-dimension-gate") == 1
    out = capsys.readouterr()
    assert "stalled" not in out.out + out.err
    # the console line of a failed row carries its reason
    assert re.search(r"^\[FAIL\] quartic curvature term vanishes: .*diverges",
                     out.out, re.MULTILINE)
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    failed = [r for r in doc["identities"] if not r["passed"]]
    assert [r["name"] for r in failed] == ["quartic curvature term vanishes"]
    assert "diverges" in failed[0]["detail"]
    assert any(r["name"].startswith("separable pairings")
               for r in doc["identities"])


def test_verify_bubble_at_the_dimension_ceiling(tmp_path):
    cfg = _write(tmp_path, "c.json", {"n": 12, "K": -132.0, "H": 2.0})
    assert _run("verify-bubble", "--config", cfg, "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["parameters"]["n"] == 12
    assert doc["all_passed"]
    assert all(row["passed"] for row in doc["identities"])


def test_hard_floor_survives_override(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"n": 4})
    assert _run("verify-integrals", "--config", cfg, "--out", str(tmp_path),
                "--override-dimension-gate") == 2
    assert "dimension gate" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"n": 7, "frame": "random", "samples": [{"label": "a"}]},
    {"n": 6, "case": "non-constants", "samples": [{"label": "a", "H": 2.0}]},
    {"frame": "random", "samples": [{"label": "a"}]}])
def test_locate_refuses_the_gate_override(tmp_path, capsys, config):
    # the override is for identity verification; the blow-up point of
    # the reduced energy is the n >= 8 result itself
    cfg = _write(tmp_path, "c.json", config)
    out = tmp_path / "out"
    assert _run("locate", "--config", cfg, "--out", str(out),
                "--override-dimension-gate") == 2
    err = capsys.readouterr().err
    assert err == "config error: locate does not take " \
        "--override-dimension-gate\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("rel_tol", 1e-3),
                                       ("override_dimension_gate", True),
                                       ("out", "o")])
def test_no_config_key_loosens_a_check_or_respells_a_flag(tmp_path, capsys,
                                                          key, value):
    # rel_tol raised every verify bound, and override_dimension_gate and
    # out spelled a flag a second way; every command refuses all three
    cfg = _write(tmp_path, "c.json", {key: value})
    for command in cli._ACCEPTS:
        assert _run(command, "--schema") == 0
        assert key not in json.loads(capsys.readouterr().out)["config"]
        assert _run(command, "--config", cfg,
                    "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            f"config error: unknown config keys: {key}\n"


_SAMPLE = {"label": "p", "coords": [0.0]}
# id -> (command, config, frame.json text, text the one stderr line holds);
# a config of None names a missing file, a string is written verbatim
_REJECTED = {
    "not-json": ("verify-bubble", "not json", None, "valid JSON"),
    # nested deeper than the decoder recurses
    "deep-json": ("verify-hyperbolic", "[" * 100_000, None, "valid JSON"),
    "missing": ("verify-bubble", None, None, "not found"),
    "unknown-key": ("verify-bubble", {"bogus_key": 1}, None, "bogus_key"),
    "D<=1": ("verify-bubble", {"H": 0.2}, None, "D"),
    "K-nan": ("verify-hyperbolic", {"K": float("nan")}, None, "K"),
    "H-inf": ("verify-hyperbolic", {"H": float("inf")}, None, "H"),
    "K-kind": ("verify-hyperbolic", {"K": "abc"}, None, "K"),
    "K>0": ("verify-hyperbolic", {"K": 56.0}, None, "K < 0"),
    "gamma-kind": ("verify-hyperbolic", {"gamma": "x"}, None, "gamma"),
    "seed<0": ("verify-hyperbolic", {"seed": -1}, None, "seed"),
    "n=13": ("verify-bubble", {"n": 13}, None, "dimension gate"),
    "n=400": ("verify-integrals", {"n": 400}, None, "dimension gate"),
    "n-huge": ("verify-integrals", {"n": 10 ** 30}, None, "n"),
    "grid-nr<16": ("corrector", {"grid": {"nr": 4}}, None, "16"),
    "grid-kind": ("corrector", {"grid": {"nr": "abc"}}, None, "grid.nr"),
    "grid-array": ("corrector", {"grid": [1, 2]}, None, "grid"),
    "grid-typo": ("corrector", {"grid": {"nrr": 32}}, None, "nrr"),
    "grid-fraction": ("corrector", {"grid": {"nr": 16.7}}, None, "grid.nr"),
    "grid-1e9": ("corrector", {"grid": {"nr": 1e9}}, None, "grid.nr"),
    "grid-cap": ("corrector", {"grid": {"nr": 1000000, "nxn": 1000000}},
                 None, "nr * nxn"),
    # the truncation radius and the stretch are the solver's constants
    "grid-r_max": ("corrector", {"grid": {"r_max": 80.0}}, None,
                   "unknown grid keys: r_max"),
    "grid-stretch": ("corrector", {"grid": {"stretch": 8.0}}, None,
                     "unknown grid keys: stretch"),
    "frame-kind": ("corrector", {"frame": "flat"}, None, "frame"),
    "frame-file-json": ("corrector", {"frame_file": "frame.json"},
                        "{not json", "invalid frame file"),
    "frame-file-deep": ("corrector", {"frame_file": "frame.json"},
                        "[" * 100_000, "invalid frame file"),
    "frame-file-n": ("corrector", {"frame_file": "frame.json"},
                     json.dumps(geom.random_frame(
                         9, np.random.default_rng(1)).to_json_dict()),
                     "n = 9"),
    "coords-kind": ("locate", {"samples": [dict(_SAMPLE, coords=["x"])]},
                    None, "coords"),
    "coords-scalar": ("locate", {"samples": [dict(_SAMPLE, coords=3)]},
                      None, "coords"),
    "sample-typo": ("locate", {"samples": [dict(_SAMPLE, gama=1.5)]},
                    None, "unknown keys: gama"),
    # a label reaches the reports through str(): None, True, {'a': 1}
    **{f"sample-label-{kind}": ("locate", {"samples": [dict(
        _SAMPLE, label=label)]}, None, "label is a string or an integer")
       for kind, label in (("null", None), ("bool", True), ("float", 1.5),
                           ("array", [1]), ("object", {"a": 1}))},
    "sample-label-repeated": ("locate", {"samples": [
        {"label": "p", "gamma": 1.5},
        {"label": "p", "coords": [1.0], "gamma": 1.5}]},
        None, "the label repeats"),
    "sample-H-kind": ("locate", {"case": "non-constants",
                                 "samples": [dict(_SAMPLE, H="x")]},
                      None, "H"),
    "sample-D<=1": ("locate", {"case": "non-constants",
                               "samples": [dict(_SAMPLE, H=0.2)]}, None, "D"),
    "hessH-kind": ("locate", {"case": "non-constants", "hessH": "foo",
                              "samples": [dict(_SAMPLE, H=2.0)]},
                   None, "hessH"),
    "frame-in-non-constants": ("locate", {
        "case": "non-constants", "frame_file": "nope.json",
        "samples": [{"label": "a", "H": 2.0}]},
        None, "does not read frame_file"),
    "hessH-in-constants": ("locate", {
        "case": "constants", "hessH": [[1]],
        "samples": [{"label": "a"}]}, None, "does not read hessH"),
    # locate takes its pairing from the whole-domain route: no grid
    "grid-in-locate": ("locate", {
        "grid": {"nr": 32, "nxn": 32}, "samples": [{"label": "a"}]},
        None, "unknown config keys: grid"),
}


def test_config_rejections(tmp_path, capsys):
    """Each bad config exits 2 with one 'config error' line, no traceback."""
    for name, (command, config, frame, needle) in _REJECTED.items():
        case = tmp_path / name
        case.mkdir()
        if frame is not None:
            (case / "frame.json").write_text(frame)
        if config is not None:
            (case / "c.json").write_text(
                config if isinstance(config, str) else json.dumps(config))
        code = _run(command, "--config", str(case / "c.json"),
                    "--out", str(case / "out"))
        err = capsys.readouterr().err
        assert code == 2, (name, err)
        assert err.startswith("config error: ") and err.count("\n") == 1, \
            (name, err)
        assert needle in err and "Traceback" not in err, (name, err)


def test_schema_keys_and_defaults_are_the_runtime_ones(tmp_path, capsys):
    """Every key --schema prints, at its printed default, is accepted and
    is what the run uses when the key is left out."""
    args = argparse.Namespace(out=str(tmp_path / "out"),
                              override_dimension_gate=False)
    for command in ("verify-integrals", "verify-bubble", "verify-hyperbolic",
                    "corrector", "locate"):
        assert _run(command, "--schema") == 0
        config = json.loads(capsys.readouterr().out)["config"]

        def defaults(entries):
            return {k: defaults(v) if isinstance(v, dict) else
                    json.loads(re.fullmatch(r".*\(default (.*)\)", v)[1])
                    for k, v in entries.items()}

        printed = defaults(config)
        args.config = _write(tmp_path, f"{command}.json", printed)
        spelled = cli._load_config(args, command)
        args.config = _write(tmp_path, "empty.json", {})
        implicit = cli._load_config(args, command)
        assert spelled == implicit
        assert set(printed) | {"_pt", "_out", "_base_dir", "_override"} \
            == set(implicit)
        if "grid" in printed:
            assert implicit["grid"] == corrector.GridSpec()
            echo = implicit["grid"].to_json_dict()
            assert printed["grid"] == {k: echo[k] for k in ("nr", "nxn")}


# Values of every JSON kind, including the ones no key accepts.  Junk
# integers skip (15, 40000], so a junk grid side is refused: it is below
# 16, or with the other side in [16, 24] it exceeds the 800^2 cap.  An
# accepted grid thus has at most 24^2 cells.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2 ** 80, 15), st.integers(40_001, 2 ** 80),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["", "x", "nrr"]), st.integers(),
                    min_size=1, max_size=2))
_SIDE = st.integers(16, 24)
# every decade of gamma up to and past the bound 1e30
_GAMMA = st.one_of(st.floats(0.0, 3.0),
                   st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e))
_SAMPLE_ENTRY = st.fixed_dictionaries(
    {"label": st.sampled_from(["p0", "p1", 3])},
    optional={"coords": st.lists(st.floats(-2.0, 2.0), max_size=2),
              "gamma": _GAMMA,
              "H": st.floats(0.5, 5.0)})
# In-kind values, some of them outside the bounds.
_VALUES = {
    "n": st.integers(7, 13),
    "K": st.floats(-120.0, 0.0),
    "H": st.floats(0.5, 6.0),
    "gamma": _GAMMA,
    "seed": st.integers(-5, 2 ** 64),
    "frame": st.sampled_from(["random", "zero"]),
    "frame_file": st.sampled_from(
        ["frame.json", "frame9.json", "broken.json", "missing.json",
         "huge.json", "tiny.json"]),
    "grid": st.fixed_dictionaries({"nr": _SIDE, "nxn": _SIDE}),
    "case": st.sampled_from(["constants", "non-constants"]),
    # repeated labels are refused at parse; the table above covers that
    "samples": st.lists(_SAMPLE_ENTRY, min_size=1, max_size=3,
                        unique_by=lambda entry: str(entry["label"])),
    "hessH": st.sampled_from(["identity", [[1.0]]]),
    "hessK": st.sampled_from(["identity", [[1.0]]]),
}


@st.composite
def _configs(draw):
    """A command, a config of its keys and its flags (with or without
    --override-dimension-gate).  At most one value, at the top, in the
    grid or in a sample, is junk or an unknown key, so most configs
    reach the computation.  The corrector's grid is always given: the
    default one is 400^2.  So is the frame: the zero one ends most runs
    early."""
    command, required = draw(st.sampled_from([
        ("verify-hyperbolic", []), ("corrector", ["grid", "frame"]),
        ("locate", ["frame", "samples"])]))
    keys = sorted(cli._schema(command)["config"])
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=5))
    config = {k: draw(_VALUES[k]) for k in required + chosen}
    junk = draw(_JUNK)
    where = draw(st.sampled_from(["nowhere", "top", "grid", "samples"]))
    if where == "top":
        config[draw(st.sampled_from(keys + ["bogus"]))] = junk
    elif where in config and type(config[where]) is dict:
        config[where][draw(st.sampled_from(["nr", "nxn", "nrr"]))] = junk
    elif where in config and type(config[where][0]) is dict:
        config[where][0][draw(st.sampled_from(
            ["label", "coords", "gamma", "H", "x"]))] = junk
    return command, config, draw(st.sampled_from(
        [(), ("--override-dimension-gate",)]))


def _scaled_frame(n, seed, factor):
    """A random frame file whose entries are multiplied by ``factor``."""
    doc = geom.random_frame(n, np.random.default_rng(seed)).to_json_dict()
    for key in ("riem_boundary", "normal_block"):
        doc[key] = (factor * np.asarray(doc[key])).tolist()
    return json.dumps(doc)


_FILES = {
    "frame.json": json.dumps(
        geom.random_frame(8, np.random.default_rng(4)).to_json_dict()),
    "frame9.json": json.dumps(
        geom.random_frame(9, np.random.default_rng(4)).to_json_dict()),
    "broken.json": '{"n": 8, "riem_boundary": [1, 2',
    # beyond the 1e30 entry bound: the reports held NaN and Infinity
    "huge.json": _scaled_frame(8, 3, 1e200),
    # B about 7e-241: d0^4 overflowed in the locator
    "tiny.json": _scaled_frame(8, 3, 1e-120),
}
_GRID16 = {"nr": 16, "nxn": 16}


def _non_finite(path):
    """Whether a written .json or .csv file holds a NaN or an infinity."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)
        return bool(found)
    return any(field.strip("-") in ("inf", "nan")
               for line in text.splitlines() for field in line.split(","))


@given(_configs())
@example(("locate", {"frame": "random", "samples": [
    {"label": "p0", "coords": [0.0], "gamma": 1e250}]}, ()))
@example(("corrector", {"grid": _GRID16, "frame_file": "huge.json"}, ()))
@example(("locate", {"frame_file": "huge.json",
                     "samples": [{"label": "p0", "coords": [0.0]}]}, ()))
@example(("locate", {"frame_file": "tiny.json",
                     "samples": [{"label": "p0", "coords": [0.0]}]}, ()))
@settings(max_examples=50, derandomize=True, deadline=None)
def test_any_config_exits_with_a_contract_code(case):
    """Whatever the config holds, main returns 0, 1 or 2 and raises none,
    and no report file it writes holds a NaN or an infinity."""
    command, config, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _FILES.items():
            (Path(tmp) / name).write_text(text)
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(path),
                             "--out", str(out), *flags])
        written = sorted(out.glob("*.json")) + sorted(out.glob("*.csv"))
        assert [p.name for p in written if _non_finite(p)] == []
    assert code in (0, 1, 2)


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("verify-integrals", "--out", str(a)) == 0
    assert _run("verify-integrals", "--out", str(b)) == 0
    assert (a / "verify_report.json").read_bytes() == \
        (b / "verify_report.json").read_bytes()


def test_verify_hyperbolic_emits_variant_table(tmp_path):
    assert _run("verify-hyperbolic", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(doc["variants"]) == 6
    assert sorted(doc["annihilating"]) == [["standard", "phi0"],
                                           ["standard", "phi1-plain"]]


def test_corrector_zero_frame(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"frame": "zero", "grid": {"nr": 32, "nxn": 32}})
    out = tmp_path / "out"
    assert _run("corrector", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["all_passed"] and doc["modes"] == []
    assert (out / "corrector.json").exists()
    # with no mode every row holds by structure, and says so
    lines = capsys.readouterr().out.splitlines()
    no_mode = ("kernel orthogonality", "decay envelope (1+|x|)^{4-n}",
               "quadratic form nonnegative")
    for name in no_mode:
        (line,) = [line for line in lines if f"] {name}:" in line]
        assert line.startswith(f"[vacuous] {name}:"), line
        assert line.endswith(": vacuous: no forcing mode"), line
    assert not [line for line in lines if line.startswith("[pass] ")]
    rows = {r["name"]: r for r in doc["checks"]}
    assert [(rows[name]["passed"], rows[name]["value"], rows[name]["bound"])
            for name in no_mode] == [
        (True, 0.0, 1e-10), (True, 0.0, 1.05), (True, 0.0, 1e-6)]


def test_corrector_random_frame_deterministic(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"frame": "random", "seed": 11,
                  "grid": {"nr": 100, "nxn": 100}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("corrector", "--config", cfg, "--out", str(a)) == 0
    assert _run("corrector", "--config", cfg, "--out", str(b)) == 0
    for name in ("corrector.json", "diagnostics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # no timing keys may leak into any emitted JSON
    assert "_seconds" not in (a / "corrector.json").read_text()
    assert "_seconds" not in (a / "diagnostics.json").read_text()
    profiles = sorted(p.name for p in a.glob("mode*_*.npy"))
    assert profiles
    for name in profiles:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_corrector_reports_do_not_follow_the_blas_thread_count(tmp_path):
    # a second BLAS/OpenMP thread must not move a report byte (locate's
    # dense spectral solve does follow the thread count; corrector not)
    cfg = _write(tmp_path, "c.json",
                 {"frame": "random", "grid": {"nr": 48, "nxn": 48}})
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "bubblelab.cli", "corrector",
                        "--config", cfg, "--out", str(out)],
                       capture_output=True, check=True,
                       env=dict(os.environ, PYTHONPATH=path,
                                OMP_NUM_THREADS=threads,
                                OPENBLAS_NUM_THREADS=threads))
        reports[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(reports["1"]) == [
        "corrector.json", "diagnostics.json",
        "mode0_normal-block_e.npy", "mode0_normal-block_psi.npy"]
    assert reports["1"] == reports["2"]


def test_corrector_prints_vacuous_rows_as_vacuous(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"frame": "random", "grid": {"nr": 48, "nxn": 48}})
    out = tmp_path / "out"
    assert _run("corrector", "--config", cfg, "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    vacuous = [line for line in lines if line.startswith("[vacuous] ")]
    assert [line.split(":")[0] for line in vacuous] == [
        "[vacuous] interior/boundary mass identity",
        "[vacuous] pairing vs discrete quadratic form"]
    assert vacuous[0].endswith(": vacuous: no mode has an angular average")
    assert vacuous[1].endswith(
        ": vacuous: the forcing vanishes on the boundary rows")
    # the rows still count as passed in the report
    doc = json.loads((out / "diagnostics.json").read_text())
    rows = {r["name"]: r for r in doc["checks"]}
    assert rows["interior/boundary mass identity"]["passed"]
    assert rows["pairing vs discrete quadratic form"]["passed"]


def test_corrector_frame_file(tmp_path):
    frame = geom.random_frame(8, np.random.default_rng(4))
    fpath = tmp_path / "frame.json"
    fpath.write_text(json.dumps(frame.to_json_dict()))
    cfg = _write(tmp_path, "c.json",
                 {"frame_file": "frame.json", "grid": {"nr": 64, "nxn": 64}})
    assert _run("corrector", "--config", cfg, "--out",
                str(tmp_path / "out")) == 0


def test_corrector_rejects_invalid_frame_file(tmp_path, capsys):
    frame = geom.random_frame(8, np.random.default_rng(4))
    doc = frame.to_json_dict()
    doc["normal_block"][0][0] += 1.0        # trace condition now fails
    fpath = tmp_path / "frame.json"
    fpath.write_text(json.dumps(doc))
    cfg = _write(tmp_path, "c.json", {"frame_file": "frame.json"})
    assert _run("corrector", "--config", cfg, "--out",
                str(tmp_path / "out")) == 2
    assert "fails validation" in capsys.readouterr().err


def test_corrector_projects_a_frame_file_onto_the_gauge(tmp_path):
    # a trace residue inside validate_frame's tolerance but above
    # decompose_forcing's cutoff must not become a degree-0 mode
    doc = geom.random_frame(8, np.random.default_rng(13)).to_json_dict()
    doc["normal_block"][0][0] += 5e-11
    (tmp_path / "frame.json").write_text(json.dumps(doc))
    cfg = _write(tmp_path, "c.json",
                 {"frame_file": "frame.json", "grid": {"nr": 100, "nxn": 100}})
    out = tmp_path / "out"
    assert _run("corrector", "--config", cfg, "--out", str(out)) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["modes"] == [{"degree": 2, "label": "normal-block"}]


def _locate_b(tmp_path, name, frame_doc):
    """B of a one-sample constants run on the frame file ``frame_doc``."""
    (tmp_path / f"{name}_frame.json").write_text(json.dumps(frame_doc))
    cfg = _write(tmp_path, f"{name}.json", {
        "case": "constants", "frame_file": f"{name}_frame.json",
        "samples": [{"label": "p0", "coords": [0.0], "gamma": 1.0}]})
    out = tmp_path / name
    assert _run("locate", "--config", cfg, "--out", str(out)) == 0
    return json.loads((out / "blowup.json").read_text())["coefficients"]["B"]


@pytest.mark.parametrize("stored", [None, 123.0])
def test_locate_ignores_stored_frame_scalars(tmp_path, stored):
    # a frame holds only its tensors: the weyl_norm_sq and
    # normal_block_div of an older file, null or wrong, never reach B
    doc = geom.random_frame(8, np.random.default_rng(4)).to_json_dict()
    clean = _locate_b(tmp_path, "clean", doc)
    doc.update(weyl_norm_sq=stored, normal_block_div=0.5)
    assert _locate_b(tmp_path, "stored", doc) == clean


def test_locate_rejects_an_asymmetric_hessian(tmp_path, capsys):
    # symmetrized, this Hessian is the identity; one triangle alone has
    # the eigenvalue -4
    hess = np.eye(7)
    hess[0, 1], hess[1, 0] = 5.0, -5.0
    cfg = _write(tmp_path, "c.json", {
        "case": "non-constants", "hessH": hess.tolist(),
        "samples": [{"label": "p", "coords": [0.0], "H": 2.0}]})
    assert _run("locate", "--config", cfg, "--out",
                str(tmp_path / "out")) == 2
    assert "hessH symmetric" in capsys.readouterr().err


def test_locate_constants(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "case": "constants", "frame": "random", "seed": 11,
        "samples": [{"label": "p0", "coords": [0.0], "gamma": 0.5},
                    {"label": "p1", "coords": [1.0], "gamma": 1.5}]})
    out = tmp_path / "out"
    assert _run("locate", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "blowup.json").read_text())
    assert doc["p_star"] == "p1"
    assert doc["rate"] == pytest.approx(1.0 / 3.0)
    assert doc["case_tag"] == "constants"
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample,E,A,B,d0,G"
    assert len(lines) == 3


def test_locate_nonconstant(tmp_path):
    samples = [{"label": f"t{i}", "coords": [0.25 * i],
                "H": 2.0 + 0.05 * (0.25 * i - 1.0) ** 2}
               for i in range(9)]
    cfg = _write(tmp_path, "c.json", {
        "case": "non-constants", "hessH": "identity", "hessK": "identity",
        "samples": samples})
    out = tmp_path / "out"
    assert _run("locate", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "blowup.json").read_text())
    assert doc["p_star"] == "t4"
    assert doc["rate"] == 1.0


def test_locate_reports_hypothesis_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "case": "constants", "frame": "zero",
        "samples": [{"label": "p0", "coords": [0.0], "gamma": 1.0}]})
    assert _run("locate", "--config", cfg, "--out",
                str(tmp_path / "out")) == 1
    assert "B(p) <= 0" in capsys.readouterr().err


def test_locate_config_validation(tmp_path, capsys):
    cfg = _write(tmp_path, "a.json", {"case": "upside-down", "samples": []})
    assert _run("locate", "--config", cfg) == 2

    cfg = _write(tmp_path, "b.json", {"case": "constants", "samples": []})
    assert _run("locate", "--config", cfg) == 2

    cfg = _write(tmp_path, "c.json", {
        "case": "non-constants", "hessH": [[1.0]],
        "samples": [{"label": "p", "coords": [0.0], "H": 2.0}]})
    assert _run("locate", "--config", cfg) == 2
    assert "hessH" in capsys.readouterr().err

    cfg = _write(tmp_path, "d.json", {
        "case": "non-constants",
        "samples": [{"label": "p", "coords": [0.0]}]})   # H missing
    assert _run("locate", "--config", cfg) == 2

    cfg = _write(tmp_path, "e.json", {
        "case": "constants", "frame": "zero",
        "samples": [{"label": "p", "coords": [0.0], "gamma": -2.0}]})
    assert _run("locate", "--config", cfg) == 2


def _non_constants_at(K, d):
    """A one-sample non-constants locate config at n = 8 and depth d."""
    h = d * math.sqrt(abs(K) / 56.0)
    return {"K": K, "H": h, "case": "non-constants",
            "samples": [{"label": "a", "H": h}]}


@pytest.mark.parametrize("command,config", [
    ("verify-integrals", {"H": 1.000001}),
    ("locate", _non_constants_at(-56.0, 1e8)),
    ("locate", _non_constants_at(-56.0, 1.0 + 1e-9)),
    ("locate", _non_constants_at(-1e-30, 1e10)),
    ("locate", _non_constants_at(-1e30, 1e12)),
    ("verify-integrals", {"H": 1e8}),
    ("verify-integrals", {"H": 1e12}),
    ("verify-bubble", {"H": 1e8}),
    ("verify-bubble", {"H": 1e12}),
    ("verify-bubble", {"n": 12, "K": -132.0, "H": 1e8}),
    ("verify-integrals", {"n": 12, "K": -132.0, "H": 1e12}),
])
def test_extreme_depths_pass(tmp_path, command, config):
    # the tails are closed forms: near D = 1 and at D >= 1e8 no
    # quadrature can stall; the oracle's nodes follow D, the separable
    # oracle works in units of D, and the Jacobi Laplacian carries no
    # cancelling terms
    cfg = _write(tmp_path, "c.json", config)
    assert _run(command, "--config", cfg, "--out",
                str(tmp_path / "out")) == 0


def test_out_dir_is_the_flag_alone(tmp_path, monkeypatch):
    # without --out the reports go to ./out, wherever the config lies
    (tmp_path / "conf").mkdir()
    cfg = _write(tmp_path / "conf", "c.json", {})
    monkeypatch.chdir(tmp_path)
    assert _run("verify-hyperbolic", "--config", cfg) == 0
    assert (tmp_path / "out" / "verify_report.json").exists()
    assert not (tmp_path / "conf" / "out").exists()


def _nodes_evaluated(command, out, monkeypatch):
    """The nodes a run's quadratures evaluate their integrands at, counted
    at the integrands and per family member."""
    nodes = [0]
    halfline, quadrant = quad.integrate_halfline, quad._de_quadrant

    def counted_halfline(f, *args, **kwargs):
        def g(y):
            nodes[0] += np.size(y)
            return f(y)

        return halfline(g, *args, **kwargs)

    def counted_quadrant(F, rel_tol, scale, *, count):
        def G(r, xn, which):
            nodes[0] += np.broadcast(r, xn).size * len(which)
            return F(r, xn, which)

        return quadrant(G, rel_tol, scale, count=count)

    monkeypatch.setattr(quad, "integrate_halfline", counted_halfline)
    monkeypatch.setattr(quad, "_de_quadrant", counted_quadrant)
    assert _run(command, "--out", str(out)) == 0
    return nodes[0]


def test_verify_integrals_nodes_follow_the_point(tmp_path, monkeypatch):
    # with its nodes at x = exp(pi/2 sinh t) whatever the point, the
    # run evaluated its integrands at 1,593,497 nodes; at the point's
    # length it takes 1,047,321.  Counted per member at the integrands,
    # so the family of separable oracles evaluates no extra node
    assert _nodes_evaluated("verify-integrals", tmp_path,
                            monkeypatch) == 1_047_321


def test_verify_bubble_families_evaluate_no_extra_node(tmp_path,
                                                       monkeypatch):
    # 220,042 nodes with one quadrature per pairing and per energy
    # integral; the pairings and the two energy integrals, each run as
    # one family, evaluate no node that those calls did not
    assert _nodes_evaluated("verify-bubble", tmp_path,
                            monkeypatch) == 220_042
