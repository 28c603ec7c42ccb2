import importlib.util
import json
from pathlib import Path

_REPORTS = Path(__file__).resolve().parents[1] / "bench" / "reports.py"
_spec = importlib.util.spec_from_file_location("reports", _REPORTS)
reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reports)


def _tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def test_identical_trees_differ_nowhere(tmp_path):
    files = {"verify/out/verify_report.json": b"{}\n",
             "corrector/out/mode0_e.npy": b"\x93NUMPY\x01\x00",
             "corrector/console.txt": b"exit 0\n"}
    assert reports.differing_files(_tree(tmp_path / "a", files),
                                   _tree(tmp_path / "b", files)) == []


def test_every_kind_of_difference_is_listed_once(tmp_path):
    before = _tree(tmp_path / "a", {
        "same.txt": b"x", "locate/out/blowup.json": b'{"G": 3.742919520470627}',
        "only_before/samples.csv": b"sample\n",
        "corrector/out/mode0_e.npy": b"\x00\x01"})
    after = _tree(tmp_path / "b", {
        "same.txt": b"x", "locate/out/blowup.json": b'{"G": 3.7429195204706267}',
        "only_after.txt": b"",
        # same size, one byte apart
        "corrector/out/mode0_e.npy": b"\x00\x02"})
    assert reports.differing_files(before, after) == [
        "corrector/out/mode0_e.npy", "locate/out/blowup.json",
        "only_after.txt", "only_before/samples.csv"]
    assert reports.differing_files(after, before) == \
        reports.differing_files(before, after)



def test_a_json_file_names_each_key_path_that_moved(tmp_path):
    before = {"parameters": {"n": 8, "rel_tol": None},
              "identities": [{"value": 1.0}, {"value": 2.0}],
              "count": 2, "all_passed": True}
    after = {"parameters": {"n": 8},
             "identities": [{"value": 1.0}, {"value": 2.5}, {"value": 3}],
             "count": 2.0, "all_passed": True, "extra": [1]}
    moved = ["count", "extra", "identities.1.value", "identities.2",
             "parameters.rel_tol"]
    assert reports.differing_keys(before, after) == moved
    assert reports.differing_keys(after, before) == moved
    assert reports.differing_keys(before, before) == []
    assert reports.differing_keys([1], {"0": 1}) == ["(the whole document)"]

    rel = "verify/out/verify_report.json"
    a = _tree(tmp_path / "a", {rel: json.dumps(before).encode(),
                               "only.json": b"{}", "p.npy": b"\x00"})
    b = _tree(tmp_path / "b", {rel: json.dumps(after).encode(),
                               "p.npy": b"\x01"})
    assert reports.differing_file_keys(a, b, rel) == moved
    # a file on one side, or one that is no JSON, names no key path
    assert reports.differing_file_keys(a, b, "only.json") == []
    assert reports.differing_file_keys(a, b, "p.npy") == []
