import json
import math

import numpy as np
import pytest

from bubblelab import geom, quad
from bubblelab.errors import DomainError
from bubblelab.model import (Check, CurvatureFrame, HessianData,
                             ProblemPoint, validate_frame, validate_hessians,
                             validate_point, write_json)


def test_a_check_is_written_as_its_five_json_fields(tmp_path):
    path = tmp_path / "row.json"
    write_json(path, Check("r", np.float64(0.5), 1, passed=np.bool_(True)))
    doc = json.loads(path.read_text())
    assert doc == {"name": "r", "value": 0.5, "bound": 1.0, "detail": "",
                   "passed": True}
    assert [type(doc[k]) for k in ("value", "bound", "passed")] == \
        [float, float, bool]
    assert Check("r", math.nan, 1.0).passed is False


def test_scaling_quantity_round_numbers(pt8, pt10):
    assert pt8.D == pytest.approx(2.0, abs=1e-15)
    assert pt10.D == pytest.approx(1.5, abs=1e-15)


def test_point_json_round_trip(pt8):
    assert pt8.to_json_dict() == {"n": 8, "K": -56.0, "H": 2.0,
                                  "gamma": 1.0}


def test_point_owns_its_moments(monkeypatch):
    pt = ProblemPoint(n=8, K=-56.0, H=2.0)
    table = pt.moments
    assert pt.moments is table
    fresh = quad.MomentTable(8, pt.D)
    for tbl in (table, fresh):
        tbl.halfspace_moment(2, 4, 8)
        tbl.boundary_moment(0, 6)
        tbl.phi_tilde(4.5)
    assert (table.n, table.D) == (fresh.n, fresh.D)
    assert table.cache == fresh.cache and table.omega == fresh.omega
    # one table per point object, not per value
    twin = ProblemPoint(n=8, K=-56.0, H=2.0)
    assert twin == pt and twin.moments is not table

    def refuse(*args):
        raise AssertionError("validation built a moment table")

    monkeypatch.setattr(quad, "MomentTable", refuse)
    flat = ProblemPoint(n=8, K=-56.0, H=0.5)     # D = 0.5: no bubble
    rows = validate_point(flat)
    assert [c.name for c in rows if not c.passed] == ["D > 1"]
    assert "moments" not in vars(flat)


def test_dimension_gate():
    low = ProblemPoint(n=6, K=-30.0, H=1.2)   # D = 1.2: only the gate fails
    rows = validate_point(low)
    assert not all(c.passed for c in rows)
    assert any("dimension gate" in c.detail for c in rows if not c.passed)

    rows = validate_point(low, override_dimension_gate=True)
    assert all(c.passed for c in rows)

    rows = validate_point(ProblemPoint(n=4, K=-12.0, H=1.5),
                          override_dimension_gate=True)
    assert not all(c.passed for c in rows)


def test_validate_point_flags_bad_geometry():
    rows = validate_point(ProblemPoint(n=8, K=-56.0, H=0.1))
    assert [c.name for c in rows if not c.passed] == ["D > 1"]
    rows = validate_point(ProblemPoint(n=8, K=3.0, H=2.0))
    assert any(c.name == "K < 0" for c in rows if not c.passed)
    rows = validate_point(ProblemPoint(n=8, K=-56.0, H=2.0, gamma=-1.0))
    assert any(c.name == "gamma > 0" for c in rows if not c.passed)


def test_zero_frame():
    fr = CurvatureFrame.zero(8)
    assert fr.n == 8 and fr.m == 7
    assert fr.nnins_sq == 0.0
    assert all(c.passed for c in validate_frame(fr))


def test_random_frame_validates(frame8):
    rows = validate_frame(frame8)
    assert all(c.passed for c in rows), [c.name for c in rows
                                         if not c.passed]
    assert frame8.nnins_sq > 0.0


def test_validate_frame_catches_tampering(frame8):
    riem = frame8.riem_boundary.copy()
    riem[0, 1, 2, 3] += 0.1       # breaks pair symmetry and Bianchi
    bad = CurvatureFrame(riem_boundary=riem,
                         normal_block=frame8.normal_block)
    assert not all(c.passed for c in validate_frame(bad))

    q = frame8.normal_block.copy()
    q[0, 0] += 1.0                # trace no longer vanishes
    bad = CurvatureFrame(riem_boundary=frame8.riem_boundary, normal_block=q)
    assert any(c.name == "normal block trace vanishes"
               for c in validate_frame(bad) if not c.passed)


def test_frame_json_round_trip(frame8):
    doc = frame8.to_json_dict()
    back = CurvatureFrame.from_json_dict(doc)
    np.testing.assert_array_equal(back.riem_boundary, frame8.riem_boundary)
    np.testing.assert_array_equal(back.normal_block, frame8.normal_block)
    assert back.nnins_sq == frame8.nnins_sq


def test_frame_shape_validation():
    with pytest.raises(DomainError):
        CurvatureFrame(riem_boundary=np.zeros((7, 7, 7)),
                       normal_block=np.zeros((7, 7)))
    with pytest.raises(DomainError):
        CurvatureFrame(riem_boundary=np.zeros((7, 7, 7, 7)),
                       normal_block=np.zeros((6, 6)))


def test_hessian_data():
    hd = HessianData(hessH=np.eye(7), hessK=np.eye(8))
    assert hd.n == 8
    assert all(c.passed for c in validate_hessians(hd))
    with pytest.raises(DomainError):
        HessianData(hessH=np.eye(7), hessK=np.eye(7))


def test_hessian_definiteness_check():
    hd = HessianData(hessH=-np.eye(7), hessK=np.eye(8))
    rows = validate_hessians(hd, require_definite=True)
    assert any(c.name == "hessH positive definite"
               for c in rows if not c.passed)
    assert all(c.passed for c in validate_hessians(hd, require_definite=False))


def test_frames_are_frozen(frame8):
    with pytest.raises(ValueError):
        frame8.normal_block[0, 0] = 99.0
