"""Domain types and hypothesis validation.

A candidate concentration point on the boundary is described by scalar
data (dimension, prescribed curvatures, perturbation weight) collected
in :class:`ProblemPoint`, plus curvature tensors at the point in the
gauge where the boundary Ricci tensor and the normal-normal Ricci entry
vanish (:class:`CurvatureFrame`).  Validation never raises: every
operation returns a list of :class:`Check` rows (name, value, op,
bound, detail, passed), one per invariant with its measured value, so
the CLI can show all failures at once.  The corrector's
grid, :class:`GridSpec`, is a domain type too: the CLI reads its
defaults and checks its bounds without importing the sparse solver.
Every report JSON file goes through :func:`write_json`, so all of them
share one format.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import quad
from .errors import DomainError

SUPPORTED_MIN_DIMENSION = 8
# identity verification still makes sense below the blow-up threshold;
# the explicit override lowers the gate to this hard floor
OVERRIDE_MIN_DIMENSION = 5
# the validated ceiling, not a cost limit: verify-bubble's sphere rule
# has 3,610 nodes at n = 12, and its fitted weights stay positive up to
# n = 14 and turn negative at n = 15.  Raising it is a separate decision
MAX_DIMENSION = 12
# the formulas raise |K| and D to powers up to about 2n; the bubble
# amplitude overflows at |K| = 1e300 and underflows at 1e-100, and the
# moments overflow at D = 1e200.  These bounds keep a wide margin.
MAX_CURVATURE_SCALE = 1e30          # 1 / scale <= |K| <= scale
MAX_SCALING_QUANTITY = 1e12
# gamma enters the constants depth law as drive = A gamma, and the
# locator forms d0^4 at d0 = (drive / 4B)^{1/3}, which overflows once
# drive/B exceeds about 6e231 (at gamma = 1e250 it did).  A/B is about
# 24 at the README point, so gamma <= 1e30 leaves a margin near 1e200
MAX_GAMMA = 1e30
# the corrector and the locator square the frame's entries and multiply
# them by the moments: x1e200 frames wrote NaN and Infinity into the
# reports, while x1e30 frames (n = 8 and 12, |K| down to 1e-30, 32^2
# grid) raise no floating-point warning and exit as unit frames do
MAX_FRAME_ENTRY = 1e30


def scaling_quantity(n, K, H):
    """D = sqrt(n(n-1)) * H / sqrt(|K|); bubbles exist iff D > 1."""
    if K == 0.0:
        raise DomainError("scaling quantity undefined at K = 0")
    return math.sqrt(n * (n - 1.0)) * H / math.sqrt(abs(K))


def _frozen_array(obj, name, value, shape):
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ProblemPoint:
    """Scalar data of a candidate blow-up point.

    The scaling quantity D is always recomputed from (n, K, H) — it is a
    property, never stored, so it cannot drift out of sync.  ``moments``
    is the point's one `quad.MomentTable` at (n, D): built on first use
    and kept by this point object, so every coefficient of one point
    reads one table and no table is shared across points.
    """

    n: int
    K: float
    H: float
    gamma: float = 1.0

    @property
    def D(self):
        return scaling_quantity(self.n, self.K, self.H)

    @cached_property
    def moments(self):
        return quad.MomentTable(self.n, self.D)

    def to_json_dict(self):
        return {"n": self.n, "K": self.K, "H": self.H, "gamma": self.gamma}


# a random-frame corrector run, in a fresh process with BLAS at 1
# thread, peaks at 234 MB on 400^2 cells and 837 MB on 800^2
MAX_GRID_CELLS = 800 ** 2


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid on [0, r_max]^2 with algebraic stretching.

    Both coordinates use the map r(s) = r_max s / (1 + stretch (1-s)),
    which crowds nodes near the origin where the forcing concentrates.
    The cell counts are the settable fields, and their defaults are the
    grid defaults of the CLI; the truncation radius r_max = 40 and the
    stretch 10 are the solver's constants.
    """

    nr: int = 400
    nxn: int = 400
    r_max: ClassVar[float] = 40.0
    stretch: ClassVar[float] = 10.0

    def __post_init__(self):
        if self.nr < 16 or self.nxn < 16:
            raise DomainError("grid needs at least 16 cells per direction")
        if self.nr * self.nxn > MAX_GRID_CELLS:
            raise DomainError(f"grid needs nr * nxn <= {MAX_GRID_CELLS}, "
                              f"got {self.nr} * {self.nxn}")

    def to_json_dict(self):
        return {"nr": self.nr, "nxn": self.nxn, "r_max": self.r_max,
                "stretch": self.stretch}

    # the stretching map and its derivatives, on [0, 1]
    def coord(self, s):
        return self.r_max * s / (1.0 + self.stretch * (1.0 - s))

    def dcoord(self, s):
        return self.r_max * (1.0 + self.stretch) \
            / (1.0 + self.stretch * (1.0 - s)) ** 2

    def d2coord(self, s):
        return 2.0 * self.r_max * self.stretch * (1.0 + self.stretch) \
            / (1.0 + self.stretch * (1.0 - s)) ** 3


@dataclass(frozen=True)
class HessianData:
    """Second derivatives of the prescribed curvatures at the point.

    hessH is (n-1) x (n-1) (tangential), hessK is n x n.
    """

    hessH: np.ndarray
    hessK: np.ndarray

    def __post_init__(self):
        hH = np.array(self.hessH, dtype=float)
        hK = np.array(self.hessK, dtype=float)
        if hH.ndim != 2 or hH.shape[0] != hH.shape[1]:
            raise DomainError(f"hessH must be square, got {hH.shape}")
        if hK.shape != (hH.shape[0] + 1, hH.shape[0] + 1):
            raise DomainError(
                f"hessK must be {(hH.shape[0] + 1,) * 2} for hessH {hH.shape}, "
                f"got {hK.shape}")
        for name, arr in (("hessH", hH), ("hessK", hK)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.hessK.shape[0]


@dataclass(frozen=True)
class CurvatureFrame:
    """Curvature data at the point, in the gauge with vanishing boundary Ricci.

    riem_boundary holds the boundary Riemann tensor R[i,k,j,l] with all
    indices tangential (1..n-1); the pair slots are (i,k) and (j,l) and
    the Ricci contraction is over slots (0, 2).  normal_block is the
    symmetric matrix R_{ninj}.  A frame holds only these two inputs:
    nnins_sq is read off the frozen normal_block, and |Weyl|^2 comes
    from geom.weyl_norm.
    """

    riem_boundary: np.ndarray
    normal_block: np.ndarray

    def __post_init__(self):
        riem = np.array(self.riem_boundary, dtype=float)
        if riem.ndim != 4 or len(set(riem.shape)) != 1:
            raise DomainError(
                f"riem_boundary must be rank 4 with equal dims, got {riem.shape}")
        m = riem.shape[0]
        riem.flags.writeable = False
        object.__setattr__(self, "riem_boundary", riem)
        _frozen_array(self, "normal_block", self.normal_block, (m, m))

    @property
    def nnins_sq(self):
        """|R_{ninj}|^2, the squared Frobenius norm of normal_block."""
        nb = self.normal_block
        return float(np.sum(nb * nb))

    @property
    def m(self):
        """Boundary dimension n-1."""
        return self.riem_boundary.shape[0]

    @property
    def n(self):
        return self.m + 1

    @classmethod
    def zero(cls, n):
        m = n - 1
        return cls(riem_boundary=np.zeros((m, m, m, m)),
                   normal_block=np.zeros((m, m)))

    def to_json_dict(self):
        return {
            "n": self.n,
            "riem_boundary": [float(v) for v in self.riem_boundary.ravel(order="C")],
            "riem_boundary_dims": list(self.riem_boundary.shape),
            "normal_block": [[float(v) for v in row] for row in self.normal_block],
        }

    @classmethod
    def from_json_dict(cls, doc):
        """The frame of a JSON document; other keys are ignored ("n", and
        the "weyl_norm_sq" and "normal_block_div" of older files)."""
        dims = tuple(int(d) for d in doc["riem_boundary_dims"])
        riem = np.array(doc["riem_boundary"], dtype=float).reshape(dims, order="C")
        return cls(riem_boundary=riem,
                   normal_block=np.array(doc["normal_block"], dtype=float))


# ---------------------------------------------------------------------------
# validation reports


_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
        ">": operator.gt}


@dataclass(frozen=True)
class Check:
    """One report row: a measured value, its comparison ``op`` ("<=", the
    default, "<", ">=" or ">") and its bound.

    The row passes when ``value op bound`` holds, so a NaN value fails
    every op; ``passed=False`` fails a row whose value could not be
    measured.  The fields are stored as the report writes them: ``value``
    and ``bound`` as float, ``passed`` as bool.
    """

    name: str
    value: float
    bound: float
    detail: str = ""
    op: str = "<="
    passed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "passed", bool(
            self.passed and _OPS[self.op](self.value, self.bound)))


def _json_default(obj):
    return vars(obj) if isinstance(obj, Check) else float(obj)


def write_json(path, doc):
    """A report document as every command writes it: indented, keys
    sorted, a Check as its six fields."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def validate_point(pt, override_dimension_gate=False):
    """Check every ProblemPoint invariant; all failures become report rows.

    This is the one dimension gate.  Each row says what it needs in its
    detail.
    """
    floor = OVERRIDE_MIN_DIMENSION if override_dimension_gate else SUPPORTED_MIN_DIMENSION
    hint = (" (hard floor even with --override-dimension-gate)"
            if override_dimension_gate else
            "; pass --override-dimension-gate to explore 5 <= n < 8")
    try:
        D = pt.D
    except DomainError:
        D = math.nan
    scale = MAX_CURVATURE_SCALE
    need_k = f"need {1.0 / scale:g} <= |K| <= {scale:g}, got K = {pt.K:.6g}"
    return [
        Check("n >= 8" if not override_dimension_gate
              else "n >= 5 (gate overridden)", pt.n, floor,
              f"dimension gate: need n >= {floor}, got n={pt.n}{hint}", ">="),
        Check(f"n <= {MAX_DIMENSION}", pt.n, MAX_DIMENSION,
              f"dimension gate: need n <= {MAX_DIMENSION}, got n={pt.n}"),
        Check("K < 0", pt.K, 0.0, f"need K < 0, got K = {pt.K:.6g}", "<"),
        Check(f"|K| >= {1.0 / scale:g}", abs(pt.K), 1.0 / scale, need_k,
              ">="),
        Check(f"|K| <= {scale:g}", abs(pt.K), scale, need_k),
        Check("D > 1", D, 1.0,
              f"no bubble family at this point: D = {D:.6g}, need D > 1",
              ">"),
        # at K = 0, D is undefined, and the "D > 1" row already says so
        Check(f"D <= {MAX_SCALING_QUANTITY:g}", D, MAX_SCALING_QUANTITY,
              "" if math.isnan(D) else
              f"need D <= {MAX_SCALING_QUANTITY:g}, got D = {D:.6g}"),
        Check("gamma > 0", pt.gamma, 0.0,
              f"need gamma > 0, got gamma = {pt.gamma:.6g}", ">"),
        Check(f"gamma <= {MAX_GAMMA:g}", pt.gamma, MAX_GAMMA,
              f"need gamma <= {MAX_GAMMA:g}, got gamma = {pt.gamma:.6g}"),
    ]


def validate_frame(fr):
    """Check the algebraic symmetries and gauge trace conditions of a frame,
    and that no entry exceeds MAX_FRAME_ENTRY in size.

    Violations are measured in max norm and compared against
    1e-10 * max(1, |R|_max, |Q|_max).
    """
    R = fr.riem_boundary
    Q = fr.normal_block
    scale = max(1.0, float(np.max(np.abs(R))) if R.size else 0.0,
                float(np.max(np.abs(Q))) if Q.size else 0.0)
    bound = 1e-10 * scale

    def mx(arr):
        return float(np.max(np.abs(arr))) if arr.size else 0.0

    bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
    ricci = np.einsum("ikil->kl", R)
    return [
        Check("antisymmetry first pair", mx(R + R.transpose(1, 0, 2, 3)), bound),
        Check("antisymmetry second pair", mx(R + R.transpose(0, 1, 3, 2)), bound),
        Check("pair symmetry", mx(R - R.transpose(2, 3, 0, 1)), bound),
        Check("first Bianchi identity", mx(bianchi), bound),
        Check("boundary Ricci vanishes", mx(ricci), bound),
        Check("normal block symmetric", mx(Q - Q.T), bound),
        Check("normal block trace vanishes", abs(float(np.trace(Q))), bound),
        Check(f"entries at most {MAX_FRAME_ENTRY:g} in size", scale,
              MAX_FRAME_ENTRY),
    ]


def validate_hessians(hd, require_definite=True):
    """Symmetry to 1e-10 of the largest entry (always) and positive
    definiteness (when asserted)."""
    checks = []
    for name, arr in (("hessH", hd.hessH), ("hessK", hd.hessK)):
        bound = 1e-10 * max(1.0, float(np.max(np.abs(arr))))
        viol = float(np.max(np.abs(arr - arr.T)))
        checks.append(Check(f"{name} symmetric", viol, bound))
        if require_definite:
            lam = float(np.linalg.eigvalsh(0.5 * (arr + arr.T))[0])
            checks.append(Check(f"{name} positive definite", lam, 0.0,
                                op=">"))
    return checks
