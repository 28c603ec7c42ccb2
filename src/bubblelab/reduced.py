"""Reduced-energy coefficients and the finite-dimensional blow-up locator.

The expansion of the energy of a bubble of depth delta at a boundary
point collapses, after the corrector is accounted for, to one depth law
in both regimes, E + drive d - B d^p with delta = eps^rate d:

    constant curvatures:      drive = A gamma, p = 4, rate 1/3
    non-constant curvatures:  drive = A,       p = 2, rate 1

This module computes A and the two flavors of B from closed moments
(coeff_A, coeff_B_nonconstant) or from a solved corrector plus curvature
invariants (coeff_B_constant), and carries the sign quantity S with its
two equivalent expressions.  Every coefficient reads the moments of its
point, ``pt.moments``, so the coefficients of one point share one
``quad.MomentTable``.

One locator serves both regimes.  Each sample's depth is the stationary
point d0 = (drive / (p B))^{1/(p-1)} of the increment drive d - B d^p,
hence rate = 1/(p-1).  The winner has the largest E; samples whose E
ties it within 1e-9 (relative) go to the larger increment G.  When
B <= 0 at every sample the locator raises HypothesisFailure ("B(p) <= 0
at every sample: the delta^p coefficient never produces a maximum at
positive depth").  Sampling the boundary is the caller's business: the
locator consumes a list of BoundarySample records and returns the
maximizer, its depth, and the rate.
"""

import csv
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .bubble import alpha_n, bubble_energy, c_n, crit_boundary, crit_interior
from .errors import DomainError, HypothesisFailure
from .model import validate_hessians, write_json


def _amplitude_sq(pt):
    """C^2 = alpha_n^2 / |K|^{(n-2)/2}, the squared bubble amplitude."""
    return alpha_n(pt.n) ** 2 / abs(pt.K) ** (0.5 * (pt.n - 2.0))


def coeff_A(pt):
    """Coefficient of the eps*delta term: (n-1) int U^2(xt, 0) dxt."""
    n = pt.n
    return float((n - 1.0) * _amplitude_sq(pt)
                 * pt.moments.boundary_moment(0, n - 2))


def coeff_B_nonconstant(pt, hess):
    """Coefficient of the delta^2 term from the curvature Hessians.

    The quadratic forms <D^2 H xt, xt> and <D^2 K x, x> integrate
    against radially symmetric bubble powers, so only the tangential
    traces and the normal-normal entry of D^2 K survive:

        c_n (n-2)/4 * tr(hessH)/(n-1) * int |xt|^2 U^{2#}(xt, 0)
        + 1/(2 2*) * [ tr_t(hessK)/(n-1) * int |xt|^2 U^{2*}
                       + hessK_nn * int x_n^2 U^{2*} ]
    """
    n = pt.n
    if hess.n != n:
        raise DomainError(f"hessians are for n={hess.n}, point has n={n}")
    tbl = pt.moments
    amp = alpha_n(n) / abs(pt.K) ** (0.25 * (n - 2.0))
    tr_h = float(np.trace(hess.hessH))
    tr_k = float(np.trace(hess.hessK[:-1, :-1]))
    k_nn = float(hess.hessK[-1, -1])
    term_h = 0.25 * c_n(n) * (n - 2.0) * (tr_h / (n - 1.0)) \
        * amp ** crit_boundary(n) * tbl.boundary_moment(2, n - 1)
    term_k = (tr_k / (n - 1.0)) * tbl.halfspace_moment(0, 2, n) \
        + k_nn * tbl.halfspace_moment(2, 0, n)
    return float(term_h
                 + amp ** crit_interior(n) * term_k / (2.0 * crit_interior(n)))


def compute_S(pt):
    """The positive quantity S multiplying R^2_{nins} in the delta^4 term."""
    n = pt.n
    D = pt.D
    tbl = pt.moments
    bracket = tbl.phi_hat(0.5 * (n - 3.0)) \
        + (n - 3.0) * D * tbl.phi_power(3, 0.5 * (n - 1.0))
    return _amplitude_sq(pt) * tbl.omega * ((n - 2.0) / (n + 1.0)) \
        * tbl.I(n, n + 2) * bracket


def compute_S_alt(pt):
    """Equivalent expression for S through the tail-moment identity.

    The bracket (n-3) phi~_{(n-1)/2} - 4 phi^_{(n-3)/2} equals -S over
    the shared prefactor; the two routes agreeing is one of the identity
    checks the verify command reports.
    """
    n = pt.n
    tbl = pt.moments
    bracket = (n - 3.0) * tbl.phi_tilde(0.5 * (n - 1.0)) \
        - 4.0 * tbl.phi_hat(0.5 * (n - 3.0))
    return -_amplitude_sq(pt) * tbl.omega * ((n - 2.0) / (n + 1.0)) \
        * tbl.I(n, n + 2) * bracket


def compute_I2(pt):
    """The second delta^4 bracket; vanishes identically.

    Returns the signed value of

        c_n alpha_n^2 (n-2)^2 / (2 (n^2-1) |K|^{(n-2)/2}) * int x_n^2 |xt|^4 w^-n
        - 1/2 int x_n^2 U^2

    which cancels exactly; the residual is pure quadrature noise and the
    verify command checks it against zero.
    """
    n = pt.n
    tbl = pt.moments
    first = c_n(n) * _amplitude_sq(pt) * (n - 2.0) ** 2 \
        / (2.0 * (n * n - 1.0)) * tbl.halfspace_moment(2, 4, n)
    second = 0.5 * _amplitude_sq(pt) * tbl.halfspace_moment(2, 0, n - 2)
    return first - second


def coeff_B_constant(pt, frame, sol):
    """Coefficient of the delta^4 term when both curvatures are constant.

    B = 1/2 int E_p V_p + |Weyl|^2/(24(n-1)) int |xt|^2 U^2
        + R^2_{nins} S.

    The first term uses the corrector equation to trade the quadratic
    form of V_p for the forcing pairing, evaluated on the solved modes
    of ``sol``: a `corrector.CorrectorSolution` (the truncated grid) or
    a `spectral.PairingSolution` (the whole-domain route `locate`
    uses).  Either gives ``pt`` and ``forcing_pairing()``.  |Weyl|^2
    comes from the frame's tensor through geom.weyl_norm, which checks
    the gauge.
    """
    n = pt.n
    # gamma scales the perturbation, not the geometry, so solutions are
    # shared across samples that differ only in gamma
    if (sol.pt.n, sol.pt.K, sol.pt.H) != (pt.n, pt.K, pt.H):
        raise DomainError("corrector solution was computed for a different "
                          f"problem point: {sol.pt} vs {pt}")
    pair = 0.5 * sol.forcing_pairing()
    weyl_term = geom.weyl_norm(frame) / (24.0 * (n - 1.0)) \
        * _amplitude_sq(pt) * pt.moments.halfspace_moment(0, 2, n - 2)
    s_term = frame.nnins_sq * compute_S(pt) \
        if frame.nnins_sq > 0.0 else 0.0
    return float(pair + weyl_term + s_term)


@dataclass(frozen=True)
class ReducedCoefficients:
    """Coefficient bundle (E, A, B) of the reduced energy at one point."""

    E: float
    A: float
    B: float
    case_tag: str
    S: float = None

    def __post_init__(self):
        if self.case_tag not in ("constants", "non-constants"):
            raise DomainError(f"unknown case tag {self.case_tag!r}")
        if self.A <= 0.0:
            raise DomainError(
                f"A must be positive (it is an integral of U^2), got {self.A}")
        if self.case_tag == "constants":
            if self.S is None:
                raise DomainError("constants case carries the quantity S")
            if self.S <= 0.0:
                raise HypothesisFailure(f"S must be positive, got {self.S}")

    def to_json_dict(self):
        doc = {"E": self.E, "A": self.A, "B": self.B,
               "case_tag": self.case_tag}
        if self.S is not None:
            doc["S"] = self.S
        return doc


def increment(d, drive, b, p):
    """Reduced-energy increment drive d - B d^p at depth d."""
    return drive * d - b * d ** p


def stationary_depth(drive, b, p):
    """Closed-form maximizer of drive d - B d^p, requires drive > 0, B > 0.

    The stationarity equation drive = p B d^{p-1} gives
    d0 = (drive / (p B))^{1/(p-1)}.
    """
    if b <= 0.0:
        raise DomainError(f"stationary depth needs B > 0, got B={b}")
    if drive <= 0.0:
        raise DomainError(f"stationary depth needs a positive drive, "
                          f"got {drive}")
    return (drive / (p * b)) ** (1.0 / (p - 1))


@dataclass(frozen=True)
class BoundarySample:
    """One boundary point with the data the locator needs.

    ``pt`` carries (n, K(p), H(p), gamma(p)).  The non-constant case
    supplies ``hess``; the constants case supplies ``frame`` and the
    solved corrector ``sol``, either kind `coeff_B_constant` reads: a
    `corrector.CorrectorSolution` or a `spectral.PairingSolution`.
    """

    label: str
    coords: tuple
    pt: object
    hess: object = None
    frame: object = None
    sol: object = None


@dataclass
class BlowupReport:
    """Outcome of the finite-dimensional maximization over a sample.

    ``p`` and ``drive`` give the winner's depth law drive d - B d^p;
    ``rate`` follows from p and ``case_tag`` from the coefficients.
    ``pairing``, when given, is the record of the forcing pairing behind
    B (`spectral.PairingSolution.to_json_dict`) and goes to blowup.json.
    """

    p_star: str
    coords: tuple
    d_star: float
    p: int
    drive: float
    coefficients: ReducedCoefficients
    gamma: float
    J_values: dict
    hypothesis_flags: dict
    table: list = field(default_factory=list)
    pairing: dict = None

    def __post_init__(self):
        # the stationarity equation of drive d - B d^p at d_star
        defect = abs(self.drive - self.p * self.coefficients.B
                     * self.d_star ** (self.p - 1))
        scale = abs(self.drive)
        if defect > 1e-8 * scale:
            raise DomainError(
                f"d_star violates the stationarity equation: defect "
                f"{defect:.3e} vs scale {scale:.3e}")

    @property
    def rate(self):
        return 1.0 / (self.p - 1)

    @property
    def case_tag(self):
        return self.coefficients.case_tag

    def to_json_dict(self):
        doc = {
            "p_star": self.p_star,
            "coords": list(self.coords),
            "d_star": self.d_star,
            "rate": self.rate,
            "case_tag": self.case_tag,
            "coefficients": self.coefficients.to_json_dict(),
            "gamma": self.gamma,
            "J_values": self.J_values,
            "hypothesis_flags": self.hypothesis_flags,
            "depth_convention": "stationarity A*gamma = 4 d^3 B (constants) "
                                "/ A = 2 d B (non-constants), from the "
                                "differentiated increment",
        }
        if self.pairing is not None:
            doc["pairing"] = self.pairing
        return doc

    def save(self, directory):
        """Write blowup.json and the per-sample samples.csv table."""
        os.makedirs(directory, exist_ok=True)
        write_json(os.path.join(directory, "blowup.json"), self.to_json_dict())
        with open(os.path.join(directory, "samples.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "E", "A", "B", "d0", "G"])
            for row in self.table:
                writer.writerow([row["sample"]] + [
                    repr(float(row[k])) if row[k] is not None else ""
                    for k in ("E", "A", "B", "d0", "G")])


def _locate(samples, coeff_b, drive, p):
    """Shared core of both locators: maximize E + drive d - B d^p.

    Samples with D <= 1 are dropped with a warning.  Every other sample
    gets its row (E, A, B, d0, G), where ``coeff_b(sample)`` gives B,
    ``drive(sample, A)`` the coefficient of d, and d0 and G =
    increment(d0) exist when B > 0; a G beyond the float range (B tiny
    against the drive) raises DomainError.  The bubble energy E
    dominates at order eps^0, so the winner has the largest E; samples
    whose E ties it within 1e-9 (relative) are ranked by the larger G.  Returns the
    rows, the winner as (sample, row), and whether every sample had
    D > 1.
    """
    samples = list(samples)
    for s in samples:
        if s.pt.D <= 1.0:
            warnings.warn(
                f"sample {s.label!r} has D = {s.pt.D:.6g} <= 1 (no bubble "
                "exists there); excluded from the maximization")
    kept = [s for s in samples if s.pt.D > 1.0]
    if not kept:
        raise DomainError("no admissible samples: every point has D <= 1")
    rows = []
    entries = []
    for s in kept:
        row = {"sample": s.label, "E": bubble_energy(s.pt),
               "A": coeff_A(s.pt), "B": coeff_b(s),
               "d0": None, "G": None}
        if row["B"] > 0.0:
            f = drive(s, row["A"])
            row["d0"] = stationary_depth(f, row["B"], p)
            try:
                row["G"] = increment(row["d0"], f, row["B"], p)
            except OverflowError:
                row["G"] = math.inf
            if not math.isfinite(row["G"]):
                raise DomainError(
                    f"sample {s.label!r}: the depth law's maximum lies "
                    f"beyond the float range (drive = {f:.6g}, "
                    f"B = {row['B']:.6g})")
            entries.append((s, row))
        rows.append(row)
    if not entries:
        raise HypothesisFailure(
            f"B(p) <= 0 at every sample: the delta^{p} coefficient never "
            "produces a maximum at positive depth")
    e_max = max(row["E"] for _, row in entries)
    band = [entry for entry in entries
            if entry[1]["E"] >= e_max - 1e-9 * abs(e_max)]
    winner = max(band, key=lambda entry: entry[1]["G"])
    return rows, winner, len(kept) == len(samples)


def optimize_constants(samples):
    """Maximize E + A gamma d - B d^4 over boundary samples, rate 1/3.

    B comes from each sample's frame and solved corrector; see `_locate`
    for the selection.  The report carries S at the winner.
    """
    def coeff_b(s):
        if s.frame is None or s.sol is None:
            raise DomainError(f"sample {s.label!r} lacks frame/corrector data")
        return coeff_B_constant(s.pt, s.frame, s.sol)

    def drive(s, a):
        return a * s.pt.gamma

    rows, winner, all_d = _locate(samples, coeff_b, drive, 4)
    s, row = winner
    f = drive(s, row["A"])
    coeffs = ReducedCoefficients(E=row["E"], A=row["A"], B=row["B"],
                                 case_tag="constants", S=compute_S(s.pt))
    flags = {"B_positive": True, "D_above_one_along_sample": all_d}
    j_values = {"E": row["E"],
                "A_gamma_d": f * row["d0"],
                "B_d4": row["B"] * row["d0"] ** 4,
                "G": row["G"]}
    return BlowupReport(p_star=s.label, coords=tuple(s.coords),
                        d_star=row["d0"], p=4, drive=f,
                        coefficients=coeffs, gamma=s.pt.gamma,
                        J_values=j_values, hypothesis_flags=flags, table=rows)


def optimize_nonconstant(samples):
    """Maximize E + A d - B d^2 over boundary samples, rate 1.

    B comes from each sample's curvature Hessians; see `_locate` for the
    selection.  HypothesisFailure when the Hessians at the winner fail
    validate_hessians (symmetry and positive definiteness).
    """
    def coeff_b(s):
        if s.hess is None:
            raise DomainError(f"sample {s.label!r} lacks Hessian data")
        return coeff_B_nonconstant(s.pt, s.hess)

    rows, winner, all_d = _locate(samples, coeff_b, lambda s, a: a, 2)
    s, row = winner
    bad = validate_hessians(s.hess).failures()
    if bad:
        raise HypothesisFailure(
            f"curvature Hessians at the selected point {s.label!r} fail: "
            + ", ".join(f"{c.name} ({c.value:.3e})" for c in bad))
    coeffs = ReducedCoefficients(E=row["E"], A=row["A"], B=row["B"],
                                 case_tag="non-constants")
    flags = {"B_positive": True, "hessians_positive_definite": True,
             "D_above_one_along_sample": all_d}
    j_values = {"E": row["E"],
                "A_d": row["A"] * row["d0"],
                "B_d2": row["B"] * row["d0"] ** 2,
                "G": row["G"]}
    return BlowupReport(p_star=s.label, coords=tuple(s.coords),
                        d_star=row["d0"], p=2, drive=row["A"],
                        coefficients=coeffs, gamma=s.pt.gamma,
                        J_values=j_values, hypothesis_flags=flags, table=rows)
