"""Half-line quadrature, the separable half-space moments and their oracle.

All integrals in the construction reduce to one of three shapes:

* Beta moments  I(m, a) = int_0^inf rho^a (1+rho^2)^-m drho,
* tail integrals  int_D^inf (t-D)^k (t^2-1)^-m dt  for integer k >= 0,
* half-space moments  int_{R^n_+} x_n^a |xt|^b (|xt|^2+(x_n+D)^2-1)^-m dx,

where xt denotes the tangential part of x.  The half-space moment
factorises over the slicing x = (r*theta, x_n), r = |xt|: the angular
part is the surface measure omega of S^{n-2}, and with t = x_n + D and
r = rho sqrt(t^2-1) the radial part is a Beta moment times a tail
integral,

    int = omega * I(m, n-2+b) * int_D^inf (t-D)^a (t^2-1)^{(n-1+b)/2-m} dt.

`MomentTable` computes that form in closed forms only: I through
log-Gamma, and the tail through Euler's integral (DLMF 15.6.1).  With
t = D + s, a = D - 1 and b = D + 1 the tail is

    b^-m a^(k+1-m) B(k+1, 2m-k-1) 2F1(m, k+1; 2m; 2/b),

so its singular scale a^(k+1-m) is explicit and 2F1 is evaluated at
z = 2/b < 1.  The table calls no quadrature.  The package evaluates
that 2F1 itself, in floats and without scipy: by its Gauss series (DLMF
15.2.1) while z <= 0.97, and nearer D = 1 by the connection formulas in
w = 1 - z (DLMF 15.8.4; for integer m their logarithmic limit, DLMF
15.8.10, whose digammas are then harmonic numbers).  w is formed as a/b
because a = D - 1 is exact near D = 1, where 1 - z would carry the
rounding of z.

Every quadrature in the package is one exp-sinh rule (Takahasi and
Mori, "Double exponential formulas for numerical integration", Publ.
RIMS 9, 1974): nodes x = L exp(pi/2 sinh t) on |t| <= T, evaluated on
node arrays in bounded blocks, with a level-halving error estimate and
explicit truncation and non-finite checks.  The length L (``scale``) is
the caller's: the integrand's own length, so that the nodes cluster
where it varies.  `integrate_halfline` is its one-variable case on
[a, inf), the route that checks both closed forms in the
verify-integrals rows.  `_de_quadrant` is its tensor case on
[0, inf)^2: `brute_halfspace` feeds it a point integrand along the
slice xt = +/- r e_1, and `geom.paired_halfspace` the records' radial
profiles.  Neither sees a factorised form or a Beta closed form.  Both
run through one level loop, `_de_loop`: the step halving, the level
test, the edge check, the non-finite check and the stall error exist
once.  What differs between the two cases, the
node blocks each level adds and edge-checks with the level cap and the
power of h that go with them, is `_de_nodes`, beside `_exp_sinh`.

`_de_quadrant` and `brute_halfspace` integrate families only
(``count=k``): one pass over one node set, where the integrand gets
the indices of the members still running and returns one array per
member, and the call returns the list of k values.  Each member keeps
its own level test, stop level, edge check, non-finite check and
block-by-block sums, so its value is bit for bit the one a family of
one returns; a failure or warning names the member unless k = 1.  The
separable oracle of verify-integrals is one such family, the bubble
energy's two half-space integrals another, and the records' pairings
of one `geom.paired_halfspace` call a third.  `integrate_halfline`
keeps one integrand per call, which it runs as a family of one.

Which length each oracle takes:

* the Beta moments (1 + rho^2)^-m of the verify-integrals rows: L = 1;
* the tails (t - D)^k (t^2 - 1)^-m on [D, inf): L = D;
* the half-space moments of the verify-integrals rows, written in
  units of D (y = x/D, so no factor leaves the float range before the
  others meet it): L = 1;
* the bubble energy's three integrals and the records' pairings: L = D,
  the distance from the boundary to the centre of the bubble's sphere.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "integrate_halfline",
    "I",
    "phi_power",
    "sphere_area",
    "sphere_monomial",
    "MomentTable",
    "brute_halfspace",
]


def I(m, alpha):
    """Beta moment int_0^inf rho^alpha (1+rho^2)^-m drho, alpha+1 < 2m.

    Evaluated as B((alpha+1)/2, m-(alpha+1)/2)/2 through log-Gamma, which
    stays accurate arbitrarily close to the divergence boundary.
    """
    if alpha <= -1.0:
        raise DomainError(f"I(m, alpha) needs alpha > -1, got alpha={alpha}")
    if alpha + 1.0 >= 2.0 * m:
        raise DomainError(
            f"I(m, alpha) diverges: need alpha+1 < 2m, got m={m}, alpha={alpha}")
    h = 0.5 * (alpha + 1.0)
    return 0.5 * math.exp(_log_beta(h, m - h))


def _log_beta(x, y):
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def _gamma_ratio(num, den):
    """prod Gamma(num) / prod Gamma(den), through log-Gamma and the signs."""
    log = sum(map(math.lgamma, num)) - sum(map(math.lgamma, den))
    # Gamma(x) < 0 where x < 0 has an odd floor
    negative = sum(x < 0.0 and math.floor(x) % 2 for x in num + den)
    return (-1.0) ** negative * math.exp(log)


# 2F1 by its Gauss series while z <= _SERIES_Z, which needs about 1,500
# terms at z = 0.97 and k = 6; nearer 1 the connection formulas in
# w = 1 - z, whose two terms cancel more as w grows (2.2e-13 at w = 0.03)
_SERIES_Z = 0.97
_SERIES_TERMS = 100_000
_EPS = 2.0 ** -53
_NORMAL_MIN = sys.float_info.min


def _gauss_series(a, b, c, x):
    """sum_j (a)_j (b)_j / ((c)_j j!) x^j for 0 <= x < 1 (DLMF 15.2.1).

    It stops once the terms decrease and the last one is below the
    rounding of the sum over what the remaining terms could add.
    """
    total = term = 1.0
    for j in range(_SERIES_TERMS):
        ratio = (a + j) * (b + j) / ((c + j) * (j + 1.0)) * x
        term *= ratio
        total += term
        if 0.0 <= ratio < 1.0 \
                and abs(term) <= _EPS * (1.0 - ratio) * abs(total):
            return total
    raise NonConvergence(f"2F1({a}, {b}; {c}; {x}): the Gauss series "
                         f"needs more than {_SERIES_TERMS} terms")


def _hyp2f1(a, b, c, z, w):
    """2F1(a, b; c; z) for 0 < z < 1, with c > a > 0, c > b > 0 and
    2(c - a - b) an integer; a and b integers too when c - a - b is.

    ``w`` is 1 - z, formed by the caller without the rounding of z.
    While z <= _SERIES_Z it is the Gauss series.  Beyond, with
    s = c - a - b, Euler's transformation (DLMF 15.8.1) first makes
    s >= 0, and then it is the connection formula in w: DLMF 15.8.4
    when s is not an integer, and else its logarithmic limit DLMF
    15.8.10 (Abramowitz and Stegun 15.3.10-11), whose digammas at the
    integers a, b are harmonic numbers.
    """
    if z <= _SERIES_Z:
        return _gauss_series(a, b, c, z)
    s = c - a - b
    if s < 0.0:
        return w ** s * _hyp2f1(c - a, c - b, c, z, w)
    if s != round(s):
        return (_gamma_ratio((c, s), (c - a, c - b))
                * _gauss_series(a, b, 1.0 - s, w)
                + _gamma_ratio((c, -s), (a, b)) * w ** s
                * _gauss_series(c - a, c - b, 1.0 + s, w))
    s, a, b = round(s), round(a), round(b)
    finite = term = 1.0
    for j in range(s - 1):
        term *= (a + j) * (b + j) / ((j + 1.0) * (1.0 - s + j)) * w
        finite += term
    finite = _gamma_ratio((s, a + b + s), (a + s, b + s)) * finite \
        if s else 0.0
    # psi(a+n+s) + psi(b+n+s) - psi(n+1) - psi(n+s+1) as harmonic numbers
    # H_{a+n+s-1} + H_{b+n+s-1} - H_n - H_{n+s}; Euler's constant cancels
    log_w = math.log(w)
    h = sum(1.0 / i for i in range(1, a + s)) \
        + sum(1.0 / i for i in range(1, b + s)) \
        - sum(1.0 / i for i in range(1, s + 1))
    term = math.exp(-math.lgamma(s + 1.0))
    total = 0.0
    for n in range(_SERIES_TERMS):
        total += term * (log_w + h)
        ratio = (a + s + n) * (b + s + n) / ((n + 1.0) * (n + s + 1.0)) * w
        if ratio < 1.0 and abs(term) * (abs(log_w) + abs(h)) \
                <= _EPS * (1.0 - ratio) * abs(total):
            return finite - (-w) ** s * _gamma_ratio((a + b + s,), (a, b)) \
                * total
        term *= ratio
        h += 1.0 / (a + n + s) + 1.0 / (b + n + s) - 1.0 / (n + 1.0) \
            - 1.0 / (n + s + 1.0)
    raise NonConvergence(f"2F1({a}, {b}; {c}; 1 - {w}): the logarithmic "
                         f"series needs more than {_SERIES_TERMS} terms")


def phi_power(k, m, D):
    """Tail integral int_D^inf (t-D)^k (t^2-1)^-m dt for integer k >= 0.

    Euler's integral (DLMF 15.6.1) with a = D - 1, b = D + 1:
    B(k+1, 2m-k-1) b^-m a^(k+1-m) 2F1(m, k+1; 2m; z), z = 2/b, through
    `_hyp2f1`.  2m must be an integer; every caller passes integers or
    half-integers.  Near D = 1 the 2F1 is a function of w = 1 - z,
    formed as a/b: a = D - 1 is exact there, while 1 - z would inherit
    the rounding of z, about 1e-16 absolute and so 2e-7 relative in w
    at D = 1 + 1e-9.  A value beyond the float range, or below its
    normal range, where a subnormal keeps only some of its digits and
    zero none, raises NonConvergence.
    """
    if not 1.0 < D < math.inf:
        raise DomainError(f"tail integrals need finite D > 1, got D={D}")
    if not (k >= 0 and float(k).is_integer()):
        raise DomainError(f"tail integrals need integer k >= 0, got k={k}")
    if not float(2.0 * m).is_integer():
        raise DomainError(f"tail integrals need an integer 2m, got m={m}")
    if k - 2.0 * m >= -1.0:
        raise DomainError(
            f"tail integral diverges: need k - 2m < -1, got k={k}, m={m}")
    a, b = D - 1.0, D + 1.0
    try:
        value = math.exp(_log_beta(k + 1.0, 2.0 * m - k - 1.0)
                         - m * math.log(b) + (k + 1.0 - m) * math.log(a)) \
            * _hyp2f1(m, k + 1.0, 2.0 * m, 2.0 / b, a / b)
    except OverflowError:
        value = math.inf
    if not _NORMAL_MIN <= value < math.inf:
        raise NonConvergence(
            f"tail closed form is {value} at k={k}, m={m}, D={D}: "
            "outside the normal float range")
    return value


def sphere_area(m):
    """Surface measure of the unit sphere S^{m-1} in R^m."""
    if m < 1:
        raise DomainError(f"sphere_area needs m >= 1, got {m}")
    return 2.0 * math.exp(0.5 * m * math.log(math.pi)
                           - math.lgamma(0.5 * m))


def sphere_monomial(powers, m):
    """int_{S^{m-1}} prod_i theta_i^{p_i} dtheta for a monomial exponent tuple.

    Zero when any exponent is odd; otherwise the classical Gamma-ratio
    formula.  ``powers`` may be shorter than m (missing entries are 0).
    """
    ps = list(powers) + [0] * (m - len(powers))
    if len(ps) > m:
        raise DomainError(f"{len(ps)} exponents for S^{m - 1}")
    if any(p < 0 for p in ps):
        raise DomainError("negative exponent in sphere_monomial")
    if any(p % 2 for p in ps):
        return 0.0
    log_num = sum(math.lgamma(0.5 * (p + 1)) for p in ps)
    return 2.0 * math.exp(log_num - math.lgamma(0.5 * (m + sum(ps))))


@dataclass
class MomentTable:
    """Cached moments at fixed (n, D), all of them closed forms.

    The cache maps a descriptor tuple to a float, computed on first use
    and kept; no entry calls a quadrature.  The verify-integrals rows
    check the Beta moments and the tails against the half-line rule.
    """

    n: int
    D: float
    cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"MomentTable needs n >= 3, got n={self.n}")
        if not 1.0 < self.D < math.inf:
            raise DomainError(f"MomentTable needs a finite D > 1, "
                              f"got D={self.D}")
        self.omega = sphere_area(self.n - 1)

    # -- cached primitives ------------------------------------------------
    def _memo(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def I(self, m, alpha):
        return self._memo(("I", float(m), float(alpha)), lambda: I(m, alpha))

    def phi_power(self, k, m):
        return self._memo(("phi", int(k), float(m)),
                          lambda: phi_power(k, m, self.D))

    def phi(self, m):
        return self.phi_power(0, m)

    def phi_hat(self, m):
        return self.phi_power(2, m)

    def phi_tilde(self, m):
        return self.phi_power(4, m)

    # -- separable reductions ---------------------------------------------
    def halfspace_moment(self, a, b, m):
        """int_{R^n_+} x_n^a |xt|^b (|xt|^2+(x_n+D)^2-1)^-m dx, a even, b >= 0.

        The reduction holds for odd b as well: the slice substitution
        r = rho sqrt(t^2-1) never uses the parity of the r power.
        """
        a, b = int(a), int(b)
        if a < 0 or b < 0 or a % 2:
            raise DomainError(
                f"halfspace_moment needs even a >= 0 and b >= 0, got ({a},{b})")
        n = self.n
        if 2.0 * m <= n + a + b:
            raise DomainError(
                f"halfspace_moment diverges: need 2m > n+a+b, got "
                f"m={m}, a={a}, b={b}, n={n}")

        def compute():
            mu = m - 0.5 * (n - 1 + b)
            return self.omega * self.I(m, n - 2 + b) * self.phi_power(a, mu)

        return self._memo(("hs", a, b, float(m)), compute)

    def boundary_moment(self, b, m):
        """int_{R^{n-1}} |xt|^b (|xt|^2+D^2-1)^-m dxt, b even >= 0."""
        b = int(b)
        if b < 0 or b % 2:
            raise DomainError(f"boundary_moment needs even b >= 0, got {b}")
        n = self.n
        if 2.0 * m <= n - 1 + b:
            raise DomainError(
                f"boundary_moment diverges: need 2m > n-1+b, got m={m}, b={b}, n={n}")

        def compute():
            expo = 0.5 * (n - 1 + b) - m
            return self.omega * ((self.D - 1.0) * (self.D + 1.0)) ** expo \
                * self.I(m, n - 2 + b)

        return self._memo(("bd", b, float(m)), compute)


# The exp-sinh rule of `_de_quadrant` and `integrate_halfline` (Takahasi
# and Mori, "Double exponential formulas for numerical integration",
# Publ. RIMS 9, 1974): x = L exp(pi/2 sinh t) on |t| <= T, so the nodes
# run from L e^-42.9 to L e^42.9 and algebraic tails decay
# double-exponentially in t.
_DE_T = 4.0
_DE_H0 = 0.25       # step of level 0; each level halves it
_DE_LEVELS = 6      # levels 0..5 of the tensor rule, h = 1/4 .. 1/128
_DE_LINE_LEVELS = 8  # levels 0..7 of the half-line rule, h = 1/4 .. 1/512
_DE_BLOCK = 2048    # nodes per call of the integrand
_COLUMN = (np.zeros(1), np.ones(1))  # the half-line rule's x_n = 0, weight 1


def _check(rel_tol, scale, count):
    """Refuse a tolerance, a length or a family size the rule cannot use."""
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must be a finite number in (0, 1), "
                          f"got {rel_tol}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"scale must be finite and positive, got {scale}")
    if not (isinstance(count, int) and count >= 1):
        raise DomainError(f"count must be a positive integer, got {count}")


def _exp_sinh(h, scale):
    """Nodes x(t) = L exp(pi/2 sinh t) and dx/dt at t = k h, |t| <= T.

    L = ``scale`` is the integrand's own length: the nodes cluster
    around x = L, and a function of x/L sees the same nodes at every L.
    """
    k = round(_DE_T / h)
    t = h * np.arange(-k, k + 1)
    x = scale * np.exp(0.5 * math.pi * np.sinh(t))
    return x, 0.5 * math.pi * np.cosh(t) * x


def _de_nodes(scale, line):
    """The levels of one exp-sinh rule: (level, h, h^d, added, edge).

    A block (rows, row weights, columns, column weights) stands for the
    tensor product of its rows and columns.  Level l has the step
    h = 2^-l / 4; ``added`` holds the blocks it adds to the sum of level
    l-1 (every node at level 0), and ``edge()`` builds those of the edge
    check, the nodes at |t| = T, which only a level where some member
    stops reads.  The tensor rule on [0, inf)^2 (d = 2, `_DE_LEVELS`
    levels) adds the new rows against every column and the old rows
    against the new columns, and its edge is the end rows against every
    column and the inner rows against the end columns.  The half-line
    rule (``line``; d = 1, `_DE_LINE_LEVELS` levels) sums its nodes as
    rows against the one-node column x_n = 0 of weight 1, and its edge
    is the two end nodes.
    """
    old = slice(0, None, 2)
    for level in range(_DE_LINE_LEVELS if line else _DE_LEVELS):
        h = _DE_H0 * 0.5 ** level
        x, w = _exp_sinh(h, scale)
        new = slice(None) if level == 0 else slice(1, None, 2)
        edge = functools.partial(_de_edge, x, w, line)
        if line:
            yield level, h, h, [(x[new], w[new], *_COLUMN)], edge
            continue
        added = [(x[new], w[new], x, w)]
        if level:
            added.append((x[old], w[old], x[new], w[new]))
        yield level, h, h * h, added, edge


def _de_edge(x, w, line):
    """The edge blocks of one level of `_de_nodes`, on its nodes x, w."""
    ends, inner = [0, -1], slice(1, -1)
    if line:
        return [(x[ends], w[ends], *_COLUMN)]
    return [(x[ends], w[ends], x, w), (x[inner], w[inner], x[ends], w[ends])]


def _label(k, count):
    """How a message names member k: not at all in a family of one."""
    return "" if count == 1 else f" (member {k})"


def _de_loop(F, rel_tol, scale, count, origin=None):
    """The level loop of both exp-sinh rules, whose nodes `_de_nodes` gives.

    ``origin`` None is the tensor rule of `_de_quadrant`, whose
    arguments and value these are; a number a is the half-line rule of
    `integrate_halfline` on [a, inf), whose F gets the offsets x of the
    nodes y = a + x and ignores its x_n.

    Each member of ``which``, the members still running, sums its own
    blocks from 0.0 in block order, so its total does not depend on the
    others; it leaves at the level where two levels agree to
    ``rel_tol``, after its edge check there.
    """
    _check(rel_tol, scale, count)
    line = origin is not None
    rule = "half-line quadrature" if line else "double-exponential quadrature"

    def size(r, xn, which):
        return [np.abs(v) for v in F(r, xn, which)]

    def total(H, blocks, which):
        # sum_ij wr_i wc_j H_k(xr_i, xc_j) over the blocks for each
        # member k of which, about _DE_BLOCK nodes per call of H
        sums = [0.0] * len(which)
        for xr, wr, xc, wc in blocks:
            part = [0.0] * len(which)
            rows = max(1, _DE_BLOCK // len(xc))
            for i in range(0, len(xr), rows):
                r, wb = xr[i:i + rows, None], wr[i:i + rows]
                shape = (len(r), len(xc))
                got = zip(which, H(r, xc[None, :], which), strict=True)
                for j, (k, vals) in enumerate(got):
                    if np.shape(vals) != shape:
                        vals = np.broadcast_to(vals, shape)
                    if not np.isfinite(vals).all():
                        p, q = np.argwhere(~np.isfinite(vals))[0]
                        at = f"y = {origin + r[p, 0]:.6e}" if line else \
                            f"(r, x_n) = ({r[p, 0]:.6e}, {xc[q]:.6e})"
                        raise NonConvergence(
                            f"{rule}{_label(k, count)}: integrand is "
                            f"{vals[p, q]} at {at}")
                    part[j] += float(wb @ vals @ wc)
            sums = [s + p for s, p in zip(sums, part)]
        return sums

    which = list(range(count))
    raw = [0.0] * count
    value = [math.nan] * count
    prev = list(value)
    for level, h, hd, added, edge in _de_nodes(scale, line):
        for k, s in zip(which, total(F, added, which)):
            raw[k] += s
            prev[k], value[k] = value[k], hd * raw[k]
        done = [k for k in which
                if abs(value[k] - prev[k]) <= rel_tol * abs(value[k])]
        for k, s in zip(done, total(size, edge(), done) if done else ()):
            if hd * s > rel_tol * abs(value[k]):
                ends = "nodes" if line else "rows and columns"
                raise NonConvergence(
                    f"{rule}{_label(k, count)} truncated at |t| = "
                    f"{_DE_T:g}: edge {ends} carry {hd * s:.3e} of "
                    f"{value[k]:.6e}")
        which = [k for k in which if k not in done]
        if not which:
            return value
    k = which[0]
    raise NonConvergence(
        f"{rule}{_label(k, count)} stalled at level {level} "
        f"(h = 1/{round(1.0 / h)}): levels differ by "
        f"{abs(value[k] - prev[k]):.3e} (value={value[k]:.6e})")


def _de_quadrant(F, rel_tol, scale, *, count):
    """int_0^inf int_0^inf F_k(r, x_n) dr dx_n, k < ``count``, by the
    tensor exp-sinh rule, as a list of ``count`` values.

    ``F`` is a batch family: ``F(r, x_n, which)`` gets a column of r
    nodes, a row of x_n nodes and the indices of the members still
    running, and returns one broadcast grid of values per member, in
    that order.  ``scale`` is the length L of F in both variables: the
    nodes on each axis are L exp(pi/2 sinh t).  Level l uses the step
    h = 2^-l / 4 and evaluates only the nodes level l-1 lacks; the step
    halves until two levels agree to ``rel_tol``, through the level loop
    `_de_loop` it shares with `integrate_halfline`.  Raises NonConvergence when the
    last level (h = 1/128) still disagrees, when the edge rows and
    columns (|t| = T) carry more than ``rel_tol`` of the sum, or when F
    is not finite at some node: nothing is zeroed.

    The members share one node set, and a member leaves the family at
    the level where it converges, after its edge check there.  Each
    member keeps its own level test, stop level, edge check,
    non-finite check and block-by-block sums, so its value is bit for
    bit the one a family of that member alone returns; an error names
    the member unless ``count`` is 1.
    """
    return _de_loop(F, rel_tol, scale, count)


def integrate_halfline(f, a=0.0, rel_tol=1e-10, scale=1.0):
    """int_a^inf f(y) dy by the exp-sinh rule of `_de_quadrant` in one variable.

    ``f`` is a batch integrand: it maps an array of y nodes to their
    values.  The nodes are y = a + x, with x those of `_de_quadrant` at
    length ``scale``, so the rule never samples y = a or y = inf; they
    go through the level loop of `_de_quadrant`, `_de_loop`, as rows
    against a one-node column (x_n = 0, weight 1).  The step halves
    from 1/4 to 1/512 until two levels agree to ``rel_tol``.  Raises
    NonConvergence when the last level still disagrees, when the two
    edge nodes (|t| = T) carry more than ``rel_tol`` of the sum, or
    when f is not finite at some node y.
    """
    return _de_loop(lambda x, _, which: [f(a + x)], rel_tol, scale, 1, a)[0]


_PROBES = np.array([(0.7, 0.3), (1.3, 1.7), (0.2, 2.6)])


def brute_halfspace(f, n, rel_tol=1e-8, scale=1.0, *, count):
    """2-D oracle for half-space integrals of functions of (|xt|, x_n).

    ``f`` is a batch point family of ``count`` members: ``f(X, which)``
    maps an array X of shape (..., n), with x_n = X[..., -1] >= 0, to
    one array of values of shape (...) per member index in ``which``,
    as `Bubble.U` does for one integrand.  The oracle evaluates f only
    on the antipodal slices xt = +/- r e_1, both in one call on a
    stacked (2, ..., n) batch, averages them, which removes any part odd
    in xt, and integrates omega * g_k(r, x_n) r^{n-2} over [0, inf)^2
    in one pass of the tensor exp-sinh rule of `_de_quadrant` at length
    ``scale``; it returns the list of ``count`` values.  It never sees
    a factorised form and shares no closed form with `MomentTable`.
    When a member's even part along e_1 differs from the one along a
    diagonal at probe points (at ``scale`` times `_PROBES`), it is not a
    function of (|xt|, x_n); a warning says so and the e_1 slice is
    integrated.  Each value, warning and error is the member's own, bit
    for bit as in a family of one, and names the member unless
    ``count`` is 1.
    """
    if n < 3:
        raise DomainError(f"brute_halfspace needs n >= 3, got n={n}")
    _check(rel_tol, scale, count)

    def even(r, xn, direction, which):
        shape = np.broadcast_shapes(np.shape(r), np.shape(xn))
        X = np.zeros((2,) + shape + (n,))
        X[..., -1] = xn
        X[0, ..., :2] = np.multiply.outer(r, direction)
        X[1, ..., :2] = -X[0, ..., :2]
        return [0.5 * (both[0] + both[1])
                for both in (np.asarray(v, dtype=float) for v in f(X, which))]

    r, xn = scale * _PROBES.T
    every = list(range(count))
    diagonal = even(r, xn, (math.sqrt(0.5),) * 2, every)
    for k, on_axis, off in zip(every, even(r, xn, (1.0, 0.0), every),
                               diagonal):
        skew = np.max(np.abs(on_axis - off))
        if skew > 1e-8 * (np.max(np.abs(on_axis)) + 1e-300):
            warnings.warn(
                f"brute_halfspace{_label(k, count)}: integrand is not a "
                "function of (|xt|, x_n); integrating its even part along "
                "xt = r e_1", RuntimeWarning, stacklevel=2)

    power = n - 2

    def quadrant(r, xn, which):
        weight = r ** power
        return [v * weight for v in even(r, xn, (1.0, 0.0), which)]

    omega = sphere_area(n - 1)
    return [omega * v
            for v in _de_quadrant(quadrant, rel_tol, scale, count=count)]
