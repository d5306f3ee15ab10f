"""Green's function of the 5-point discrete Laplacian on the integer lattice.

The fundamental solution ``phi`` satisfies ``A phi = delta`` at the origin,
where ``A`` is the stencil ``4 u(m) - sum of the four nearest neighbours``,
normalised so that phi(0,0) = 0.  Every value has the exact form A + B/pi
with rational A and B.  Two evaluation paths are provided:

* ``GreensTable`` -- phi on the octant |m|_inf <= radius, built in-process
  from the exact stencil recurrence in integer arithmetic and rounded
  correctly to float64; 8-fold symmetry lookup.
* ``phi_asymptotic`` -- large-|m| expansion, certified below 1e-12 absolute
  for |m| > 30 (in practice ~1e-15), evaluated as a polynomial in 1/|m|^2
  and cos(4 theta).

``phi`` dispatches between the radius-30 table and the expansion and is
the evaluator the rest of the package uses.  The radius is fixed: the
expansion is certified only beyond it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .config import DEFAULT_RTABLE

# --- large-|m| expansion -------------------------------------------------
#
# Leading behaviour: phi(m) ~ -(log|m| + gamma + (3/2) log 2)/(2 pi), plus
# lattice corrections that decay in even powers of 1/|m| with 4-fold
# angular harmonics.  The first two corrections are known in closed form;
# the remaining coefficients below were calibrated against exact values
# (rational-recurrence reference, cross-checked with quadrature) on
# 25 <= |m| <= 140, leaving a residual below 1e-14 for all |m| > 30.

_CALIBRATED_TERMS = (
    # (j, k, c): adds c * cos(4 k theta) / |m|^(2 j)
    (3, 0, +3.494225244578508e-06),
    (3, 1, +1.336488489007945e-07),
    (3, 2, +7.247216318397849e-02),
    (3, 3, +7.736650421568794e-02),
    (4, 0, -8.394614694063936e-03),
    (4, 1, -4.551492134053219e-04),
    (4, 2, +1.086487768403497e-01),
    (4, 3, +8.969262227378928e-01),
    (4, 4, +7.980021663830361e-01),
    (5, 0, +6.624255272495874e+00),
    (5, 1, +4.384175339438251e-01),
    (5, 2, -7.547515244503035e-01),
    (5, 3, +2.681004840093951e+00),
    (5, 4, +1.860347898068536e+01),
    (5, 5, +1.443054801465910e+01),
    (6, 0, -1.719197999485431e+03),
    (6, 1, -1.311651118998188e+02),
    (6, 2, +2.344572738247059e+02),
    (6, 3, +5.479841804574694e+02),
    (6, 4, +3.209532992406770e+02),
    (6, 5, +6.878702660831111e+02),
    (6, 6, +4.537715180314048e+02),
)


def _tail_polynomials() -> list[np.ndarray]:
    """Monomial coefficients (lowest first) of S_j(c), j = 1..6.

    The expansion beyond its logarithmic lead is sum_j S_j(c) / |m|^(2j)
    with c = cos(4 theta), since cos(4 k theta) = T_k(c).  In Chebyshev
    form S_1 = T_1/(24 pi) and S_2 = (18 T_1 + 25 T_2)/(480 pi) are the
    closed-form terms; S_3..S_6 are the calibrated ones.
    """
    cheb = np.zeros((6, 7))
    cheb[0, 1] = 1.0 / (24.0 * np.pi)
    cheb[1, 1] = 18.0 / (480.0 * np.pi)
    cheb[1, 2] = 25.0 / (480.0 * np.pi)
    for j, k, c in _CALIBRATED_TERMS:
        cheb[j - 1, k] = c
    return [
        np.polynomial.chebyshev.cheb2poly(row[: j + 1])
        for j, row in enumerate(cheb, start=1)
    ]


_TAIL_POLYS = _tail_polynomials()
_LOG_LEAD = np.euler_gamma + 1.5 * math.log(2.0)


def phi_asymptotic(m1, m2):
    """Large-|m| expansion of phi.  Vectorized; valid for |m| > 30.

    Accepts scalars or arrays; must not be called with m = 0.  Only
    polynomial arithmetic follows the log: c = cos(4 theta) is
    (x^4 - 6 x^2 y^2 + y^4)/r^4, and both sums run by Horner's rule.
    """
    x = np.asarray(m1, dtype=float)
    y = np.asarray(m2, dtype=float)
    x2 = x * x
    y2 = y * y
    r2 = x2 + y2
    u = 1.0 / r2
    c = (x2 * x2 - 6.0 * x2 * y2 + y2 * y2) * (u * u)
    tail = 0.0
    for coeffs in reversed(_TAIL_POLYS):
        s = coeffs[-1]
        for ck in coeffs[-2::-1]:
            s = s * c + ck
        tail = (tail + s) * u
    out = tail - (0.5 * np.log(r2) + _LOG_LEAD) / (2.0 * np.pi)
    if np.ndim(m1) == 0 and np.ndim(m2) == 0:
        return float(out)
    return out


# --- precomputed table ---------------------------------------------------
#
# Write phi(n, k) = a/4 + b/(L pi) with L = lcm(1, 3, ..., 2R - 1).  The
# seeds phi(1, 0) = -1/4 and the diagonal closed form
#
#     phi(n, n) = -(1/pi) * sum_{k=1..n} 1/(2k - 1)
#
# make a and b integers, and the stencil recurrence combines them with
# integer weights, so the whole octant is exact in Python ints.  Each
# entry is then one correctly rounded int division against a rational pi.

# Bits of pi beyond the size of the largest |b|: the error that the rational
# pi puts on an entry stays below 2**-128, far under its last place
# (|phi| >= 1/4 off the origin).
_PI_GUARD_BITS = 128


def _pi_scaled(bits: int) -> int:
    """pi * 2**bits to within a few units, by Machin's formula in integers:
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    guard = 32
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> int:
        power = total = one // x
        n = 1
        while power:
            power //= x * x
            term = power // (2 * n + 1)
            total += -term if n % 2 else term
            n += 1
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> guard


def _octant_exact(radius: int) -> tuple[int, list[int], list[int]]:
    """(L, a, b) with phi(n, k) = a/4 + b/(L pi), flat in table order.

    Works column by column in n.  The stencil identity at (n-1, k)
    expresses phi(n, k) from columns n-1 and n-2; symmetry across the axis
    and the diagonal closes the boundary cases, and the diagonal entry
    comes from the closed form.
    """
    lcm = math.lcm(*range(1, 2 * radius, 2))
    cols = [([0], [0])]
    if radius >= 1:
        cols.append(([-1, 0], [0, -lcm]))
    diag = -lcm
    for n in range(2, radius + 1):
        (pa, pb), (qa, qb) = cols[n - 1], cols[n - 2]
        a = [0] * (n + 1)
        b = [0] * (n + 1)
        # Stencil at (n-1, 0): its neighbours (n-1, +-1) coincide.
        a[0] = 4 * pa[0] - qa[0] - 2 * pa[1]
        b[0] = 4 * pb[0] - qb[0] - 2 * pb[1]
        for k in range(1, n - 1):
            a[k] = 4 * pa[k] - qa[k] - pa[k + 1] - pa[k - 1]
            b[k] = 4 * pb[k] - qb[k] - pb[k + 1] - pb[k - 1]
        # Stencil at (n-1, n-1): its neighbours (n, n-1) and (n-1, n)
        # coincide, as do (n-2, n-1) and (n-1, n-2).
        a[n - 1] = 2 * pa[n - 1] - pa[n - 2]
        b[n - 1] = 2 * pb[n - 1] - pb[n - 2]
        diag -= lcm // (2 * n - 1)
        b[n] = diag
        cols.append((a, b))
    return (
        lcm,
        [v for a, _ in cols for v in a],
        [v for _, b in cols for v in b],
    )


def _round_octant(lcm: int, a: list[int], b: list[int], pi_bits: int) -> np.ndarray:
    """float64 of a/4 + b/(L pi) with pi = P/2**pi_bits:
    (a L P + 4 b 2**pi_bits) / (4 L P), one correctly rounded division."""
    p = _pi_scaled(pi_bits)
    q = 1 << pi_bits
    den = 4 * lcm * p
    return np.array([(ai * lcm * p + 4 * bi * q) / den for ai, bi in zip(a, b)])


def _pi_bits(b: list[int]) -> int:
    return max(map(abs, b)).bit_length() + _PI_GUARD_BITS


class GreensTable:
    """phi on the square |m|_inf <= radius, stored as one octant.

    Symmetry: phi is invariant under sign flips and coordinate swap, so
    only 0 <= m2 <= m1 <= radius is stored, as a flat triangle array with
    index m1(m1+1)/2 + m2.
    """

    def __init__(self, radius: int, octant: np.ndarray):
        expected = (radius + 1) * (radius + 2) // 2
        if octant.shape != (expected,):
            raise ValueError(f"octant length {octant.shape} != {expected}")
        self.radius = int(radius)
        self.octant = np.asarray(octant, dtype=np.float64)
        self._grid = None

    @classmethod
    def build(cls, radius: int = DEFAULT_RTABLE) -> "GreensTable":
        """Exact octant, every entry the correctly rounded double."""
        if radius < 0:
            raise ValueError(f"table radius must be >= 0, got {radius}")
        lcm, a, b = _octant_exact(radius)
        return cls(radius, _round_octant(lcm, a, b, _pi_bits(b)))

    def lookup(self, m1, m2):
        """Vectorized phi for points with |m|_inf <= radius."""
        ax = np.abs(np.asarray(m1, dtype=np.int64))
        ay = np.abs(np.asarray(m2, dtype=np.int64))
        hi = np.maximum(ax, ay)
        lo = np.minimum(ax, ay)
        # lo < 0 only where |-2**63| wrapped negative in int64.
        if np.any((hi > self.radius) | (lo < 0)):
            raise ValueError("point outside table radius")
        return self.octant[hi * (hi + 1) // 2 + lo]

    def dense_grid(self) -> np.ndarray:
        """Full (2R+1)^2 grid of phi values, index [m1+R, m2+R].  Cached."""
        if self._grid is None:
            r = self.radius
            m = np.arange(-r, r + 1)
            self._grid = self.lookup(m[:, None], m[None, :])
        return self._grid


_table: GreensTable | None = None


def default_table() -> GreensTable:
    """The table ``phi`` reads, of radius ``DEFAULT_RTABLE``; built in-process
    on first use."""
    global _table
    if _table is None:
        _table = GreensTable.build(DEFAULT_RTABLE)
    return _table


def phi(m1, m2):
    """phi(m) for arbitrary lattice points; scalar or vectorized.

    Points with |m|_inf <= DEFAULT_RTABLE use the table.  The rest use the
    asymptotic expansion: their Euclidean norm exceeds 30, so it is always
    in its certified range.  Raises ValueError for a coordinate outside
    int64.
    """
    try:
        x = np.asarray(m1, dtype=np.int64)
        y = np.asarray(m2, dtype=np.int64)
    except OverflowError:
        raise ValueError("lattice coordinates must fit in int64") from None
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(x, y)
    table = default_table()
    # As uint64, |-2**63| is 2**63; as int64 it wraps negative.
    # One expression, so no temporary outlives it (phi runs in memory-capped
    # kernel blocks).
    near = (
        np.maximum(np.abs(x).view(np.uint64), np.abs(y).view(np.uint64))
        <= table.radius
    )
    out = np.empty(x.shape, dtype=np.float64)
    if np.any(near):
        out[near] = table.lookup(x[near], y[near])
    far = ~near
    if np.any(far):
        out[far] = phi_asymptotic(x[far], y[far])
    return float(out[()]) if scalar else out


def apply_discrete_laplacian(u, m) -> float:
    """[A u](m) = 4 u(m) - u(m +- e1) - u(m +- e2).

    ``u`` is either a mapping keyed by (m1, m2) tuples or a callable
    taking one (m1, m2) pair.
    """
    m1, m2 = int(m[0]), int(m[1])
    if isinstance(u, Mapping):
        get = lambda p: u[p]
    else:
        get = u
    return 4.0 * get((m1, m2)) - (
        get((m1 + 1, m2))
        + get((m1 - 1, m2))
        + get((m1, m2 + 1))
        + get((m1, m2 - 1))
    )
