"""Green's function of the 5-point discrete Laplacian on the integer lattice.

The fundamental solution ``phi`` satisfies ``A phi = delta`` at the origin,
where ``A`` is the stencil ``4 u(m) - sum of the four nearest neighbours``,
normalised so that phi(0,0) = 0.  Every value has the exact form A + B/pi
with rational A and B.  Two evaluation paths are provided:

* ``GreensTable`` -- phi on the octant |m|_inf <= radius, built in-process
  from the exact stencil recurrence in integer arithmetic and rounded
  correctly to float64; 8-fold symmetry lookup.
* ``phi_asymptotic`` -- the large-|m| expansion with its exact terms
  S_1..S_4, evaluated as a polynomial in 1/|m|^2 and cos(4 theta).  It is
  certified below 1e-12 absolute for |m| > 30, and within 2 ulp of the
  exact values for |m|_inf > 64.

``phi`` is the evaluator the rest of the package uses, on single points,
point pairs and broadcast boxes of displacements alike.  It reads the
exact radius-64 table where |m|_inf <= 64 and the expansion beyond, so
every value it returns is within 2 ulp of the exact one.  Out to
|m|_inf = ``OCTANT_RADIUS`` it gathers both from one octant: the exact
table, extended by the expansion's own values at (|m|_inf, min |m|),
which the expansion gives bit for bit at every sign and order of m.  The
extension is filled on the first block of ``phi`` that reads it, so it
changes no value.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .config import DEFAULT_RTABLE

def lattice_points(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError unless every coordinate is
    an integer that fits in int64 (so NaN, inf, 0.5, 2**63 and 2**64 are
    rejected, not truncated or wrapped).  Signed integer input is only
    widened, with no pass over the values."""
    raw = np.asarray(values)
    if raw.dtype.kind == "i":
        return raw.astype(np.int64, copy=False)
    too_wide = ValueError(f"{what} must have coordinates that fit in int64")
    try:
        with np.errstate(invalid="ignore"):
            pts = raw.astype(np.int64, copy=False)
    except OverflowError:  # Python ints beyond uint64 (an object array)
        raise too_wide from None
    if np.array_equal(pts, raw):
        return pts
    # NaN, inf, 0.5 and integers at or beyond 2**63 (which numpy reads as
    # uint64 or float64) cast to other values.
    if raw.dtype.kind == "u" or (
        raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (raw == np.trunc(raw)))
    ):
        raise too_wide
    raise ValueError(f"{what} must have integer coordinates")


def lattice_targets(targets) -> np.ndarray:
    """``targets`` as an (M, 2) int64 array, from an (M, 2) array or one
    (2,) point; ValueError for any other shape, and as ``lattice_points``."""
    tgt = lattice_points(targets, "targets")
    if tgt.shape == (2,):
        return tgt.reshape(1, 2)
    if tgt.ndim != 2 or tgt.shape[1] != 2:
        raise ValueError(f"targets must be an (M, 2) array or one (2,) point, got shape {tgt.shape}")
    return tgt


# --- large-|m| expansion -------------------------------------------------
#
# Leading behaviour: phi(m) ~ -(log|m| + gamma + (3/2) log 2)/(2 pi), plus
# lattice corrections S_j(c) / |m|^(2j) with 4-fold angular harmonics,
# c = cos(4 theta).  The terms below are exact: rationals over pi in the
# Chebyshev basis T_k(c) = cos(4 k theta), as derived by Martinsson & Rodin
# (Proc. R. Soc. A 458, 2002).  Truncated after S_4, the expansion is within
# 2 ulp of the exact table at every point with 64 < |m|_inf <= 400.

_EXPANSION_TERMS = (
    # (j, k, num, den): adds (num / den / pi) * cos(4 k theta) / |m|^(2 j);
    # num / den is the correctly rounded double of the rational.
    (1, 1, 1, 24),
    (2, 1, 18, 480),
    (2, 2, 25, 480),
    (3, 2, 51, 224),
    (3, 3, 35, 144),
    (4, 2, 217, 640),
    (4, 3, 45, 16),
    (4, 4, 1925, 768),
)


def _tail_polynomials() -> list[np.ndarray]:
    """Monomial coefficients (lowest first) of S_j(c), j = 1..4.

    The expansion beyond its logarithmic lead is sum_j S_j(c) / |m|^(2j)
    with c = cos(4 theta), since cos(4 k theta) = T_k(c).  Each Chebyshev
    series goes to the monomial basis by the recurrence and in the order
    of operations of ``numpy.polynomial.chebyshev.cheb2poly``, so the
    coefficients are its doubles bit for bit.
    """
    orders = max(j for j, _, _, _ in _EXPANSION_TERMS)
    cheb = np.zeros((orders, orders + 1))
    for j, k, num, den in _EXPANSION_TERMS:
        cheb[j - 1, k] = num / den / np.pi
    polys = []
    for j, row in enumerate(cheb, start=1):
        # Before step i the series is sum_{m <= i-2} row[m] T_m + c0 T_{i-1}
        # + c1 T_i; T_i = 2 c T_{i-1} - T_{i-2} folds its top term down.
        # c1's degree stays below j, so np.roll multiplies it by c.
        c0 = np.zeros(j + 1)
        c1 = np.zeros(j + 1)
        c0[0], c1[0] = row[j - 1], row[j]
        for i in range(j, 1, -1):
            c0, c1 = -c1, c0 + 2 * np.roll(c1, 1)
            c0[0] += row[i - 2]
        polys.append(c0 + np.roll(c1, 1))
    return polys


_TAIL_POLYS = _tail_polynomials()
_LOG_LEAD = np.euler_gamma + 1.5 * math.log(2.0)


# Entries per block of ``phi`` and ``phi_asymptotic``.  Each block's
# temporaries, a handful of arrays of its size, stay in cache, and a
# broadcast input is read block by block, never expanded.  Over 2**20
# random entries (one thread, best of 7), blocks of 2048, 4096, 8192 and
# 16384 entries evaluate a far entry in 58-73, 43-45, 32-36 and 36 ns and
# a table entry in 16-19, 10-11, 9-10 and 9-10 ns, against 134 and 64 ns
# for whole-array evaluation: below 8192 the ~40 ufunc calls per block
# dominate.  A 1001 x 1001 box then needs 0.6-0.7 MB of temporaries.
_PHI_BLOCK = 8192


def _blockwise(block, x, y, dtype):
    """``block(xb, yb, ob)`` over 1-D blocks of the broadcast of x and y
    cast to ``dtype``, writing ob into a new C-ordered float64 array,
    which is returned."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)))
    it = np.nditer(
        [x, y, out],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"], ["readonly"], ["writeonly"]],
        op_dtypes=[dtype, dtype, np.float64],
        buffersize=_PHI_BLOCK,
    )
    with it:
        for xb, yb, ob in it:
            block(xb, yb, ob)
    return out


def _asymptotic_block(x, y, out):
    """``phi_asymptotic`` on 1-D float64 blocks, in place, in the order of
    operations of (x^4 - 6 x^2 y^2 + y^4)/r^4 and the two Horner sums."""
    x2 = x * x
    y2 = y * y
    r2 = x2 + y2
    u = np.divide(1.0, r2)
    t = np.empty_like(u)
    c = np.multiply(x2, x2)
    np.multiply(6.0, x2, out=t)
    t *= y2
    c -= t
    np.multiply(y2, y2, out=t)
    c += t
    np.multiply(u, u, out=t)
    c *= t
    tail = np.zeros_like(u)
    s = x2  # x2 and y2 are spent
    for coeffs in reversed(_TAIL_POLYS):
        s.fill(coeffs[-1])
        for ck in coeffs[-2::-1]:
            s *= c
            s += ck
        tail += s
        tail *= u
    np.log(r2, out=t)
    t *= 0.5
    t += _LOG_LEAD
    t /= 2.0 * np.pi
    np.subtract(tail, t, out=out)


def phi_asymptotic(m1, m2):
    """Large-|m| expansion of phi through S_4.  Vectorized; error below
    1e-12 for |m| > 30 and within 2 ulp for |m|_inf > 64.

    Accepts scalars or arrays; must not be called with m = 0.  Only
    polynomial arithmetic follows the log: c = cos(4 theta) is
    (x^4 - 6 x^2 y^2 + y^4)/r^4, and both sums run by Horner's rule
    (10 steps in c, 4 in 1/r^2).  Evaluated in blocks of ``_PHI_BLOCK``
    entries.
    """
    out = _blockwise(_asymptotic_block, np.asarray(m1, dtype=float), np.asarray(m2, dtype=float), np.float64)
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

    @classmethod
    def build(cls, radius: int = DEFAULT_RTABLE) -> "GreensTable":
        """Exact octant, every entry the correctly rounded double."""
        if radius < 0:
            raise ValueError(f"table radius must be >= 0, got {radius}")
        lcm, a, b = _octant_exact(radius)
        return cls(radius, _round_octant(lcm, a, b, _pi_bits(b)))

    def lookup(self, m1, m2):
        """Vectorized phi for points with |m|_inf <= radius."""
        x, y = np.broadcast_arrays(np.asarray(m1, dtype=np.int64), np.asarray(m2, dtype=np.int64))
        near, idx = _octant_index(x.ravel(), y.ravel(), self.radius)
        if not near.all():
            raise ValueError("point outside table radius")
        return self.octant[idx.reshape(x.shape)]


def _octant_index(x, y, radius: int):
    """(near, idx) for 1-D int64 blocks: near where |m|_inf <= radius, and
    idx the octant index hi (hi + 1) / 2 + lo of |m|, which only near
    entries use (``np.take(..., mode="clip")`` keeps the rest in range);
    idx is None when the blocks hold entries and none is near."""
    # As uint64, |-2**63| is 2**63; as int64 it wraps negative.
    ax = np.abs(x).view(np.uint64)
    ay = np.abs(y).view(np.uint64)
    hi = np.maximum(ax, ay)
    near = hi <= radius
    if not near.any() and near.size:
        return near, None
    lo = np.minimum(ax, ay, out=ax)
    np.add(hi, 1, out=ay)
    hi *= ay
    hi >>= 1
    hi += lo
    return near, hi.view(np.int64)


_table: GreensTable | None = None


def default_table() -> GreensTable:
    """The exact table ``phi`` reads, of radius ``DEFAULT_RTABLE``; built
    in-process on first use."""
    global _table
    if _table is None:
        _table = GreensTable.build(DEFAULT_RTABLE)
    return _table


# Radius of the octant ``phi`` gathers from: a leaf of the FMM's tree
# holds at most 16 points once its side passes 8, and on 16384 uniform
# points on 16384^2 (the benchmark's ``random``) the leaves have side 256,
# so every near-field displacement, at most 2 * 256 - 1 per axis, is one
# gather rather than an expansion entry (9-10 ns against 32-36 ns per
# entry, see ``_PHI_BLOCK``): the near field of a warm call there fell
# from 19.7 to 12.7 ms (2 cores, medians of 21 alternating calls in one
# process).  The octant holds 513 * 514 / 2 entries, 1.05 MB, and filling
# all of it past the exact table takes 6-8 ms, so it grows to the radius a
# block reads, doubling from 64: radius 128 takes 0.6 ms and serves the
# operator chain of a 128^2 grid of side-8 leaves.
OCTANT_RADIUS = 512
_OCTANT_SIZE = (OCTANT_RADIUS + 1) * (OCTANT_RADIUS + 2) // 2

_octant: np.ndarray | None = None  # phi's octant; see ``_phi_octant``


def _phi_octant(top: int) -> np.ndarray:
    """phi's octant, grown to hold octant index ``top``: first the exact
    table's, then, past it, with the radius doubled (up to
    ``OCTANT_RADIUS``) until it covers ``top``, each new entry
    ``phi_asymptotic(hi, lo)``."""
    global _octant
    if _octant is None:
        _octant = default_table().octant
    if top >= len(_octant):
        radius = DEFAULT_RTABLE
        while (radius + 1) * (radius + 2) // 2 <= top:
            radius = min(2 * radius, OCTANT_RADIUS)
        hi, lo = np.tril_indices(radius + 1)
        grown = np.empty(len(hi))
        n = len(_octant)
        grown[:n] = _octant
        grown[n:] = phi_asymptotic(hi[n:], lo[n:])
        _octant = grown
    return _octant


def octant_bytes() -> int:
    """Bytes of phi's octant as far as it has grown; 0 before the first
    block of ``phi``."""
    return 0 if _octant is None else _octant.nbytes


def phi(m1, m2):
    """phi(m) for arbitrary lattice points; scalar or vectorized.

    Points with |m|_inf <= DEFAULT_RTABLE (64) take the exact table's
    value, the rest the asymptotic expansion's, which is within 2 ulp of
    the exact value there.  Both are gathered from one octant out to
    |m|_inf = ``OCTANT_RADIUS`` (512), and computed beyond it.  Raises
    ValueError for a non-integer coordinate or one outside int64.
    """
    x = lattice_points(m1, "phi arguments")
    y = lattice_points(m2, "phi arguments")
    out = _blockwise(_phi_block, x, y, np.int64)
    return float(out[()]) if x.ndim == 0 and y.ndim == 0 else out


def _phi_block(x, y, out):
    """``phi`` on 1-D int64 blocks, into ``out``: one gather from the
    octant, then the expansion on the entries beyond it alone."""
    near, idx = _octant_index(x, y, OCTANT_RADIUS)
    if idx is None:
        _asymptotic_block(x.astype(np.float64), y.astype(np.float64), out)
        return
    octant = _octant
    if octant is None or len(octant) < _OCTANT_SIZE:
        octant = _phi_octant(int(idx.max(where=near, initial=0)))
    np.take(octant, idx, out=out, mode="clip")
    if not near.all():
        far = ~near
        vals = np.empty(np.count_nonzero(far))
        _asymptotic_block(x[far].astype(np.float64), y[far].astype(np.float64), vals)
        out[far] = vals


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
