"""Exact rational reference values for the lattice Green's function.

Written independently of the package's integer-scaled table build, as its
bit-for-bit reference: every value phi(m) is of the form A + B/pi with
rational A, B, generated by the five-point stencil recurrence seeded with
the closed-form diagonal

    phi(n, n) = -(1/pi) * sum_{k=1..n} 1/(2k - 1).

Exact Fraction arithmetic propagates the recurrence without error; the
final float conversion uses a 300-digit rational approximation of pi
(Machin's formula), which keeps the conversion correctly rounded even
though A and B themselves grow enormous.
"""

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=1)
def _pi_rational(digits: int = 300) -> Fraction:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239), atan by Taylor partial sums.
    def atan_frac(inv_x: int, terms: int) -> Fraction:
        x = Fraction(1, inv_x)
        total = Fraction(0)
        power = x
        for n in range(terms):
            term = power / (2 * n + 1)
            total += term if n % 2 == 0 else -term
            power *= x * x
        return total

    # 5^-2n decays ~1.4 digits/term; 239^-2n much faster. Overshoot both.
    return 16 * atan_frac(5, digits) - 4 * atan_frac(239, digits // 2 + 8)


def exact_octant(max_coord: int) -> dict[tuple[int, int], float]:
    """phi(m1, m2) for 0 <= m2 <= m1 <= max_coord, correctly rounded floats.

    Works column-by-column in m1.  Within column n (values phi(n, k),
    k = 0..n), the stencil identity at (n-1, k) expresses phi(n, k) from
    columns n-1 and n-2 and the neighbours inside column n-1; symmetry
    across the diagonal and the axis closes the boundary cases.  The
    diagonal entry comes from the closed form above, and the recurrence
    fills downward from it.
    """
    one = Fraction(1)
    cols: list[list[tuple[Fraction, Fraction]]] = []
    # phi(0,0) = 0; phi(1,0) = -1/4; phi(1,1) = -1/pi.
    cols.append([(Fraction(0), Fraction(0))])
    if max_coord >= 1:
        cols.append([(Fraction(-1, 4), Fraction(0)), (Fraction(0), Fraction(-1))])
    for n in range(2, max_coord + 1):
        prev = cols[n - 1]
        prev2 = cols[n - 2]
        col: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))] * (n + 1)
        # Stencil at (n-1, 0): 4 phi(n-1,0) = phi(n,0) + phi(n-2,0) + 2 phi(n-1,1)
        # (delta term only at the origin, never hit for n >= 2).
        a = 4 * prev[0][0] - prev2[0][0] - 2 * prev[1][0]
        b = 4 * prev[0][1] - prev2[0][1] - 2 * prev[1][1]
        col[0] = (a, b)
        for k in range(1, n - 1):
            a = 4 * prev[k][0] - prev2[k][0] - prev[k + 1][0] - prev[k - 1][0]
            b = 4 * prev[k][1] - prev2[k][1] - prev[k + 1][1] - prev[k - 1][1]
            col[k] = (a, b)
        # Stencil at the sub-diagonal point (n-1, n-1): two of its
        # neighbours, (n, n-1) and (n-1, n), coincide by symmetry.
        a = 2 * prev[n - 1][0] - prev[n - 2][0]
        b = 2 * prev[n - 1][1] - prev[n - 2][1]
        col[n - 1] = (a, b)
        # Diagonal closed form phi(n, n).
        b_diag = Fraction(0)
        for k in range(1, n + 1):
            b_diag -= one / (2 * k - 1)
        col[n] = (Fraction(0), b_diag)
        cols.append(col)

    pi = _pi_rational()
    out: dict[tuple[int, int], float] = {}
    for n, col in enumerate(cols):
        for k, (a, b) in enumerate(col):
            out[(n, k)] = float(a + b / pi)
    return out


def exact_phi(m1: int, m2: int, values: dict | None = None) -> float:
    """Single exact value via the octant dict (symmetry-extended)."""
    x, y = abs(int(m1)), abs(int(m2))
    if y > x:
        x, y = y, x
    if values is not None and (x, y) in values:
        return values[(x, y)]
    return exact_octant(x)[(x, y)]
