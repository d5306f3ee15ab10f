"""Independent reference evaluators of the lattice Green's function.

* ``phi_quadrature`` -- adaptive panel quadrature of the Fourier integral

      phi(m) = 1/(4 pi^2) * int_{[-pi,pi]^2} (cos(t.m) - 1) / sigma(t) dt,
      sigma(t) = 4 sin^2(t1/2) + 4 sin^2(t2/2),

  accurate to ~1e-15 absolute (correctly rounded for |m|_inf <= 8).  It
  shares no code with the package's exact recurrence, so it checks both the
  table and the asymptotic expansion from outside.
* ``phi_asymptotic_trig`` -- the large-|m| expansion written with arctan2
  and cos, from its own copy of the exact terms, as a gate for the
  package's polynomial form.
* ``phi_asymptotic_whole`` -- the package's polynomial form evaluated on
  whole arrays, one expression per step, as the bitwise reference for its
  blocked in-place evaluation.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

_GAUSS_ORDER = 20

# For |m|_inf below this cutoff the quadrature runs in extended precision
# with a 28-point rule, which lands every value on the correctly rounded
# double (so the 16-significant-digit prints match the closed forms, e.g.
# phi(1,1) = -0.3183098861837907).  float64 Gauss nodes alone put a ~2e-16
# relative floor under any rule, hence the longdouble node polish below.
_SMALL_M_MAX = 8
_GAUSS_ORDER_SMALL = 28
_PI_LONG = np.longdouble("3.141592653589793238462643383279502884197")


@lru_cache(maxsize=None)
def _gauss_rule(order: int = _GAUSS_ORDER):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _gauss_rule_longdouble(order: int = _GAUSS_ORDER_SMALL):
    """Gauss-Legendre rule with nodes polished to longdouble accuracy.

    Newton steps on P_n pull the float64 seed nodes onto the extended-
    precision roots; weights then follow from 2/((1-x^2) P_n'(x)^2).
    """
    x = np.polynomial.legendre.leggauss(order)[0].astype(np.longdouble)
    for _ in range(3):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = order * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def _integrand(t1, t2, m1: int, m2: int):
    # Cancellation-free form of (cos(t.m) - 1)/sigma(t): the numerator is
    # written as -2 sin^2((t.m)/2) so small-|t| values lose no precision.
    num = -2.0 * np.sin(0.5 * (t1 * m1 + t2 * m2)) ** 2
    den = 4.0 * np.sin(0.5 * t1) ** 2 + 4.0 * np.sin(0.5 * t2) ** 2
    return num / den


@lru_cache(maxsize=64)
def _offcenter_panels(n: int):
    """Tensor Gauss nodes/weights for the n*n panel grid minus the centre panel.

    n must be odd so a single panel straddles the origin; that panel is
    integrated separately (the integrand is merely continuous there, not
    smooth).  Returns flattened arrays (T1, T2, W).
    """
    x, w = _gauss_rule()
    a = np.pi / n
    centers = -np.pi + a * (2 * np.arange(n) + 1)
    mid = (n - 1) // 2
    t1 = []
    t2 = []
    ww = []
    nodes = a * x
    w2d = a * a * np.outer(w, w).ravel()
    g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
    g1 = g1.ravel()
    g2 = g2.ravel()
    for i in range(n):
        for j in range(n):
            if i == mid and j == mid:
                continue
            t1.append(centers[i] + g1)
            t2.append(centers[j] + g2)
            ww.append(w2d)
    return np.concatenate(t1), np.concatenate(t2), np.concatenate(ww)


def _rect_quad(lo1, hi1, lo2, hi2, m1, m2, rule=None):
    x, w = rule if rule is not None else _gauss_rule()
    c1 = 0.5 * (lo1 + hi1)
    h1 = 0.5 * (hi1 - lo1)
    c2 = 0.5 * (lo2 + hi2)
    h2 = 0.5 * (hi2 - lo2)
    t1 = c1 + h1 * x
    t2 = c2 + h2 * x
    vals = _integrand(t1[:, None], t2[None, :], m1, m2)
    return h1 * h2 * (w @ vals @ w)


def _center_panel(a, m1: int, m2: int, rule=None, stop=1e-15, max_annuli=25):
    """Integral over the origin panel [-a,a]^2 by telescoping annuli.

    The square is split into dyadic annuli Omega_k = [-b,b]^2 \\ [-b/2,b/2]^2
    with b = a 2^-k, each covered by 8 rectangles on which the integrand is
    smooth.  The annulus contributions decay geometrically with ratio ~1/4
    (the integrand is bounded, the area shrinks 4x), so one Richardson step
    S_k + tau_k/3 estimates the limit; iteration stops once that estimate
    settles below ``stop``.  Arithmetic follows the dtype of ``a``.
    """
    partial = 0 * a
    prev = None
    for k in range(max_annuli):
        b = a * 0.5**k
        hh = 0.5 * b
        rects = (
            (-hh, hh, hh, b),
            (-hh, hh, -b, -hh),
            (-b, -hh, -hh, hh),
            (hh, b, -hh, hh),
            (hh, b, hh, b),
            (-b, -hh, hh, b),
            (-b, -hh, -b, -hh),
            (hh, b, -b, -hh),
        )
        tau = sum(_rect_quad(*r, m1, m2, rule=rule) for r in rects)
        partial = partial + tau
        acc = partial + tau / 3.0
        if prev is not None and abs(acc - prev) < stop:
            return acc
        prev = acc
    return acc


def _phi_quadrature_small(m1: int, m2: int, n: int) -> float:
    # Extended-precision twin of the float64 path in phi_quadrature; the
    # panel count n is tiny here, so plain loops are cheap.
    rule = _gauss_rule_longdouble()
    a = _PI_LONG / n
    if n == 1:
        off = np.longdouble(0.0)
    else:
        centers = -_PI_LONG + a * (2 * np.arange(n, dtype=np.longdouble) + 1)
        mid = (n - 1) // 2
        off = np.longdouble(0.0)
        for i in range(n):
            for j in range(n):
                if i == mid and j == mid:
                    continue
                off += _rect_quad(
                    centers[i] - a, centers[i] + a,
                    centers[j] - a, centers[j] + a,
                    m1, m2, rule=rule,
                )
    ctr = _center_panel(
        a, m1, m2, rule=rule, stop=np.longdouble("1e-19"), max_annuli=40
    )
    return float((off + ctr) / (4.0 * _PI_LONG * _PI_LONG))


def phi_quadrature(m1: int, m2: int) -> float:
    """Evaluate phi(m) by direct quadrature of the Fourier integral.

    The oscillation scale of the integrand is 1/|m|, so the domain is cut
    into n*n panels with n odd and >= |m|; 20-point tensor Gauss then
    resolves each panel to machine precision.  Values with |m|_inf <= 8
    take the extended-precision path and come back correctly rounded.
    """
    m1 = int(m1)
    m2 = int(m2)
    if m1 == 0 and m2 == 0:
        return 0.0
    n = max(math.ceil(math.hypot(m1, m2)), 1)
    if n % 2 == 0:
        n += 1
    if max(abs(m1), abs(m2)) <= _SMALL_M_MAX:
        return _phi_quadrature_small(m1, m2, n)
    t1, t2, w = _offcenter_panels(n)
    off = float(w @ _integrand(t1, t2, m1, m2))
    ctr = _center_panel(np.pi / n, m1, m2)
    return float(off + ctr) / (4.0 * np.pi**2)


# The expansion's terms, kept here apart from the package's copy:
# (j, k, c) adds (c / pi) * cos(4 k theta) / |m|^(2 j).
_TRIG_TERMS = (
    (1, 1, Fraction(1, 24)),
    (2, 1, Fraction(3, 80)),
    (2, 2, Fraction(5, 96)),
    (3, 2, Fraction(51, 224)),
    (3, 3, Fraction(35, 144)),
    (4, 2, Fraction(217, 640)),
    (4, 3, Fraction(45, 16)),
    (4, 4, Fraction(1925, 768)),
)


def phi_asymptotic_trig(m1, m2):
    """The expansion through 1/|m|^8 in its trigonometric form: the angle
    from arctan2 and each harmonic cos(4 k theta) from cos."""
    x = np.asarray(m1, dtype=float)
    y = np.asarray(m2, dtype=float)
    r2 = x * x + y * y
    out = -(0.5 * np.log(r2) + np.euler_gamma + 1.5 * math.log(2.0)) / (2.0 * np.pi)
    theta = np.arctan2(y, x)
    for j, k, c in _TRIG_TERMS:
        out = out + float(c) * np.cos(4.0 * k * theta) / (np.pi * r2**j)
    if np.ndim(m1) == 0 and np.ndim(m2) == 0:
        return float(out)
    return out


def phi_asymptotic_whole(m1, m2, polys, log_lead):
    """The polynomial form of the expansion on whole arrays: ``polys`` are
    the monomial coefficients of S_1..S_4 in c = cos(4 theta) and
    ``log_lead`` is gamma + (3/2) log 2."""
    x = np.asarray(m1, dtype=float)
    y = np.asarray(m2, dtype=float)
    x2 = x * x
    y2 = y * y
    r2 = x2 + y2
    u = 1.0 / r2
    c = (x2 * x2 - 6.0 * x2 * y2 + y2 * y2) * (u * u)
    tail = 0.0
    for coeffs in reversed(polys):
        s = coeffs[-1]
        for ck in coeffs[-2::-1]:
            s = s * c + ck
        tail = (tail + s) * u
    return tail - (0.5 * np.log(r2) + log_lead) / (2.0 * np.pi)
