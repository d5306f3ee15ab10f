"""Defaults and accepted ranges of the package's settings.

Each default is defined here once; the library's keyword arguments and
the CLI's flags take it from here, and ``fmm_apply``, ``solve_defect``
and the CLI validate what they are given with the checks below.
"""

from __future__ import annotations

import numbers

import numpy as np

DEFAULT_EPS = 1e-10
DEFAULT_NLEAF = 64
# Relative residual of the defect solver's bar system.
DEFAULT_TOL = 1e-8
# Radius of the exact Green table (``default_table``): phi takes its values
# for |m|_inf <= 64 and the asymptotic expansion's through S_4 beyond,
# gathered out to ``green.OCTANT_RADIUS`` from one octant that continues
# the table with the expansion's values.  Against the exact table of
# radius 400 that expansion is off by at most 431 ulp for |m|_inf in
# 31-40, 26 ulp in 41-48, 5 ulp in 49-64 and 2 ulp at every point with
# 64 < |m|_inf <= 400.  Radius 64 thus keeps every phi within 2 ulp; the
# exact build takes ~6 ms.
DEFAULT_RTABLE = 64
DEFAULT_SEED = 0

# Open interval of accepted accuracy targets, for fmm_apply and the CLI.
EPS_RANGE = (1e-14, 1e-2)


def check_eps(eps: float) -> None:
    lo, hi = EPS_RANGE
    if not lo < eps < hi:
        raise ValueError(f"eps must lie in ({lo:g}, {hi:g}), got {eps}")


def check_nleaf(nleaf) -> int:
    """``nleaf`` as an int; ValueError unless it is an integer >= 1."""
    if isinstance(nleaf, bool) or not isinstance(nleaf, numbers.Integral) or nleaf < 1:
        raise ValueError(f"nleaf must be an integer >= 1, got {nleaf!r}")
    return int(nleaf)


# Largest accepted sum |q|.  |phi| stays below 4 on a 2**31 extent, so
# every potential is below 4 sum |q|; 2**1000 leaves 2**24 of headroom
# below float64's overflow for that and for the expansions' coefficients.
MAX_CHARGE_L1 = 2.0**1000


def check_charges(charges, n: int) -> np.ndarray:
    """``charges`` as float64, under the contract ``fmm_apply`` and
    ``direct_sum`` share: real numbers, a 1-D array of length n, finite,
    and sum |q| <= ``MAX_CHARGE_L1``, so no potential overflows.
    ValueError otherwise."""
    raw = np.asarray(charges)
    if raw.dtype.kind == "c":
        raise ValueError("charges must be real, not complex")
    try:
        q = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("charges must be real numbers") from None
    if q.ndim != 1 or q.shape[0] != n:
        raise ValueError(f"charges must be a 1-D array of length {n}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("charges must be finite")
    with np.errstate(over="ignore"):
        total = np.abs(q).sum()
    if not total <= MAX_CHARGE_L1:
        raise ValueError(f"charges too large: sum of |q| is {total:.3g}, above 2**1000")
    return q
