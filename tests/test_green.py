import math
import os
import subprocess
import sys

import numpy as np
import pytest

import latticefmm
from latticefmm import green
from latticefmm.config import DEFAULT_RTABLE
from latticefmm.green import (
    GreensTable,
    apply_discrete_laplacian,
    phi,
    phi_asymptotic,
)

from exact_reference import exact_octant
from phi_reference import phi_asymptotic_trig, phi_quadrature

# Closed forms forced by the defining equation (stencil + symmetry).
KNOWN_VALUES = [
    ((0, 0), 0.0),
    ((1, 0), -0.25),
    ((0, 1), -0.25),
    ((1, 1), -1.0 / math.pi),
    ((2, 0), 2.0 / math.pi - 1.0),
    ((2, 1), 0.25 - 2.0 / math.pi),
]


@pytest.mark.parametrize("m,expected", KNOWN_VALUES)
def test_quadrature_known_values(m, expected):
    assert phi_quadrature(*m) == pytest.approx(expected, abs=1e-14)


def test_quadrature_diagonal_family():
    # phi(n,n) = -(1/pi) sum_{k<=n} 1/(2k-1)
    acc = 0.0
    for n in range(1, 11):
        acc += 1.0 / (2 * n - 1)
        assert phi_quadrature(n, n) == pytest.approx(-acc / math.pi, abs=1e-14)


def test_quadrature_symmetry():
    for m1, m2 in [(3, 1), (5, 2), (7, 0)]:
        v = phi_quadrature(m1, m2)
        assert phi_quadrature(m2, m1) == pytest.approx(v, abs=1e-15)
        assert phi_quadrature(-m1, m2) == pytest.approx(v, abs=1e-15)
        assert phi_quadrature(m1, -m2) == pytest.approx(v, abs=1e-15)


def test_quadrature_vs_exact_recurrence():
    # Independent reference: exact rational stencil recurrence.
    exact = exact_octant(40)
    pts = [(2, 0), (3, 2), (5, 5), (8, 1), (13, 7), (20, 0), (27, 16), (40, 23)]
    for m1, m2 in pts:
        assert phi_quadrature(m1, m2) == pytest.approx(exact[(m1, m2)], abs=2e-15)


def test_quadrature_correctly_rounded_small_m():
    # the extended-precision path should land on the nearest double
    exact = exact_octant(8)
    for (m1, m2), ref in exact.items():
        got = phi_quadrature(m1, m2)
        assert abs(got - ref) <= math.ulp(abs(ref) or 1.0), (m1, m2)


def test_asymptotic_matches_quadrature_beyond_radius():
    pts = [(31, 0), (31, 14), (25, 25), (40, 9), (33, 33), (45, 0), (44, 21)]
    for m1, m2 in pts:
        r = math.hypot(m1, m2)
        if r <= 30.0:
            continue
        assert phi_asymptotic(m1, m2) == pytest.approx(
            phi_quadrature(m1, m2), abs=1e-13
        )


def test_asymptotic_matches_exact_far_out():
    exact = exact_octant(120)
    for m in [(60, 0), (85, 40), (120, 119), (100, 3)]:
        assert phi_asymptotic(*m) == pytest.approx(exact[m], abs=1e-13)


def test_asymptotic_matches_trig_form():
    # The polynomial form (Chebyshev in cos 4 theta, Horner in 1/r^2)
    # against the arctan2/cos form of the same expansion.
    ax = np.arange(-120, 121)
    x, y = (g.ravel() for g in np.meshgrid(ax, ax, indexing="ij"))
    far = np.hypot(x, y) > 30
    x = np.concatenate([x[far], [10**6, 12345, -98765]])
    y = np.concatenate([y[far], [1, -54321, 4321]])
    gap = np.max(np.abs(phi_asymptotic(x, y) - phi_asymptotic_trig(x, y)))
    assert gap <= 1e-14


def test_asymptotic_vectorized():
    xs = np.array([31, 40, 52])
    ys = np.array([7, -12, 0])
    vec = phi_asymptotic(xs, ys)
    for i in range(3):
        assert vec[i] == pytest.approx(phi_asymptotic(int(xs[i]), int(ys[i])), abs=0)


def test_table_matches_quadrature(table):
    # The quadrature is accurate to ~2e-15 absolute away from small |m|.
    for m1, m2 in [(0, 0), (1, 0), (7, 3), (30, 30), (30, 0), (17, 16)]:
        assert table.lookup(m1, m2) == pytest.approx(
            phi_quadrature(m1, m2), abs=3e-15
        )


@pytest.mark.parametrize("radius", [30, 64])
def test_table_matches_exact_recurrence(radius):
    t = GreensTable.build(radius)
    exact = exact_octant(radius)
    want = [exact[(n, k)] for n in range(radius + 1) for k in range(n + 1)]
    assert t.octant.size == len(want)
    assert t.octant.tolist() == want  # bit for bit


def test_table_pi_precision():
    # Doubling the digits of the rational pi changes no entry.
    lcm, a, b = green._octant_exact(64)
    bits = green._pi_bits(b)
    base = green._round_octant(lcm, a, b, bits)
    assert np.array_equal(green._round_octant(lcm, a, b, 2 * bits), base)
    assert np.array_equal(GreensTable.build(64).octant, base)


def test_table_build_small_and_invalid():
    assert GreensTable.build(0).octant.tolist() == [0.0]
    assert GreensTable.build(1).octant.tolist() == [0.0, -0.25, -1.0 / math.pi]
    with pytest.raises(ValueError, match="radius"):
        GreensTable.build(-1)


def test_table_symmetry_lookup(table):
    v = table.lookup(12, 5)
    for sx in (1, -1):
        for sy in (1, -1):
            assert table.lookup(sx * 12, sy * 5) == v
            assert table.lookup(sx * 5, sy * 12) == v


def test_table_lookup_vectorized_and_bounds(table):
    xs = np.array([-30, 4, 0])
    ys = np.array([2, -4, 30])
    out = table.lookup(xs, ys)
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        table.lookup(31, 0)
    with pytest.raises(ValueError):  # |-2**63| wraps negative in int64
        table.lookup(-2**63, 0)


def test_phi_dispatch_scalar_and_array():
    assert phi(1, 1) == pytest.approx(-1.0 / math.pi, abs=1e-13)
    xs = np.array([0, 1, 31, 100])
    ys = np.array([0, 1, 0, 100])
    out = phi(xs, ys)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-1.0 / math.pi, abs=1e-13)
    assert out[2] == pytest.approx(phi_asymptotic(31, 0), abs=0)
    assert out[3] == pytest.approx(phi_asymptotic(100, 100), abs=0)


def test_phi_matches_exact_reference_on_table_square():
    # Every sign and order of |m|_inf <= 30 reads the one table, bit for bit.
    exact = exact_octant(DEFAULT_RTABLE)
    m = np.arange(-DEFAULT_RTABLE, DEFAULT_RTABLE + 1)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    hi = np.maximum(abs(m1), abs(m2))
    lo = np.minimum(abs(m1), abs(m2))
    want = np.vectorize(lambda h, l: exact[(int(h), int(l))])(hi, lo)
    assert np.array_equal(phi(m1, m2), want)


def test_import_builds_no_table():
    code = (
        "import latticefmm.green as g\n"
        "calls = []\n"
        "build = g.GreensTable.build\n"
        "g.GreensTable.build = lambda radius: calls.append(radius) or build(radius)\n"
        "import latticefmm, latticefmm.fmm, latticefmm.defect\n"
        "assert g._table is None and calls == [], calls\n"
    )
    src = os.path.dirname(os.path.dirname(latticefmm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_first_phi_builds_one_table(monkeypatch):
    calls = []
    build = GreensTable.build
    monkeypatch.setattr(
        GreensTable, "build", lambda radius: calls.append(radius) or build(radius)
    )
    monkeypatch.setattr(green, "_table", None)
    phi(3, 4)
    phi(np.arange(-40, 40), 7)
    phi(100, 0)
    assert calls == [DEFAULT_RTABLE]


def test_stencil_identity_at_origin():
    u = lambda p: phi(p[0], p[1])
    assert apply_discrete_laplacian(u, (0, 0)) == pytest.approx(1.0, abs=1e-13)


def test_stencil_identity_away_from_origin():
    u = lambda p: phi(p[0], p[1])
    for m in [(1, 0), (4, 4), (17, 2), (30, 0), (30, 30), (31, 7), (45, 45)]:
        assert apply_discrete_laplacian(u, m) == pytest.approx(0.0, abs=1e-12)


def test_discrete_laplacian_accepts_mapping():
    u = {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.25, (0, 1): 0.125, (0, -1): 0.0625}
    assert apply_discrete_laplacian(u, (0, 0)) == pytest.approx(4.0 - 0.9375)
