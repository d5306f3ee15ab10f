import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly

import latticefmm
from latticefmm import green
from latticefmm.config import DEFAULT_RTABLE
from latticefmm.defect import DefectSpec, _Window, solve_defect
from latticefmm.green import (
    GreensTable,
    apply_discrete_laplacian,
    lattice_points,
    phi,
    phi_asymptotic,
)

from exact_reference import exact_octant
from phi_reference import _TRIG_TERMS, phi_asymptotic_trig, phi_asymptotic_whole, phi_quadrature

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


def test_expansion_terms_and_tail_polys_are_bitwise():
    # The package keeps the expansion's rationals as integer pairs and
    # converts the Chebyshev series itself; both must give the doubles of
    # the exact Fractions and of numpy's cheb2poly, bit for bit.
    terms = green._EXPANSION_TERMS
    assert [(j, k) for j, k, _, _ in terms] == [(j, k) for j, k, _ in _TRIG_TERMS]
    assert [Fraction(num, den) for _, _, num, den in terms] == [c for _, _, c in _TRIG_TERMS]
    assert all(num / den == float(c) for (_, _, num, den), (_, _, c) in zip(terms, _TRIG_TERMS))
    cheb = np.zeros((4, 5))
    for j, k, c in _TRIG_TERMS:
        cheb[j - 1, k] = float(c) / np.pi
    want = [cheb2poly(row[: j + 1]) for j, row in enumerate(cheb, start=1)]
    assert len(green._TAIL_POLYS) == len(want)
    for got, ref in zip(green._TAIL_POLYS, want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_import_loads_neither_fractions_nor_numpy_polynomial():
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import latticefmm, latticefmm.fmm, latticefmm.defect, latticefmm.cli\n"
        "new = set(sys.modules) - before\n"
        "bad = sorted(m for m in new if m == 'fractions' or m.startswith('numpy.polynomial'))\n"
        "assert not bad, bad\n"
    )
    src = os.path.dirname(os.path.dirname(latticefmm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
    r = DEFAULT_RTABLE
    xs = np.array([-r, 4, 0])
    ys = np.array([2, -4, r])
    out = table.lookup(xs, ys)
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        table.lookup(r + 1, 0)
    for m in [(-2**63, 0), (0, -2**63)]:  # |-2**63| wraps negative in int64
        with pytest.raises(ValueError):
            table.lookup(*m)


def test_phi_dispatch_scalar_and_array(table):
    assert phi(1, 1) == pytest.approx(-1.0 / math.pi, abs=1e-13)
    r = DEFAULT_RTABLE
    xs = np.array([0, 1, r, r + 1, 100])
    ys = np.array([0, 1, 7, 0, 100])
    out = phi(xs, ys)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-1.0 / math.pi, abs=1e-13)
    assert out[2] == table.lookup(r, 7)
    assert out[3] == pytest.approx(phi_asymptotic(r + 1, 0), abs=0)
    assert out[4] == pytest.approx(phi_asymptotic(100, 100), abs=0)


@pytest.mark.parametrize("bad", [0.5, -0.9, np.nan, np.inf])
def test_phi_rejects_non_integer_coordinates(bad):
    with pytest.raises(ValueError, match="^phi arguments must have integer coordinates$"):
        phi(bad, 0)
    with pytest.raises(ValueError, match="^phi arguments must have integer coordinates$"):
        phi(np.array([0, 1]), np.array([2.0, bad]))
    assert phi(np.array([1.0, 31.0]), 0.0).tolist() == phi(np.array([1, 31]), 0).tolist()


@pytest.mark.parametrize(
    "values",
    [[(2**63, 0)], [(2**63, 2**63)], [(-(2**63) - 1, 0)], [(2**64, 0)], [(1e300, 0.0)]],
    ids=["2**63", "2**63 uint64", "-2**63-1", "2**64", "1e300"],
)
def test_lattice_points_out_of_int64(values):
    # Integral values outside int64 name the range, not integrality.
    with pytest.raises(ValueError, match="^points must have coordinates that fit in int64$"):
        lattice_points(values, "points")


def test_lattice_points_passes_integers_through():
    pts = np.array([[2**63 - 1, -(2**63)]], dtype=np.int64)
    assert lattice_points(pts, "points") is pts
    assert lattice_points(np.array([[3, 4]], dtype=np.int32), "points").dtype == np.int64
    below = np.array([[2**63 - 1, 0]], dtype=np.uint64)
    assert lattice_points(below, "points").tolist() == [[2**63 - 1, 0]]


def test_phi_matches_exact_reference_on_table_square():
    # Every sign and order of |m|_inf <= DEFAULT_RTABLE reads the one
    # table, bit for bit.
    exact = exact_octant(DEFAULT_RTABLE)
    m = np.arange(-DEFAULT_RTABLE, DEFAULT_RTABLE + 1)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    hi = np.maximum(abs(m1), abs(m2))
    lo = np.minimum(abs(m1), abs(m2))
    want = np.vectorize(lambda h, l: exact[(int(h), int(l))])(hi, lo)
    assert np.array_equal(phi(m1, m2), want)


def _mid_range(rng):
    """|m|_inf from 60 to 520 at every sign and order, and the whole rings
    |m|_inf = 512 and 513: across the exact table's edge, through phi's
    octant and past it."""
    hi = rng.integers(60, 521, 4000)
    lo = rng.integers(0, hi + 1)
    swap = rng.random(4000) < 0.5
    x = np.where(swap, lo, hi) * rng.choice([-1, 1], 4000)
    y = np.where(swap, hi, lo) * rng.choice([-1, 1], 4000)
    rings = []
    for r in (512, 513):
        t = np.arange(-r, r + 1)
        rings.append(np.concatenate([[np.full_like(t, r), t], [np.full_like(t, -r), t], [t, np.full_like(t, r)], [t, np.full_like(t, -r)]], axis=1))
    return np.concatenate([[x, y], *rings], axis=1)


def _phi_inputs():
    rng = np.random.default_rng(8)
    # Table, expansion and mixed blocks; the mid range of phi's octant; a
    # strided, a transposed and a broadcast input; the int64 extremes.
    near = rng.integers(-70, 71, (2, 3001))
    far = rng.integers(-(10**9), 10**9, (2, 2001))
    mixed = np.concatenate([near, far], axis=1)[:, rng.permutation(5002)]
    mid = _mid_range(rng)
    return [
        (near[0], near[1]),
        (far[0], far[1]),
        (mixed[0], mixed[1]),
        (mid[0], mid[1]),
        (mixed[0, :-1:3], mixed[1, 2::3]),
        (mixed[0, :900].reshape(30, 30).T, mixed[1, :900].reshape(30, 30)),
        (np.arange(-90, 90)[:, None], np.arange(-50, 50)[None, :]),
        (np.array([-(2**63), 2**63 - 1, 0, 64, -65, 512, -513]), 0),
    ]


def test_asymptotic_symmetric_bitwise_on_octant_range():
    # phi's octant holds the expansion at (|m|_inf, min |m|) alone for
    # 64 < |m|_inf <= OCTANT_RADIUS, which is exact only because the
    # expansion gives every sign and order of m the same bits there.
    r = green.OCTANT_RADIUS
    m = np.arange(-r, r + 1)
    x, y = np.meshgrid(m, m, indexing="ij")
    ring = np.maximum(abs(x), abs(y)) > DEFAULT_RTABLE
    x, y = x[ring], y[ring]
    assert len(x) == 1_033_984
    want = phi_asymptotic(np.maximum(abs(x), abs(y)), np.minimum(abs(x), abs(y)))
    assert phi_asymptotic(x, y).tobytes() == want.tobytes()


def test_phi_blocks_are_bitwise_whole_array_evaluation(monkeypatch):
    # phi and phi_asymptotic run block by block in place; every value is
    # the one a single block over the whole array gives.
    cases = _phi_inputs()
    got = [(phi(x, y), phi_asymptotic(x + 0.5, y)) for x, y in cases]
    for block in (1 << 20, 7):
        monkeypatch.setattr(green, "_PHI_BLOCK", block)
        for (x, y), (p, a) in zip(cases, got):
            assert phi(x, y).tobytes() == p.tobytes()
            assert phi_asymptotic(x + 0.5, y).tobytes() == a.tobytes()
    x, y = cases[0]
    assert phi(x[:5], y[:5]).tolist() == [phi(int(a), int(b)) for a, b in zip(x[:5], y[:5])]
    for (x, y), (_, a) in zip(cases, got):
        want = phi_asymptotic_whole(x + 0.5, y, green._TAIL_POLYS, green._LOG_LEAD)
        assert a.tobytes() == np.broadcast_to(want, a.shape).tobytes()


def test_phi_reads_table_or_expansion_bitwise(table):
    # Every value of phi is, to the byte, the table's where |m|_inf <= 64
    # and the expansion's elsewhere, whatever the mix in its block.
    r = DEFAULT_RTABLE
    for x, y in _phi_inputs():
        x, y = np.broadcast_arrays(x, y)
        near = (x >= -r) & (x <= r) & (y >= -r) & (y <= r)
        want = np.empty(x.shape)
        want[near] = table.lookup(x[near], y[near])
        want[~near] = phi_asymptotic(x[~near], y[~near])
        assert phi(x, y).tobytes() == want.tobytes()


def test_phi_does_not_expand_broadcast_inputs():
    import tracemalloc

    x = np.arange(10**6, 10**6 + 2000)
    y = np.arange(-1000, 1000)
    phi(x[:5], y[:5])
    tracemalloc.start()
    out = phi(x[:, None], y[None, :])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert out.shape == (2000, 2000)
    assert peak - out.nbytes < 2**20


WINDOW_BOXES = {
    "straddles |m|=64": ((-100, -3), (100, 5)),
    "corner across 64": ((40, -90), (90, -40)),
    "table square": ((-64, -64), (64, 64)),
    "beyond 64": ((65, -200), (400, -65)),
    "rows past a chunk": ((-2, -20000), (2, 20000)),
    "far off": ((10**6, -5), (10**6 + 50, 300)),
    "near -2**31": ((-(2**31), -(2**31)), (-(2**31) + 40, -(2**31) + 20)),
    "one point": ((7, -3), (7, -3)),
}


@pytest.mark.parametrize("box", sorted(WINDOW_BOXES))
def test_window_equals_phi_bitwise(box):
    # The defect solver's window over the displacements t - s from one
    # source to targets spanning the box is phi on the box, and its
    # row-major keys read phi(t - s) at each target.
    lo, hi = np.array(WINDOW_BOXES[box])
    x = np.arange(lo[0], hi[0] + 1)
    y = np.arange(lo[1], hi[1] + 1)
    source = np.array([[3, -5]])
    rng = np.random.default_rng(41)
    inner = np.column_stack([rng.integers(lo[0], hi[0] + 1, 20), rng.integers(lo[1], hi[1] + 1, 20)])
    targets = np.vstack([lo, hi, inner]) + source
    win = _Window(targets, source)
    got = win.phi()
    assert got.shape == (len(x), len(y))
    assert got.tobytes() == phi(x[:, None], y[None, :]).tobytes()
    d = targets - source
    read = got.ravel()[win.key(win.t_pos) - win.key(win.s_pos)]
    assert read.tobytes() == phi(d[:, 0], d[:, 1]).tobytes()


def test_import_builds_no_table():
    code = (
        "import latticefmm.green as g\n"
        "calls = []\n"
        "build = g.GreensTable.build\n"
        "g.GreensTable.build = lambda radius: calls.append(radius) or build(radius)\n"
        "import latticefmm, latticefmm.fmm, latticefmm.defect\n"
        "assert g._table is None and g._octant is None and calls == [], calls\n"
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
    monkeypatch.setattr(green, "_octant", None)
    phi(3, 4)
    phi(np.arange(-40, 40), 7)
    assert green._octant is green._table.octant
    phi(100, 0)
    phi(np.arange(-600, 600), 7)
    assert calls == [DEFAULT_RTABLE]
    # The octant grew past the table by the expansion alone, radius 128,
    # then the whole of OCTANT_RADIUS.
    r = green.OCTANT_RADIUS
    assert green.octant_bytes() == 8 * (r + 1) * (r + 2) // 2


def test_window_solve_builds_no_octant_extension(monkeypatch):
    # A defect solve whose kernel is one phi window of |m|_inf <= 64 (the
    # benchmark's 48-bar crack and its queries) grows phi's octant no
    # further than the exact table.
    monkeypatch.setattr(green, "_octant", None)
    bars = [((i, 0), (i, 1), -1.0) for i in range(48)]
    queries = [(i, j) for i in range(-1, 49) for j in range(-1, 3)]
    stats = {}
    solve_defect(DefectSpec(bars), (0.0, 1.0), queries=queries, stats=stats)
    assert stats["kernel_source"] == "window"
    assert green._octant is green.default_table().octant


def test_stencil_identity_at_origin():
    u = lambda p: phi(p[0], p[1])
    assert apply_discrete_laplacian(u, (0, 0)) == pytest.approx(1.0, abs=1e-13)


def test_stencil_identity_away_from_origin():
    u = lambda p: phi(p[0], p[1])
    for m in [(1, 0), (4, 4), (17, 2), (30, 30), (45, 45), (64, 0), (64, 64), (65, 7)]:
        assert apply_discrete_laplacian(u, m) == pytest.approx(0.0, abs=1e-12)


def test_discrete_laplacian_accepts_mapping():
    u = {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.25, (0, 1): 0.125, (0, -1): 0.0625}
    assert apply_discrete_laplacian(u, (0, 0)) == pytest.approx(4.0 - 0.9375)
