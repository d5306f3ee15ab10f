import math

import numpy as np
import pytest

from latticefmm.oracle import direct_sum
from latticefmm.skeleton import kernel_matrix

from fmm_reference import dense_solve_truncated


@pytest.mark.parametrize("bad", [0.5, 1.7, np.nan, np.inf])
def test_non_integer_coordinates_rejected(bad):
    # Truncating 0.5 to 0 would return phi at the wrong point in silence.
    with pytest.raises(ValueError, match="^points must have integer coordinates$"):
        direct_sum([(0, 0), (bad, 2)], [1.0, 1.0])
    with pytest.raises(ValueError, match="^targets must have integer coordinates$"):
        direct_sum([(0, 0)], [1.0], targets=[(1, bad)])
    with pytest.raises(ValueError, match="^sources must have integer coordinates$"):
        kernel_matrix([(0, 0)], [(bad, 0)])
    with pytest.raises(ValueError, match="^targets must have integer coordinates$"):
        kernel_matrix(np.array([[bad, 0.0]]), [(0, 0)])
    integral = direct_sum([(0.0, 0.0), (3.0, 1.0)], [1.0, 2.0], targets=[(1.0, 1.0)])
    assert np.array_equal(integral, direct_sum([(0, 0), (3, 1)], [1.0, 2.0], targets=[(1, 1)]))


def test_unit_charge_displacement():
    u = direct_sum([(0, 0)], [1.0], targets=[(1, 1)])
    assert u[0] == pytest.approx(-1.0 / math.pi, abs=1e-13)


def test_dipole_decays_far_away():
    # monopole log terms cancel; the dipole field at 1e6 is ~1/(2 pi 1e6)
    u = direct_sum([(0, 0), (1, 0)], [1.0, -1.0], targets=[(10**6, 0)])
    assert abs(u[0]) <= 1e-5
    assert abs(u[0]) > 0


def test_zero_charges():
    pts = [(0, 0), (5, 3), (-2, 7)]
    u = direct_sum(pts, [0.0, 0.0, 0.0])
    assert np.array_equal(u, np.zeros(3))


def test_direct_sum_bit_reproducible():
    rng = np.random.default_rng(0)
    pts = rng.integers(-500, 500, size=(80, 2))
    pts = np.unique(pts, axis=0)
    q = rng.standard_normal(len(pts))
    u1 = direct_sum(pts, q)
    u2 = direct_sum(pts, q)
    assert np.array_equal(u1, u2)


def test_direct_sum_length_mismatch():
    with pytest.raises(ValueError):
        direct_sum([(0, 0)], [1.0, 2.0])


@pytest.mark.parametrize(
    "charges,message",
    [
        (np.ones((3, 1)), "1-D array of length 3"),
        (np.ones(2), "1-D array of length 3"),
        (np.ones(3) + 1j, "must be real, not complex"),
        (["a", "b", "c"], "must be real numbers"),
        ([1.0, np.nan, 2.0], "charges must be finite"),
        ([1e308] * 3, "charges too large"),
    ],
)
def test_charges_contract(charges, message):
    with pytest.raises(ValueError, match=message):
        direct_sum([(0, 0), (5, 1), (9, 9)], charges)


def test_targets_shape():
    pts, q = [(0, 0), (5, 1), (9, 9)], [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="targets must be an"):
        direct_sum(pts, q, targets=np.ones((2, 3), dtype=int))
    assert np.array_equal(direct_sum(pts, q, targets=(5, 1)), direct_sum(pts, q, targets=[(5, 1)]))


def test_dense_kernel_matrix_symmetric_zero_diagonal():
    rng = np.random.default_rng(1)
    pts = np.unique(rng.integers(-40, 40, size=(30, 2)), axis=0)
    a = kernel_matrix(pts, pts)
    assert np.max(np.abs(a - a.T)) == 0.0
    assert np.all(np.diag(a) == 0.0)


def test_window_single_point():
    u = dense_solve_truncated({(3, 4): 2.5}, window_radius=0)
    assert u == {(3, 4): 0.0}


def test_window_two_points_matches_direct():
    rhs = {(0, 0): 1.5, (1, 0): -0.5}
    u = dense_solve_truncated(rhs, window_radius=3)
    pts = np.array(list(rhs.keys()))
    q = np.array(list(rhs.values()))
    targets = np.array(sorted(u.keys()))
    expected = direct_sum(pts, q, targets=targets)
    got = np.array([u[tuple(t)] for t in targets])
    assert np.allclose(got, expected, atol=1e-12)


def test_window_guard():
    with pytest.raises(ValueError, match="dense-solve cap"):
        dense_solve_truncated({(0, 0): 1.0}, window_radius=30)


def test_window_rejects_outside_support():
    with pytest.raises(ValueError, match="outside"):
        dense_solve_truncated({(0, 0): 1.0, (50, 0): -1.0}, window_radius=5)
