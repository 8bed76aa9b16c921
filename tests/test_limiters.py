"""Minmod algebra and slope construction."""

import math

import numpy as np
import pytest

from ntcentral.core import BoundaryCondition, extend_array
from ntcentral.errors import ConfigurationError
from ntcentral.limiters import (
    NO_CLIP,
    ClipConfig,
    limited_difference,
    minmod,
    slopes_of_extended,
)

PER = BoundaryCondition.PERIODIC


def test_minmod_on_random_pairs(rng):
    a = rng.standard_normal(100_000)
    b = rng.standard_normal(100_000)
    m = minmod(a, b)
    # nonexpansive and sign-consistent
    assert np.all(np.abs(m) <= np.minimum(np.abs(a), np.abs(b)) + 1e-15)
    opposite = a * b <= 0.0
    assert np.all(m[opposite] == 0.0)
    same = ~opposite
    assert np.all(m[same] * a[same] > 0.0)
    # symmetric and idempotent on equal arguments
    np.testing.assert_array_equal(m, minmod(b, a))
    np.testing.assert_array_equal(minmod(a, a), a)


def test_minmod_scalar_cases():
    assert minmod(1.0, 2.0) == 1.0
    assert minmod(-3.0, -2.0) == -2.0
    assert minmod(1.0, -1.0) == 0.0
    assert minmod(0.0, 5.0) == 0.0


def test_clipped_difference_keeps_the_smallest_magnitude_of_one_sign(rng):
    fwd = rng.standard_normal(10_000)
    bwd = rng.standard_normal(10_000)
    dx = 0.01
    clip = ClipConfig(enabled=True, C=5.0, delta=0.5)  # cap 0.5, inside the data's spread
    d = limited_difference(fwd, bwd, dx, clip) * dx
    assert np.all(np.abs(d) <= np.abs(minmod(fwd, bwd)) + 1e-15)
    # differences of one sign keep the smallest of |fwd|, |bwd| and the cap, with that sign
    same = (np.sign(fwd) == np.sign(bwd)) & (fwd != 0)
    expect = np.sign(bwd[same]) * np.minimum(
        np.abs(fwd[same]), np.minimum(np.abs(bwd[same]), clip.cap(dx))
    )
    np.testing.assert_allclose(d[same], expect)
    assert np.all(d[~same] == 0.0)
    assert limited_difference(2.0, -3.0, dx, clip) == 0.0


def test_clip_config_cap():
    clip = ClipConfig(enabled=True, C=2.0, delta=0.5)
    assert clip.cap(0.04) == pytest.approx(0.4)
    assert not NO_CLIP.enabled


@pytest.mark.parametrize(
    "C, delta", [(-1.0, -3.0), (0.0, 0.5), (math.inf, 0.5), (math.nan, 0.5),
                 (1.0, 0.0), (1.0, 1.5), (1.0, math.nan)]
)
def test_clip_config_is_checked_when_built(C, delta):
    # a cap of zero or less would make every limited slope 0: a silent first-order run
    with pytest.raises(ConfigurationError, match="clip needs 0 < C < inf and 0 < delta <= 1"):
        ClipConfig(enabled=True, C=C, delta=delta)
    assert ClipConfig(enabled=True, C=1e-3, delta=1.0).cap(0.5) == 5e-4


def test_limited_difference_applies_clip():
    fwd = np.array([1.0, -1.0, 0.5])
    bwd = np.array([0.8, -0.3, 1.0])
    dx = 0.01
    free = limited_difference(fwd, bwd, dx)
    np.testing.assert_allclose(free, [80.0, -30.0, 50.0])
    clip = ClipConfig(enabled=True, C=1.0, delta=0.5)  # cap = 0.1
    capped = limited_difference(fwd, bwd, dx, clip)
    np.testing.assert_allclose(capped, [10.0, -10.0, 10.0])


def test_slopes_of_extended_drops_one_cell_per_side():
    a = np.array([[0.0, 1.0, 3.0, 4.0, 4.5]])
    s = slopes_of_extended(a, dx=1.0)
    np.testing.assert_allclose(s, [[1.0, 1.0, 0.5]])


def test_cell_slopes_periodic_monotone_data():
    vals = np.array([[0.0, 1.0, 2.0, 3.0]])
    s = slopes_of_extended(extend_array(vals, 1, 1, PER), 1.0)
    # wrap-around makes the end differences opposite-signed
    np.testing.assert_allclose(s, [[0.0, 1.0, 1.0, 0.0]])


def test_cell_slopes_extend_matches_roll():
    rng = np.random.default_rng(5)
    vals = rng.random((2, 16))
    base = slopes_of_extended(extend_array(vals, 1, 1, PER), 0.5)
    ext = slopes_of_extended(extend_array(vals, 3, 3, PER), 0.5)
    assert ext.shape == (2, 20)
    np.testing.assert_allclose(ext[:, 2:-2], base)
    np.testing.assert_allclose(ext[:, :2], base[:, -2:])


def test_staggered_slopes_shape():
    a = np.array([[1.0, 2.0, 0.0, 1.0, 3.0]])
    s = slopes_of_extended(extend_array(a, 1, 1, PER), 1.0)
    assert s.shape == (1, 5)
    np.testing.assert_allclose(s[0, 1], 0.0)  # extremum cell


def test_minmod_signed_zeros_give_positive_zero():
    for a, b in [(0.0, -0.0), (-0.0, -0.0), (-0.0, 2.0), (-3.0, -0.0), (0.0, 0.0)]:
        m = minmod(np.array([a]), np.array([b]))
        assert m[0] == 0.0 and not np.signbit(m[0]), (a, b)
        assert minmod(a, b) == 0.0 and not np.signbit(minmod(a, b)), (a, b)


def test_minmod_keeps_arguments_whose_product_underflows():
    # a * b is 0 in floating point here, but the signs agree
    a = np.array([1e-170, -1e-170])
    np.testing.assert_array_equal(minmod(a, a * np.array([2.0, 3.0])), a)
    assert minmod(1e-170, 3e-170) == 1e-170


def test_minmod_equal_magnitudes():
    a = np.array([2.5, -2.5, 2.5, -2.5])
    b = np.array([2.5, -2.5, -2.5, 2.5])
    np.testing.assert_array_equal(minmod(a, b), [2.5, -2.5, 0.0, 0.0])


def test_minmod_scalar_and_broadcast_inputs():
    assert np.ndim(minmod(1.0, 2.0)) == 0
    assert minmod(-4, -7) == -4.0
    np.testing.assert_array_equal(minmod(np.array([1.0, -2.0, 3.0]), 2.0), [1.0, 0.0, 2.0])
    # the arguments are not written to
    a, b = np.array([1.0, -1.0]), np.array([0.5, -3.0])
    minmod(a, b)
    np.testing.assert_array_equal(a, [1.0, -1.0])
    np.testing.assert_array_equal(b, [0.5, -3.0])
