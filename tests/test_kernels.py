"""Kernel quadrature: weights, nonlocal fields and their derivatives.

The fields are evaluated by the stepper's own quadrature
(``Stepper._nonlocal``, ``_nonlocal_dx`` and ``_nonlocal_dt``) on an
``arrhenius`` model carrying the kernel under test, with the inputs padded by
``extend_array`` as the stepper pads them.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate, special

from ntcentral.core import BoundaryCondition, Grid, extend_array, init_cell_averages
from ntcentral.errors import ConfigurationError, KernelDefinitionError
from ntcentral.kernels import (
    DIRECT_MAX_WORK,
    Band,
    KernelSpec,
    PeriodicCells,
    build_derivative_weights,
    build_weights,
    builtin_kernel,
    correlate_band,
    kernel_integral,
    normalize_kernel,
)
from ntcentral.limiters import slopes_of_extended
from ntcentral.models import make_model
from ntcentral.schemes import SchemeConfig, Stepper

PER = BoundaryCondition.PERIODIC


def test_backward_power_normalization_matches_beta_integral():
    # raw shape is (-x (eta + x))^(5/2) on [-eta, 0]; substituting x = -eta t
    # turns its integral into eta^6 * Beta(7/2, 7/2)
    eta = 0.5
    spec = builtin_kernel("backward-power52", eta)
    raw_mass = eta**6 * special.beta(3.5, 3.5)
    assert spec.normalization == pytest.approx(1.0 / raw_mass, rel=1e-9)
    assert kernel_integral(spec) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["constant", "linear", "concave", "symmetric-parabola"])
def test_builtin_kernels_have_unit_integral(name):
    spec = builtin_kernel(name, 0.37)
    assert kernel_integral(spec) == pytest.approx(1.0, abs=1e-10)


def test_quadrature_weights_constant_kernel_by_hand():
    # eta = 2 dx: half-cell ends carry dx/2 * omega, one interior cell dx * omega
    dx = 0.1
    qw = build_weights(builtin_kernel("constant", 2 * dx), dx)
    assert (qw.n1, qw.n2) == (0, 2)
    np.testing.assert_allclose(qw.weights, [0.25, 0.5, 0.25], atol=1e-14)


def test_quadrature_weights_linear_kernel_by_hand():
    # omega(y) = (2/eta)(1 - y/eta) with eta = 2 dx evaluated at dx/4, dx, 7dx/4
    dx = 0.05
    qw = build_weights(builtin_kernel("linear", 2 * dx), dx)
    np.testing.assert_allclose(qw.weights, [0.4375, 0.5, 0.0625], atol=1e-14)
    assert qw.total() == pytest.approx(1.0, abs=1e-14)


def test_weight_sums_exact_for_polynomial_degree_one_kernels():
    for name in ("constant", "linear"):
        qw = build_weights(builtin_kernel(name, 0.2), 0.2 / 16)
        assert qw.total() == pytest.approx(1.0, abs=1e-13)


def test_weight_sum_second_order_for_curved_kernels():
    errs = []
    for n in (8, 16, 32):
        qw = build_weights(builtin_kernel("concave", 0.2), 0.2 / n)
        errs.append(abs(qw.total() - 1.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_fractional_support_is_rejected():
    with pytest.raises(ConfigurationError, match="integer multiple"):
        build_weights(builtin_kernel("constant", 0.013), 0.05)


def test_negative_kernel_weights_are_rejected():
    spec = KernelSpec(omega=lambda x: np.cos(40.0 * np.asarray(x)), support=(0.0, 1.0))
    with pytest.raises(KernelDefinitionError, match="negative"):
        build_weights(spec, 0.125)


def test_normalize_kernel_rejects_zero_mass():
    spec = KernelSpec(omega=lambda x: 0.0 * np.asarray(x), support=(0.0, 1.0))
    with pytest.raises(KernelDefinitionError, match="cannot normalize"):
        normalize_kernel(spec)


def test_builtin_kernel_validation():
    with pytest.raises(KernelDefinitionError, match="available"):
        builtin_kernel("gaussian", 0.5)
    with pytest.raises(KernelDefinitionError):
        builtin_kernel("constant", -1.0)


def test_derivative_weights_need_closed_form_derivative():
    spec = KernelSpec(omega=lambda x: np.ones_like(np.asarray(x)), support=(0.0, 1.0))
    with pytest.raises(KernelDefinitionError, match="omega_prime"):
        build_derivative_weights(spec, 0.25)


def test_correlate_band_matches_plain_sum():
    rng = np.random.default_rng(7)
    sides = set()
    for n_out in (40, 1280):
        for taps in (5, 129, 321):
            band = Band(n1=0, n2=taps - 1, dx=1.0, weights=rng.random(taps))
            u = rng.random(n_out + taps - 1)
            plain = sliding_window_view(u, taps) @ band.weights
            direct = n_out * taps <= DIRECT_MAX_WORK
            sides.add(direct)
            out = correlate_band(u, band)
            np.testing.assert_allclose(out, plain, rtol=1e-13, atol=0)
            if direct:
                assert band.spectra == {}
                continue
            # one spectrum per transform length, reused by the next call
            (nfft, spectrum), = band.spectra.items()
            np.testing.assert_allclose(correlate_band(u, band), plain, rtol=1e-13, atol=0)
            assert list(band.spectra) == [nfft] and band.spectra[nfft] is spectrum
            longer = rng.random(u.size + 1000)
            np.testing.assert_allclose(
                correlate_band(longer, band),
                sliding_window_view(longer, taps) @ band.weights,
                rtol=1e-13,
                atol=0,
            )
            assert len(band.spectra) == 2 and band.spectra[nfft] is spectrum
    assert sides == {True, False}


def _wrapped_plain_sum(u, band):
    padded = np.pad(u, (band.n1, band.n2), mode="wrap")
    return sliding_window_view(padded, band.weights.size) @ band.weights


@pytest.mark.parametrize(
    "cells, n1, n2",
    [(16, 5, 40), (16, 0, 16), (600, 700, 300), (600, 0, 1200)],
)
def test_circular_band_wider_than_the_period(cells, n1, n2):
    # the band reaches around the period more than once; each tap reads the
    # cell its offset lands on modulo the period
    rng = np.random.default_rng(cells + n1 + n2)
    band = Band(n1=n1, n2=n2, dx=1.0, weights=rng.random(n1 + n2 + 1))
    u = rng.random(cells)
    direct = cells * band.weights.size <= DIRECT_MAX_WORK
    out = correlate_band(PeriodicCells(u), band)
    np.testing.assert_allclose(out, _wrapped_plain_sum(u, band), rtol=1e-13, atol=0)
    assert list(band.wrapped_spectra) == ([] if direct else [cells])


def test_periodic_cells_share_one_forward_transform():
    rng = np.random.default_rng(11)
    cells = PeriodicCells(rng.random(2048))
    bands = [Band(n1=0, n2=200, dx=1.0, weights=rng.random(201)) for _ in range(2)]
    assert bands[0].n2 * cells.values.size > DIRECT_MAX_WORK
    outs = [correlate_band(cells, bands[0])]
    first = cells._transform
    outs.append(correlate_band(cells, bands[1]))
    assert first is not None and cells._transform is first
    for band, out in zip(bands, outs):
        np.testing.assert_allclose(out, _wrapped_plain_sum(cells.values, band), rtol=1e-13)
        assert list(band.wrapped_spectra) == [2048]


def test_stepper_quadrature_with_a_kernel_longer_than_the_domain():
    # eta = 2.5 on [-1, 1]: the constant kernel averages over more than one
    # period, on the direct sum (16 cells) and on the FFT (512 cells)
    for n in (16, 512):
        grid = Grid(-1.0, 1.0, n)
        model = make_model("arrhenius", eta=2.5, kernel="constant")
        stepper = Stepper(model, grid, PER)
        qw = stepper.qw[0]
        assert qw.n2 > n and (n * qw.weights.size <= DIRECT_MAX_WORK) == (n == 16)
        u = np.random.default_rng(n).random((1, n))
        R = stepper._nonlocal([u[0]], [None], 0, 0, 0)
        np.testing.assert_allclose(R[0], _wrapped_plain_sum(u[0], qw), rtol=1e-13)


class Convolution:
    """sin(pi x) on a periodic grid and the stepper's quadrature of it."""

    def __init__(self, n, eta, kernel, margin=0):
        self.grid = Grid(-1.0, 1.0, n)
        self.u = init_cell_averages(lambda x: np.sin(np.pi * x), self.grid).values
        model = make_model("arrhenius", eta=eta, kernel=kernel)
        cfg = SchemeConfig(scheme="nt", slope_variant="v2")
        self.stepper = Stepper(model, self.grid, PER, cfg)
        self.margin = margin
        self.pad = self.stepper.nmax + margin + 1
        self.uP = extend_array(self.u, self.pad, self.pad, PER)
        self.sP = slopes_of_extended(self.uP, self.grid.dx)  # margin pad - 1
        cut = self.pad - 1
        self.s = self.sP[..., cut : cut + n]  # limited slopes of the cells

    def field(self):
        return self.stepper._nonlocal(
            [self.uP[0]], [self.sP[0]], self.pad, self.pad - 1, self.margin
        )

    def space_derivative(self):
        return self.stepper._nonlocal_dx(
            [self.uP[0]], [self.sP[0]], self.pad, self.pad - 1, self.margin
        )

    def band_average(self, g):
        """The field quadrature of ``g`` without slope corrections."""
        gP = extend_array(g, self.pad, self.pad, PER)
        return self.stepper._nonlocal([gP[0]], [None], self.pad, 0, self.margin)

    def time_derivative(self, g):
        gP = extend_array(g, self.pad, self.pad, PER)
        return self.stepper._nonlocal_dt(gP, gP, self.pad, self.margin)


def test_nonlocal_field_converges_to_analytic_convolution():
    # constant kernel: R(x) = (cos(pi x) - cos(pi (x + eta))) / (pi eta)
    eta = 0.25
    errs = []
    for n in (64, 128, 256):
        conv = Convolution(n, eta, "constant")
        R = conv.field()
        x = conv.grid.centers
        exact = (np.cos(np.pi * x) - np.cos(np.pi * (x + eta))) / (np.pi * eta)
        errs.append(np.abs(R[0] - exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.8


def test_nonlocal_field_dense_quadrature_cross_check():
    # compare against a dense trapezoid evaluation of the piecewise linear
    # reconstruction; the band rule samples the kernel at cell midpoints, so
    # the two differ by O(dx^2) of kernel variation inside the cells
    eta = 0.2
    spec = builtin_kernel("linear", eta)
    yq = np.linspace(0.0, eta, 40001)
    diffs = []
    for n in (80, 160):
        conv = Convolution(n, eta, "linear")
        grid, u, s = conv.grid, conv.u, conv.s
        R = conv.field()

        def dense_at(j0):
            xq = grid.centers[j0] + yq
            jf = np.floor((xq - grid.x_left) / grid.dx).astype(int) % grid.cells
            xq_wrapped = grid.x_left + (xq - grid.x_left) % 2.0
            recon = u[0][jf] + s[0][jf] * (xq_wrapped - grid.x_left - (jf + 0.5) * grid.dx)
            return np.trapezoid(recon * spec.omega(yq), yq)

        sample = range(3, grid.cells, grid.cells // 8)
        diffs.append(max(abs(R[0][j] - dense_at(j)) for j in sample))
    assert diffs[0] < 2e-3
    assert diffs[1] < 0.35 * diffs[0]


def test_time_derivative_band_matches_plain_average():
    # the time-derivative band is the field quadrature without slope
    # corrections, applied to an arbitrary cellwise integrand
    conv = Convolution(64, 0.25, "constant")
    g = np.cos(3.0 * conv.grid.centers)[None, :]
    via_td = conv.time_derivative(g)
    via_field = conv.band_average(g)
    np.testing.assert_allclose(via_td, via_field, atol=1e-15)


def test_space_derivative_constant_kernel_is_a_difference_quotient():
    # for the constant kernel the derivative is exactly
    # (u(x + eta) - u(x)) / eta; the discrete version uses the cell band ends
    eta = 0.25
    errs = []
    for n in (64, 128, 256):
        conv = Convolution(n, eta, "constant")
        dR = conv.space_derivative()
        x = conv.grid.centers
        exact = (np.sin(np.pi * (x + eta)) - np.sin(np.pi * x)) / eta
        errs.append(np.abs(dR[0] - exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.8


def test_space_derivative_linear_kernel_against_quadrature():
    eta = 0.2
    conv = Convolution(160, eta, "linear")
    grid = conv.grid
    spec = builtin_kernel("linear", eta)
    dR = conv.space_derivative()

    def exact_at(x0):
        val, _ = integrate.quad(
            lambda y: np.pi * np.cos(np.pi * (x0 + y)) * spec.omega(y), 0.0, eta
        )
        return val

    idx = [0, 31, 77, 119, 159]
    exact = np.array([exact_at(grid.centers[i]) for i in idx])
    np.testing.assert_allclose(dR[0][idx], exact, atol=2e-3)


def test_extended_evaluation_matches_wrapped_interior():
    # asking for ghost cells of a periodic field must agree with rolling it
    base = Convolution(40, 0.25, "constant").field()
    ext = Convolution(40, 0.25, "constant", margin=3).field()
    assert ext.shape[-1] == 46
    np.testing.assert_allclose(ext[:, 3:-3], base, atol=1e-15)
    np.testing.assert_allclose(ext[:, :3], base[:, -3:], atol=1e-15)
    np.testing.assert_allclose(ext[:, -3:], base[:, :3], atol=1e-15)


def test_kernel_support_validation():
    with pytest.raises(KernelDefinitionError, match="support"):
        KernelSpec(omega=lambda x: x, support=(0.5, 1.0))
