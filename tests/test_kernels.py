"""Kernel quadrature: weights, nonlocal fields and their derivatives.

The fields are evaluated by the stepper's own quadrature
(``Stepper._quadrature``, which gives R with its space derivative, or the
time derivative band, in one stacked pass) on an ``arrhenius`` model carrying the
kernel under test, with the inputs padded by ``extend_array`` as the stepper
pads them.
"""

import dataclasses

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate, special
from scipy.fft import next_fast_len

from ntcentral import kernels
from ntcentral.core import BoundaryCondition, Grid, extend_array, init_cell_averages
from ntcentral.errors import ConfigurationError, KernelDefinitionError
from ntcentral.harness import resolve_profiles
from ntcentral.kernels import (
    Band,
    BandStack,
    KernelSpec,
    build_derivative_weights,
    build_weights,
    builtin_kernel,
    correlate_band,
    direct_path,
    fft_length,
)
from ntcentral.limiters import slopes_of_extended
from ntcentral.models import make_model
from ntcentral.schemes import SchemeSpec, Stepper

PER = BoundaryCondition.PERIODIC


def kernel_integral(spec: KernelSpec) -> float:
    """Adaptive quadrature of a kernel over its support, to a relative tolerance."""
    eta1, eta2 = spec.support
    value, _ = integrate.quad(spec.omega, eta1, eta2, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def test_backward_power_normalization_matches_beta_integral():
    # raw shape is (-x (eta + x))^(5/2) on [-eta, 0]; substituting x = -eta t
    # turns its integral into eta^6 * Beta(7/2, 7/2)
    for eta in (0.01, 0.04, 0.5, 2.0):
        spec = builtin_kernel("backward-power52", eta)
        raw_mass = eta**6 * special.beta(3.5, 3.5)
        x = -0.3 * eta  # interior: the kernel is its scale times the raw shape
        scale = spec.omega(x) / (-x * (eta + x)) ** 2.5
        assert scale * raw_mass == pytest.approx(1.0, rel=1e-14), eta
        assert kernel_integral(spec) == pytest.approx(1.0, rel=1e-11), eta


def test_backward_power_refuses_an_eta_whose_scale_leaves_the_normal_doubles():
    # beyond about [1.06e-51, 1.50e51], eta**6, 5 pi eta**6 or the scale
    # 1024 / (5 pi eta**6) leaves the normal doubles
    for eta in (1.1e-51, 1.4e51):
        scale = builtin_kernel("backward-power52", eta).omega(-0.5 * eta) / (eta**2 / 4) ** 2.5
        assert np.isfinite(scale) and abs(scale) >= np.finfo(float).tiny, eta
    for eta in (5e-324, 1e-51, 1.5e51, 1e308):
        with pytest.raises(KernelDefinitionError, match="cannot be normalised at eta"):
            builtin_kernel("backward-power52", eta)


@pytest.mark.parametrize("eta", [0.01, 0.04])
def test_small_range_keyfitz_kranzer_kernels_build(eta):
    model = make_model("keyfitz-kranzer", eta=eta)
    grid = Grid(-1.0, 1.0, 200)
    band = build_weights(builtin_kernel("backward-power52", eta), grid.dx)
    assert (band.n1, band.n2) == (round(eta / grid.dx), 0)
    v0 = init_cell_averages(resolve_profiles("kk-sine"), grid)
    v = Stepper(model, grid, PER, SchemeSpec("nt", "v1")).step(v0, 0.1 * grid.dx)
    assert np.isfinite(v).all()


@pytest.mark.parametrize(
    "name", ["constant", "linear", "concave", "symmetric-parabola", "backward-power52"]
)
def test_builtin_kernels_have_unit_integral(name):
    spec = builtin_kernel(name, 0.37)
    assert kernel_integral(spec) == pytest.approx(1.0, rel=1e-11)


def test_fft_length_matches_scipy_next_fast_len():
    # the non-periodic transform length sets the FFT's rounding, so it must
    # stay the one the fingerprints were pinned with
    n = np.arange(1, 70001)
    ours = np.array([fft_length(int(k)) for k in n])
    theirs = np.array([next_fast_len(int(k), real=True) for k in n])
    assert np.array_equal(ours, theirs)


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
    assert qw.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_weight_sums_exact_for_polynomial_degree_one_kernels():
    for name in ("constant", "linear"):
        qw = build_weights(builtin_kernel(name, 0.2), 0.2 / 16)
        assert qw.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_weight_sum_second_order_for_curved_kernels():
    errs = []
    for n in (8, 16, 32):
        qw = build_weights(builtin_kernel("concave", 0.2), 0.2 / n)
        errs.append(abs(qw.weights.sum() - 1.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_fractional_support_is_rejected():
    with pytest.raises(ConfigurationError, match="integer multiple"):
        build_weights(builtin_kernel("constant", 0.013), 0.05)


def test_negative_kernel_weights_are_rejected():
    spec = KernelSpec(omega=lambda x: np.cos(40.0 * np.asarray(x)), support=(0.0, 1.0))
    with pytest.raises(KernelDefinitionError, match="negative"):
        build_weights(spec, 0.125)


def test_builtin_kernel_validation():
    with pytest.raises(KernelDefinitionError, match="available"):
        builtin_kernel("gaussian", 0.5)
    with pytest.raises(KernelDefinitionError):
        builtin_kernel("constant", -1.0)


def test_derivative_weights_need_closed_form_derivative():
    spec = KernelSpec(omega=lambda x: np.ones_like(np.asarray(x)), support=(0.0, 1.0))
    with pytest.raises(KernelDefinitionError, match="omega_prime"):
        build_derivative_weights(spec, 0.25)


def _random_stack(rng, fields, kinds, n1, n2):
    """``kinds`` rows of ``fields`` bands of reach (n1, n2), random weights, no ends."""
    taps = n1 + n2 + 1
    return BandStack(
        [[Band(n1, n2, rng.random(taps), (0.0, 0.0)) for _ in range(fields)] for _ in range(kinds)]
    )


def _plain_sum(u, band, cut):
    """sum_i u[cut - n1 + j + i] * w[i] over the outputs j that drop ``cut`` ghost cells."""
    window = u[cut - band.n1 : u.size - cut + band.n2]
    return sliding_window_view(window, band.weights.size) @ band.weights


def test_correlate_band_matches_plain_sum():
    # two fields and two kinds of band in one call over one ghost-padded
    # window, and the first kind alone
    rng = np.random.default_rng(7)
    sides = set()
    for n_out in (40, 1280):
        for taps in (5, 129, 321):
            n1 = taps // 4
            stack = _random_stack(rng, 2, 2, n1, taps - 1 - n1)
            cut = taps  # more ghost cells than the band reaches
            rows = rng.random((2, n_out + 2 * cut))
            direct = direct_path(n_out, taps, 2)
            sides.add(direct)
            out = correlate_band(rows, stack, 2, cut)
            assert out.shape == (2, 2, n_out)
            for kind, outs in zip(stack.kinds, out):
                for u, band, row in zip(rows, kind, outs):
                    np.testing.assert_allclose(row, _plain_sum(u, band, cut), rtol=1e-13, atol=0)
            first = correlate_band(rows, stack, 1, cut)
            assert first.shape == (1, 2, n_out)
            np.testing.assert_allclose(first[0], out[0], rtol=1e-13, atol=0)
            if direct:
                assert stack.spectra == {}
                continue
            # one spectrum per transform length, of all kinds, reused by the next call
            nfft = fft_length(n_out + taps - 1)
            assert list(stack.spectra) == [nfft]
            views = stack.spectra[nfft]
            assert [v.shape[0] for v in views] == [1, 2] and views[0].base is views[1].base
            correlate_band(rows, stack, 2, cut)
            assert stack.spectra[nfft] is views
            longer = rng.random((2, rows.shape[-1] + 1000))
            outs = correlate_band(longer, stack, 2, cut)
            np.testing.assert_allclose(
                outs[1][1], _plain_sum(longer[1], stack.kinds[1][1], cut), rtol=1e-13, atol=0
            )
            assert len(stack.spectra) == 2
    assert sides == {True, False}


def test_correlate_band_adds_the_slope_ends():
    # output j gains c0 s[j - n1] - c1 s[j + n2], on the torus and off it
    rng = np.random.default_rng(5)
    n1, n2, cells = 3, 6, 50
    bands = [
        [Band(n1, n2, rng.random(n1 + n2 + 1), tuple(rng.random(2))) for _ in range(2)]
        for _ in range(2)
    ]
    stack = BandStack(bands)
    rows, slopes = rng.random((2, cells)), rng.random((2, cells))
    plain = correlate_band(rows, stack, 2)
    with_ends = correlate_band(rows, stack, 2, None, slopes)
    for b, kind in enumerate(bands):
        for r, band in enumerate(kind):
            c0, c1 = band.ends
            want = plain[b, r] + (c0 * np.roll(slopes[r], n1) - c1 * np.roll(slopes[r], -n2))
            np.testing.assert_allclose(with_ends[b, r], want, rtol=1e-14)
    cut = 8
    plain = correlate_band(rows, stack, 2, cut)
    with_ends = correlate_band(rows, stack, 2, cut, slopes)
    j = np.arange(cut, cells - cut)
    for b, kind in enumerate(bands):
        for r, band in enumerate(kind):
            c0, c1 = band.ends
            want = plain[b, r] + (c0 * slopes[r, j - n1] - c1 * slopes[r, j + n2])
            np.testing.assert_allclose(with_ends[b, r], want, rtol=1e-14)
    # one kind alone takes its ends as floats, for one field too
    single = BandStack([bands[0][:1]])
    assert all(isinstance(c, float) for c in single.ends[0])
    with_ends = correlate_band(rows[:1], single, 1, cut, slopes[:1])
    c0, c1 = bands[0][0].ends
    want = plain[0, 0] + (c0 * slopes[0, j - n1] - c1 * slopes[0, j + n2])
    np.testing.assert_allclose(with_ends[0, 0], want, rtol=1e-14)


def _wrapped_plain_sum(u, band):
    padded = np.pad(u, (band.n1, band.n2), mode="wrap")
    return sliding_window_view(padded, band.weights.size) @ band.weights


@pytest.mark.parametrize(
    "cells, n1, n2",
    [(16, 5, 40), (16, 0, 16), (600, 700, 300), (600, 0, 1200)],
)
def test_circular_band_wider_than_the_period(cells, n1, n2):
    # the band reaches around the period more than once; each tap reads the
    # cell its offset lands on modulo the period, in a stacked call too
    rng = np.random.default_rng(cells + n1 + n2)
    stack = _random_stack(rng, 2, 1, n1, n2)
    u = rng.random((2, cells))
    direct = direct_path(cells, n1 + n2 + 1, 1)
    out = correlate_band(u, stack, 1)
    assert out.shape == (1, 2, cells)
    for row, band, want in zip(u, stack.kinds[0], out[0]):
        np.testing.assert_allclose(want, _wrapped_plain_sum(row, band), rtol=1e-13, atol=0)
    assert list(stack.spectra) == ([] if direct else [cells])


def test_periodic_cells_share_one_forward_transform(monkeypatch):
    # two fields of one period and two kinds of band: one rfft of both rows
    # and one irfft of all four band x row products
    rng = np.random.default_rng(11)
    cells = rng.random((2, 2048))
    stack = _random_stack(rng, 2, 2, 0, 200)
    assert not direct_path(cells.shape[-1], 201, 2)
    correlate_band(cells, stack, 2)  # the band spectra are computed on first use
    calls = {"rfft": 0, "irfft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    out = correlate_band(cells, stack, 2)
    assert calls == {"rfft": 1, "irfft": 1}
    for kind, outs in zip(stack.kinds, out):
        for u, band, row in zip(cells, kind, outs):
            np.testing.assert_allclose(row, _wrapped_plain_sum(u, band), rtol=1e-13)
    assert list(stack.spectra) == [2048]


def test_stepper_quadrature_with_a_kernel_longer_than_the_domain():
    # eta = 2.5 on [-1, 1]: the constant kernel averages over more than one
    # period, on the direct sum (16 cells) and on the FFT (512 cells)
    for n in (16, 512):
        grid = Grid(-1.0, 1.0, n)
        model = make_model("arrhenius", eta=2.5, kernel="constant")
        stepper = Stepper(model, grid, PER)
        qw = stepper.qw[0]
        assert qw.n2 > n and direct_path(n, qw.weights.size, 1) == (n == 16)
        u = np.random.default_rng(n).random((1, n))
        (R,) = stepper._quadrature(u, None, 0, (0,))
        np.testing.assert_allclose(R[0], _wrapped_plain_sum(u[0], qw), rtol=1e-13)


class Convolution:
    """sin(pi x) on a periodic grid and the stepper's quadrature of it."""

    def __init__(self, n, eta, kernel, margin=0):
        self.grid = Grid(-1.0, 1.0, n)
        self.u = init_cell_averages(lambda x: np.sin(np.pi * x), self.grid)
        model = make_model("arrhenius", eta=eta, kernel=kernel)
        cfg = SchemeSpec(scheme="nt", slope_variant="v2")
        self.stepper = Stepper(model, self.grid, PER, cfg)
        self.margin = margin
        self.pad = margin + 1  # the torus needs no band-width ghost cells
        self.uP = extend_array(self.u, self.pad, self.pad, PER)
        self.sP = slopes_of_extended(self.uP, self.grid.dx)  # margin pad - 1
        cut = self.pad - 1
        self.s = self.sP[..., cut : cut + n]  # limited slopes of the cells

    def field(self):
        return self.stepper._quadrature(self.uP, self.sP, self.pad, (self.margin,))[0]

    def space_derivative(self):
        margins = (self.margin, self.margin)
        _, dR = self.stepper._quadrature(self.uP, self.sP, self.pad, margins)
        return dR

    def band_average(self, g):
        """The quadrature of ``g`` without slope corrections: the time-derivative band."""
        gP = extend_array(g, self.pad, self.pad, PER)
        return self.stepper._quadrature(gP, None, self.pad, (self.margin,))[0]


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
    # corrections, applied to an arbitrary cellwise integrand: the plain
    # sliding sum of the band's weights
    conv = Convolution(64, 0.25, "constant")
    g = np.cos(3.0 * conv.grid.centers)[None, :]
    plain = _wrapped_plain_sum(g[0], conv.stepper.qw[0])
    np.testing.assert_allclose(conv.band_average(g)[0], plain, atol=1e-15)


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


KERNELS = ["constant", "linear", "concave", "symmetric-parabola", "backward-power52"]


def _omega_prime_band(spec, n1, n2, dx):
    """dx omega' at the cell offsets, dx/2 omega' a quarter cell inside each end."""
    w = dx * spec.omega_prime(np.arange(-n1, n2 + 1) * dx)
    w[0] = 0.5 * dx * spec.omega_prime((0.25 - n1) * dx)
    w[-1] = 0.5 * dx * spec.omega_prime((n2 - 0.25) * dx)
    return w


@pytest.mark.parametrize("name", KERNELS)
def test_derivative_band_folds_the_support_end_values_into_its_end_taps(name):
    eta, dx = 0.2, 0.2 / 16
    spec = builtin_kernel(name, eta)
    band = build_derivative_weights(spec, dx)
    n1, n2 = band.n1, band.n2
    wp = _omega_prime_band(spec, n1, n2, dx)
    want = -wp
    want[0] -= spec.omega(spec.support[0])
    want[-1] += spec.omega(spec.support[1])
    assert np.array_equal(band.weights, want)
    assert band.ends == (-0.25 * dx * wp[0], -0.25 * dx * wp[-1])
    qw = build_weights(spec, dx)
    assert qw.ends == (0.25 * dx * qw.weights[0], 0.25 * dx * qw.weights[-1])


def _space_derivative_by_the_leibniz_formula(spec, u, s, g, n1, n2, dx, outputs):
    """The space derivative of R as a separate formula, before the fold:

        -omega(eta1) u[j - n1] + omega(eta2) u[j + n2] - (W' * u)[j]
            - dx/4 (w'[0] s[j - n1] - w'[-1] s[j + n2])

    over ``u`` and ``s`` that carry ``g`` ghost cells each side.
    """
    wp = _omega_prime_band(spec, n1, n2, dx)
    reach = n1 + n2
    lo = g + outputs[0] - n1
    hi = g + outputs[-1] + n2 + 1
    window = sliding_window_view(u[lo:hi], reach + 1)
    first, last = u[lo : lo + outputs.size], u[lo + reach : hi]
    s_first, s_last = s[lo : lo + outputs.size], s[lo + reach : hi]
    return (
        -spec.omega(spec.support[0]) * first
        + spec.omega(spec.support[1]) * last
        - window @ wp
        - 0.25 * dx * (wp[0] * s_first - wp[-1] * s_last)
    )


@pytest.mark.parametrize("bc", ["periodic", "zero", "constant"])
@pytest.mark.parametrize("cells", [80, 2560])
@pytest.mark.parametrize("name", KERNELS)
def test_space_derivative_matches_the_leibniz_formula(name, cells, bc):
    eta = 0.2
    spec = builtin_kernel(name, eta)
    model = dataclasses.replace(make_model("arrhenius", eta=eta), kernels=(spec,))
    grid = Grid(-1.0, 1.0, cells)
    stepper = Stepper(model, grid, bc, SchemeSpec("nt", "v2"))
    dw, dx = stepper.dw[0], grid.dx
    pad, MR, margin = stepper.margins["pad"], stepper.margins["R"], stepper.margins["flux"]
    # 80 cells apply the bands by the direct sum, 2560 cells by the FFT; the
    # derivative is read off R's window, as in a step, and cropped
    outputs = cells + (0 if bc == "periodic" else 2 * MR)
    assert direct_path(outputs, dw.weights.size, 2) == (cells == 80)
    x = grid.centers
    u = 0.5 + 0.4 * np.sin(np.pi * x) * np.exp(-4.0 * x**2)
    uP = extend_array(u, pad, pad, bc)
    sP = slopes_of_extended(uP, dx)  # margin pad - 1
    _, dR = stepper._quadrature(uP[None], sP[None], pad, (MR, margin))
    outputs = np.arange(-margin, cells + margin)
    if bc == "periodic":  # the formula reads a wrap extension as wide as it needs
        g = dw.n1 + dw.n2 + margin
        s = sP[pad - 1 : pad - 1 + cells]
        u, s = np.pad(u, g, mode="wrap"), np.pad(s, g, mode="wrap")
        want = _space_derivative_by_the_leibniz_formula(spec, u, s, g, dw.n1, dw.n2, dx, outputs)
    else:
        # the slopes carry one ghost cell fewer than the cells: drop one of uP's
        want = _space_derivative_by_the_leibniz_formula(
            spec, uP[1:-1], sP, pad - 1, dw.n1, dw.n2, dx, outputs
        )
    assert dR.shape == (1, outputs.size)
    assert np.abs(dR[0] - want).max() <= 1e-13 * np.abs(want).max()


def test_extended_evaluation_matches_wrapped_interior():
    # asking for ghost cells of a periodic field must agree with rolling it
    base = Convolution(40, 0.25, "constant").field()
    ext = Convolution(40, 0.25, "constant", margin=3).field()
    assert ext.shape[-1] == 46
    np.testing.assert_allclose(ext[:, 3:-3], base, atol=1e-15)
    np.testing.assert_allclose(ext[:, :3], base[:, -3:], atol=1e-15)
    np.testing.assert_allclose(ext[:, -3:], base[:, :3], atol=1e-15)


def _wrapped_to(a, m):
    return np.pad(a, (m, m), mode="wrap")


# the paths of each field's R with its space derivative, and of its time
# derivative: at 1280 cells the two fields differ in the first, at 2000 in the second
REACH_PATHS = {
    80: ({True}, {True}),
    1280: ({True, False}, {True}),
    2000: ({False}, {True, False}),
    2560: ({False}, {False}),
}


@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("cells", [80, 1280, 2000, 2560])
def test_fields_with_kernels_of_different_reach(cells, bc):
    # no preset convolves two fields with different kernels: each field then
    # takes its own pass, and the two may take different paths
    kernels = (builtin_kernel("linear", 0.2), builtin_kernel("constant", 0.1))
    model = dataclasses.replace(make_model("multilane", eta=0.2), kernels=kernels)
    grid = Grid(-1.0, 1.0, cells)
    stepper = Stepper(model, grid, bc, SchemeSpec("nt", "v2"))
    assert stepper.bands.rows is not None
    M = stepper.margins
    pad, MR, MS, MH = M["pad"], M["R"], M["flux"], M["half"]
    ghosts = 0 if bc == "periodic" else 2
    paths = tuple(
        {direct_path(cells + ghosts * m, q.weights.size, kinds) for q in stepper.qw}
        for m, kinds in ((MR, 2), (MH, 1))
    )
    assert paths == REACH_PATHS[cells]
    rng = np.random.default_rng(cells)
    uP = rng.random((2, cells + 2 * pad))
    sP = rng.random((2, cells + 2 * pad - 2))
    gP = rng.random((2, cells + 2 * MS))
    R, dR = stepper._quadrature(uP, sP, pad, (MR, MS))
    (Rt,) = stepper._quadrature(gP, None, MS, (MH,))
    for r in range(2):
        cases = [(R, stepper.qw[r], MR), (dR, stepper.dw[r], MS)]
        for out, band, m in cases:
            c0, c1 = band.ends
            if bc == "periodic":
                u, s = uP[r, pad : pad + cells], sP[r, pad - 1 : pad - 1 + cells]
                ends = c0 * np.roll(s, band.n1) - c1 * np.roll(s, -band.n2)
                want = _wrapped_to(_wrapped_plain_sum(u, band) + ends, m)
            else:
                cut = pad - m
                t = np.arange(cells + 2 * m) + cut - 1
                ends = c0 * sP[r, t - band.n1] - c1 * sP[r, t + band.n2]
                want = _plain_sum(uP[r], band, cut) + ends
            assert np.abs(out[r] - want).max() <= 1e-13 * np.abs(want).max()
        band = stepper.qw[r]
        if bc == "periodic":
            want = _wrapped_to(_wrapped_plain_sum(gP[r, MS : MS + cells], band), MH)
        else:
            want = _plain_sum(gP[r], band, MS - MH)
        assert np.abs(Rt[r] - want).max() <= 1e-13 * np.abs(want).max()


def test_kernel_support_validation():
    with pytest.raises(KernelDefinitionError, match="support"):
        KernelSpec(omega=lambda x: x, support=(0.5, 1.0))
