"""Convolution kernels and the quadrature bands of the nonlocal terms.

A nonlocal term is a sliding average R(x) = int omega(y - x) u(y) dy with a
compactly supported kernel.  On a grid whose spacing divides the support
exactly, the integral is evaluated by a midpoint rule over whole cells plus
two half-cell end intervals that see the piecewise-linear reconstruction:

    R_j = dx/2 * (u_{j-n1} + dx/4 * s_{j-n1}) * omega((1/4 - n1) dx)
        + dx  * sum_{l=-n1}^{n2-2} u_{j+l+1} * omega((l+1) dx)
        + dx/2 * (u_{j+n2} - dx/4 * s_{j+n2}) * omega((n2 - 1/4) dx)

with n1 = |eta1|/dx and n2 = eta2/dx.  The same weight band is reused for the
time derivative of R (applied to cellwise integrand values, no slope
corrections) and, together with the kernel derivative and its support
boundary values, for the space derivative of R.

Every band is applied by ``correlate_band``, which picks the direct sum or an
FFT by a fixed work threshold (never a library heuristic) and caches the
band's spectrum per transform length.  On a periodic grid the input is the
N cells of one period (``PeriodicCells``) and is read circularly: the FFT
side is an N-point transform against the band wrapped modulo N, the direct
side sums over the period wrap-extended by the band's reach.  No ghost cells
of band width are needed on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.fft import irfft, next_fast_len, rfft

from .core import BoundaryCondition, extend_array
from .errors import ConfigurationError, KernelDefinitionError


@dataclass(frozen=True)
class KernelSpec:
    """A convolution kernel in closed form.

    ``omega`` (and ``omega_prime`` when given) must be vectorised and
    evaluable on the closed support ``[eta1, eta2]`` with ``eta1 <= 0 <= eta2``.
    """

    omega: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    omega_prime: Callable[[np.ndarray], np.ndarray] | None = None
    claims_unit_integral: bool = False
    name: str = "custom"
    normalization: float = 1.0  # factor already applied by normalize_kernel

    def __post_init__(self):
        eta1, eta2 = self.support
        if not (eta1 <= 0.0 <= eta2) or not (eta2 > eta1):
            raise KernelDefinitionError(
                f"kernel support must satisfy eta1 <= 0 <= eta2 with eta1 < eta2, "
                f"got [{eta1}, {eta2}]"
            )


def kernel_integral(spec: KernelSpec, tol: float = 1e-10) -> float:
    """Adaptive quadrature of the kernel over its support."""
    eta1, eta2 = spec.support
    value, _ = integrate.quad(spec.omega, eta1, eta2, epsabs=tol, epsrel=tol, limit=200)
    return value


def normalize_kernel(spec: KernelSpec, tol: float = 1e-10) -> KernelSpec:
    """Rescale a kernel to unit integral over its support."""
    mass = kernel_integral(spec, tol)
    if not np.isfinite(mass) or mass <= tol:
        raise KernelDefinitionError(
            f"kernel {spec.name!r} has non-positive integral {mass!r}; "
            "cannot normalize"
        )
    scale = 1.0 / mass
    omega = spec.omega
    omega_prime = spec.omega_prime
    new_prime = None
    if omega_prime is not None:
        new_prime = lambda x, _f=omega_prime, _s=scale: _s * np.asarray(_f(x), dtype=float)
    return replace(
        spec,
        omega=lambda x, _f=omega, _s=scale: _s * np.asarray(_f(x), dtype=float),
        omega_prime=new_prime,
        claims_unit_integral=True,
        normalization=spec.normalization * scale,
    )


@dataclass(eq=False)
class Band:
    """Weights of the sliding sum out[j] = sum_i u[j + i] * weights[i].

    ``weights[i]`` multiplies the cell at offset ``i - n1`` relative to the
    evaluation cell.  ``spectra`` caches conj(rfft(weights, nfft)) per
    transform length ``nfft``, and ``wrapped_spectra`` the same for the band
    wrapped modulo a period of ``n`` cells; both are filled on first use by
    ``correlate_band``.
    """

    n1: int
    n2: int
    dx: float
    weights: np.ndarray
    spectra: dict = field(default_factory=dict, init=False, repr=False)
    wrapped_spectra: dict = field(default_factory=dict, init=False, repr=False)

    def spectrum(self, nfft: int) -> np.ndarray:
        s = self.spectra.get(nfft)
        if s is None:
            s = self.spectra[nfft] = np.conj(rfft(self.weights, nfft))
        return s

    def wrapped_spectrum(self, n: int) -> np.ndarray:
        s = self.wrapped_spectra.get(n)
        if s is None:
            # offsets congruent modulo n read the same cell of the period
            offsets = np.arange(-self.n1, self.n2 + 1) % n
            wrapped = np.bincount(offsets, weights=self.weights, minlength=n)
            s = self.wrapped_spectra[n] = np.conj(rfft(wrapped))
        return s


@dataclass(eq=False)
class QuadratureWeights(Band):
    """Discrete band replacing the convolution integral at one grid spacing.

    The first and last weights are the half-cell end weights that also carry
    the +/- dx/4 slope corrections.
    """

    @property
    def left_weight(self) -> float:
        return float(self.weights[0])

    @property
    def right_weight(self) -> float:
        return float(self.weights[-1])

    def total(self) -> float:
        return float(self.weights.sum())


def _band_counts(spec: KernelSpec, dx: float, tol: float = 1e-9) -> tuple[int, int]:
    eta1, eta2 = spec.support
    out = []
    for span in (-eta1, eta2):
        ratio = span / dx
        n = round(ratio)
        if abs(ratio - n) > tol * max(1.0, abs(ratio)):
            raise ConfigurationError(
                f"kernel {spec.name!r}: support extent {span:.6g} is not an "
                f"integer multiple of dx={dx:.6g} (ratio {ratio:.12g}); "
                "fractional-cell supports are not supported"
            )
        out.append(int(n))
    return out[0], out[1]


def _band(fn, n1: int, n2: int, dx: float) -> np.ndarray:
    offsets = np.arange(-n1, n2 + 1, dtype=float)
    w = dx * np.asarray(fn(offsets * dx), dtype=float)
    w[0] = 0.5 * dx * float(fn((0.25 - n1) * dx))
    w[-1] = 0.5 * dx * float(fn((n2 - 0.25) * dx))
    return w


def build_weights(spec: KernelSpec, dx: float) -> QuadratureWeights:
    """Build the quadrature band for one kernel at one grid spacing."""
    if dx <= 0.0:
        raise ConfigurationError(f"dx must be positive, got {dx}")
    n1, n2 = _band_counts(spec, dx)
    w = _band(spec.omega, n1, n2, dx)
    if not np.all(np.isfinite(w)):
        raise KernelDefinitionError(
            f"kernel {spec.name!r} produced non-finite quadrature weights"
        )
    if np.any(w < -1e-14 * max(1.0, np.abs(w).max())):
        raise KernelDefinitionError(
            f"kernel {spec.name!r} produced negative quadrature weights; "
            "kernels must be nonnegative on their support"
        )
    return QuadratureWeights(n1=n1, n2=n2, dx=dx, weights=w)


@dataclass(eq=False)
class DerivativeWeights(Band):
    """Band built from omega' plus the kernel values at the support ends."""

    boundary_left: float  # omega at the left support end
    boundary_right: float  # omega at the right support end


def build_derivative_weights(spec: KernelSpec, dx: float) -> DerivativeWeights:
    """Quadrature data for the space derivative of the nonlocal term."""
    if spec.omega_prime is None:
        raise KernelDefinitionError(
            f"kernel {spec.name!r} has no derivative; the product-rule slope "
            "variant needs omega_prime in closed form"
        )
    n1, n2 = _band_counts(spec, dx)
    w = _band(spec.omega_prime, n1, n2, dx)
    eta1, eta2 = spec.support
    bl = float(spec.omega(np.asarray(eta1, dtype=float)))
    br = float(spec.omega(np.asarray(eta2, dtype=float)))
    return DerivativeWeights(
        n1=n1, n2=n2, dx=dx, weights=w, boundary_left=bl, boundary_right=br
    )


class PeriodicCells:
    """The cell values of one period, read circularly by ``correlate_band``.

    The forward transform and the last wrap extension are kept, so bands
    applied to the same cells share them.
    """

    __slots__ = ("values", "_transform", "_wrapped")

    def __init__(self, values: np.ndarray):
        self.values = values
        self._transform = None
        self._wrapped = None

    def transform(self) -> np.ndarray:
        if self._transform is None:
            self._transform = rfft(self.values)
        return self._transform

    def wrapped(self, left: int, right: int) -> np.ndarray:
        """The cells wrap-extended by ``left`` and ``right`` ghost cells."""
        if self._wrapped is None or self._wrapped[0] != (left, right):
            ext = extend_array(self.values, left, right, BoundaryCondition.PERIODIC)
            self._wrapped = ((left, right), ext)
        return self._wrapped[1]


# outputs x taps at or below which the direct sum beats the cached-spectrum FFT
DIRECT_MAX_WORK = 2**18


def correlate_band(u: "np.ndarray | PeriodicCells", band: Band) -> np.ndarray:
    """Sliding sum of a band over 1-D cell values.

    A plain array carries the band's ghost cells: the valid part of
    out[j] = sum_i u[j + i] * band.weights[i] is returned.  ``PeriodicCells``
    of period n give out[j] = sum_i u[(j - n1 + i) mod n] * band.weights[i]
    for j = 0..n-1.
    """
    w = band.weights
    if isinstance(u, PeriodicCells):
        n = u.values.size
        if n * w.size <= DIRECT_MAX_WORK:
            return np.correlate(u.wrapped(band.n1, band.n2), w, "valid")
        return irfft(u.transform() * band.wrapped_spectrum(n), n)
    n_out = u.size - w.size + 1
    if n_out * w.size <= DIRECT_MAX_WORK:
        return np.correlate(u, w, "valid")
    nfft = next_fast_len(u.size, real=True)
    return irfft(rfft(u, nfft) * band.spectrum(nfft), nfft)[:n_out]


# ---------------------------------------------------------------------------
# Built-in kernel shapes.  All are normalised to unit integral; eta > 0 sets
# the support extent.  Forward-looking shapes live on [0, eta], the backward
# power-law shape on [-eta, 0], and the symmetric parabola on [-eta, eta].


def _constant(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / eta),
        omega_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        support=(0.0, eta),
        claims_unit_integral=True,
        name="constant",
    )


def _linear(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: (2.0 / eta) * (1.0 - np.asarray(x, dtype=float) / eta),
        omega_prime=lambda x: np.full_like(np.asarray(x, dtype=float), -2.0 / eta**2),
        support=(0.0, eta),
        claims_unit_integral=True,
        name="linear",
    )


def _concave(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: 3.0 * (eta**2 - np.asarray(x, dtype=float) ** 2) / (2.0 * eta**3),
        omega_prime=lambda x: -3.0 * np.asarray(x, dtype=float) / eta**3,
        support=(0.0, eta),
        claims_unit_integral=True,
        name="concave",
    )


def _symmetric_parabola(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: 3.0 * (eta**2 - np.asarray(x, dtype=float) ** 2) / (4.0 * eta**3),
        omega_prime=lambda x: -3.0 * np.asarray(x, dtype=float) / (2.0 * eta**3),
        support=(-eta, eta),
        claims_unit_integral=True,
        name="symmetric-parabola",
    )


def _backward_power(eta: float) -> KernelSpec:
    # (-x (eta + x))^(5/2) on [-eta, 0], normalised numerically.
    def raw(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(-x * (eta + x), 0.0) ** 2.5

    def raw_prime(x):
        x = np.asarray(x, dtype=float)
        return 2.5 * np.maximum(-x * (eta + x), 0.0) ** 1.5 * (-(eta + 2.0 * x))

    spec = KernelSpec(
        omega=raw,
        omega_prime=raw_prime,
        support=(-eta, 0.0),
        name="backward-power52",
    )
    return normalize_kernel(spec)


BUILTIN_KERNELS: dict[str, Callable[[float], KernelSpec]] = {
    "constant": _constant,
    "linear": _linear,
    "concave": _concave,
    "symmetric-parabola": _symmetric_parabola,
    "backward-power52": _backward_power,
}


def builtin_kernel(name: str, eta: float) -> KernelSpec:
    """Construct one of the built-in unit-integral kernels."""
    if eta <= 0.0:
        raise KernelDefinitionError(f"kernel range eta must be positive, got {eta}")
    try:
        factory = BUILTIN_KERNELS[name]
    except KeyError:
        raise KernelDefinitionError(
            f"unknown kernel {name!r}; available: {sorted(BUILTIN_KERNELS)}"
        ) from None
    return factory(eta)
