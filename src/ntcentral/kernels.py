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
corrections).  By the Leibniz rule the space derivative of R,

    omega(eta2) u(x + eta2) - omega(eta1) u(x + eta1) - int omega'(y - x) u(y) dy,

is one band too: the omega' band negated, with -omega(eta1) added to its
first tap and omega(eta2) to its last.  Only the omega' part sees the slopes.

Every band is applied by ``correlate_band``, which picks the direct sum or an
FFT by fixed thresholds (``direct_path``, never a library heuristic).  A
stepper keeps one ``BandStack``: kind 0 holds R's bands and, under nt-v2,
kind 1 the space derivative's, one band per field.  A call takes the first k
kinds with its fields stacked as rows, and all of them read one window (the N
cells of one period on a periodic grid, else the ghost-padded cells of the
widest output) through one set of direct sums or one forward and one inverse
transform, and one pass of slope end corrections.  The transforms are
``numpy.fft``'s (pocketfft, as in numpy 2.4), which round a stacked row as the
row alone, against the bands wrapped modulo the transform length: N on the
torus, else the smallest 5-smooth length ``fft_length(L)`` of the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .core import BoundaryCondition, extend_array
from .errors import ConfigurationError, KernelDefinitionError

_PERIODIC = BoundaryCondition.PERIODIC


@dataclass(frozen=True)
class KernelSpec:
    """A convolution kernel in closed form.

    ``omega`` (and ``omega_prime`` when given) must be vectorised and
    evaluable on the closed support ``[eta1, eta2]`` with ``eta1 <= 0 <= eta2``.
    """

    omega: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    omega_prime: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"

    def __post_init__(self):
        eta1, eta2 = self.support
        if not (eta1 <= 0.0 <= eta2) or not (eta2 > eta1):
            raise KernelDefinitionError(
                f"kernel support must satisfy eta1 <= 0 <= eta2 with eta1 < eta2, "
                f"got [{eta1}, {eta2}]"
            )


@dataclass(eq=False)
class Band:
    """Weights of the sliding sum out[j] = sum_i u[j + i] * weights[i].

    ``weights[i]`` multiplies the cell at offset ``i - n1`` relative to the
    evaluation cell.  The half-cell end intervals also see the slopes s of
    the reconstruction: with ``ends`` = (c0, c1), output j gains
    c0 s[j - n1] - c1 s[j + n2].
    """

    n1: int
    n2: int
    weights: np.ndarray
    ends: tuple[float, float]


class BandStack:
    """The bands of a stepper's quadrature calls: for each kind, one band per field.

    ``kinds[b][r]`` slides over row r of a call's stacked cell values.  A call
    takes the first k kinds, whose (c0, c1) ``ends[k - 1]`` holds as (k,
    fields, 1) arrays: (fields, 1) for kind 0 alone, floats for one band.  A
    field's bands share one reach (n1, n2); where fields differ in it, ``rows``
    holds one stack per field.  ``spectra`` caches ``spectrum``.
    """

    def __init__(self, kinds):
        self.kinds = tuple(tuple(kind) for kind in kinds)
        self.n1, self.n2 = self.kinds[0][0].n1, self.kinds[0][0].n2
        ends = np.array([[band.ends for band in kind] for kind in self.kinds])
        self.ends = []
        for e in [ends[0]] + [ends[:k] for k in range(2, len(ends) + 1)]:
            self.ends.append(tuple(e.ravel().tolist()) if e.size == 2 else (e[..., :1], e[..., 1:]))
        split = any((b.n1, b.n2) != (self.n1, self.n2) for b in self.kinds[0])
        self.rows = [BandStack([(b,) for b in row]) for row in zip(*self.kinds)] if split else None
        self.spectra = {}

    def spectrum(self, nfft: int, k: int) -> np.ndarray:
        """conj(rfft) of the first ``k`` kinds' bands wrapped modulo ``nfft``
        cells, views of one array cached per ``nfft``."""
        if nfft not in self.spectra:
            # offsets congruent modulo nfft read one cell of the transform
            offsets = np.arange(-self.n1, self.n2 + 1) % nfft
            w = [[np.bincount(offsets, b.weights, nfft) for b in kind] for kind in self.kinds]
            full = np.conj(rfft(np.array(w), nfft))
            self.spectra[nfft] = [full[:j] for j in range(1, len(full) + 1)]
        return self.spectra[nfft][k - 1]


MAX_TAPS = 2**31  # the most taps a band may have: a wider support is refused, not allocated


def _band_counts(spec: KernelSpec, dx: float, tol: float = 1e-9) -> tuple[int, int]:
    eta1, eta2 = spec.support
    if not (eta2 - eta1) / dx < MAX_TAPS:
        raise ConfigurationError(
            f"kernel {spec.name!r}: support {spec.support} spans more than {MAX_TAPS} taps"
        )
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


def build_weights(spec: KernelSpec, dx: float) -> Band:
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
    return Band(n1=n1, n2=n2, weights=w, ends=(0.25 * dx * w[0], 0.25 * dx * w[-1]))


def build_derivative_weights(spec: KernelSpec, dx: float) -> Band:
    """The band of the space derivative of the nonlocal term (Leibniz rule)."""
    if spec.omega_prime is None:
        raise KernelDefinitionError(
            f"kernel {spec.name!r} has no derivative; the product-rule slope "
            "variant needs omega_prime in closed form"
        )
    n1, n2 = _band_counts(spec, dx)
    w = -_band(spec.omega_prime, n1, n2, dx)
    ends = (0.25 * dx * w[0], 0.25 * dx * w[-1])  # before the kernel's end values
    left, right = spec.omega(np.asarray(spec.support, dtype=float))
    w[0] -= left
    w[-1] += right
    return Band(n1=n1, n2=n2, weights=w, ends=ends)


@lru_cache(maxsize=256)
def fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, the transform length for n inputs."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two taking p35 to n or more
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


DIRECT_MAX_WORK, DIRECT_MAX_TAPS = 2**18, 64


def direct_path(outputs: int, taps: int, kinds: int) -> bool:
    """Whether a call takes the direct sum, which costs about outputs x taps x kinds: up
    to a fixed work, and for few taps at any length (the FFT's cost per output grows)."""
    return taps * kinds <= DIRECT_MAX_TAPS or outputs * taps * kinds <= DIRECT_MAX_WORK


def correlate_band(rows: np.ndarray, bands: BandStack, kinds: int, cut=None, slopes=None):
    """Sliding sums of the first ``kinds`` kinds of ``bands`` over the stacked
    cell values ``rows``, as one (kinds, rows, outputs) array.

    With ``cut`` of None each row holds the n cells of one period, read
    circularly: out[b, r, j] = sum_i rows[r, (j - n1 + i) mod n] * w[i] for
    j = 0..n-1, with w the weights of ``bands.kinds[b][r]``.  Otherwise the
    rows carry ghost cells and the outputs drop ``cut`` of them on each side:
    out[b, r, j] = sum_i rows[r, cut - n1 + j + i] * w[i].  With ``slopes``
    s, laid out as the rows, each band's ends (c0, c1) add
    c0 s[j - n1] - c1 s[j + n2] to its output j, in one pass over all bands.
    """
    if bands.rows is not None:  # fields whose bands differ in reach: one at a time
        ss = [slopes] * len(rows) if slopes is None else slopes[:, None]
        parts = zip(rows[:, None], bands.rows, ss)
        return np.concatenate([correlate_band(u, b, kinds, cut, s) for u, b, s in parts], axis=1)
    n1, n2, n = bands.n1, bands.n2, rows.shape[-1]
    if cut is None:  # one period, wrap-extended by the bands' reach for direct sums
        n_out, window = n, None
    else:  # the ghost-padded cells the outputs read
        n_out, window = n - 2 * cut, (..., slice(cut - n1, n - cut + n2))
    if direct_path(n_out, n1 + n2 + 1, kinds):
        us = extend_array(rows, n1, n2, _PERIODIC) if cut is None else rows[window]
        out = _direct_sums(us, bands.kinds[:kinds])
    elif cut is None:  # an n-point transform: output j at j
        out = irfft(rfft(rows) * bands.spectrum(n, kinds), n)
    else:  # the window zero-padded to the transform length: output j at n1 + j
        us = rows[window]
        nfft = fft_length(us.shape[-1])
        out = irfft(rfft(us, nfft) * bands.spectrum(nfft, kinds), nfft)[..., n1 : n1 + n_out]
    if slopes is not None:
        s = extend_array(slopes, n1, n2, _PERIODIC) if cut is None else slopes[window]
        c0, c1 = bands.ends[kinds - 1]
        o = out[0] if kinds == 1 else out  # numpy passes over 2-D arrays cost less
        o += c0 * s[..., :n_out] - c1 * s[..., n1 + n2 :]
    return out


def _direct_sums(us: np.ndarray, kinds) -> np.ndarray:
    """(kinds, rows, outputs) of np.correlate; a single sum as a view, not a copy."""
    sums = [[np.correlate(us[r], b.weights, "valid") for r, b in enumerate(kind)] for kind in kinds]
    return sums[0][0][None, None] if len(sums) == len(sums[0]) == 1 else np.array(sums)


# ---------------------------------------------------------------------------
# Built-in kernel shapes.  All have unit integral in closed form; eta > 0 sets
# the support extent.  Forward-looking shapes live on [0, eta], the backward
# power-law shape on [-eta, 0], and the symmetric parabola on [-eta, eta].


def _constant(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / eta),
        omega_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        support=(0.0, eta),
        name="constant",
    )


def _linear(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: (2.0 / eta) * (1.0 - np.asarray(x, dtype=float) / eta),
        omega_prime=lambda x: np.full_like(np.asarray(x, dtype=float), -2.0 / eta**2),
        support=(0.0, eta),
        name="linear",
    )


def _concave(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: 3.0 * (eta**2 - np.asarray(x, dtype=float) ** 2) / (2.0 * eta**3),
        omega_prime=lambda x: -3.0 * np.asarray(x, dtype=float) / eta**3,
        support=(0.0, eta),
        name="concave",
    )


def _symmetric_parabola(eta: float) -> KernelSpec:
    return KernelSpec(
        omega=lambda x: 3.0 * (eta**2 - np.asarray(x, dtype=float) ** 2) / (4.0 * eta**3),
        omega_prime=lambda x: -3.0 * np.asarray(x, dtype=float) / (2.0 * eta**3),
        support=(-eta, eta),
        name="symmetric-parabola",
    )


def _backward_power(eta: float) -> KernelSpec:
    # (-x (eta + x))^(5/2) on [-eta, 0]; substituting x = -eta t turns its
    # integral into eta^6 B(7/2, 7/2) = 5 pi eta^6 / 1024
    # inside these bounds eta**6, 5 pi eta**6 and the scale are normal doubles
    if not 1.1e-51 <= eta <= 1.4e51:
        raise KernelDefinitionError(
            f"kernel 'backward-power52' cannot be normalised at eta = {eta}: "
            "its scale is a normal double only for eta in [1.1e-51, 1.4e51]"
        )
    scale = 1024.0 / (5.0 * np.pi * eta**6)

    def omega(x):
        x = np.asarray(x, dtype=float)
        return scale * np.maximum(-x * (eta + x), 0.0) ** 2.5

    def omega_prime(x):
        x = np.asarray(x, dtype=float)
        return scale * (2.5 * np.maximum(-x * (eta + x), 0.0) ** 1.5 * (-(eta + 2.0 * x)))

    return KernelSpec(
        omega=omega,
        omega_prime=omega_prime,
        support=(-eta, 0.0),
        name="backward-power52",
    )


BUILTIN_KERNELS: dict[str, Callable[[float], KernelSpec]] = {
    "constant": _constant,
    "linear": _linear,
    "concave": _concave,
    "symmetric-parabola": _symmetric_parabola,
    "backward-power52": _backward_power,
}


def builtin_kernel(name: str, eta: float) -> KernelSpec:
    """Construct one of the built-in unit-integral kernels."""
    if not 0.0 < eta < math.inf:  # NaN fails too
        raise KernelDefinitionError(f"kernel range eta must be positive and finite, got {eta}")
    try:
        factory = BUILTIN_KERNELS[name]
    except KeyError:
        raise KernelDefinitionError(
            f"unknown kernel {name!r}; available: {sorted(BUILTIN_KERNELS)}"
        ) from None
    return factory(eta)
