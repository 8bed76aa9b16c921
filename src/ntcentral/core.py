"""Grids, states, boundary handling, the CFL step size and initial averages.

All solution data lives in plain ``(n_species, n_cells)`` float64 arrays of
cell averages.  Boundary conditions are realised by padding those arrays with
ghost cells; every operator in the package resolves out-of-range indices
through :func:`extend_array`, so the three supported closures behave
identically across schemes.  The one exception is the FFT side of the
periodic quadrature, which reads its input modulo the period.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, InputDataError, ModelDefinitionError

#: Hyperbolic CFL bound lambda * L_F <= (sqrt(2) - 1) / 2 used by the
#: predictor/projection stepper.  The first-order schemes run under the same
#: bound so that scheme comparisons share one time step.
CFL_LIMIT = (math.sqrt(2.0) - 1.0) / 2.0
#: The positivity result's split of that bound into a flux part KAPPA and a
#: source part TAU, fixed by the analysis: KAPPA + TAU = CFL_LIMIT.
KAPPA = TAU = CFL_LIMIT / 2.0

# Fixed 5-point Gauss-Legendre rule per cell for initial-data projection.
# Order 10 keeps the initialisation error far below the scheme error; for
# piecewise-smooth data with jumps on cell interfaces it is exact because the
# nodes stay strictly inside each cell.  These are numpy's leggauss(5) nodes
# and its weights divided by their floating-point sum, bit for bit, stated
# here so that numpy.polynomial is never imported.  init_cell_averages
# averages the deviations from the middle node, so every constant averages to
# itself bit for bit.
_GL_NODES = np.array(
    [-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]
)
_GL_WEIGHTS = np.array(
    [0.11846344252809465, 0.23931433524968318, 0.2844444444444444,
     0.23931433524968318, 0.11846344252809465]
)


class BoundaryCondition(enum.Enum):
    """Ghost-cell closure applied outside the computational domain."""

    PERIODIC = "periodic"
    CONSTANT = "constant"  # constant extension of the first/last cell
    ZERO = "zero"

    @classmethod
    def parse(cls, name: "str | BoundaryCondition") -> "BoundaryCondition":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown boundary condition {name!r}; "
                f"expected one of {[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of cell averages.

    Cells are ``[x_left + j*dx, x_left + (j+1)*dx)`` for ``j = 0..cells-1``.
    """

    x_left: float
    x_right: float
    cells: int

    def __post_init__(self):
        if not (self.x_right > self.x_left):
            raise ConfigurationError(
                f"empty domain: [{self.x_left}, {self.x_right}]"
            )
        if self.cells < 4:
            raise ConfigurationError(
                f"grid needs at least 4 cells, got {self.cells}"
            )

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.cells) + 0.5) * self.dx


@dataclass
class SystemState:
    """Cell averages of every species at one time instant: a run's final state."""

    values: np.ndarray  # shape (n_species, n_cells)
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InputDataError(
                f"state values must be 2-D (species, cells), got shape "
                f"{self.values.shape}"
            )


def max_stable_dt(
    dx: float,
    lip_flux: float,
    lip_source: float | None = None,
    positivity: bool = False,
    safety: float = 1.0,
) -> float:
    """Largest admissible time step on a grid of spacing ``dx``.

    In the default flux-only mode the step is
    ``dt = safety * CFL_LIMIT * dx / L_F``.  In positivity mode the limit is
    split between flux and source contributions,
    ``dt = safety * min(KAPPA * dx / L_F, 2 * TAU / L_S)``, which keeps
    nonnegative data nonnegative for models whose sources vanish at the
    vacuum state.
    ``lip_flux``/``lip_source`` are Lipschitz bounds of the flux and source
    over the admissible state box of the run.
    """
    if not np.isfinite(lip_flux) or lip_flux <= 0.0:
        raise ModelDefinitionError(
            f"flux Lipschitz bound must be positive and finite, got {lip_flux}"
        )
    if positivity:
        dt = KAPPA * dx / lip_flux
        if lip_source:
            dt = min(dt, 2.0 * TAU / lip_source)
    else:
        dt = CFL_LIMIT * dx / lip_flux
    return dt * safety


# extended lengths up to which a periodic extension by index beats slicing
_TAKE_MAX = 1024


@functools.lru_cache(maxsize=64)
def _wrap_index(n: int, left: int, right: int) -> np.ndarray:
    """Cell index of every entry of a periodic extension (shared, read-only)."""
    index = np.arange(-left, n + right) % n
    index.flags.writeable = False
    return index


def extend_array(
    a: np.ndarray, left: int, right: int, bc: BoundaryCondition
) -> np.ndarray:
    """Pad the last axis with ``left``/``right`` ghost entries resolved by ``bc``.

    The result equals ``np.pad`` in ``wrap``, ``edge`` or zero ``constant``
    mode entry for entry, built by slicing or a cached index instead.
    """
    if left == 0 and right == 0:
        return a
    if left < 0 or right < 0:
        raise ValueError("ghost extents must be nonnegative")
    n = a.shape[-1]
    if bc is BoundaryCondition.PERIODIC:
        if left <= n and right <= n and left + n + right > _TAKE_MAX:
            return np.concatenate((a[..., n - left :], a, a[..., :right]), axis=-1)
        return a.take(_wrap_index(n, left, right), axis=-1)
    out = np.empty(a.shape[:-1] + (left + n + right,), dtype=a.dtype)
    out[..., left : left + n] = a
    if bc is BoundaryCondition.CONSTANT:
        out[..., :left] = a[..., :1]
        out[..., left + n :] = a[..., -1:]
    else:
        out[..., :left] = 0.0
        out[..., left + n :] = 0.0
    return out


def init_cell_averages(
    profiles: "Callable | Sequence[Callable]", grid: Grid
) -> np.ndarray:
    """Project pointwise initial profiles onto cell averages, shape (species, cells).

    Each profile is a vectorised callable ``f(x)``.  Averages use a fixed
    5-point Gauss-Legendre rule per cell, exact for polynomials up to degree 9
    and for piecewise-smooth data whose jumps lie on cell interfaces.
    """
    if callable(profiles):
        profiles = [profiles]
    nodes = grid.centers[:, None] + 0.5 * grid.dx * _GL_NODES[None, :]
    values = np.empty((len(profiles), grid.cells))
    for k, f in enumerate(profiles):
        samples = np.asarray(f(nodes), dtype=float)
        if samples.shape != nodes.shape:
            samples = np.broadcast_to(samples, nodes.shape)
        bad = ~np.isfinite(samples)
        if bad.any():
            j = int(np.argwhere(bad.any(axis=1))[0][0])
            raise InputDataError(
                f"species {k}: non-finite initial value in cell {j} "
                f"(x near {grid.centers[j]:.6g})"
            )
        mid = samples[:, 2]  # the node at the cell centre
        values[k] = mid + (samples - mid[:, None]) @ _GL_WEIGHTS
    return values
