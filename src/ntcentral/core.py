"""Grids, states, boundary handling, time-step control and basic diagnostics.

All solution data lives in plain ``(n_species, n_cells)`` float64 arrays of
cell averages.  Boundary conditions are realised by padding those arrays with
ghost cells; every operator in the package resolves out-of-range indices
through :func:`extend_array`, so the three supported closures behave
identically across schemes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, InputDataError, ModelDefinitionError

#: Hyperbolic CFL bound lambda * L_F <= (sqrt(2) - 1) / 2 used by the
#: predictor/projection stepper.  The first-order schemes run under the same
#: bound so that scheme comparisons share one time step.
CFL_LIMIT = (math.sqrt(2.0) - 1.0) / 2.0

# Fixed 5-point Gauss-Legendre rule per cell for initial-data projection.
# Order 10 keeps the initialisation error far below the scheme error; for
# piecewise-smooth data with jumps on cell interfaces it is exact because the
# nodes stay strictly inside each cell.  The weights are normalised by their
# floating-point sum, and init_cell_averages averages the deviations from the
# middle node, so every constant averages to itself bit for bit.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_WEIGHTS = _GL_WEIGHTS / _GL_WEIGHTS.sum()


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

    @property
    def interfaces(self) -> np.ndarray:
        return self.x_left + np.arange(self.cells + 1) * self.dx


@dataclass
class SystemState:
    """Cell averages of every species at one time instant."""

    values: np.ndarray  # shape (n_species, n_cells)
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InputDataError(
                f"state values must be 2-D (species, cells), got shape "
                f"{self.values.shape}"
            )

    @property
    def n_species(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "SystemState":
        return SystemState(self.values.copy(), self.time)


@dataclass(frozen=True)
class TimeController:
    """Fixed-ratio time stepping under a hyperbolic CFL bound.

    In the default flux-only mode the step is
    ``dt = safety * cfl_limit * dx / L_F``.  In positivity mode the limit is
    split between flux and source contributions,
    ``dt = safety * min(kappa * dx / L_F, 2 * tau / L_S)`` with
    ``kappa + tau <= cfl_limit``, which keeps nonnegative data nonnegative
    for models whose sources vanish at the vacuum state.
    """

    t_final: float
    cfl_limit: float = CFL_LIMIT
    safety: float = 1.0
    positivity: bool = False
    kappa: float = CFL_LIMIT / 2.0
    tau: float = CFL_LIMIT / 2.0

    def __post_init__(self):
        if self.t_final < 0.0:
            raise ConfigurationError(f"t_final must be >= 0, got {self.t_final}")
        if not (0.0 < self.safety <= 1.0):
            raise ConfigurationError(
                f"CFL safety factor must lie in (0, 1], got {self.safety}"
            )
        if not (0.0 < self.cfl_limit):
            raise ConfigurationError("cfl_limit must be positive")
        if self.positivity:
            if self.kappa <= 0.0 or self.tau < 0.0:
                raise ConfigurationError("positivity mode needs kappa > 0, tau >= 0")
            if self.kappa + self.tau > self.cfl_limit * (1.0 + 1e-12):
                raise ConfigurationError(
                    f"kappa + tau = {self.kappa + self.tau} exceeds the CFL "
                    f"limit {self.cfl_limit}"
                )


def max_stable_dt(
    controller: TimeController,
    grid: Grid,
    lip_flux: float,
    lip_source: float | None = None,
    t_now: float = 0.0,
) -> float:
    """Largest admissible time step at ``t_now``, clamped to land on t_final.

    ``lip_flux``/``lip_source`` are Lipschitz bounds of the flux and source
    over the admissible state box of the run.
    """
    if not np.isfinite(lip_flux) or lip_flux <= 0.0:
        raise ModelDefinitionError(
            f"flux Lipschitz bound must be positive and finite, got {lip_flux}"
        )
    if controller.positivity:
        dt = controller.kappa * grid.dx / lip_flux
        if lip_source:
            dt = min(dt, 2.0 * controller.tau / lip_source)
    else:
        dt = controller.cfl_limit * grid.dx / lip_flux
    dt *= controller.safety
    remaining = controller.t_final - t_now
    if remaining <= 0.0:
        return 0.0
    return min(dt, remaining)


def extend_array(
    a: np.ndarray, left: int, right: int, bc: BoundaryCondition
) -> np.ndarray:
    """Pad the last axis with ``left``/``right`` ghost entries resolved by ``bc``."""
    if left == 0 and right == 0:
        return a
    if left < 0 or right < 0:
        raise ValueError("ghost extents must be nonnegative")
    pad = [(0, 0)] * (a.ndim - 1) + [(left, right)]
    if bc is BoundaryCondition.PERIODIC:
        return np.pad(a, pad, mode="wrap")
    if bc is BoundaryCondition.CONSTANT:
        return np.pad(a, pad, mode="edge")
    return np.pad(a, pad, mode="constant", constant_values=0.0)


def init_cell_averages(
    profiles: "Callable | Sequence[Callable]", grid: Grid
) -> SystemState:
    """Project pointwise initial profiles onto cell averages.

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
    return SystemState(values, 0.0)


def total_mass(state: SystemState, grid: Grid) -> np.ndarray:
    """Per-species integral of the piecewise-constant solution."""
    return grid.dx * state.values.sum(axis=1)


def total_variation(state: SystemState, bc: BoundaryCondition) -> np.ndarray:
    """Per-species total variation of the cell averages.

    Periodic runs include the wrap-around difference; the one-sided closures
    only count interior differences (a constant or zero extension adds no
    variation of its own at a flat boundary region).
    """
    v = state.values
    tv = np.abs(np.diff(v, axis=1)).sum(axis=1)
    if bc is BoundaryCondition.PERIODIC:
        tv = tv + np.abs(v[:, 0] - v[:, -1])
    return tv
