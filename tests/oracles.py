"""Test oracles, imported as ``from oracles import ...``: diagnostics no run computes.

``total_mass`` and ``total_variation`` are the monitor's ``mass`` and ``tv``
from their definitions, formulas the monitor does not share.
``entropy_residual`` steps over the run loop's own schedule.
"""

import numpy as np

from ntcentral import harness
from ntcentral.core import BoundaryCondition, Grid
from ntcentral.errors import ConfigurationError
from ntcentral.limiters import NO_CLIP, ClipConfig
from ntcentral.models import ModelDef
from ntcentral.schemes import SchemeSpec, Stepper


def total_mass(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Per-species integral of the piecewise-constant solution."""
    return grid.dx * values.sum(axis=1)


def total_variation(values: np.ndarray, bc: "str | BoundaryCondition") -> np.ndarray:
    """Per-species total variation of the cell averages, with the wrap-around
    difference on the torus; a one-sided closure adds none at a flat boundary."""
    tv = np.abs(np.diff(values, axis=1)).sum(axis=1)
    if BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC:
        tv = tv + np.abs(values[:, 0] - values[:, -1])
    return tv


def relative_mass_drift(log: harness.MonitorLog) -> float:
    """Worst relative change of any species mass over a nonempty record."""
    mass = log.mass
    scale = np.maximum(np.abs(mass[0]), 1e-300)
    return float((np.abs(mass - mass[0]) / scale).max())


def entropy_residual(
    model: ModelDef,
    grid: Grid,
    values: np.ndarray,
    zeta: float,
    t_final: float,
    time_ratio: float,
    bc: "str | BoundaryCondition" = "periodic",
    slope_variant: str = "v2",
    clip: ClipConfig = NO_CLIP,
) -> np.ndarray:
    """Per-step maximum violation of the discrete entropy inequality.

    Runs the central scheme on a scalar model and evaluates, for the constant
    ``zeta``, the cellwise entropy production of every update.  Only positive
    production violates the inequality, so a clean run returns zeros.
    """
    if model.n_species != 1:
        raise ConfigurationError("the discrete entropy residual is only defined for scalar models")
    stepper = Stepper(model, grid, bc, SchemeSpec("nt", slope_variant), clip)
    dx = grid.dx
    z = float(zeta)

    v = np.atleast_2d(np.array(values, dtype=float))
    def flux(u, R):  # the one species' flux g(u) V(R)
        return model.eval_flux(u[None], R)[0]

    residuals = []
    for dt, _ in harness._time_steps(t_final, time_ratio * dx):
        lam = dt / dx
        new, f = stepper.step_with_fields(v, dt)
        # cells -1 .. J (cell j at index j + 1) and interfaces -1/2 .. J-1/2
        c = f["values"][0]
        s = f["slopes"][0]
        h = 0.5 * dt * f["source_minus_sigma"][0]
        Rh = f["half_R"]
        Sh = f["half_source"][0]
        ss = f["staggered_slopes"][0]
        Fz = flux(z + h, Rh)

        # numerical entropy flux on the interfaces
        uL, uR = c[:-1], c[1:]
        sLR = s[:-1] + s[1:]

        def entropy_flux(a, b):
            return (0.25 * (a - b) + dx / 16.0 * sLR + dx / 8.0 * ss) / lam + 0.5 * (
                flux(a + h[:-1], Rh[..., :-1]) + flux(b + h[1:], Rh[..., 1:])
            )

        F = entropy_flux(np.maximum(uL, z), np.maximum(uR, z)) - entropy_flux(
            np.minimum(uL, z), np.minimum(uR, z)
        )

        bracket = (
            dx / 16.0 * (s[2:] - s[:-2])
            + dx / 8.0 * (ss[1:] - ss[:-1])
            + 0.5 * lam * (Fz[2:] - Fz[:-2])
            - 0.25 * dt * (Sh[2:] + 2.0 * Sh[1:-1] + Sh[:-2])
        )
        lhs = (
            np.abs(new[0] - z)
            - np.abs(c[1:-1] - z)
            + np.sign(new[0] - z) * bracket
            + lam * (F[1:] - F[:-1])
        )
        residuals.append(max(0.0, float(lhs.max())))
        v = new
    return np.array(residuals)
