"""Time steppers: second-order central scheme and Lax-Friedrichs baselines.

The central scheme advances cell averages without Riemann solvers in four
moves: limited piecewise-linear reconstruction, a half-step Taylor predictor
for flux and source, a staggered full-step average, and a projection back to
the original cells.  The nonlocal fields are frozen quadrature bands applied
to the reconstruction, with their own predicted half-step values.

Ghost handling happens once per step (or per stage): the incoming state is
extended by the boundary condition with enough margin for the local
stencils, and every local field downstream is produced by pure slicing.  The
nonlocal fields differ by closure.  Under the ``constant`` and ``zero``
closures the state margin also covers the widest quadrature band, so the
bands slide over ghost cells.  A periodic grid is a torus and carries no
band-width margin: each quadrature reads its input on the N cells of one
period circularly, and its output is wrap-extended to the stencil margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundaryCondition, Grid, extend_array
from .errors import ConfigurationError
from .kernels import (
    PeriodicCells,
    build_derivative_weights,
    build_weights,
    correlate_band,
)
from .limiters import NO_CLIP, ClipConfig, slopes_of_extended
from .models import DerivedFieldHook, ModelDef

SCHEMES = ("nt", "lxf1", "lxf2")
SLOPE_VARIANTS = ("v1", "v2")


@dataclass(frozen=True)
class SchemeConfig:
    """Which stepper to run and how its slopes and diffusion are set.

    ``theta`` scales the numerical diffusion of the Lax-Friedrichs fluxes;
    ``None`` defers to the model default.  ``slope_variant`` selects between
    limiting the flux differences directly (v1) and the product-rule form
    that differentiates the nonlocal factor exactly (v2).
    """

    scheme: str = "nt"
    slope_variant: str = "v1"
    theta: float | None = None
    clip: ClipConfig = NO_CLIP

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.slope_variant not in SLOPE_VARIANTS:
            raise ConfigurationError(
                f"unknown slope variant {self.slope_variant!r}; "
                f"expected one of {SLOPE_VARIANTS}"
            )
        if self.theta is not None and not (0.0 < self.theta <= 1.0):
            raise ConfigurationError(
                f"theta must lie in (0, 1], got {self.theta}"
            )


def _crop(a: np.ndarray, have: int, need: int) -> np.ndarray:
    """Shrink the ghost margin of the last axis from ``have`` to ``need``."""
    cut = have - need
    if cut < 0:
        raise ValueError(f"cannot grow margin from {have} to {need}")
    if cut == 0:
        return a
    return a[..., cut:-cut]


def half_step(values: np.ndarray, source_minus_sigma: np.ndarray, dt: float):
    """Taylor half-step of the cell averages: v + dt/2 (S - sigma)."""
    return values + 0.5 * dt * source_minus_sigma


def staggered_predictor(
    cells: np.ndarray,
    slopes: np.ndarray,
    flux_half: np.ndarray,
    source_half: np.ndarray,
    dt: float,
    dx: float,
) -> np.ndarray:
    """Staggered full-step averages at the interfaces between adjacent cells.

    Input arrays share the last-axis length M; the result has length M - 1,
    entry i sitting on the interface between cells i and i + 1.
    """
    lam = dt / dx
    return (
        0.5 * (cells[..., :-1] + cells[..., 1:])
        + (dx / 8.0) * (slopes[..., :-1] - slopes[..., 1:])
        - lam * (flux_half[..., 1:] - flux_half[..., :-1])
        + 0.5 * dt * (source_half[..., 1:] + source_half[..., :-1])
    )


def nonstaggered_projection(
    cells: np.ndarray,
    slopes: np.ndarray,
    stag_slopes: np.ndarray,
    flux_half: np.ndarray,
    source_half: np.ndarray,
    dt: float,
    dx: float,
) -> np.ndarray:
    """Project the staggered solution back onto the original cells.

    Cellwise arrays have length M (one ghost cell each side of the output
    range); ``stag_slopes`` has length M - 1 with entry i on the interface
    between cells i and i + 1.  The result has length M - 2.
    """
    lam = dt / dx
    return (
        0.25 * (cells[..., :-2] + 2.0 * cells[..., 1:-1] + cells[..., 2:])
        - (dx / 16.0) * (slopes[..., 2:] - slopes[..., :-2])
        - (dx / 8.0) * (stag_slopes[..., 1:] - stag_slopes[..., :-1])
        - 0.5 * lam * (flux_half[..., 2:] - flux_half[..., :-2])
        + 0.25
        * dt
        * (source_half[..., 2:] + 2.0 * source_half[..., 1:-1] + source_half[..., :-2])
    )


class Stepper:
    """One-step advancement of a model on a fixed grid.

    Builds the quadrature bands once at construction; ``step`` maps an
    (n_species, n_cells) array of cell averages over one time step.
    """

    def __init__(
        self,
        model: ModelDef,
        grid: Grid,
        bc: "str | BoundaryCondition",
        config: SchemeConfig | None = None,
    ):
        self.model = model
        self.grid = grid
        self.bc = BoundaryCondition.parse(bc)
        self.config = config if config is not None else SchemeConfig()
        self.theta = (
            self.config.theta if self.config.theta is not None else model.default_theta
        )
        dx = grid.dx
        self.qw = tuple(build_weights(k, dx) for k in model.kernels)
        self.dw = None
        if self.config.scheme == "nt" and self.config.slope_variant == "v2":
            if not model.supports_v2:
                raise ConfigurationError(
                    f"model {model.name!r} does not provide a product-form flux "
                    "split; use slope_variant='v1'"
                )
            if model.product_form is None:
                raise ConfigurationError(
                    f"model {model.name!r} has no product_form for slope_variant='v2'"
                )
            self.dw = tuple(build_derivative_weights(k, dx) for k in model.kernels)
        # ghost cells the quadrature bands reach; none on the torus
        self.periodic = self.bc is BoundaryCondition.PERIODIC
        self.nmax = 0 if self.periodic else max(1, max(max(q.n1, q.n2) for q in self.qw))

    # -- shared field construction -----------------------------------------

    def _check_state(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.model.n_species, self.grid.cells):
            raise ConfigurationError(
                f"state shape {v.shape} does not match "
                f"({self.model.n_species}, {self.grid.cells})"
            )
        return v

    def _source_arrays(self, vP: np.ndarray, sP: np.ndarray | None, clip: ClipConfig):
        """Cell values (and slopes) of every convolved quantity at full margin."""
        us, sus = [], []
        for src in self.model.nonlocal_sources:
            if isinstance(src, DerivedFieldHook):
                u = src.value(vP)
            else:
                u = vP[src]
            us.append(u)
            if sP is None:
                sus.append(None)
            elif not isinstance(src, DerivedFieldHook):
                sus.append(sP[src])
            else:
                sus.append(slopes_of_extended(u, self.grid.dx, clip))
        return us, sus

    @staticmethod
    def _band_view(arr: np.ndarray, have: int, margin: int, band):
        """Slice an extended array to the window a band needs for ``margin``."""
        lo = have - margin - band.n1
        hi = arr.shape[-1] - (have - margin - band.n2)
        if lo < 0 or have - margin - band.n2 < 0:
            raise ValueError("insufficient ghost margin for quadrature band")
        return arr[..., lo:hi]

    def _period(self, arr, have: int) -> PeriodicCells:
        """The N cells of an array padded by ``have`` ghost cells each side."""
        if isinstance(arr, PeriodicCells):
            return arr
        return PeriodicCells(arr[..., have : have + self.grid.cells])

    def _band_input(self, arr, have: int, margin: int, band):
        """What ``correlate_band`` reads for one band: the period on the torus."""
        if self.periodic:
            return self._period(arr, have)
        return self._band_view(arr, have, margin, band)

    def _window(self, arr, have: int, margin: int, band) -> np.ndarray:
        """Cells j - n1 .. j + n2 of every output cell j, as one array."""
        if self.periodic:
            return self._period(arr, have).wrapped(band.n1, band.n2)
        return self._band_view(arr, have, margin, band)

    def _outputs(self, margin: int) -> int:
        """Cells a quadrature computes: the period on the torus, else all."""
        return self.grid.cells + (0 if self.periodic else 2 * margin)

    def _to_margin(self, out: np.ndarray, margin: int) -> np.ndarray:
        """Wrap-extend periodic quadrature outputs to the requested margin."""
        return extend_array(out, margin, margin, self.bc) if self.periodic else out

    def _nonlocal(self, us, sus, have_v: int, have_s: int, margin: int) -> np.ndarray:
        """All nonlocal fields at the given margin, second-order end corrections."""
        n = self._outputs(margin)
        out = np.empty((self.model.n_nonlocal, n))
        dx = self.grid.dx
        for l, qw in enumerate(self.qw):
            band = correlate_band(self._band_input(us[l], have_v, margin, qw), qw)
            if sus[l] is not None:
                se = self._window(sus[l], have_s, margin, qw)
                band = band + 0.25 * dx * (
                    qw.left_weight * se[..., :n]
                    - qw.right_weight * se[..., qw.n1 + qw.n2 :]
                )
            out[l] = band
        return self._to_margin(out, margin)

    def _nonlocal_dx(self, us, sus, have_v: int, have_s: int, margin: int):
        """Space derivative of every nonlocal field at the given margin."""
        n = self._outputs(margin)
        out = np.empty((self.model.n_nonlocal, n))
        dx = self.grid.dx
        for l, dw in enumerate(self.dw):
            band = correlate_band(self._band_input(us[l], have_v, margin, dw), dw)
            ue = self._window(us[l], have_v, margin, dw)
            se = self._window(sus[l], have_s, margin, dw)
            band = band + 0.25 * dx * (
                dw.weights[0] * se[..., :n] - dw.weights[-1] * se[..., dw.n1 + dw.n2 :]
            )
            out[l] = (
                -dw.boundary_left * ue[..., :n]
                + dw.boundary_right * ue[..., dw.n1 + dw.n2 :]
                - band
            )
        return self._to_margin(out, margin)

    def _nonlocal_dt(self, v_ms, sms, have: int, margin: int) -> np.ndarray:
        """Time derivative of every nonlocal field from cellwise integrands."""
        out = np.empty((self.model.n_nonlocal, self._outputs(margin)))
        for l, (src, qw) in enumerate(zip(self.model.nonlocal_sources, self.qw)):
            if isinstance(src, DerivedFieldHook):
                integ = src.time_integrand(v_ms, sms)
            else:
                integ = sms[src]
            out[l] = correlate_band(self._band_input(integ, have, margin, qw), qw)
        return self._to_margin(out, margin)

    def _flux(self, v: np.ndarray, R: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for k in range(self.model.n_species):
            out[k] = self.model.flux[k](v[k], R)
        return out

    # -- central scheme -----------------------------------------------------

    def _nt_step(self, v: np.ndarray, dt: float, collect: bool):
        model, cfg = self.model, self.config
        dx = self.grid.dx
        nm = self.nmax
        PV = 5 + 2 * nm  # state pad
        MR = 4 + nm  # nonlocal field margin
        MS = 3 + nm  # flux-slope and source margin
        MH = 3  # half-step field margin
        J = v.shape[-1]

        vP = extend_array(v, PV, PV, self.bc)
        sP = slopes_of_extended(vP, dx, cfg.clip)  # margin PV - 1
        us, sus = self._source_arrays(vP, sP, cfg.clip)
        if self.periodic:  # R and its space derivative share transforms and wraps
            us = [self._period(u, PV) for u in us]
            sus = [self._period(s, PV - 1) for s in sus]

        R_mr = self._nonlocal(us, sus, PV, PV - 1, MR)
        v_mr = _crop(vP, PV, MR)
        v_ms = _crop(vP, PV, MS)
        R_ms = _crop(R_mr, MR, MS)

        if cfg.slope_variant == "v2":
            dR_ms = self._nonlocal_dx(us, sus, PV, PV - 1, MS)
            sigma = np.empty_like(v_ms)
            for k in range(model.n_species):
                g, V, grad_V = model.product_form[k]
                dg = slopes_of_extended(g(v_mr[k]), dx)
                sigma[k] = dg * V(R_ms) + g(v_ms[k]) * (grad_V(R_ms) * dR_ms).sum(
                    axis=0
                )
        else:
            F_mr = self._flux(v_mr, R_mr)
            sigma = slopes_of_extended(F_mr, dx, cfg.clip)

        S_ms = model.eval_source(v_ms, R_ms)
        sms = S_ms - sigma

        # predict cell averages and nonlocal fields at the half step
        Rt = self._nonlocal_dt(v_ms, sms, MS, MH)
        v_h = half_step(_crop(v_ms, MS, MH), _crop(sms, MS, MH), dt)
        R_h = _crop(R_mr, MR, MH) + 0.5 * dt * Rt
        F_h = self._flux(v_h, R_h)
        S_h = model.eval_source(v_h, R_h)

        # staggered averages and their limited slopes
        c3 = _crop(vP, PV, MH)
        s3 = _crop(sP, PV - 1, MH)
        A = staggered_predictor(c3, s3, F_h, S_h, dt, dx)
        ss = slopes_of_extended(A, dx, cfg.clip)  # interfaces j+1/2, j in [-2, J+1)

        new = nonstaggered_projection(
            _crop(c3, MH, 1),
            _crop(s3, MH, 1),
            ss[..., 1 : J + 2],
            _crop(F_h, MH, 1),
            _crop(S_h, MH, 1),
            dt,
            dx,
        )
        if not collect:
            return new, None
        fields = {
            "margin": MH,
            "values": c3,
            "slopes": s3,
            "sigma": _crop(sigma, MS, MH),
            "source": _crop(S_ms, MS, MH),
            "half_values": v_h,
            "half_R": R_h,
            "half_flux": F_h,
            "half_source": S_h,
            "staggered": A,
            "staggered_slopes": ss,
        }
        return new, fields

    # -- Lax-Friedrichs baselines -------------------------------------------

    def _lxf1_step(self, v: np.ndarray, dt: float) -> np.ndarray:
        model = self.model
        dx = self.grid.dx
        lam = dt / dx
        nm = self.nmax
        PV = 1 + nm

        vP = extend_array(v, PV, PV, self.bc)
        us, _ = self._source_arrays(vP, None, NO_CLIP)
        R1 = self._nonlocal(us, [None] * model.n_nonlocal, PV, 0, 1)
        v1 = _crop(vP, PV, 1)
        F1 = self._flux(v1, R1)
        H = 0.5 * (F1[..., :-1] + F1[..., 1:]) - (self.theta / (2.0 * lam)) * (
            v1[..., 1:] - v1[..., :-1]
        )
        S0 = model.eval_source(v, _crop(R1, 1, 0))
        return v - lam * (H[..., 1:] - H[..., :-1]) + dt * S0

    def _lxf2_rhs(self, v: np.ndarray, lam: float) -> np.ndarray:
        model, cfg = self.model, self.config
        dx = self.grid.dx
        nm = self.nmax
        PV = 2 + nm

        vP = extend_array(v, PV, PV, self.bc)
        sP = slopes_of_extended(vP, dx, cfg.clip)
        us, sus = self._source_arrays(vP, sP, cfg.clip)
        R1 = self._nonlocal(us, sus, PV, PV - 1, 1)
        v1 = _crop(vP, PV, 1)
        s1 = _crop(sP, PV - 1, 1)

        left = v1 + 0.5 * dx * s1  # cell right-interface values
        right = v1 - 0.5 * dx * s1  # cell left-interface values
        FL = self._flux(left, R1)[..., :-1]
        FR = self._flux(right, R1)[..., 1:]
        jump = right[..., 1:] - left[..., :-1]
        H = 0.5 * (FL + FR) - (self.theta / (2.0 * lam)) * jump

        S1 = model.eval_source(v1, R1)
        S_sm = 0.25 * (S1[..., :-2] + 2.0 * S1[..., 1:-1] + S1[..., 2:])
        return -(H[..., 1:] - H[..., :-1]) / dx + S_sm

    def _lxf2_step(self, v: np.ndarray, dt: float) -> np.ndarray:
        lam = dt / self.grid.dx
        k1 = self._lxf2_rhs(v, lam)
        k2 = self._lxf2_rhs(v + dt * k1, lam)
        return v + 0.5 * dt * (k1 + k2)

    # -- public API -----------------------------------------------------------

    def step(self, values: np.ndarray, dt: float) -> np.ndarray:
        """Advance cell averages by one time step of size ``dt``."""
        v = self._check_state(values)
        if dt < 0.0:
            raise ConfigurationError(f"dt must be nonnegative, got {dt}")
        if dt == 0.0:
            return v.copy()
        if self.config.scheme == "nt":
            new, _ = self._nt_step(v, dt, collect=False)
            return new
        if self.config.scheme == "lxf1":
            return self._lxf1_step(v, dt)
        return self._lxf2_step(v, dt)

    def step_with_fields(self, values: np.ndarray, dt: float):
        """Central-scheme step that also returns the intermediate fields.

        The returned dict carries the reconstruction, half-step and staggered
        arrays (each with the ghost margin recorded under ``"margin"``) for
        diagnostics such as the discrete entropy residual.
        """
        if self.config.scheme != "nt":
            raise ConfigurationError(
                "intermediate fields are only defined for the central scheme"
            )
        v = self._check_state(values)
        if dt < 0.0:
            raise ConfigurationError(f"dt must be nonnegative, got {dt}")
        if dt == 0.0:
            return v.copy(), None
        return self._nt_step(v, dt, collect=True)
