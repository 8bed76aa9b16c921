"""Time steppers: second-order central scheme and Lax-Friedrichs baselines.

A :class:`SchemeSpec` names the stepper (``nt``, ``lxf1`` or ``lxf2``) and
its settings; ``Stepper(model, grid, bc, spec, clip)`` runs it on one grid.

The central scheme advances cell averages without Riemann solvers in four
moves: limited piecewise-linear reconstruction, a half-step Taylor predictor
for flux and source, a staggered full-step average, and a projection back to
the original cells.  The nonlocal fields are frozen quadrature bands applied
to the reconstruction, with their own predicted half-step values.

The projection reads only the staggered averages A and their limited slopes
A' (the non-staggered central form of Jiang, Levy, Lin, Osher and Tadmor,
1998):

    u_j = (A_{j+1/2} + A_{j-1/2}) / 2 - (dx / 8) (A'_{j+1/2} - A'_{j-1/2})

Expanded in the cell values, slopes, half-step fluxes and sources the same
update has many more terms, which telescope to this.

Ghost handling happens once per step (or per stage): the incoming state is
extended by the boundary condition with enough margin for the local
stencils, and every local field downstream is produced by pure slicing.  The
nonlocal fields differ by closure.  Under the ``constant`` and ``zero``
closures the state margin also covers the widest quadrature band, so the
bands slide over ghost cells.  A periodic grid is a torus and carries no
band-width margin: each quadrature reads its input on the N cells of one
period circularly, and its output is wrap-extended to the stencil margin.

``Stepper.margins`` states the ghost cells on each side of the step's
arrays once per scheme, and ``step_with_fields`` crops its fields to cells
-1 .. J.  With nm the reach of the widest band (at least 1) off the torus
and 0 on it:

    scheme  pad (state)  R         flux (flux slopes, source)  half (half step)
    nt      5 + 2 * nm   4 + nm    3 + nm                      3
    lxf1    1 + nm       1
    lxf2    2 + nm       1

The state's limited slopes carry pad - 1.  The staggered averages of the
central scheme start at margin half (interface j + 1/2 at index j + half),
and their limited slopes one cell later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundaryCondition, Grid, extend_array
from .errors import ConfigurationError
from .kernels import BandStack, build_derivative_weights, build_weights, correlate_band
from .limiters import NO_CLIP, ClipConfig, slopes_of_extended
from .models import ModelDef

SCHEMES = ("nt", "lxf1", "lxf2")
SLOPE_VARIANTS = ("v1", "v2")


@dataclass(frozen=True)
class SchemeSpec:
    """Which stepper to run and how its slopes and diffusion are set.

    ``theta`` scales the numerical diffusion of the Lax-Friedrichs fluxes;
    ``None`` defers to the model default.  ``slope_variant`` selects between
    limiting the flux differences directly (v1) and the product-rule form
    that differentiates the nonlocal factor exactly (v2).  ``label`` names
    the scheme's column in a study; by default it is ``nt-v1``, ``nt-v2``,
    ``lxf1`` or ``lxf2``.
    """

    scheme: str = "nt"
    slope_variant: str = "v1"
    theta: float | None = None
    label: str | None = None

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

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.scheme == "nt":
            return f"nt-{self.slope_variant}"
        return self.scheme


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
    source_half: np.ndarray | None,
    dt: float,
    dx: float,
) -> np.ndarray:
    """Staggered full-step averages at the interfaces between adjacent cells.

    Input arrays share the last-axis length M; the result has length M - 1,
    entry i sitting on the interface between cells i and i + 1.  A
    ``source_half`` of None stands for a model without source terms.
    """
    lam = dt / dx
    out = (
        0.5 * (cells[..., :-1] + cells[..., 1:])
        + (dx / 8.0) * (slopes[..., :-1] - slopes[..., 1:])
        - lam * (flux_half[..., 1:] - flux_half[..., :-1])
    )
    if source_half is not None:
        out += 0.5 * dt * (source_half[..., 1:] + source_half[..., :-1])
    return out


def nonstaggered_projection(
    stag: np.ndarray, stag_slopes: np.ndarray, dx: float
) -> np.ndarray:
    """Project the staggered solution back onto the original cells.

    ``stag`` and ``stag_slopes`` hold the staggered averages A and their
    limited slopes A' on M consecutive interfaces; the result has length
    M - 1, entry j on the cell between interfaces j and j + 1:

        u_j = (A_{j+1/2} + A_{j-1/2}) / 2 - (dx / 8) (A'_{j+1/2} - A'_{j-1/2})

    the cell average of the piecewise-linear reconstruction on the
    staggered cells, whose halves cover the cell.
    """
    return 0.5 * (stag[..., 1:] + stag[..., :-1]) - (dx / 8.0) * (
        stag_slopes[..., 1:] - stag_slopes[..., :-1]
    )


class Stepper:
    """One-step advancement of a model on a fixed grid.

    Builds the quadrature bands and states the ghost margins (``margins``)
    once at construction; ``step`` maps an (n_species, n_cells) array of
    cell averages over one time step.
    ``scheme`` defaults to ``SchemeSpec()`` (nt-v1); ``clip`` sets the slope
    limiter's clipping for every limited slope of the step except v2's
    slopes of g(rho), which are never clipped.
    """

    def __init__(
        self,
        model: ModelDef,
        grid: Grid,
        bc: "str | BoundaryCondition",
        scheme: SchemeSpec | None = None,
        clip: ClipConfig = NO_CLIP,
    ):
        self.model = model
        self.grid = grid
        self.bc = BoundaryCondition.parse(bc)
        self.spec = scheme if scheme is not None else SchemeSpec()
        self.clip = clip
        self.theta = (
            self.spec.theta if self.spec.theta is not None else model.default_theta
        )
        dx = grid.dx
        self.qw = tuple(build_weights(k, dx) for k in model.kernels)
        self.dw = None
        if self.spec.scheme == "nt" and self.spec.slope_variant == "v2":
            if not model.supports_v2:
                raise ConfigurationError(
                    f"model {model.name!r} gives no dV for its flux; "
                    "use slope_variant='v1'"
                )
            self.dw = tuple(build_derivative_weights(k, dx) for k in model.kernels)
        # kind 0 holds R's bands, kind 1 its space derivative's; a call takes the first k
        self.bands = BandStack([self.qw, self.dw] if self.dw else [self.qw])
        # ghost cells each side of every array of the step, as tabled in the
        # module docstring; nm is the reach of the widest band, none on the torus
        self.periodic = self.bc is BoundaryCondition.PERIODIC
        nm = 0 if self.periodic else max(1, max(max(q.n1, q.n2) for q in self.qw))
        self.margins = {
            "nt": {"pad": 5 + 2 * nm, "R": 4 + nm, "flux": 3 + nm, "half": 3},
            "lxf1": {"pad": 1 + nm, "R": 1},
            "lxf2": {"pad": 2 + nm, "R": 1},
        }[self.spec.scheme]

    # -- shared field construction -----------------------------------------

    def _check_step(self, values: np.ndarray, dt: float) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.model.n_species, self.grid.cells):
            raise ConfigurationError(
                f"state shape {v.shape} does not match "
                f"({self.model.n_species}, {self.grid.cells})"
            )
        if dt < 0.0:
            raise ConfigurationError(f"dt must be nonnegative, got {dt}")
        return v

    def _convolved(self, vP: np.ndarray, sP: np.ndarray | None = None):
        """Cell values of every convolved quantity at the state's margin, and
        with the state's slopes ``sP`` the quantities' slopes, else None."""
        stack = self.model.source_stack
        us = stack(vP, lambda hook, i: hook.value(vP))
        if sP is None:
            return us, None
        return us, stack(sP, lambda h, i: slopes_of_extended(us[i], self.grid.dx, self.clip))

    def _quadrature(self, us, sus, have: int, margins: tuple) -> list:
        """The nonlocal fields of the cell values ``us``, one array per margin.

        ``us`` stacks one row per field with ``have`` ghost cells each side,
        and the rows of their slopes ``sus`` carry ``have - 1``; the bands add
        their ``ends`` times the slopes, and ``sus`` of None applies them to
        cellwise values as they are.  One margin gives the fields, and a
        second, at most the first, their space derivatives too: both from one
        ``correlate_band`` at the first margin.

        Off the torus the bands slide over the ghost cells.  On the torus
        they read the N cells of one period circularly, and the output is
        one period wrap-extended to the first margin.
        """
        n, k, m = self.grid.cells, len(margins), margins[0]
        if sus is not None:  # lay the cells out as their slopes
            us, have = us[..., 1:-1], have - 1
        if self.periodic:  # the N cells of one period
            us, sus = us[..., have : have + n], None if sus is None else sus[..., have : have + n]
            out = extend_array(correlate_band(us, self.bands, k, None, sus), m, m, self.bc)
        else:
            out = correlate_band(us, self.bands, k, have - m, sus)
        # kind 0 sits at the first margin, and kind 1 (nt-v2's derivative) goes to its own
        return [out[0]] if k == 1 else [out[0], _crop(out[1], m, margins[1])]

    def _lxf_flux(self, FL, FR, uL, uR, lam: float) -> np.ndarray:
        """Lax-Friedrichs flux 0.5 (F_L + F_R) - theta / (2 lam) (u_R - u_L)."""
        return 0.5 * (FL + FR) - (self.theta / (2.0 * lam)) * (uR - uL)

    # -- central scheme -----------------------------------------------------

    def _nt_step(self, v: np.ndarray, dt: float, collect: bool):
        model, clip = self.model, self.clip
        dx = self.grid.dx
        M = self.margins
        PV, MR, MS, MH = M["pad"], M["R"], M["flux"], M["half"]
        J = v.shape[-1]

        vP = extend_array(v, PV, PV, self.bc)
        sP = slopes_of_extended(vP, dx, clip)  # margin PV - 1
        us, sus = self._convolved(vP, sP)
        v2 = self.spec.slope_variant == "v2"
        R_mr, *dR = self._quadrature(us, sus, PV, (MR, MS) if v2 else (MR,))
        v_mr = _crop(vP, PV, MR)
        v_ms = _crop(vP, PV, MS)
        R_ms = _crop(R_mr, MR, MS)

        if v2:  # the product rule g' V + g dV, g' never clipped
            g_mr = model.g(v_mr)
            own = g_mr is v_mr and not clip.enabled  # the identity has the state's slopes
            dg = _crop(sP, PV - 1, MS) if own else slopes_of_extended(g_mr, dx)
            sigma = dg * model.V(R_ms) + _crop(g_mr, MR, MS) * model.dV(R_ms, dR[0])
        else:
            F_mr = model.eval_flux(v_mr, R_mr)
            sigma = slopes_of_extended(F_mr, dx, clip)

        sourced = model.source is not None
        S_ms = model.source(v_ms, R_ms) if sourced else None
        sms = (S_ms if sourced else 0.0) - sigma

        # predict cell averages and nonlocal fields at the half step
        integrands = model.source_stack(sms, lambda hook, i: hook.time_integrand(v_ms, sms))
        (Rt,) = self._quadrature(integrands, None, MS, (MH,))
        v_h = half_step(_crop(v_ms, MS, MH), _crop(sms, MS, MH), dt)
        R_h = _crop(R_mr, MR, MH) + 0.5 * dt * Rt
        F_h = model.eval_flux(v_h, R_h)
        S_h = model.source(v_h, R_h) if sourced else None

        # staggered averages and their limited slopes
        c3 = _crop(vP, PV, MH)
        s3 = _crop(sP, PV - 1, MH)
        A = staggered_predictor(c3, s3, F_h, S_h, dt, dx)
        # interface j+1/2 sits at index j + MH of A and j + MH - 1 of its slopes
        ss = slopes_of_extended(A, dx, clip)

        # interfaces j-1/2, j in [0, J]
        ss_w = ss[..., MH - 2 : MH + J - 1]
        new = nonstaggered_projection(A[..., MH - 1 : MH + J], ss_w, dx)
        if not collect:
            return new, None
        fields = {
            "values": _crop(c3, MH, 1),
            "slopes": _crop(s3, MH, 1),
            "source_minus_sigma": _crop(sms, MS, 1),
            "half_R": _crop(R_h, MH, 1),
            "half_flux": _crop(F_h, MH, 1),
            "half_source": _crop(S_h, MH, 1) if sourced else np.zeros((v.shape[0], J + 2)),
            "staggered_slopes": ss_w,
        }
        return new, fields

    # -- Lax-Friedrichs baselines -------------------------------------------

    def _lxf1_step(self, v: np.ndarray, dt: float) -> np.ndarray:
        model = self.model
        dx = self.grid.dx
        lam = dt / dx
        PV, M1 = self.margins["pad"], self.margins["R"]

        vP = extend_array(v, PV, PV, self.bc)
        (R1,) = self._quadrature(self._convolved(vP)[0], None, PV, (M1,))
        v1 = _crop(vP, PV, M1)
        F1 = model.eval_flux(v1, R1)
        H = self._lxf_flux(F1[..., :-1], F1[..., 1:], v1[..., :-1], v1[..., 1:], lam)
        # a sourceless model adds the scalar 0.0, which turns -0.0 into +0.0
        # as the zero source array once did
        S0 = 0.0 if model.source is None else dt * model.source(v, _crop(R1, M1, 0))
        return v - lam * (H[..., 1:] - H[..., :-1]) + S0

    def _lxf2_rhs(self, v: np.ndarray, lam: float) -> np.ndarray:
        model, clip = self.model, self.clip
        dx = self.grid.dx
        PV, M1 = self.margins["pad"], self.margins["R"]

        vP = extend_array(v, PV, PV, self.bc)
        sP = slopes_of_extended(vP, dx, clip)
        (R1,) = self._quadrature(*self._convolved(vP, sP), PV, (M1,))
        v1 = _crop(vP, PV, M1)
        s1 = _crop(sP, PV - 1, M1)

        faces = np.empty((v1.shape[0], 2, v1.shape[1]))
        half = 0.5 * dx * s1
        left = np.add(v1, half, out=faces[:, 0])  # cell right-interface values
        right = np.subtract(v1, half, out=faces[:, 1])  # cell left-interface values
        F = model.eval_flux(faces, R1)  # both faces share R1: each V(R1) once
        H = self._lxf_flux(F[:, 0, :-1], F[:, 1, 1:], left[:, :-1], right[:, 1:], lam)

        S_sm = 0.0  # as in _lxf1_step, a scalar zero source
        if model.source is not None:
            S1 = model.source(v1, R1)
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
        v = self._check_step(values, dt)
        if dt == 0.0:
            return v.copy()
        if self.spec.scheme == "nt":
            new, _ = self._nt_step(v, dt, collect=False)
            return new
        if self.spec.scheme == "lxf1":
            return self._lxf1_step(v, dt)
        return self._lxf2_step(v, dt)

    def step_with_fields(self, values: np.ndarray, dt: float):
        """Central-scheme step that also returns the intermediate fields.

        For diagnostics such as the discrete entropy residual, the dict holds
        ``values``, ``slopes``, ``source_minus_sigma``, ``half_R``, ``half_flux``
        and ``half_source`` (zero without sources) on cells -1 .. J, cell j at
        index j + 1, and ``staggered_slopes`` on interfaces -1/2 .. J - 1/2,
        interface j - 1/2 at index j.
        """
        if self.spec.scheme != "nt":
            raise ConfigurationError(
                "intermediate fields are only defined for the central scheme"
            )
        v = self._check_step(values, dt)
        if dt == 0.0:
            return v.copy(), None
        return self._nt_step(v, dt, collect=True)
