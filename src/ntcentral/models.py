"""Benchmark model definitions for nonlocal balance laws.

A model couples N species rho^k through m nonlocal fields R^l (sliding kernel
averages of a species or of a derived quantity):

    d_t rho^k + d_x F_k(rho^k, R) = S_k(rho, R)

Each definition gives every flux once, in the product form
F_k = g_k(rho^k) * V_k(R) of the paper, as a triple ``(g, V, grad_V)``.
``grad_V`` (the gradient of V in R) feeds the product-rule slope variant
v2; it is ``None`` where V is not differentiable, and such a model runs
with v1 only.  A definition also carries the source, the kernel and
convolved quantity of every nonlocal term, and Lipschitz bounds over a
state box used for time-step control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ModelDefinitionError
from .kernels import KernelSpec, builtin_kernel

#: Density floor used when dividing by a species value.
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class DerivedFieldHook:
    """A nonlocal term that convolves a derived quantity u = u(rho).

    ``value`` evaluates u cellwise; ``time_integrand`` turns per-species
    (S_k - sigma_k) fields into the cellwise integrand of d_t u by the chain
    rule.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    time_integrand: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ModelDef:
    """A system of nonlocal balance laws plus the metadata the schemes need."""

    name: str
    species: tuple[str, ...]
    kernels: tuple[KernelSpec, ...]
    #: per nonlocal term: species index to convolve, or a DerivedFieldHook
    nonlocal_sources: tuple
    #: per species: (g, V, grad_V) with F_k = g(rho_k) * V(R), R of shape
    #: (m, n); grad_V(R) has R's shape, or is None where V is not smooth
    flux: tuple
    #: (values, R) -> (N, n) source array, or None for conservation laws
    source: Callable | None = None
    #: (species_box (N,2), nonlocal_box (m,2)) -> Lipschitz bound of the flux
    lip_flux: Callable | None = None
    #: same signature for the source; None when source is None
    lip_source: Callable | None = None
    rho_min: float | None = None
    rho_max: float | None = None
    default_theta: float = 1.0
    #: extra cellwise outputs written next to the species in snapshots
    snapshot_fields: dict = field(default_factory=dict)

    def __post_init__(self):
        n, m = len(self.species), len(self.kernels)
        if len(self.flux) != n:
            raise ModelDefinitionError(
                f"{self.name}: {len(self.flux)} flux entries for {n} species"
            )
        if len(self.nonlocal_sources) != m:
            raise ModelDefinitionError(
                f"{self.name}: {len(self.nonlocal_sources)} nonlocal sources "
                f"for {m} kernels"
            )
        for src in self.nonlocal_sources:
            if isinstance(src, DerivedFieldHook):
                continue
            if not (isinstance(src, (int, np.integer)) and 0 <= src < n):
                raise ModelDefinitionError(
                    f"{self.name}: nonlocal source {src!r} is neither a species "
                    "index nor a derived-field hook"
                )

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_nonlocal(self) -> int:
        return len(self.kernels)

    @property
    def supports_v2(self) -> bool:
        """Whether the product-rule slope variant v2 can run on this model."""
        return all(grad_V is not None for _, _, grad_V in self.flux)

    def convolved_values(self, values: np.ndarray) -> np.ndarray:
        """Cellwise values of every convolved quantity, shape (m, n).

        Kernel averages with unit-integral nonnegative weights stay inside
        the range of what they average, so the rows bound the nonlocal fields.
        """
        out = np.empty((self.n_nonlocal, values.shape[-1]))
        for l, src in enumerate(self.nonlocal_sources):
            if isinstance(src, DerivedFieldHook):
                out[l] = src.value(values)
            else:
                out[l] = values[src]
        return out

    def eval_flux(self, values: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Every species' flux g_k(values[k]) * V_k(R), each distinct V once."""
        out = np.empty_like(values)
        speeds = {}
        for k, (g, V, _) in enumerate(self.flux):
            if V not in speeds:
                speeds[V] = V(R)
            out[k] = g(values[k]) * speeds[V]
        return out

    def eval_source(self, values: np.ndarray, R: np.ndarray) -> np.ndarray:
        if self.source is None:
            return np.zeros_like(values)
        return self.source(values, R)


def _lattice(lo: float, hi: float, n: int = 41) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _absmax(lo: float, hi: float) -> float:
    return max(abs(lo), abs(hi))


def _identity(rho):
    return rho


def _first(R):
    return R[0]


# ---------------------------------------------------------------------------
# Keyfitz-Kranzer type system: two species advected by a common speed that
# depends on the backward kernel averages of both.


def make_keyfitz_kranzer(eta: float = 1.0) -> ModelDef:
    kernel = builtin_kernel("backward-power52", eta)

    def speed(R):
        w = 1.0 - R[0] ** 2 - R[1] ** 2
        return w**3

    def grad_speed(R):
        w = 1.0 - R[0] ** 2 - R[1] ** 2
        return np.stack([-6.0 * R[0] * w**2, -6.0 * R[1] * w**2])

    flux = (_identity, speed, grad_speed)

    def lip_flux(sbox, nbox):
        a = _lattice(*nbox[0])[:, None]
        b = _lattice(*nbox[1])[None, :]
        w = 1.0 - a**2 - b**2
        l_rho = np.max(np.abs(w**3))
        grad_sum = 6.0 * (np.abs(a) + np.abs(b)) * w**2
        l_r = max(_absmax(*sbox[0]), _absmax(*sbox[1])) * np.max(grad_sum)
        return float(max(l_rho, l_r))

    return ModelDef(
        name="keyfitz-kranzer",
        species=("rho1", "rho2"),
        kernels=(kernel, kernel),
        nonlocal_sources=(0, 1),
        flux=(flux, flux),
        lip_flux=lip_flux,
        default_theta=1.0 / 3.0,
    )


# ---------------------------------------------------------------------------
# Scalar traffic model with an Arrhenius-type look-ahead slowdown.


def make_arrhenius(eta: float = 0.2, kernel: str = "constant") -> ModelDef:
    kspec = builtin_kernel(kernel, eta)
    if kspec.support[0] < 0.0:
        raise ModelDefinitionError(
            "arrhenius model needs a forward-looking kernel (support in [0, eta])"
        )

    def g(rho):
        return rho * (1.0 - rho)

    def V(R):
        return np.exp(-R[0])

    def grad_V(R):
        return -np.exp(-R[0])[None, :]

    def lip_flux(sbox, nbox):
        # exact maxima over [lo, hi]: |1 - 2r| is convex, so it peaks at an
        # end; r (1 - r) peaks at r = 1/2, or at an end if 1/2 lies outside
        lo, hi = sbox[0].tolist()
        vmax = float(np.exp(-min(nbox[0])))
        l_rho = max(abs(1.0 - 2.0 * lo), abs(1.0 - 2.0 * hi)) * vmax
        if lo <= 0.5 <= hi:
            l_r = 0.25 * vmax
        else:
            l_r = max(abs(lo * (1.0 - lo)), abs(hi * (1.0 - hi))) * vmax
        return max(l_rho, l_r)

    return ModelDef(
        name="arrhenius",
        species=("rho",),
        kernels=(kspec,),
        nonlocal_sources=(0,),
        flux=((g, V, grad_V),),
        lip_flux=lip_flux,
        rho_min=0.0,
        rho_max=1.0,
    )


# ---------------------------------------------------------------------------
# Two-lane traffic with lane exchange toward the faster lane.


def make_multilane(eta: float = 0.5) -> ModelDef:
    kernel = builtin_kernel("linear", eta)

    def exchange(values, R):
        rho1, rho2 = values
        v1 = 1.0 - R[0] ** 2
        v2 = 1.0 - R[1] ** 2
        toward2 = v2 >= v1
        s = (v2 - v1) * np.where(toward2, rho1 * (1.0 - rho2), rho2 * (1.0 - rho1))
        return np.stack([-s, s])

    def lane_flux(k):
        def V(R):
            return 1.0 - R[k] ** 2

        def grad_V(R):
            out = np.zeros_like(R)
            out[k] = -2.0 * R[k]
            return out

        return (_identity, V, grad_V)

    def lip_flux(sbox, nbox):
        rmax = max(_absmax(*nbox[0]), _absmax(*nbox[1]))
        v_abs = max(abs(1.0 - lo**2) for lo in (0.0, rmax))
        pmax = max(_absmax(*sbox[0]), _absmax(*sbox[1]))
        return float(max(v_abs, 2.0 * rmax * pmax))

    def lip_source(sbox, nbox):
        # lattice maximum of all partial derivatives of the exchange term
        p1 = _lattice(*sbox[0], 17)[:, None, None, None]
        p2 = _lattice(*sbox[1], 17)[None, :, None, None]
        r1 = _lattice(*nbox[0], 17)[None, None, :, None]
        r2 = _lattice(*nbox[1], 17)[None, None, None, :]
        dv = np.abs((1.0 - r2**2) - (1.0 - r1**2))
        pair = np.maximum(np.abs(p1 * (1.0 - p2)), np.abs(p2 * (1.0 - p1)))
        d_rho = dv * np.maximum(np.abs(1.0 - p2), np.abs(p1))
        d_rho = np.maximum(d_rho, dv * np.maximum(np.abs(1.0 - p1), np.abs(p2)))
        d_r = 2.0 * np.maximum(np.abs(r1), np.abs(r2)) * pair
        return float(max(d_rho.max(), d_r.max()))

    return ModelDef(
        name="multilane",
        species=("rho1", "rho2"),
        kernels=(kernel, kernel),
        nonlocal_sources=(0, 1),
        flux=(lane_flux(0), lane_flux(1)),
        source=exchange,
        lip_flux=lip_flux,
        lip_source=lip_source,
        rho_min=0.0,
        rho_max=1.0,
    )


# ---------------------------------------------------------------------------
# Pressureless gas dynamics with a kernel-averaged velocity in the mass flux
# and a relaxation of u toward that average.  The velocity equation is kept
# in conservative form d_t u + d_x(u^2/2) = rho (R - u).


def make_nonlocal_euler(eta: float = 0.05) -> ModelDef:
    kernel = builtin_kernel("symmetric-parabola", eta)

    def relax(values, R):
        rho, u = values
        out = np.zeros_like(values)
        out[1] = rho * (R[0] - u)
        return out

    # u^2 / 2 as u^2 times the constant V = 1/2: one product, as for rho R
    flux = (
        (_identity, _first, np.ones_like),
        (lambda u: u**2, lambda R: 0.5, np.zeros_like),
    )

    def lip_flux(sbox, nbox):
        return float(max(_absmax(*nbox[0]), _absmax(*sbox[0]), _absmax(*sbox[1])))

    def lip_source(sbox, nbox):
        span = (nbox[0][1] - nbox[0][0]) + (sbox[1][1] - sbox[1][0])
        return float(max(span, _absmax(*sbox[0])))

    return ModelDef(
        name="nonlocal-euler",
        species=("rho", "u"),
        kernels=(kernel,),
        nonlocal_sources=(1,),
        flux=flux,
        source=relax,
        lip_flux=lip_flux,
        lip_source=lip_source,
    )


# ---------------------------------------------------------------------------
# Generalised second-order traffic model: density and momentum-like quantity q
# share the advection speed R = kernel average of v(rho, q/rho) = q/rho - 6 rho.


def make_garz(eta: float = 0.1, kernel: str = "linear") -> ModelDef:
    kspec = builtin_kernel(kernel, eta)

    def velocity(values):
        rho, q = values
        return q / np.maximum(rho, DENSITY_FLOOR) - 6.0 * rho

    def integrand(values, sms):
        # chain rule for d_t v(rho, q/rho) with v(rho, w) = w - 6 rho:
        # d_t v = d_t rho * (-6 - q/rho^2) + d_t q / rho
        rho, q = values
        rho_f = np.maximum(rho, DENSITY_FLOOR)
        return sms[0] * (-6.0 - q / rho_f**2) + sms[1] / rho_f

    hook = DerivedFieldHook(
        name="velocity",
        value=velocity,
        time_integrand=integrand,
    )

    def lip_flux(sbox, nbox):
        return float(max(_absmax(*nbox[0]), _absmax(*sbox[0]), _absmax(*sbox[1])))

    return ModelDef(
        name="garz",
        species=("rho", "q"),
        kernels=(kspec,),
        nonlocal_sources=(hook,),
        # R averages a derived, non-smooth velocity: no grad_V, so v1 only
        flux=((_identity, _first, None), (_identity, _first, None)),
        lip_flux=lip_flux,
        rho_min=0.0,
        snapshot_fields={
            "w": lambda values: values[1] / np.maximum(values[0], DENSITY_FLOOR)
        },
    )


MODEL_FACTORIES: dict[str, Callable[..., ModelDef]] = {
    "keyfitz-kranzer": make_keyfitz_kranzer,
    "arrhenius": make_arrhenius,
    "multilane": make_multilane,
    "nonlocal-euler": make_nonlocal_euler,
    "garz": make_garz,
}


def make_model(name: str, **params) -> ModelDef:
    """Build a zoo model by name with keyword parameters (eta, kernel, ...)."""
    try:
        factory = MODEL_FACTORIES[name]
    except KeyError:
        raise ModelDefinitionError(
            f"unknown model {name!r}; available: {sorted(MODEL_FACTORIES)}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ModelDefinitionError(f"model {name!r}: {exc}") from None
