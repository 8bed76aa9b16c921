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

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ModelDefinitionError
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

    def eval_flux(self, values: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Every species' flux g_k(values[k]) * V_k(R), each distinct V once.

        ``values[k]`` may stack several states on the same cells, shape
        (..., n), all taking the one V(R).
        """
        out = np.empty_like(values)
        speeds = {}
        for k, (g, V, _) in enumerate(self.flux):
            if V not in speeds:
                speeds[V] = V(R)
            out[k] = g(values[k]) * speeds[V]
        return out


def _absmax(lo: float, hi: float) -> float:
    return max(abs(lo), abs(hi))


def _square_range(lo: float, hi: float) -> tuple[float, float]:
    """Exact [min, max] of r * r over r in [lo, hi] (numpy's ``R ** 2``)."""
    lo2, hi2 = lo * lo, hi * hi
    if lo <= 0.0 <= hi:
        return 0.0, max(lo2, hi2)
    return min(lo2, hi2), max(lo2, hi2)


def _product_absmax(a: tuple, b: tuple) -> float:
    """Exact max of |x (1 - y)| over the box a x b, given as two [lo, hi]:
    a bilinear form peaks at a corner."""
    return max(abs(x * (1.0 - y)) for x in a for y in b)


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
        return w * w * w  # np.power takes about 3x as long

    def grad_speed(R):
        w = 1.0 - R[0] ** 2 - R[1] ** 2
        return np.stack([-6.0 * R[0] * w**2, -6.0 * R[1] * w**2])

    flux = (_identity, speed, grad_speed)

    def lip_flux(sbox, nbox):
        # interval bounds: w = 1 - a^2 - b^2 has the exact range below, so
        # max|w|^3 = max(|w_lo|, |w_hi|)^3, and (|a| + |b|) w^2 is at most
        # (max|a| + max|b|) max w^2
        (a, b), (p1, p2) = nbox.tolist(), sbox.tolist()
        a2_lo, a2_hi = _square_range(*a)
        b2_lo, b2_hi = _square_range(*b)
        w_abs = _absmax(1.0 - a2_hi - b2_hi, 1.0 - a2_lo - b2_lo)
        grad_sum = 6.0 * (_absmax(*a) + _absmax(*b)) * (w_abs * w_abs)
        return max(w_abs**3, max(_absmax(*p1), _absmax(*p2)) * grad_sum)

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
        # end; |r (1 - r)| peaks at an end or at r = 1/2, where it is 1/4
        lo, hi = sbox[0].tolist()
        vmax = float(np.exp(-min(nbox[0].tolist())))
        l_rho = max(abs(1.0 - 2.0 * lo), abs(1.0 - 2.0 * hi)) * vmax
        peak = 0.25 if lo <= 0.5 <= hi else 0.0
        l_r = max(peak, abs(lo * (1.0 - lo)), abs(hi * (1.0 - hi))) * vmax
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
        (r1, r2), (p1, p2) = nbox.tolist(), sbox.tolist()
        rmax = max(_absmax(*r1), _absmax(*r2))
        pmax = max(_absmax(*p1), _absmax(*p2))
        # |V| = |1 - R^2| peaks at R = 0 or at |R| = rmax
        return max(1.0, abs(1.0 - rmax**2), 2.0 * rmax * pmax)

    def lip_source(sbox, nbox):
        # interval bound of every partial derivative of the exchange term
        # s = (v2 - v1) rho1 (1 - rho2), or (v2 - v1) rho2 (1 - rho1):
        # d/d rho is (v2 - v1) times one of rho1, rho2, 1 - rho1, 1 - rho2,
        # and d/dR_k is 2 R_k times one of the two products
        (p1, p2), (r1, r2) = sbox.tolist(), nbox.tolist()
        q1_lo, q1_hi = _square_range(*r1)
        q2_lo, q2_hi = _square_range(*r2)
        # v2 - v1 for v_k = 1 - R_k^2, rounded as the exchange term rounds it
        dv = _absmax((1.0 - q2_hi) - (1.0 - q1_lo), (1.0 - q2_lo) - (1.0 - q1_hi))
        factor = max(
            _absmax(*p1),
            _absmax(*p2),
            _absmax(1.0 - p1[0], 1.0 - p1[1]),
            _absmax(1.0 - p2[0], 1.0 - p2[1]),
        )
        pair = max(_product_absmax(p1, p2), _product_absmax(p2, p1))
        r_abs = max(_absmax(*r1), _absmax(*r2))
        return max(dv * factor, 2.0 * r_abs * pair)

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
        (r,), (p1, p2) = nbox.tolist(), sbox.tolist()
        return max(_absmax(*r), _absmax(*p1), _absmax(*p2))

    def lip_source(sbox, nbox):
        # d/d rho = R - u, d/dR = rho, d/du = -rho
        (r_lo, r_hi), (u_lo, u_hi) = nbox[0].tolist(), sbox[1].tolist()
        return max(_absmax(r_lo - u_hi, r_hi - u_lo), _absmax(*sbox[0].tolist()))

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
        (r,), (p1, p2) = nbox.tolist(), sbox.tolist()
        return max(_absmax(*r), _absmax(*p1), _absmax(*p2))

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


def model_parameters(name: str) -> tuple[str, ...]:
    """The keyword parameters of a registered model, as its factory states them."""
    return tuple(inspect.signature(MODEL_FACTORIES[name]).parameters)


def make_model(name: str, **params) -> ModelDef:
    """Build a zoo model by name with keyword parameters (see ``model_parameters``)."""
    if name not in MODEL_FACTORIES:
        raise ModelDefinitionError(
            f"unknown model {name!r}; available: {sorted(MODEL_FACTORIES)}"
        )
    for key in params:
        keys = model_parameters(name)
        if key not in keys:
            takers = [m for m in sorted(MODEL_FACTORIES) if key in model_parameters(m)]
            raise ConfigurationError(
                f"model {name!r} takes no parameter {key!r} (it takes "
                f"{', '.join(keys)}); models that take {key!r}: {', '.join(takers) or 'none'}"
            )
    return MODEL_FACTORIES[name](**params)
