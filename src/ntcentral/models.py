"""Benchmark model definitions for nonlocal balance laws.

A model couples N species rho^k through m nonlocal fields R^l (sliding kernel
averages of a species or of a derived quantity):

    d_t rho^k + d_x F_k(rho^k, R) = S_k(rho, R)

Each definition gives all fluxes at once, in the product form
F_k = g_k(rho^k) * V_k(R) of the paper, as callables over the stacked state
(the README has a five-line example): ``g(values)``, of ``values``' shape;
``V(R)``, factors of shape (n,) when all species share one and (N, n) else;
and ``dV(R, dR)``, the derivative of V along dR = d_x R for the product-rule
slope variant v2, or ``None`` where V is not smooth (v1 only).  A definition
also carries the source, the kernel and convolved quantity of every
nonlocal term (at least one), and Lipschitz bounds over a state box for
time-step control.

The model states once what depends only on its shape: the state rows its
nonlocal terms read (``source_rows``), the one routine that stacks a row per
term (``source_stack``), and the clamps of a state box to [rho_min, rho_max]
(``box_clamps``).  The stepper and the CFL boxes read these, and no other
module tells a species term from a derived field.
"""

from __future__ import annotations

import functools
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
    #: values (N, ..., n) -> g(values), same shape; an identity g returning its
    #: argument lets nt-v2 reuse the state's limited slopes as the slopes of g
    g: Callable
    #: R (m, n) -> V(R) of shape (n,) or (N, n); the fluxes are g(values) * V(R)
    V: Callable
    #: (R, dR) -> the derivative of V along dR, V's shape; None where V is not smooth
    dV: Callable | None = None
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
        if not m:
            raise ModelDefinitionError(f"{self.name}: a model needs at least one nonlocal term")
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
        # the flux's rows, probed on two cells: g one per species, V and dV also one shared
        with np.errstate(all="ignore"):
            v, R = np.full((n, 2), 0.5), np.full((m, 2), 0.5)
            rows = {"g": self.g(v), "V": self.V(R), "dV": self.dV and self.dV(R, R)}
        for part, out in rows.items():
            shape = np.shape(out)
            if out is not None and shape not in ([(n, 2)] if part == "g" else [(n, 2), (2,)]):
                raise ModelDefinitionError(f"{self.name}: {part} gives {shape} for {n} species")

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def supports_v2(self) -> bool:
        """Whether the product-rule slope variant v2 can run on this model."""
        return self.dV is not None

    @functools.cached_property
    def source_rows(self) -> "slice | np.ndarray | None":
        """The state rows the nonlocal terms convolve: a slice when they are
        consecutive species, an index array for other species, None when a
        term convolves a derived field."""
        srcs = tuple(self.nonlocal_sources)
        if any(isinstance(src, DerivedFieldHook) for src in srcs):
            return None
        run = range(srcs[0], srcs[0] + len(srcs))
        return slice(run.start, run.stop) if srcs == tuple(run) else np.array(srcs, np.intp)

    def source_stack(self, a: np.ndarray, hook_row) -> np.ndarray:
        """One row per nonlocal term: the row of ``a`` of its species, or
        ``hook_row(hook, i)`` for the derived field of term i.  Consecutive
        species are one view of ``a``, as is a single row."""
        rows = self.source_rows
        if rows is not None:
            return a[rows]
        rows = []  # a loop, not a comprehension: this runs on every step of a derived field
        for i, src in enumerate(self.nonlocal_sources):
            rows.append(hook_row(src, i) if isinstance(src, DerivedFieldHook) else a[src])
        return rows[0][None] if len(rows) == 1 else np.array(rows)

    @functools.cached_property
    def box_clamps(self) -> tuple:
        """(floor, ceiling) that clamp a state box to [rho_min, rho_max]: (N, 2)
        arrays whose other column is -inf or inf, None without a bound."""
        n, lo, hi = self.n_species, self.rho_min, self.rho_max
        floor = None if lo is None else np.array([[lo, -np.inf]] * n)
        ceiling = None if hi is None else np.array([[np.inf, hi]] * n)
        return floor, ceiling

    def eval_flux(self, values: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Every species' flux g(values) * V(R), with one call of V.  ``values``
        may stack k states on the same cells, (N, k, n), all taking the one V(R)."""
        V = self.V(R)  # one row per species takes a new axis for the k states
        return self.g(values) * (V[:, None] if V.ndim + 1 == values.ndim == 3 else V)


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


# ---------------------------------------------------------------------------
# Keyfitz-Kranzer type system: two species advected by a common speed that
# depends on the backward kernel averages of both.


def make_keyfitz_kranzer(eta: float = 1.0) -> ModelDef:
    kernel = builtin_kernel("backward-power52", eta)

    def speed(R):
        w = 1.0 - R[0] ** 2 - R[1] ** 2
        return w * w * w  # np.power takes about 3x as long

    def speed_along(R, dR):
        w = 1.0 - R[0] ** 2 - R[1] ** 2
        rows = -6.0 * R * w**2 * dR  # both terms of the sum in one pass
        return rows[0] + rows[1]

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
        g=_identity, V=speed, dV=speed_along,
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

    def dV(R, dR):
        return -np.exp(-R[0]) * dR[0]

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
        g=g, V=V, dV=dV,
        lip_flux=lip_flux,
        rho_min=0.0,
        rho_max=1.0,
    )


# ---------------------------------------------------------------------------
# Two-lane traffic with lane exchange toward the faster lane.


def make_multilane(eta: float = 0.5) -> ModelDef:
    kernel = builtin_kernel("linear", eta)

    def speed(R):  # each lane its own
        return 1.0 - R**2

    def exchange(values, R):
        v1, v2 = speed(R)
        # rho1 (1 - rho2) toward lane 2, rho2 (1 - rho1) toward lane 1
        moving = values * (1.0 - values)[::-1]
        out = np.empty_like(values)
        np.multiply(v2 - v1, np.where(v2 >= v1, moving[0], moving[1]), out=out[1])
        np.negative(out[1], out=out[0])
        return out

    def speed_along(R, dR):
        return -2.0 * R * dR

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
        g=_identity, V=speed, dV=speed_along,
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

    # (rho R, u^2 / 2) as g = (rho, u^2) times V = (R, 1/2)
    def g(values):
        out = np.empty_like(values)
        out[0] = values[0]
        np.square(values[1], out=out[1])
        return out

    def V(R):
        out = np.full((2, *R.shape[1:]), 0.5)
        out[0] = R[0]
        return out

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
        g=g, V=V, dV=lambda R, dR: np.array([[1.0], [0.0]]) * dR[0],  # (dR, 0)
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
        # R averages a derived, non-smooth velocity: no dV, so v1 only
        g=_identity, V=lambda R: R[0],
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


_parameters = functools.cache(lambda factory: tuple(inspect.signature(factory).parameters))


def model_parameters(name: str) -> tuple[str, ...]:
    """A registered model's keyword parameters, as its factory states them (read once)."""
    return _parameters(MODEL_FACTORIES[name])


def make_model(name: str, **params) -> ModelDef:
    """Build a zoo model by name with keyword parameters (see ``model_parameters``)."""
    if name not in MODEL_FACTORIES:
        raise ModelDefinitionError(
            f"unknown model {name!r}; available: {sorted(MODEL_FACTORIES)}"
        )
    keys = model_parameters(name)
    for key in params:
        if key not in keys:
            takers = [m for m in sorted(MODEL_FACTORIES) if key in model_parameters(m)]
            raise ConfigurationError(
                f"model {name!r} takes no parameter {key!r} (it takes "
                f"{', '.join(keys)}); models that take {key!r}: {', '.join(takers) or 'none'}"
            )
    return MODEL_FACTORIES[name](**params)
