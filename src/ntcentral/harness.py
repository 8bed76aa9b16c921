"""Experiment driver: benchmark data, simulation runs, convergence studies.

An :class:`Experiment` is a plain-data description of a run family (model,
initial data, domain, schemes, refinement levels).  The driver advances it
level by level with a fixed mesh ratio ``dt/dx``, monitors conserved
quantities along the way, measures L1 distances against a fine reference on
nested grids, and assembles per-scheme error/rate tables.  Reference
solutions are cached on disk because they dominate the cost of every study.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CFL_LIMIT,
    BoundaryCondition,
    Grid,
    SystemState,
    init_cell_averages,
    interior_variation,
    max_stable_dt,
    variation_of_parts,
)
from .errors import (
    CflViolationError,
    ConfigurationError,
    InputDataError,
    ModelDefinitionError,
    NumericsError,
)
from .limiters import NO_CLIP, ClipConfig
from .models import ModelDef, make_model
from .schemes import SchemeSpec, Stepper

CACHE_ENV = "NTCENTRAL_CACHE_DIR"
# Bump when a solver change invalidates previously cached references.
_CACHE_TAG = "ntc-8"


def _tagged_digest(doc) -> str:
    """SHA-256 of the code tag and the canonical JSON of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((_CACHE_TAG + text).encode()).hexdigest()


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


# per-species expressions in the language of ``expression_profile``
INITIAL_DATA = {
    "kk-sine": ("-0.1 - 0.2 * sin(pi * x)", "0.2 + 0.1 * sin(pi * x)"),
    "kk-box": (
        "where((x > 1.0) & (x < 3.0), 0.25, 0.0)",
        "where((x > 1.0) & (x < 3.0), 1.0, 0.0)",
    ),
    "arrhenius-sine": ("0.5 + 0.4 * sin(pi * x)",),
    "arrhenius-box": ("where(abs(x) <= 0.25, 1.0, 0.2)",),
    "multilane-sine": ("0.5 + 0.5 * sin(pi * x)", "0.25 + 0.25 * cos(2.0 * pi * x)"),
    # the bump 4 y^2 (1 - y^2) on 0 < y < 1, at y = 2x - 0.5 and y = 2x
    "multilane-bumps": (
        "where((2.0 * x - 0.5 > 0.0) & (2.0 * x - 0.5 < 1.0),"
        " 4.0 * (2.0 * x - 0.5) ** 2 * (1.0 - (2.0 * x - 0.5) ** 2), 0.0)",
        "where((2.0 * x > 0.0) & (2.0 * x < 1.0),"
        " 4.0 * (2.0 * x) ** 2 * (1.0 - (2.0 * x) ** 2), 0.0)",
    ),
    "euler-sine": ("0.2 + 0.1 * sin(pi * x)", "0.4 + 0.3 * cos(pi * x) / pi"),
    "euler-jump": ("where(x <= 0.0, 0.5, 1.5)", "where(x <= 0.0, -1.0, 1.0)"),
    "garz-sine": (
        "0.3 + 0.2 * sin(pi * x)",
        "(0.3 + 0.2 * sin(pi * x)) * (1.9 + 1.25 * sin(pi * x))",
    ),
    "garz-jump": ("0.05", "where(x <= 0.0, 7.0 / 400.0, 1.0 / 25.0)"),
}

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "pi": np.pi,
    "e": np.e,
}


@functools.lru_cache(maxsize=256)
def expression_profile(expr: str):
    """Compile a one-variable expression like ``0.5+0.4*sin(pi*x)``, once per text.

    Only the names in ``_EXPR_NAMES`` plus ``x`` are allowed, and no lambda or
    comprehension, whose names the check would not see, so config files
    cannot smuggle in arbitrary code.
    """
    try:
        code = compile(expr, "<initial-data>", "eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"bad initial-data expression {expr!r}: {exc}") from None
    if any(isinstance(const, type(code)) for const in code.co_consts):
        raise ConfigurationError(
            f"initial-data expression {expr!r} defines a function or comprehension"
        )
    for name in code.co_names:
        if name != "x" and name not in _EXPR_NAMES:
            raise ConfigurationError(
                f"initial-data expression {expr!r} uses unknown name {name!r}"
            )

    def profile(x):
        out = eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))

    return profile


def resolve_profiles(spec):
    """Registry name, or a sequence of per-species expressions, to callables."""
    if isinstance(spec, str):
        try:
            spec = INITIAL_DATA[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown initial data {spec!r}; "
                f"registered: {sorted(INITIAL_DATA)}"
            ) from None
    return tuple(expression_profile(e) for e in spec)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One benchmark: model, data, domain, schemes, and refinement ladder.

    ``base_dx`` is the level-0 spacing; level ``n`` uses ``base_dx * 2**-n``.
    ``time_ratio`` fixes ``dt/dx`` for the whole family; when ``None`` it is
    derived once from the CFL bound, scaled by ``safety`` in (0, 1], with the
    Lipschitz constant taken over a slightly widened box around the initial
    data.

    Construction checks everything a run needs, so bad input fails before
    any run starts: the field values; that the model builds and the initial
    data gives one profile per species; that every scheme builds a
    ``Stepper`` on the coarsest grid (a whole number of cells, kernel
    supports of whole cells, and v2 slopes only with ``dV``); and that
    the reference level has a finite, whole number of cells.
    """

    model: str
    t_final: float
    initial_data: "str | tuple[str, ...]"
    model_params: dict = field(default_factory=dict)
    domain: tuple[float, float] = (-1.0, 1.0)
    bc: str = "periodic"
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec(),)
    base_dx: float = 0.05
    levels: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    reference_level: int = 9
    time_ratio: float | None = None
    clip: ClipConfig = NO_CLIP
    positivity: bool = False
    safety: float = 1.0
    name: str = ""

    def __post_init__(self):
        # NaN fails every comparison below and inf passes them (a None time_ratio is derived)
        for name in ("t_final", "time_ratio", "base_dx", "domain"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if name == "domain" else [value or 0.0])):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.t_final < 0.0:
            raise ConfigurationError(f"t_final must be >= 0, got {self.t_final}")
        if not self.domain[1] > self.domain[0]:
            raise ConfigurationError(f"empty domain {self.domain}")
        if self.base_dx <= 0.0:
            raise ConfigurationError(f"base_dx must be positive, got {self.base_dx}")
        if not self.levels:
            raise ConfigurationError("levels must be nonempty")
        if any(n < 0 for n in self.levels):
            raise ConfigurationError(f"levels must be nonnegative, got {self.levels}")
        if self.reference_level <= max(self.levels):
            raise ConfigurationError(
                f"reference level {self.reference_level} must be finer than the "
                f"test levels {tuple(self.levels)}"
            )
        if self.time_ratio is not None and self.time_ratio <= 0.0:
            raise ConfigurationError(
                f"time_ratio must be positive, got {self.time_ratio}"
            )
        if not (0.0 < self.safety <= 1.0):
            raise ConfigurationError(
                f"CFL safety factor must lie in (0, 1], got {self.safety}"
            )
        BoundaryCondition.parse(self.bc)
        if not self.schemes:
            raise ConfigurationError("an experiment needs at least one scheme")
        names = [s.name for s in self.schemes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate scheme labels: {names}")
        model = self.build_model()
        species = len(self.profiles())
        if species != model.n_species:
            raise ConfigurationError(
                f"initial data has {species} species but model "
                f"{model.name!r} expects {model.n_species}"
            )
        grid = self.grid_at(min(self.levels))
        for spec in self.schemes:
            Stepper(model, grid, self.bc, spec, self.clip)
        self.cells_at(self.reference_level)

    def cells_at(self, level: int) -> int:
        dx = self.base_dx * 2.0 ** (-level)
        cells = (self.domain[1] - self.domain[0]) / dx if dx > 0.0 else math.inf
        if not math.isfinite(cells):
            raise ConfigurationError(
                f"level {level:g} is too fine: dx = {self.base_dx} * 2**-{level:g} "
                "underflows"
            )
        if abs(cells - round(cells)) > 1e-9 * cells:
            raise ConfigurationError(
                f"domain {self.domain} is not a whole number of cells at "
                f"dx={dx} (level {level})"
            )
        return int(round(cells))

    def grid_at(self, level: int) -> Grid:
        return Grid(self.domain[0], self.domain[1], self.cells_at(level))

    def build_model(self) -> ModelDef:
        return make_model(self.model, **self.model_params)

    def profiles(self):
        return resolve_profiles(self.initial_data)

    def canonical(self) -> dict:
        data = self.initial_data
        if not isinstance(data, str):
            data = list(data)
        return {
            "model": self.model,
            "model_params": {k: self.model_params[k] for k in sorted(self.model_params)},
            "initial_data": data,
            "domain": list(self.domain),
            "t_final": self.t_final,
            "bc": BoundaryCondition.parse(self.bc).value,
            "base_dx": self.base_dx,
            "clip": [self.clip.enabled, self.clip.C, self.clip.delta],
            "positivity": self.positivity,
            "safety": self.safety,
        }


# ---------------------------------------------------------------------------
# admissible boxes and the mesh ratio
# ---------------------------------------------------------------------------


def _box(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[min, max] of every row, shape (rows, 2), taken into ``out`` when given."""
    box = np.empty((rows.shape[0], 2)) if out is None else out
    np.minimum.reduce(rows, 1, None, box[:, 0])
    np.maximum.reduce(rows, 1, None, box[:, 1])
    return box


def _widened(box: np.ndarray, widen: float) -> np.ndarray:
    """A new box with each side of every [lo, hi] moved out by ``widen`` times its width."""
    pad = widen * (box[:, 1:] - box[:, :1])
    return box + pad * np.array([-1.0, 1.0])


def bound_boxes(
    model: ModelDef,
    values: np.ndarray,
    widen: float = 0.0,
    box: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(state box (N, 2), nonlocal box (m, 2)) of ``values`` for the Lipschitz bounds.

    Every [lo, hi] has each side moved out by ``widen`` times its width.
    Convolution against a unit-integral kernel cannot leave the range of its
    integrand, so a species' nonlocal row is its state row, taken before the
    state box is clamped to [rho_min, rho_max], and a derived field's row is
    the range of ``hook.value``.  ``box`` is the unwidened per-species
    [min, max] of ``values`` when the caller has already taken it.  Without
    widening or a clamp, the returned boxes are ``box`` and rows of it, so
    neither the caller nor the reader may change them.
    """
    if box is None:
        box = _box(values)
    rows = model.source_rows
    if rows is not None:
        nbox = box[rows]
    else:
        nbox = _box(model.source_stack(values, lambda hook, i: hook.value(values)))
    sbox = box
    if widen:
        sbox, nbox = _widened(sbox, widen), _widened(nbox, widen)
    floor, ceiling = model.box_clamps
    if floor is not None:
        sbox = np.maximum(sbox, floor)
    if ceiling is not None:
        sbox = np.minimum(sbox, ceiling)
    return sbox, nbox


def resolve_time_ratio(exp: Experiment, model: ModelDef | None = None) -> float:
    """The fixed mesh ratio dt/dx of an experiment.

    Explicit ``time_ratio`` wins; otherwise the CFL bound is evaluated with
    Lipschitz constants over the initial-data boxes, at the coarsest level so
    every level of the family shares one ratio.  Under the ``zero`` closure
    the ghost cells feed the zero state in, and the scheme mixes it into the
    data, so the boxes also hold the data scaled toward zero (s * v for
    s = 0, 1/8, ..., 1): a derived field such as GARZ's velocity leaves the
    data's range on that segment.
    """
    if exp.time_ratio is not None:
        return exp.time_ratio
    if model is None:
        model = exp.build_model()
    if model.lip_flux is None:
        raise ModelDefinitionError(
            f"model {model.name!r} has no flux Lipschitz bound; "
            "set time_ratio explicitly"
        )
    level = min(exp.levels)
    grid = exp.grid_at(level)
    values = init_cell_averages(exp.profiles(), grid)
    if BoundaryCondition.parse(exp.bc) is BoundaryCondition.ZERO:
        values = np.concatenate([s * values for s in np.linspace(0.0, 1.0, 9)], axis=1)
    sbox, nbox = bound_boxes(model, values, widen=0.1)
    lip_f = model.lip_flux(sbox, nbox)
    lip_s = model.lip_source(sbox, nbox) if model.lip_source is not None else None
    dt = max_stable_dt(grid.dx, lip_f, lip_s, exp.positivity, exp.safety)
    return dt / grid.dx


def flux_speed_estimate(
    model: ModelDef, values: np.ndarray, box: np.ndarray | None = None
) -> float:
    """Flux Lipschitz bound over the unwidened boxes of the current state.

    The same ``model.lip_flux`` on the same :func:`bound_boxes` that set the
    time step in :func:`resolve_time_ratio`, without the widening, so the
    per-step CFL monitor checks the quantity the time step was chosen for.
    ``box`` is as in :func:`bound_boxes`; :func:`run_simulation` passes the
    one it takes each step.
    """
    return model.lip_flux(*bound_boxes(model, values, 0.0, box))


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------


class MonitorLog:
    """Append-only per-step record of conserved and bounded quantities.

    Each record writes its time, and each species' cell sum, [min, max]
    box, summed absolute differences of neighbouring cells
    (:func:`core.interior_variation`) and, on the torus, end cells, into one
    array per quantity with a row per record.  ``dx`` and the periodic
    wrap-around term (:func:`core.variation_of_parts`) are applied once, when
    the table is read.  The table has a row per recorded state, in the
    column order of the monitor CSV: ``t``, then ``mass``, ``min``, ``max``
    and ``tv`` of each species in turn.
    """

    _FIRST_ROWS = 64

    def __init__(self, grid: Grid, bc: "str | BoundaryCondition"):
        self.grid = grid
        self.bc = BoundaryCondition.parse(bc)
        self._count = 0

    def _start(self, values: np.ndarray):
        """Size the arrays for states of ``values``' shape."""
        species, cells = self._shape = values.shape
        rows = self._FIRST_ROWS
        self._times = np.empty(rows)
        self._sums = np.empty((rows, species))
        self._boxes = np.empty((rows, species, 2))
        self._interior = np.empty((rows, species))
        self._diff = np.empty((species, cells))
        # only the wrap-around difference reads the end cells
        self._ends = None
        if self.bc is BoundaryCondition.PERIODIC:
            self._ends = np.empty((rows, species, 2))
        # columns 0 and cells - 1; a 1-cell state's one column is both
        self._end_stride = max(cells - 1, 1)

    def _grow(self):
        for name in ("_times", "_sums", "_boxes", "_interior", "_ends"):
            old = getattr(self, name)
            if old is not None:
                new = np.empty((2 * len(old),) + old.shape[1:])
                new[: len(old)] = old
                setattr(self, name, new)

    def record(self, t: float, values: np.ndarray, box: np.ndarray | None = None):
        """Append the state at time ``t``.

        ``box`` is the per-species [min, max] of ``values`` (shape (N, 2))
        when the caller has already taken it, as :func:`run_simulation` does
        once per step; the log copies it into its ``min`` and ``max`` columns.
        """
        k = self._count
        if not k:
            self._start(values)
        elif not t > self._last:
            raise InputDataError(f"monitor timestamps must increase: {t} after {self._last}")
        if values.shape != self._shape:
            raise InputDataError(
                f"monitor states must keep one shape: {values.shape} after {self._shape}"
            )
        if k == len(self._times):
            self._grow()
        self._times[k] = t
        np.add.reduce(values, 1, None, self._sums[k])
        if box is None:
            _box(values, self._boxes[k])
        else:
            self._boxes[k] = box
        interior_variation(values, self._interior[k], self._diff)
        if self._ends is not None:
            self._ends[k] = values[:, :: self._end_stride]
        self._last = t
        self._count = k + 1

    def _table(self, species: int = 0) -> np.ndarray:
        """Every recorded row, shape (records, 1 + 4 * species); ``species``
        sizes the table of an empty log."""
        k = self._count
        if not k:
            return np.empty((0, 1 + 4 * species))
        table = np.empty((k, 1 + 4 * self._shape[0]))
        table[:, 0] = self._times[:k]
        per_species = table[:, 1:].reshape(k, self._shape[0], 4)
        per_species[..., 0] = self.grid.dx * self._sums[:k]
        per_species[..., 1:3] = self._boxes[:k]
        first = last = None
        if self._ends is not None:
            first, last = self._ends[:k, :, 0], self._ends[:k, :, 1]
        per_species[..., 3] = variation_of_parts(self._interior[:k], first, last, self.bc)
        return table

    @property
    def times(self) -> np.ndarray:
        return self._table()[:, 0]

    @property
    def mass(self) -> np.ndarray:
        return self._table()[:, 1::4]

    @property
    def vmin(self) -> np.ndarray:
        return self._table()[:, 2::4]

    @property
    def vmax(self) -> np.ndarray:
        return self._table()[:, 3::4]

    @property
    def tv(self) -> np.ndarray:
        return self._table()[:, 4::4]

    def relative_mass_drift(self) -> float:
        """Worst relative change of any species mass over the record."""
        if not self._count:
            raise InputDataError("the monitor log is empty: no state was recorded")
        mass = self.mass
        ref = np.abs(mass[0])
        scale = np.maximum(ref, 1e-300)
        return float((np.abs(mass - mass[0]) / scale).max())

    def csv_columns(self, species) -> tuple[list[str], list[np.ndarray]]:
        """(header, columns) of the monitor CSV; ``species`` names the table's species."""
        names = ("mass", "min", "max", "tv")
        header = ["t"] + [f"{name}:{sp}" for sp in species for name in names]
        return header, list(self._table(len(species)).T)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _time_steps(t_final: float, dt0: float):
    """Yield ``(dt, t after the step)`` for every step from 0 to ``t_final``.

    Every step takes ``dt0`` except the last, which is clamped to land
    exactly on ``t_final``.  When the summed times reach ``t_final`` one step
    early, through rounding, that step is the clamped last one, so no step
    is zero or negative.
    """
    n_steps = 0 if t_final == 0.0 else max(1, math.ceil(t_final / dt0 - 1e-12))
    t = 0.0
    for i in range(n_steps):
        after = t + dt0
        if i == n_steps - 1 or after >= t_final:
            yield t_final - t, t_final
            return
        yield dt0, after
        t = after


def run_simulation(
    exp: Experiment,
    level: int,
    scheme: SchemeSpec | None = None,
    strict_cfl: bool = False,
    record: bool = True,
    time_ratio: float | None = None,
):
    """Advance one (scheme, level) pair from t=0 to t_final.

    Returns ``(SystemState, MonitorLog)``; the log is empty when ``record``
    is off.  Each new state's per-species [min, max] box is taken once, into
    one buffer of the run, and read three times: a non-finite state aborts
    with the step index (NaN propagates through min, max and the box's sum,
    and an infinity is a min or a max), the log records it as
    ``min``/``max``, and then the per-step CFL monitor
    (:func:`flux_speed_estimate`) warns once per run or raises in strict
    mode.
    """
    model = exp.build_model()
    grid = exp.grid_at(level)
    spec = scheme if scheme is not None else exp.schemes[0]
    stepper = Stepper(model, grid, exp.bc, spec, exp.clip)
    lam = time_ratio if time_ratio is not None else resolve_time_ratio(exp, model)

    limit = CFL_LIMIT  # the stability bound itself, not the safety-scaled target
    v = init_cell_averages(exp.profiles(), grid)
    box = np.empty((model.n_species, 2))  # every state's box, taken into this one buffer
    monitor = MonitorLog(grid, exp.bc)
    if record:
        monitor.record(0.0, v, _box(v, box))

    warned = False
    for i, (dt, t) in enumerate(_time_steps(exp.t_final, lam * grid.dx)):
        v = stepper.step(v, dt)
        _box(v, box)
        # a finite sum proves every entry finite; the entries are read only when it is not
        if not math.isfinite(sum(box.ravel().tolist())) and not np.isfinite(box).all():
            raise NumericsError(
                f"non-finite state after step {i + 1} (t={t:.6g})", step=i + 1
            )
        if record:
            monitor.record(t, v, box)
        speed = flux_speed_estimate(model, v, box)
        if lam * speed > limit * (1.0 + 1e-9):
            message = (
                f"CFL estimate exceeded at step {i + 1}: dt/dx * L = "
                f"{lam * speed:.4f} > {limit:.4f} "
                f"({lam * speed / limit:.10g} times the limit)"
            )
            if strict_cfl:
                raise CflViolationError(message)
            if not warned:
                warnings.warn(message, RuntimeWarning, stacklevel=2)
                warned = True
    return SystemState(v, exp.t_final), monitor


# ---------------------------------------------------------------------------
# norms and restriction
# ---------------------------------------------------------------------------


def restrict_values(fine: np.ndarray, factor: int) -> np.ndarray:
    """Average groups of ``factor`` fine cells onto the coarse grid."""
    if factor < 1 or fine.shape[-1] % factor != 0:
        raise InputDataError(
            f"cannot restrict {fine.shape[-1]} cells by a factor of {factor}"
        )
    shape = fine.shape[:-1] + (fine.shape[-1] // factor, factor)
    return fine.reshape(shape).mean(axis=-1)


def l1_error(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """Grid-weighted L1 distance, summed over species."""
    if a.shape != b.shape:
        raise InputDataError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(dx * np.abs(a - b).sum())


# ---------------------------------------------------------------------------
# reference cache
# ---------------------------------------------------------------------------


def cache_directory() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "ntcentral"
    )


def _reference_spec(model: ModelDef) -> SchemeSpec:
    """nt with the v2 slopes when the model gives ``dV``, v1 otherwise."""
    variant = "v2" if model.supports_v2 else "v1"
    return SchemeSpec(scheme="nt", slope_variant=variant, label="reference")


def compute_reference(
    exp: Experiment,
    time_ratio: float | None = None,
) -> np.ndarray:
    """Cell averages of the fine reference run, cached on disk."""
    model = exp.build_model()
    spec = _reference_spec(model)
    lam = time_ratio if time_ratio is not None else resolve_time_ratio(exp, model)
    key_doc = {
        "experiment": exp.canonical(),
        "reference": [exp.reference_level, spec.slope_variant],
        "time_ratio": lam,
    }
    key = _tagged_digest(key_doc)
    path = os.path.join(cache_directory(), f"ref-{key}.npy")
    expected = (model.n_species, exp.cells_at(exp.reference_level))
    if os.path.exists(path):
        try:
            values = np.load(path, allow_pickle=False)
            if values.shape == expected:
                return values
        except (OSError, ValueError):
            pass  # unreadable cache entry: recompute below
    state, _ = run_simulation(
        exp, exp.reference_level, spec, record=False, time_ratio=lam
    )
    npy = io.BytesIO()
    np.save(npy, state.values)
    try:
        _atomic_write(path, npy.getvalue())
    except OSError:
        pass  # a failed cache write is not fatal: the reference is still returned
    return state.values


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


CONVERGENCE_CSV_HEADER = "scheme,n,dx,l1_error,rate"


@dataclass
class ConvergenceReport:
    """Per-scheme error/rate table of one experiment."""

    rows: "dict[str, list[tuple[int, float, float, float | None]]]"
    metadata: dict = field(default_factory=dict)

    def csv_rows(self, prefix: str = "") -> list[str]:
        """Body lines of the CSV table, each scheme name led by ``prefix``."""
        lines = []
        for scheme, rows in self.rows.items():
            for n, dx, err, rate in rows:
                tail = "" if rate is None else repr(float(rate))
                lines.append(f"{prefix}{scheme},{n},{dx!r},{float(err)!r},{tail}")
        return lines

    def to_csv(self) -> str:
        return "\n".join([CONVERGENCE_CSV_HEADER] + self.csv_rows()) + "\n"


def _atomic_write(path: str, data: "str | bytes"):
    """Write ``data`` to ``path`` through a temporary file in its directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _study_cell(exp: Experiment, level: int, spec: SchemeSpec, strict_cfl: bool, lam: float):
    """One (scheme, level) run of a study: ``(values, seconds, warnings)``.

    The warnings the run gives are caught as ``(category, text)`` pairs for
    the caller to give again, wherever the run took place.  A run that
    fails returns its exception, which carries the ones it gave before
    failing as ``.warnings``.
    """
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            state, _ = run_simulation(
                exp, level, spec, strict_cfl=strict_cfl, record=False, time_ratio=lam
            )
        except Exception as exc:
            exc.warnings = [(w.category, str(w.message)) for w in caught]
            return exc
    given = [(w.category, str(w.message)) for w in caught]
    return state.values, time.perf_counter() - start, given


def _study_workers() -> int:
    """Worker processes for a study's cells: every CPU this process may use but its own."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return cpus - 1


def _study_runs(tasks: list, reference):
    """``reference()`` and the outcome of every task in ``tasks``, in order.

    A task's outcome is what ``_study_cell(*task)`` returns.  The tasks go to
    a pool of forked worker processes, given a spare CPU and ``fork``, while
    the caller computes the reference; the caller then runs, from the last
    task backwards, every task that no worker has started (with no pool,
    every task).  No worker outlives the call.
    """
    pool = None
    workers = min(_study_workers(), len(tasks))
    if workers > 0:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            import concurrent.futures

            # fork, not spawn: the workers keep the caller's module state, and a
            # script without a __main__ guard is not imported again
            pool = concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            )
    try:
        futures = [pool.submit(_study_cell, *task) if pool else None for task in tasks]
        ref = reference()
        outcomes = [None] * len(tasks)
        for i in reversed(range(len(tasks))):
            if futures[i] is None or futures[i].cancel():
                outcomes[i] = _study_cell(*tasks[i])
        for i, future in enumerate(futures):
            if outcomes[i] is None:
                outcomes[i] = future.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return ref, outcomes


def _warn_again(caught: list):
    """Give the warnings caught in a study cell again, in the caller."""
    for category, text in caught:
        warnings.warn(text, category, stacklevel=2)


def convergence_study(
    exp: Experiment,
    strict_cfl: bool = False,
) -> ConvergenceReport:
    """Errors and observed orders of every scheme against the fine reference.

    Rates are reported between adjacent levels only.  The (scheme, level)
    runs go to worker processes while the caller computes the reference
    (see :func:`_study_runs`), and the results are bit for bit those of a
    serial run.  Failures and warnings reach the caller as a serial run
    gives them: the reference's first, then each run's in (scheme, level)
    order, up to the first failure, which is raised.
    """
    if len(exp.levels) < 2:
        raise ConfigurationError("a convergence study needs at least two levels")
    model = exp.build_model()
    lam = resolve_time_ratio(exp, model)
    tasks = [(exp, n, spec, strict_cfl, lam) for spec in exp.schemes for n in exp.levels]
    reference, outcomes = _study_runs(tasks, lambda: compute_reference(exp, lam))

    rows: dict[str, list] = {spec.name: [] for spec in exp.schemes}
    runtimes = {}
    for (_, n, spec, _, _), outcome in zip(tasks, outcomes):
        if isinstance(outcome, BaseException):
            _warn_again(getattr(outcome, "warnings", []))
            raise outcome
        values, seconds, caught = outcome
        _warn_again(caught)
        table = rows[spec.name]
        coarse_ref = restrict_values(reference, 2 ** (exp.reference_level - n))
        err = l1_error(values, coarse_ref, exp.grid_at(n).dx)
        runtimes[f"{spec.name}/{n}"] = seconds
        rate = None
        if table and table[-1][0] == n - 1:
            prev = table[-1][2]
            if prev > 0.0 and err > 0.0:
                rate = math.log2(prev / err)
        table.append((n, exp.base_dx * 2.0 ** (-n), err, rate))

    metadata = {
        "error_norm": "dx * sum_j sum_k |a - b| (summed over species)",
        "time_ratio": lam,
        "reference": {
            "level": exp.reference_level,
            "variant": _reference_spec(model).slope_variant,
        },
        "runtimes": runtimes,
    }
    return ConvergenceReport(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def snapshot_columns(model: ModelDef, grid: Grid, values: np.ndarray):
    """(header, columns) of a solution snapshot, extras from the model."""
    header = ["x"] + list(model.species)
    columns = [grid.centers] + [values[k] for k in range(model.n_species)]
    for name in sorted(model.snapshot_fields):
        header.append(name)
        columns.append(model.snapshot_fields[name](values))
    return header, columns


def csv_table(header, columns) -> str:
    """CSV text of equal-length float columns, each value as ``repr(float)``.

    The shortest round-trip form makes repeated runs byte-identical.
    """
    lines = [",".join(header)]
    lines += map(",".join, zip(*map(_column_text, columns)))
    return "\n".join(lines) + "\n"


def _column_text(column):
    """``repr`` of every entry of ``column``, formatted once per run of equal bits.

    Runs are found on the bits, so -0.0, 0.0 and each NaN keep their own text.
    A column where at least half the entries start a run is formatted entry by
    entry, which is cheaper there.
    """
    c = np.ascontiguousarray(column, dtype=float)
    bits = c.view(np.int64)
    edges = bits[1:] != bits[:-1]  # edges[i]: entry i + 1 starts a run
    if 2 * (1 + np.count_nonzero(edges)) >= c.size:
        return map(repr, c.tolist())
    starts = np.r_[0, np.flatnonzero(edges) + 1]
    text = np.array([repr(v) for v in c[starts].tolist()], dtype=object)
    return np.repeat(text, np.diff(starts, append=c.size)).tolist()


# ---------------------------------------------------------------------------
# discrete entropy residual
# ---------------------------------------------------------------------------


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
    ``zeta``, the cellwise entropy production of every update; nonpositive
    production satisfies the inequality, so the returned values are the
    positive parts (zero for a clean run).
    """
    if model.n_species != 1:
        raise ConfigurationError(
            "the discrete entropy residual is only defined for scalar models"
        )
    stepper = Stepper(model, grid, bc, SchemeSpec("nt", slope_variant), clip)
    dx = grid.dx
    z = float(zeta)

    v = np.atleast_2d(np.array(values, dtype=float))
    def flux(u, R):  # the one species' flux g(u) V(R)
        return model.eval_flux(u[None], R)[0]

    residuals = []
    for dt, _ in _time_steps(t_final, time_ratio * dx):
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
