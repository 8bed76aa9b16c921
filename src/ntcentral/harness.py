"""Experiment driver: benchmark data, simulation runs, convergence studies.

An :class:`Experiment` is a plain-data description of a run family (model,
initial data, domain, schemes, refinement levels).  The driver advances it
level by level with a fixed mesh ratio ``dt/dx``, monitors conserved
quantities along the way, measures L1 distances against a fine reference on
nested grids, and assembles per-scheme error/rate tables.  Reference
solutions are cached on disk because they dominate the cost of every study.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CFL_LIMIT,
    BoundaryCondition,
    Grid,
    SystemState,
    TimeController,
    init_cell_averages,
    max_stable_dt,
    total_mass,
    total_variation,
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
from .schemes import SchemeConfig, Stepper

CACHE_ENV = "NTCENTRAL_CACHE_DIR"
# Bump when a solver change invalidates previously cached references.
_CACHE_TAG = "ntc-4"


def _tagged_digest(doc) -> str:
    """SHA-256 of the code tag and the canonical JSON of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((_CACHE_TAG + text).encode()).hexdigest()


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _bump(y):
    y = np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < 1.0), 4.0 * y * y * (1.0 - y * y), 0.0)


INITIAL_DATA = {
    "kk-sine": (
        lambda x: -0.1 - 0.2 * np.sin(np.pi * x),
        lambda x: 0.2 + 0.1 * np.sin(np.pi * x),
    ),
    "kk-box": (
        lambda x: np.where((x > 1.0) & (x < 3.0), 0.25, 0.0),
        lambda x: np.where((x > 1.0) & (x < 3.0), 1.0, 0.0),
    ),
    "arrhenius-sine": (lambda x: 0.5 + 0.4 * np.sin(np.pi * x),),
    "arrhenius-box": (lambda x: np.where(np.abs(x) <= 0.25, 1.0, 0.2),),
    "multilane-sine": (
        lambda x: 0.5 + 0.5 * np.sin(np.pi * x),
        lambda x: 0.25 + 0.25 * np.cos(2.0 * np.pi * x),
    ),
    "multilane-bumps": (
        lambda x: _bump(2.0 * x - 0.5),
        lambda x: _bump(2.0 * x),
    ),
    "euler-sine": (
        lambda x: 0.2 + 0.1 * np.sin(np.pi * x),
        lambda x: 0.4 + 0.3 * np.cos(np.pi * x) / np.pi,
    ),
    "euler-jump": (
        lambda x: np.where(x <= 0.0, 0.5, 1.5),
        lambda x: np.where(x <= 0.0, -1.0, 1.0),
    ),
    "garz-sine": (
        lambda x: 0.3 + 0.2 * np.sin(np.pi * x),
        lambda x: (0.3 + 0.2 * np.sin(np.pi * x)) * (1.9 + 1.25 * np.sin(np.pi * x)),
    ),
    "garz-jump": (
        lambda x: np.full_like(np.asarray(x, dtype=float), 0.05),
        lambda x: np.where(x <= 0.0, 7.0 / 400.0, 1.0 / 25.0),
    ),
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


def expression_profile(expr: str):
    """Compile a one-variable expression like ``0.5+0.4*sin(pi*x)``.

    Only the names in ``_EXPR_NAMES`` plus ``x`` are allowed; everything else
    is rejected so config files cannot smuggle in arbitrary code.
    """
    try:
        code = compile(expr, "<initial-data>", "eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"bad initial-data expression {expr!r}: {exc}") from None
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
            return INITIAL_DATA[spec]
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
class SchemeSpec:
    """Serializable selection of one scheme column in a study."""

    scheme: str = "nt"
    slope_variant: str = "v1"
    theta: float | None = None
    label: str | None = None

    def __post_init__(self):
        # constructing a SchemeConfig validates every field
        self.config()

    def config(self, clip: ClipConfig = NO_CLIP) -> SchemeConfig:
        return SchemeConfig(
            scheme=self.scheme,
            slope_variant=self.slope_variant,
            theta=self.theta,
            clip=clip,
        )

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.scheme == "nt":
            return f"nt-{self.slope_variant}"
        return self.scheme

    def canonical(self) -> dict:
        d = {"scheme": self.scheme}
        if self.scheme == "nt":
            d["slope_variant"] = self.slope_variant
        if self.theta is not None:
            d["theta"] = self.theta
        return d


@dataclass(frozen=True)
class Experiment:
    """One benchmark: model, data, domain, schemes, and refinement ladder.

    ``base_dx`` is the level-0 spacing; level ``n`` uses ``base_dx * 2**-n``.
    ``time_ratio`` fixes ``dt/dx`` for the whole family; when ``None`` it is
    derived once from the CFL bound with the Lipschitz constant taken over a
    slightly widened box around the initial data.
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
    reference_variant: str | None = None
    time_ratio: float | None = None
    clip: ClipConfig = NO_CLIP
    positivity: bool = False
    safety: float = 1.0
    name: str = ""

    def __post_init__(self):
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
        BoundaryCondition.parse(self.bc)
        if not self.schemes:
            raise ConfigurationError("an experiment needs at least one scheme")
        names = [s.name for s in self.schemes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate scheme labels: {names}")

    def cells_at(self, level: int) -> int:
        dx = self.base_dx * 2.0 ** (-level)
        cells = (self.domain[1] - self.domain[0]) / dx
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

    def digest(self) -> str:
        return _tagged_digest(self.canonical())


# ---------------------------------------------------------------------------
# admissible boxes and the mesh ratio
# ---------------------------------------------------------------------------


def state_bounds(model: ModelDef, values: np.ndarray, widen: float = 0.1) -> np.ndarray:
    """Per-species [lo, hi] box around the data, widened and range-clamped."""
    lo = values.min(axis=1)
    hi = values.max(axis=1)
    pad = widen * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if model.rho_min is not None:
        lo = np.maximum(lo, model.rho_min)
    if model.rho_max is not None:
        hi = np.minimum(hi, model.rho_max)
    return np.stack([lo, hi], axis=1)


def nonlocal_bounds(model: ModelDef, values: np.ndarray, widen: float = 0.1) -> np.ndarray:
    """[lo, hi] box of every convolved quantity, from the data itself.

    Convolution against a unit-integral kernel cannot leave the range of its
    integrand, so the data box of the convolved quantities bounds the
    nonlocal fields of the run.
    """
    u = model.convolved_values(values)
    lo = u.min(axis=1)
    hi = u.max(axis=1)
    pad = widen * (hi - lo)
    return np.stack([lo - pad, hi + pad], axis=1)


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
    values = init_cell_averages(exp.profiles(), grid).values
    if BoundaryCondition.parse(exp.bc) is BoundaryCondition.ZERO:
        values = np.concatenate([s * values for s in np.linspace(0.0, 1.0, 9)], axis=1)
    sbox = state_bounds(model, values)
    nbox = nonlocal_bounds(model, values)
    lip_f = model.lip_flux(sbox, nbox)
    lip_s = model.lip_source(sbox, nbox) if model.lip_source is not None else None
    controller = TimeController(
        t_final=exp.t_final,
        safety=exp.safety,
        positivity=exp.positivity,
    )
    # leave the final-time clamp out of the ratio: pass t_now far from t_final
    dt = max_stable_dt(controller, grid, lip_f, lip_s, t_now=-math.inf)
    return dt / grid.dx


def flux_speed_estimate(model: ModelDef, values: np.ndarray) -> float:
    """Flux Lipschitz bound over the box of the current state.

    The same ``model.lip_flux`` that sets the time step in
    :func:`resolve_time_ratio`, evaluated on the unwidened state and
    nonlocal boxes of ``values``, so the per-step CFL monitor checks the
    quantity the time step was chosen for.
    """
    return model.lip_flux(
        state_bounds(model, values, widen=0.0),
        nonlocal_bounds(model, values, widen=0.0),
    )


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------


class MonitorLog:
    """Append-only per-step record of conserved and bounded quantities."""

    def __init__(self, grid: Grid, bc: "str | BoundaryCondition"):
        self.grid = grid
        self.bc = BoundaryCondition.parse(bc)
        self._times: list[float] = []
        self._mass: list[np.ndarray] = []
        self._vmin: list[np.ndarray] = []
        self._vmax: list[np.ndarray] = []
        self._tv: list[np.ndarray] = []
        self._entropy: list[float] = []

    def record(self, t: float, values: np.ndarray, entropy: float | None = None):
        if self._times and not t > self._times[-1]:
            raise InputDataError(
                f"monitor timestamps must increase: {t} after {self._times[-1]}"
            )
        state = SystemState(values, t)
        self._times.append(float(t))
        self._mass.append(total_mass(state, self.grid))
        self._vmin.append(values.min(axis=1))
        self._vmax.append(values.max(axis=1))
        self._tv.append(total_variation(state, self.bc))
        if entropy is not None:
            self._entropy.append(float(entropy))

    @property
    def n_records(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def mass(self) -> np.ndarray:
        return np.asarray(self._mass)

    @property
    def vmin(self) -> np.ndarray:
        return np.asarray(self._vmin)

    @property
    def vmax(self) -> np.ndarray:
        return np.asarray(self._vmax)

    @property
    def tv(self) -> np.ndarray:
        return np.asarray(self._tv)

    @property
    def entropy(self) -> np.ndarray:
        return np.asarray(self._entropy)

    def relative_mass_drift(self) -> float:
        """Worst relative change of any species mass over the record."""
        mass = self.mass
        ref = np.abs(mass[0])
        scale = np.maximum(ref, 1e-300)
        return float((np.abs(mass - mass[0]) / scale).max())


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _step_count(t_final: float, dt0: float) -> int:
    if t_final == 0.0:
        return 0
    return max(1, math.ceil(t_final / dt0 - 1e-12))


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
    is off.  Non-finite states abort with the step index; the per-step CFL
    monitor (:func:`flux_speed_estimate`) warns once per run, or raises in
    strict mode.
    """
    model = exp.build_model()
    profiles = exp.profiles()
    if len(profiles) != model.n_species:
        raise ConfigurationError(
            f"initial data has {len(profiles)} species but model "
            f"{model.name!r} expects {model.n_species}"
        )
    grid = exp.grid_at(level)
    spec = scheme if scheme is not None else exp.schemes[0]
    stepper = Stepper(model, grid, exp.bc, spec.config(exp.clip))
    lam = time_ratio if time_ratio is not None else resolve_time_ratio(exp, model)

    limit = CFL_LIMIT  # the stability bound itself, not the safety-scaled target
    v = init_cell_averages(profiles, grid).values
    monitor = MonitorLog(grid, exp.bc)
    if record:
        monitor.record(0.0, v)

    dt0 = lam * grid.dx
    n_steps = _step_count(exp.t_final, dt0)
    t = 0.0
    warned = False
    for i in range(n_steps):
        last = i == n_steps - 1
        dt = exp.t_final - t if last else dt0
        v = stepper.step(v, dt)
        t = exp.t_final if last else t + dt0
        if not np.isfinite(v).all():
            raise NumericsError(
                f"non-finite state after step {i + 1} (t={t:.6g})", step=i + 1
            )
        speed = flux_speed_estimate(model, v)
        if lam * speed > limit * (1.0 + 1e-9):
            message = (
                f"CFL estimate exceeded at step {i + 1}: dt/dx * L = "
                f"{lam * speed:.4f} > {limit:.4f}"
            )
            if strict_cfl:
                raise CflViolationError(message)
            if not warned:
                warnings.warn(message, RuntimeWarning, stacklevel=2)
                warned = True
        if record:
            monitor.record(t, v)
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


def restrict_to_coarse(fine: SystemState, coarse_grid: Grid) -> SystemState:
    """Conservative restriction of a fine state onto a nested coarser grid."""
    nf, nc = fine.n_cells, coarse_grid.cells
    if nf % nc != 0:
        raise InputDataError(f"grids are not nested: {nf} fine vs {nc} coarse cells")
    factor = nf // nc
    if factor & (factor - 1):
        raise InputDataError(
            f"grid ratio {factor} is not a power of two; grids are not nested"
        )
    return SystemState(restrict_values(fine.values, factor), fine.time)


def l1_error(a, b, dx: float) -> float:
    """Grid-weighted L1 distance, summed over species."""
    av = a.values if isinstance(a, SystemState) else np.asarray(a)
    bv = b.values if isinstance(b, SystemState) else np.asarray(b)
    if av.shape != bv.shape:
        raise InputDataError(f"shape mismatch: {av.shape} vs {bv.shape}")
    return float(dx * np.abs(av - bv).sum())


# ---------------------------------------------------------------------------
# reference cache
# ---------------------------------------------------------------------------


def cache_directory() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "ntcentral"
    )


def _reference_spec(exp: Experiment, model: ModelDef) -> SchemeSpec:
    variant = exp.reference_variant
    if variant is None:
        variant = "v2" if model.supports_v2 else "v1"
    return SchemeSpec(scheme="nt", slope_variant=variant, label="reference")


def compute_reference(
    exp: Experiment,
    time_ratio: float | None = None,
    use_cache: bool = True,
) -> np.ndarray:
    """Cell averages of the fine reference run, cached on disk."""
    model = exp.build_model()
    spec = _reference_spec(exp, model)
    lam = time_ratio if time_ratio is not None else resolve_time_ratio(exp, model)
    key_doc = {
        "experiment": exp.canonical(),
        "reference": [exp.reference_level, spec.slope_variant],
        "time_ratio": lam,
    }
    key = _tagged_digest(key_doc)
    path = os.path.join(cache_directory(), f"ref-{key}.npy")
    expected = (model.n_species, exp.cells_at(exp.reference_level))
    if use_cache and os.path.exists(path):
        try:
            values = np.load(path, allow_pickle=False)
            if values.shape == expected:
                return values
        except (OSError, ValueError):
            pass  # unreadable cache entry: recompute below
    state, _ = run_simulation(
        exp, exp.reference_level, spec, record=False, time_ratio=lam
    )
    if use_cache:
        os.makedirs(cache_directory(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_directory(), suffix=".npy")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, state.values)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return state.values


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


CONVERGENCE_CSV_HEADER = "scheme,n,dx,l1_error,rate"


@dataclass
class ConvergenceReport:
    """Per-scheme error/rate table of one experiment."""

    name: str
    time_ratio: float
    base_dx: float
    levels: tuple[int, ...]
    rows: "dict[str, list[tuple[int, float, float, float | None]]]"
    metadata: dict = field(default_factory=dict)

    def errors(self, scheme: str) -> np.ndarray:
        return np.asarray([r[2] for r in self.rows[scheme]])

    def rates(self, scheme: str) -> list:
        return [r[3] for r in self.rows[scheme]]

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


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def convergence_study(
    exp: Experiment,
    threads: int | None = None,
    use_cache: bool = True,
    strict_cfl: bool = False,
) -> ConvergenceReport:
    """Errors and observed orders of every scheme against the fine reference.

    Rates are reported between adjacent levels only.  Independent
    (scheme, level) runs may execute concurrently; assembly order is fixed by
    the experiment, so reports are deterministic either way.
    """
    if len(exp.levels) < 2:
        raise ConfigurationError("a convergence study needs at least two levels")
    model = exp.build_model()
    lam = resolve_time_ratio(exp, model)
    reference = compute_reference(exp, lam, use_cache)

    def one(task):
        spec, level = task
        start = time.perf_counter()
        state, _ = run_simulation(
            exp, level, spec, strict_cfl=strict_cfl, record=False, time_ratio=lam
        )
        factor = 2 ** (exp.reference_level - level)
        coarse_ref = restrict_values(reference, factor)
        err = l1_error(state.values, coarse_ref, exp.grid_at(level).dx)
        return spec.name, level, err, time.perf_counter() - start

    tasks = [(spec, level) for spec in exp.schemes for level in exp.levels]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, tasks))
    else:
        results = [one(t) for t in tasks]

    errors = {(name, level): err for name, level, err, _ in results}
    runtimes = {(name, level): rt for name, level, _, rt in results}
    rows: dict[str, list] = {}
    for spec in exp.schemes:
        table = []
        for i, n in enumerate(exp.levels):
            err = errors[(spec.name, n)]
            rate = None
            if i > 0 and exp.levels[i - 1] == n - 1:
                prev = errors[(spec.name, n - 1)]
                if prev > 0.0 and err > 0.0:
                    rate = math.log2(prev / err)
            table.append((n, exp.base_dx * 2.0 ** (-n), err, rate))
        rows[spec.name] = table

    metadata = {
        "error_norm": "dx * sum_j sum_k |a - b| (summed over species)",
        "time_ratio": lam,
        "reference": {
            "level": exp.reference_level,
            "variant": _reference_spec(exp, model).slope_variant,
        },
        "runtimes": {
            f"{name}/{level}": runtimes[(name, level)]
            for name, level in sorted(runtimes)
        },
    }
    return ConvergenceReport(
        name=exp.name or exp.model,
        time_ratio=lam,
        base_dx=exp.base_dx,
        levels=tuple(exp.levels),
        rows=rows,
        metadata=metadata,
    )


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


def snapshot_csv(model: ModelDef, grid: Grid, values: np.ndarray) -> str:
    header, columns = snapshot_columns(model, grid, values)
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


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
    cfg = SchemeConfig(scheme="nt", slope_variant=slope_variant, clip=clip)
    stepper = Stepper(model, grid, bc, cfg)
    flux0 = model.flux[0]
    dx = grid.dx
    dt0 = time_ratio * dx
    n_steps = _step_count(t_final, dt0)
    J = grid.cells
    z = float(zeta)

    v = np.array(values, dtype=float)
    if v.ndim == 1:
        v = v[None, :]
    residuals = np.empty(n_steps)
    t = 0.0
    for i in range(n_steps):
        last = i == n_steps - 1
        dt = t_final - t if last else dt0
        lam = dt / dx
        new, f = stepper.step_with_fields(v, dt)

        c = f["values"][0]  # cells j = -3 .. J+2 at index j+3
        s = f["slopes"][0]
        h = 0.5 * dt * (f["source"][0] - f["sigma"][0])
        Rh = f["half_R"]
        Sh = f["half_source"][0]
        ss = f["staggered_slopes"][0]  # interface j+1/2 at index j+2
        Fz = flux0(z + h, Rh)

        # numerical entropy flux on interfaces j+1/2, j = -1 .. J-1
        uL, uR = c[2 : J + 3], c[3 : J + 4]
        hL, hR = h[2 : J + 3], h[3 : J + 4]
        RhL, RhR = Rh[:, 2 : J + 3], Rh[:, 3 : J + 4]
        sLR = s[2 : J + 3] + s[3 : J + 4]
        ssI = ss[1 : J + 2]

        def entropy_flux(a, b):
            return (0.25 * (a - b) + dx / 16.0 * sLR + dx / 8.0 * ssI) / lam + 0.5 * (
                flux0(a + hL, RhL) + flux0(b + hR, RhR)
            )

        F = entropy_flux(np.maximum(uL, z), np.maximum(uR, z)) - entropy_flux(
            np.minimum(uL, z), np.minimum(uR, z)
        )

        bracket = (
            dx / 16.0 * (s[4 : J + 4] - s[2 : J + 2])
            + dx / 8.0 * (ss[2 : J + 2] - ss[1 : J + 1])
            + 0.5 * lam * (Fz[4 : J + 4] - Fz[2 : J + 2])
            - 0.25 * dt * (Sh[4 : J + 4] + 2.0 * Sh[3 : J + 3] + Sh[2 : J + 2])
        )
        lhs = (
            np.abs(new[0] - z)
            - np.abs(c[3 : J + 3] - z)
            + np.sign(new[0] - z) * bracket
            + lam * (F[1:] - F[:-1])
        )
        residuals[i] = max(0.0, float(lhs.max()))
        v = new
        t = t_final if last else t + dt0
    return residuals
