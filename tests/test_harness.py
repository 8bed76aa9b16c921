"""Experiment plumbing: profiles, restriction, caching, monitors, studies."""

import dataclasses
import glob
import multiprocessing
import os
import re
import tempfile
import time
import warnings

import numpy as np
import pytest

from ntcentral import harness
from ntcentral.cli import load_preset, parse_config, preset_names
from ntcentral.core import (
    CFL_LIMIT,
    BoundaryCondition,
    Grid,
    init_cell_averages,
)
from ntcentral.errors import (
    CflViolationError,
    ConfigurationError,
    InputDataError,
    NumericsError,
)
from ntcentral.harness import (
    CACHE_ENV,
    Experiment,
    MonitorLog,
    SchemeSpec,
    bound_boxes,
    compute_reference,
    convergence_study,
    csv_table,
    expression_profile,
    flux_speed_estimate,
    l1_error,
    resolve_profiles,
    resolve_time_ratio,
    restrict_values,
    run_simulation,
    snapshot_columns,
)
from ntcentral.models import DerivedFieldHook, make_model
from ntcentral.schemes import Stepper
from oracles import entropy_residual, relative_mass_drift, total_mass, total_variation


def small_experiment(**kw):
    base = dict(
        model="arrhenius",
        t_final=0.05,
        initial_data="arrhenius-sine",
        model_params={"eta": 0.2},
        levels=(0, 1),
        reference_level=3,
        time_ratio=0.2,
        schemes=(SchemeSpec("lxf1"), SchemeSpec("nt", "v2")),
    )
    base.update(kw)
    return Experiment(**base)


# -- profiles ----------------------------------------------------------------


def test_expression_profile_evaluates_vectorised():
    f = expression_profile("0.5+0.4*sin(pi*x)")
    x = np.linspace(-1.0, 1.0, 7)
    np.testing.assert_allclose(f(x), 0.5 + 0.4 * np.sin(np.pi * x))


def test_expression_profile_broadcasts_constants():
    f = expression_profile("0.25")
    assert f(np.zeros((3, 5))).shape == (3, 5)


def test_expression_profile_rejects_unknown_names():
    with pytest.raises(ConfigurationError, match="unknown name"):
        expression_profile("__import__('os').getcwd()")
    with pytest.raises(ConfigurationError, match="unknown name"):
        expression_profile("y + 1")
    with pytest.raises(ConfigurationError, match="bad initial-data"):
        expression_profile("0.5 +")
    # a lambda, generator or comprehension is refused as such, before the
    # names inside it are read
    for expr, message in [
        ("x + 0*(lambda: 1)()", "function or comprehension"),
        ("x + 0*(t for t in (1.0,))", "function or comprehension"),
        ("x + 0*[t for t in (1.0,)][0]", "function or comprehension|unknown name"),
        (
            "x + 0*[[1.0 for c in ().__class__.__base__.__subclasses__()] for t in (1,)][0][0]",
            "function or comprehension|unknown name",
        ),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            expression_profile(expr)
    # a refused text is refused again on every call, not remembered as valid
    with pytest.raises(ConfigurationError, match="unknown name"):
        expression_profile("y + 1")


def test_expression_profile_compiles_each_text_once(monkeypatch):
    import builtins

    compiled = []
    real = builtins.compile

    def counted(source, *args, **kw):
        compiled.append(source)
        return real(source, *args, **kw)

    monkeypatch.setattr(builtins, "compile", counted)
    text = "0.125 + 0.5 * cos(pi * x) ** 3"  # a text no other test uses
    x = np.linspace(-1.0, 1.0, 5)
    values = [expression_profile(text)(x) for _ in range(3)]
    assert compiled.count(text) == 1
    np.testing.assert_array_equal(values[0], values[2])


@pytest.mark.parametrize(
    "expr",
    [
        "9**9**9",  # as an exact integer this would take for ever
        "9.0**9.0**9.0",  # OverflowError
        "x+10**400",
        "x+1/0",  # ZeroDivisionError
        "x+(1,2)",  # ValueError: the shapes do not broadcast
        'x+"a"',  # numpy's TypeError
        pytest.param(f"x+{10**400}", id="x+10^400"),  # an integer beyond the floats
    ],
)
def test_an_expression_that_cannot_be_evaluated_is_a_config_error(expr):
    # refused when it is compiled or when it is first evaluated, naming the text
    message = re.escape(f"bad initial-data expression {expr!r}: ")
    with pytest.raises(ConfigurationError, match=message):
        expression_profile(expr)(np.linspace(-1.0, 1.0, 5))


def test_resolve_profiles_registry_and_errors():
    fs = resolve_profiles("kk-sine")
    assert len(fs) == 2
    with pytest.raises(ConfigurationError, match="registered"):
        resolve_profiles("kk-sin")
    fs = resolve_profiles(["x", "2*x"])
    assert fs[1](np.array([3.0]))[0] == 6.0


def _bump(y):
    y = np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < 1.0), 4.0 * y * y * (1.0 - y * y), 0.0)


# the registry as it was written in numpy before it became expressions
LAMBDA_DATA = {
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


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 4.0)])
def test_registered_expressions_give_the_numpy_profiles_bit_for_bit(domain):
    # cached references are keyed by the registry name, so a name's data
    # must not move by one ulp
    assert sorted(harness.INITIAL_DATA) == sorted(LAMBDA_DATA)
    grid = Grid(*domain, 80)
    for name, profiles in LAMBDA_DATA.items():
        want = init_cell_averages(profiles, grid)
        got = init_cell_averages(resolve_profiles(name), grid)
        assert np.array_equal(got, want), name


# -- experiment validation -----------------------------------------------------


def test_experiment_validation():
    with pytest.raises(ConfigurationError, match="finer"):
        small_experiment(reference_level=1)
    with pytest.raises(ConfigurationError, match="duplicate"):
        small_experiment(schemes=(SchemeSpec("lxf1"), SchemeSpec("lxf1")))
    with pytest.raises(ConfigurationError, match="boundary"):
        small_experiment(bc="outflowing")
    with pytest.raises(ConfigurationError, match="whole number"):
        small_experiment(base_dx=0.3)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"initial_data": "kk-sine"}, "initial data has 2 species"),
        (
            {"model": "garz", "initial_data": "garz-sine", "model_params": {},
             "schemes": (SchemeSpec("nt", "v2"),)},
            "gives no dV",
        ),
        ({"safety": 1.5}, "CFL safety factor must lie in (0, 1]"),
        ({"model_params": {"eta": 0.07}}, "integer multiple"),
        ({"reference_level": 2000}, "level 2000 is too fine"),
        ({"domain": (-1.0, 1.01)}, "whole number of cells"),
        ({"t_final": float("nan")}, "t_final must be finite"),
        ({"t_final": float("inf")}, "t_final must be finite"),
        ({"time_ratio": float("inf")}, "time_ratio must be finite"),
        ({"time_ratio": float("nan")}, "time_ratio must be finite"),
        ({"base_dx": float("nan")}, "base_dx must be finite"),
        ({"domain": (0.0, float("inf"))}, "domain must be finite"),
        ({"domain": (float("-inf"), 1.0)}, "domain must be finite"),
        ({"t_final": -0.1}, "t_final must be >= 0"),
        ({"domain": (1.0, 1.0)}, "empty domain"),
        ({"base_dx": 0.0}, "base_dx must be positive"),
        ({"base_dx": -0.05}, "base_dx must be positive"),
        ({"levels": ()}, "levels must be nonempty"),
        ({"levels": (-1, 0)}, "levels must be nonnegative"),
        ({"time_ratio": 0.0}, "time_ratio must be positive"),
        ({"schemes": ()}, "at least one scheme"),
        # the ceilings of a grid and of a kernel band
        ({"domain": (0.0, 1e300)}, "level 0 is too fine"),
        ({"reference_level": 40}, "is 4.4e+13 cells, more than 2147483648"),
        ({"model_params": {"eta": 1e9}}, "spans more than 2147483648 taps"),
        # the domain's shape and the kernel range
        ({"domain": (0.0,)}, "domain must be two numbers, got (0.0,)"),
        ({"domain": (-1.0, 1.0, 5.0)}, "domain must be two numbers, got (-1.0, 1.0, 5.0)"),
        ({"model_params": {"eta": float("nan")}}, "eta must be positive and finite, got nan"),
        ({"model_params": {"eta": float("inf")}}, "eta must be positive and finite, got inf"),
        ({"model_params": {"eta": 0.0}}, "eta must be positive and finite, got 0.0"),
    ],
)
def test_an_experiment_that_cannot_run_fails_when_built(change, message):
    # every rule of a runnable experiment is checked before any run starts
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        small_experiment(**change)


def test_experiment_grids_and_digest():
    def digest(exp):
        return harness._tagged_digest(exp.canonical())

    exp = small_experiment()
    assert exp.cells_at(0) == 40
    assert exp.grid_at(2).cells == 160
    assert digest(exp) == digest(small_experiment())
    assert digest(exp) != digest(small_experiment(t_final=0.06))
    # scheme selection does not change the physical digest
    assert digest(exp) == digest(small_experiment(schemes=(SchemeSpec("lxf1"),)))


def test_scheme_spec_names():
    assert SchemeSpec("nt", "v2").name == "nt-v2"
    assert SchemeSpec("lxf1").name == "lxf1"
    assert SchemeSpec("nt", "v1", label="ref").name == "ref"
    with pytest.raises(ConfigurationError):
        SchemeSpec("upwind")


# -- boxes and mesh ratio ------------------------------------------------------


def test_state_bounds_clamped_to_admissible_range():
    model = make_model("arrhenius")
    values = np.array([[0.05, 0.95]])
    box, nbox = bound_boxes(model, values, widen=0.1)
    assert box[0, 0] >= 0.0 and box[0, 1] <= 1.0
    # the nonlocal row is the state row, widened, before the clamp
    pad = 0.1 * (0.95 - 0.05)
    np.testing.assert_array_equal(nbox, [[0.05 - pad, 0.95 + pad]])
    model2 = make_model("nonlocal-euler")
    box2, _ = bound_boxes(model2, np.array([[0.1, 0.3], [-0.5, 0.5]]), widen=0.1)
    assert box2[0, 0] < 0.1 and box2[1, 1] > 0.5


def test_nonlocal_bounds_cover_derived_quantities():
    model = make_model("garz")
    values = np.array([[0.2, 0.4], [0.4, 0.4]])
    _, box = bound_boxes(model, values, widen=0.1)
    v = model.nonlocal_sources[0].value(values)
    assert box[0, 0] < v.min() and box[0, 1] > v.max()


def bound_boxes_row_by_row(model, values, widen):
    """The per-source loop that ``bound_boxes`` replaced, kept as its reference."""
    sbox = np.stack([values.min(axis=1), values.max(axis=1)], axis=1)
    nbox = np.empty((len(model.kernels), 2))
    for l, src in enumerate(model.nonlocal_sources):
        if isinstance(src, DerivedFieldHook):
            u = src.value(values)
            nbox[l] = u.min(), u.max()
        else:
            nbox[l] = sbox[src]
    for b in (sbox, nbox):
        pad = widen * (b[:, 1] - b[:, 0])
        b[:, 0] -= pad
        b[:, 1] += pad
    if model.rho_min is not None:
        np.maximum(sbox[:, 0], model.rho_min, out=sbox[:, 0])
    if model.rho_max is not None:
        np.minimum(sbox[:, 1], model.rho_max, out=sbox[:, 1])
    return sbox, nbox


@pytest.mark.parametrize("widen", [0.0, 0.1])
@pytest.mark.parametrize(
    "name, sources",
    [
        ("arrhenius", None),  # one species, clamped on both sides
        ("nonlocal-euler", None),  # one source, not the first species
        ("garz", None),  # a derived field
        ("multilane", None),  # consecutive sources, clamped
        ("multilane", (1, 0)),  # sources out of order
        ("multilane", (1, 1)),  # one species convolved twice
        ("garz", ("hook", 0)),  # a derived field beside a species, two kernels
    ],
)
def test_bound_boxes_are_the_row_by_row_boxes_bit_for_bit(rng, with_sources, name, sources, widen):
    model = make_model(name) if sources is None else with_sources(name, sources)
    for _ in range(20):
        values = rng.uniform(-0.5, 1.5, size=(model.n_species, 9))
        values[rng.random(values.shape) < 0.3] = -0.0
        want = bound_boxes_row_by_row(model, values, widen)
        box = harness._box(values)
        given = box.copy()
        for got in (bound_boxes(model, values, widen), bound_boxes(model, values, widen, box)):
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
        np.testing.assert_array_equal(box.view(np.int64), given.view(np.int64))


def test_resolve_time_ratio_explicit_and_derived():
    assert resolve_time_ratio(small_experiment()) == 0.2
    exp = small_experiment(time_ratio=None)
    lam = resolve_time_ratio(exp)
    assert 0.0 < lam
    # dt/dx * L <= CFL limit by construction, with L >= flux slope bound ~ e^0
    assert lam <= CFL_LIMIT / 0.1


@pytest.mark.parametrize("positivity", [False, True])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_derived_time_ratio_is_the_cfl_formula(bc, positivity):
    # multilane has a source, so positivity mode takes the split min(...)
    exp = Experiment(
        model="multilane",
        t_final=0.1,
        initial_data="multilane-sine",
        bc=bc,
        levels=(1, 2),
        reference_level=3,
        positivity=positivity,
        safety=0.9,
    )
    model = exp.build_model()
    grid = exp.grid_at(1)
    values = init_cell_averages(exp.profiles(), grid)
    if bc == "zero":
        values = np.concatenate([s * values for s in np.linspace(0.0, 1.0, 9)], axis=1)
    sbox, nbox = bound_boxes(model, values, widen=0.1)
    lip_f, lip_s = model.lip_flux(sbox, nbox), model.lip_source(sbox, nbox)
    if positivity:
        dt = min((CFL_LIMIT / 2) * grid.dx / lip_f, 2 * (CFL_LIMIT / 2) / lip_s)
    else:
        dt = CFL_LIMIT * grid.dx / lip_f
    assert resolve_time_ratio(exp) == dt * 0.9 / grid.dx


@pytest.mark.parametrize("preset", preset_names())
def test_derived_time_ratio_passes_the_cfl_monitor(preset):
    # the monitor evaluates the bound that chose dt, so the initial data of
    # every packaged experiment, and the state one step later (which has
    # seen the ghost cells), sit within the limit when dt/dx is derived
    for exp in parse_config(load_preset(preset), preset).experiments:
        for bc in BoundaryCondition:
            e = dataclasses.replace(exp, time_ratio=None, bc=bc.value)
            model = e.build_model()
            grid = e.grid_at(min(e.levels))
            v0 = init_cell_averages(e.profiles(), grid)
            lam = resolve_time_ratio(e, model)
            ratio = lam * flux_speed_estimate(model, v0)
            assert ratio <= CFL_LIMIT, (exp.name, bc, ratio / CFL_LIMIT)
            for spec in e.schemes:
                v1 = Stepper(model, grid, bc, spec, e.clip).step(v0, lam * grid.dx)
                ratio = lam * flux_speed_estimate(model, v1)
                assert ratio <= CFL_LIMIT, (exp.name, bc, spec.name, ratio / CFL_LIMIT)


@pytest.mark.parametrize("excess", [3e-5, 2e-8])
def test_cfl_message_shows_the_margin(monkeypatch, excess):
    # an excess below the printed digits of dt/dx * L must still show
    exp = Experiment(
        model="arrhenius",
        t_final=0.01,
        initial_data="arrhenius-sine",
        model_params={"eta": 0.2},
        levels=(0,),
        reference_level=1,
        time_ratio=0.2,
    )
    speed = CFL_LIMIT * (1.0 + excess) / 0.2
    monkeypatch.setattr(harness, "flux_speed_estimate", lambda model, v, box: speed)
    with pytest.raises(CflViolationError, match="CFL estimate exceeded at step 1") as err:
        run_simulation(exp, 0, strict_cfl=True, record=False)
    ratio = float(re.search(r"\((\S+) times the limit\)", str(err.value)).group(1))
    assert ratio - 1.0 == pytest.approx(excess, rel=0.01)
    with pytest.warns(RuntimeWarning, match="times the limit") as caught:
        run_simulation(exp, 0, record=False)
    assert len(caught) == 1  # once per run


MODEL_NAMES = ("keyfitz-kranzer", "arrhenius", "multilane", "nonlocal-euler", "garz")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_cfl_monitor_is_the_bound_on_the_unwidened_boxes(name, rng):
    # random data, part of it outside [rho_min, rho_max], so the clamps act
    model = make_model(name)
    for cells in (1, 7, 160):
        for spread in (1e-9, 0.3, 1.0):
            v = 0.5 + spread * rng.uniform(-1.0, 1.0, (model.n_species, cells))
            lo, hi = v.min(axis=1), v.max(axis=1)
            # a species' nonlocal range is its unclamped range
            nbox = np.array([
                (src.value(v).min(), src.value(v).max())
                if isinstance(src, DerivedFieldHook)
                else (lo[src], hi[src])
                for src in model.nonlocal_sources
            ])
            if model.rho_min is not None:
                lo = np.maximum(lo, model.rho_min)
            if model.rho_max is not None:
                hi = np.minimum(hi, model.rho_max)
            bound = model.lip_flux(np.stack([lo, hi], axis=1), nbox)
            assert flux_speed_estimate(model, v) == bound, (cells, spread)
            box = np.stack([v.min(axis=1), v.max(axis=1)], axis=1)
            kept = box.copy()
            assert flux_speed_estimate(model, v, box) == bound, (cells, spread)
            np.testing.assert_array_equal(box, kept)


def lattice_lip_flux_arrhenius(sbox, nbox):
    """Arrhenius' flux bound as the maximum over a 201-point lattice of sbox[0]."""
    r = np.linspace(*sbox[0], 201)
    vmax = float(np.exp(-min(nbox[0])))
    l_rho = np.max(np.abs(1.0 - 2.0 * r)) * vmax
    l_r = np.max(np.abs(r * (1.0 - r))) * vmax
    return float(max(l_rho, l_r))


def test_arrhenius_flux_bound_covers_the_lattice_maximum(rng):
    # the exact maximum over the box is at least the lattice's and at most the
    # lattice's plus vmax h^2 / 4, h the lattice step: r (1 - r) drops by
    # (r - 1/2)^2 from its peak, and a lattice point lies within h / 2 of it
    model = make_model("arrhenius")
    for width in (1.0, 0.1, 1e-4, 1e-7, 1e-9, 1e-12, 1e-15, 0.0):
        for _ in range(400):
            # boxes anywhere in [0, 1], and boxes around 1/2 where r (1 - r) is flat
            mid = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.5 + width * rng.normal()
            lo = max(mid - width * rng.random(), 0.0)
            hi = max(lo, min(mid + width * rng.random(), 1.0))
            sbox = np.array([[lo, hi]])
            nbox = np.array([[rng.uniform(-1.0, 1.0), 1.0]])
            bound = model.lip_flux(sbox, nbox)
            lattice = lattice_lip_flux_arrhenius(sbox, nbox)
            vmax = np.exp(-nbox[0, 0])
            slack = vmax * ((hi - lo) / 200) ** 2 / 4
            assert lattice * (1 - 1e-15) <= bound <= lattice * (1 + 1e-15) + slack, (
                width,
                sbox,
            )


# -- restriction and norms -----------------------------------------------------


def test_restrict_values_is_a_block_mean():
    fine = np.array([[1.0, 3.0, 5.0, 7.0], [0.0, 2.0, 4.0, 6.0]])
    np.testing.assert_allclose(restrict_values(fine, 2), [[2.0, 6.0], [1.0, 5.0]])
    with pytest.raises(InputDataError):
        restrict_values(fine, 3)


def test_restriction_inverts_constant_embedding(rng):
    coarse = rng.random((2, 10))
    fine = np.repeat(coarse, 8, axis=-1)
    np.testing.assert_array_equal(restrict_values(fine, 8), coarse)


def test_restrict_to_coarse_requires_nested_grids():
    fine = np.zeros((1, 24))
    for factor in (5, 0, -2):
        with pytest.raises(InputDataError, match="cannot restrict 24 cells"):
            restrict_values(fine, factor)
    assert restrict_values(fine, 4).shape == (1, 6)


def test_l1_error_hand_value():
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert l1_error(a, b, 0.5) == pytest.approx(0.5 * 5.0)
    with pytest.raises(InputDataError, match="shape"):
        l1_error(a, np.zeros((1, 2)), 0.5)


# -- monitors -------------------------------------------------------------------


def test_monitor_log_requires_increasing_times():
    log = MonitorLog(Grid(0.0, 1.0, 4), "periodic")
    assert len(log.times) == 0
    log.record(0.0, np.ones((1, 4)))
    log.record(0.5, np.ones((1, 4)))
    with pytest.raises(InputDataError, match="increase"):
        log.record(0.5, np.ones((1, 4)))
    assert len(log.times) == 2
    assert relative_mass_drift(log) == 0.0


def test_an_unrecorded_run_returns_an_empty_log():
    _, log = run_simulation(small_experiment(), 0, record=False)
    header, columns = log.csv_columns(["rho"])
    assert header == ["t", "mass:rho", "min:rho", "max:rho", "tv:rho"]
    assert [len(c) for c in columns] == [0] * 5
    header, columns = log.csv_columns(["a", "b"])
    assert len(header) == len(columns) == 9 and all(len(c) == 0 for c in columns)
    assert log.mass.shape[0] == 0


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("bc", [bc.value for bc in BoundaryCondition])
@pytest.mark.parametrize("species, cells", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 7), (1, 1100), (2, 3000)])
def test_monitor_log_is_the_core_diagnostics_bit_for_bit(rng, bc, species, cells):
    # mass and tv against the oracles' definitions, which share no code with the log.
    # 300 records pass the log's first capacity, and the log is read halfway.
    # Grid needs 4 cells; the log reads only its dx, so any state width works.
    grid = Grid(0.0, 1.0, 4)
    log = MonitorLog(grid, bc)
    states = []
    for k in range(300):
        v = rng.normal(size=(species, cells)) * 10.0 ** rng.integers(-3, 4)
        v[rng.random(v.shape) < 0.3] = 0.0
        v[rng.random(v.shape) < 0.3] = -0.0
        if k % 7 == 0:
            v[:] = -0.0  # an all-negative-zero state
        states.append(v)
        log.record(0.01 * k, v, None if k % 2 else np.stack([v.min(axis=1), v.max(axis=1)], 1))
        if k == 150:
            assert len(log.times) == 151
    bc_enum = BoundaryCondition.parse(bc)
    want = {
        "mass": [total_mass(v, grid) for v in states],
        "vmin": [v.min(axis=1) for v in states],
        "vmax": [v.max(axis=1) for v in states],
        "tv": [total_variation(v, bc_enum) for v in states],
    }
    for name, rows in want.items():
        np.testing.assert_array_equal(_bits(getattr(log, name)), _bits(rows), err_msg=name)
    np.testing.assert_array_equal(log.times, 0.01 * np.arange(300))


# -- simulation runs --------------------------------------------------------------


def test_zero_time_run_returns_projected_data():
    exp = small_experiment(t_final=0.0)
    state, log = run_simulation(exp, 0, SchemeSpec("nt", "v1"))
    from ntcentral.core import init_cell_averages

    want = init_cell_averages(exp.profiles(), exp.grid_at(0))
    np.testing.assert_array_equal(state.values, want)
    assert len(log.times) == 1


def test_time_steps_are_positive_when_the_sum_overshoots_t_final():
    # 28301 steps of dt0 sum past t_final by 1.8e-14, which left a negative
    # clamped last step; the step before it is clamped instead
    t_final, dt0 = 0.0693423863988495, 2.4501744248913288e-06
    steps = list(harness._time_steps(t_final, dt0))
    assert len(steps) == 28301
    assert min(dt for dt, _ in steps) > 0.0
    assert steps[-1][1] == t_final
    assert all(dt == dt0 for dt, _ in steps[:-1])
    # a horizon that is not near a whole number of steps keeps its last step
    steps = list(harness._time_steps(0.0115, 0.0025))
    assert [dt for dt, _ in steps[:-1]] == [0.0025] * 4 and steps[-1][1] == 0.0115


def test_a_run_of_too_many_steps_is_a_config_error():
    # the ceiling is checked before the first step; a step that underflowed
    # to 0 would take infinitely many
    for t_final, dt0 in ((1.0, 0.5e-9), (1e300, 0.5), (1.0, 0.0), (1.0, 5e-324)):
        with pytest.raises(ConfigurationError, match=r"more than 1e\+09: lower T"):
            next(harness._time_steps(t_final, dt0))
    assert next(harness._time_steps(1.0, 1e-9)) == (1e-9, 1e-9)  # at the ceiling
    assert list(harness._time_steps(0.0, 0.0)) == []  # a zero horizon takes no step


def test_run_simulation_lands_exactly_on_t_final():
    # 0.05 / (0.2 * 0.05) = 5 whole steps; also try a non-divisible horizon
    exp = small_experiment(t_final=0.047)
    state, log = run_simulation(exp, 0, SchemeSpec("nt", "v2"))
    assert state.time == 0.047
    assert log.times[-1] == 0.047
    assert np.all(np.diff(log.times) > 0)


def test_run_simulation_periodic_mass_is_flat():
    exp = small_experiment()
    _, log = run_simulation(exp, 0, SchemeSpec("nt", "v2"))
    assert relative_mass_drift(log) <= 1e-13


def _steps_through(monkeypatch, after):
    """Route every Stepper.step result through ``after(step_index, state)``."""
    step = Stepper.step
    taken = []

    def routed(self, values, dt):
        taken.append(None)
        return after(len(taken), step(self, values, dt))

    monkeypatch.setattr(Stepper, "step", routed)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_state_aborts_at_its_step(monkeypatch, bad, record):
    # the check reads the per-species min/max box: NaN propagates through
    # both, and an infinity is a min or a max, in any species and cell
    def poison(i, v):
        if i == 3:
            v[1, 17] = bad
        return v

    _steps_through(monkeypatch, poison)
    exp = small_experiment(
        model="multilane", initial_data="multilane-sine", model_params={}, time_ratio=0.05
    )
    with pytest.raises(NumericsError, match="after step 3") as info:
        run_simulation(exp, 0, SchemeSpec("nt", "v2"), record=record)
    assert info.value.step == 3


@pytest.mark.parametrize("name", ["multilane", "garz"])
def test_monitor_ranges_are_those_of_every_recorded_state(monkeypatch, name):
    states = []

    def keep(_, v):
        states.append(v.copy())
        return v

    _steps_through(monkeypatch, keep)
    exp = small_experiment(
        model=name,
        initial_data=f"{name}-sine",
        model_params={},
        time_ratio=0.05,
        t_final=0.0115,  # four whole steps of 0.0025 and a clamped fifth
        schemes=(SchemeSpec("nt", "v1"),),  # GARZ runs v1 only
    )
    _, log = run_simulation(exp, 0)
    states.insert(0, init_cell_averages(exp.profiles(), exp.grid_at(0)))
    assert len(log.times) == len(states) == 6
    np.testing.assert_array_equal(log.vmin, [v.min(axis=1) for v in states])
    np.testing.assert_array_equal(log.vmax, [v.max(axis=1) for v in states])


# -- run cache ---------------------------------------------------------------------


def test_reference_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    exp = small_experiment(levels=(0,), reference_level=2)
    first = compute_reference(exp)
    files = glob.glob(os.path.join(str(tmp_path), "ref-*.npy"))
    assert len(files) == 1
    second = compute_reference(exp)
    np.testing.assert_array_equal(first, second)
    # corrupt-shape cache entries are recomputed rather than trusted
    np.save(files[0], np.zeros((1, 3)))
    third = compute_reference(exp)
    np.testing.assert_allclose(third, first)


def test_a_cache_that_cannot_be_written_does_not_stop_the_reference(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv(CACHE_ENV, str(blocker / "cache"))  # a directory under a file
    exp = small_experiment(levels=(0,), reference_level=2)
    unwritten = compute_reference(exp)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "fresh"))
    np.testing.assert_array_equal(unwritten, compute_reference(exp))


def test_a_reference_file_name_is_pinned(tmp_path, monkeypatch):
    # the name this experiment's reference had before the run cache shared the
    # reference's routine: warm caches still hit
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    compute_reference(small_experiment(t_final=0.02, levels=(0,), reference_level=2))
    name = "ref-49e767c520fdb8ee7361290588659cb801ce11cbe6dd08dcf9f06f60cad2e2c1.npy"
    assert os.listdir(tmp_path) == [name]


def cached(exp, spec, reference, lam=0.2):
    """A run through the cache, the reference of ``exp`` or ``spec`` at level 0."""
    if reference:
        return compute_reference(exp, lam)
    return harness.stored_run(exp, 0, spec, lam)


@pytest.mark.parametrize("reference", [True, False], ids=["ref", "run"])
@pytest.mark.parametrize(
    "bad",
    [
        lambda v: v.astype(np.float32),
        lambda v: np.zeros(v.shape, dtype=np.int64),
        lambda v: np.where(np.arange(v.size).reshape(v.shape) == 3, np.nan, v),
        lambda v: v[:, :-1],
    ],
    ids=["float32", "int64", "nan", "shape"],
)
def test_a_cache_entry_that_is_not_finite_float64_is_run_again(
    tmp_path, monkeypatch, step_calls, reference, bad
):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    exp, spec = small_experiment(levels=(0,), reference_level=2), SchemeSpec("nt", "v2")
    first = cached(exp, spec, reference)
    (entry,) = glob.glob(os.path.join(str(tmp_path), "ref-*" if reference else "run-*"))
    np.save(entry, bad(first))
    step_calls["steps"] = 0
    again = cached(exp, spec, reference)
    assert step_calls["steps"] > 0
    np.testing.assert_array_equal(again, first)
    stored = np.load(entry)  # overwritten with the run's state
    assert stored.dtype == np.float64
    np.testing.assert_array_equal(stored, first)
    step_calls["steps"] = 0
    np.testing.assert_array_equal(cached(exp, spec, reference), first)
    assert step_calls["steps"] == 0


def test_a_run_over_the_cfl_estimate_is_not_stored(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    exp, spec = small_experiment(levels=(0,), reference_level=2), SchemeSpec("nt", "v2")
    with pytest.warns(RuntimeWarning, match="CFL estimate exceeded") as caught:
        _, log = run_simulation(exp, 0, spec, time_ratio=0.5)
    assert log.cfl_warning == str(caught[0].message)
    with pytest.warns(RuntimeWarning, match="CFL estimate exceeded"):
        harness.stored_run(exp, 0, spec, 0.5)
    assert os.listdir(tmp_path) == []
    _, log = run_simulation(exp, 0, spec, time_ratio=0.2)
    assert log.cfl_warning is None
    # a reference is stored either way, as it always was: it never runs strict
    with pytest.warns(RuntimeWarning, match="CFL estimate exceeded"):
        compute_reference(exp, 0.5)
    assert [name[:4] for name in os.listdir(tmp_path)] == ["ref-"]


@pytest.mark.parametrize(
    "level, spec, lam, hits",
    [
        (0, SchemeSpec("nt", "v2", theta=0.5, label="other"), 0.2, True),
        (0, SchemeSpec("nt", "v2", theta=0.25), 0.2, False),
        (0, SchemeSpec("nt", "v2", theta=0.5), 0.1, False),
        (1, SchemeSpec("nt", "v2", theta=0.5), 0.2, False),
        (0, SchemeSpec("lxf2", theta=0.5), 0.2, False),
        (0, SchemeSpec("nt", "v1", theta=0.5), 0.2, False),
    ],
    ids=["label", "theta", "time_ratio", "level", "scheme", "slope_variant"],
)
def test_a_run_entry_is_keyed_by_all_but_the_label(
    tmp_path, monkeypatch, step_calls, level, spec, lam, hits
):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    exp = small_experiment(levels=(0, 1), reference_level=2)
    harness.stored_run(exp, 0, SchemeSpec("nt", "v2", theta=0.5), 0.2)
    step_calls["steps"] = 0
    values = harness.stored_run(exp, level, spec, lam)
    assert (step_calls["steps"] == 0) == hits
    assert len(os.listdir(tmp_path)) == (1 if hits else 2)
    state, _ = run_simulation(exp, level, spec, record=False, time_ratio=lam)
    np.testing.assert_array_equal(values, state.values)


def test_an_experiment_model_is_a_registered_name():
    with pytest.raises(ConfigurationError, match="model is the name of a registered model"):
        small_experiment(model=make_model("arrhenius", eta=0.2), model_params={})


# -- convergence studies ------------------------------------------------------------


def test_convergence_study_structure_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    exp = small_experiment()
    rep = convergence_study(exp)
    assert set(rep.rows) == {"lxf1", "nt-v2"}
    for rows in rep.rows.values():
        assert [r[0] for r in rows] == [0, 1]
        assert rows[0][3] is None and rows[1][3] is not None
    # second order beats first order on both levels
    (_, _, nt0, _), (_, _, nt1, nt_rate) = rep.rows["nt-v2"]
    (_, _, lxf0, _), (_, _, lxf1, lxf_rate) = rep.rows["lxf1"]
    assert nt0 < lxf0
    assert nt1 < lxf1
    assert nt_rate > 1.5
    assert lxf_rate > 0.7
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "scheme,n,dx,l1_error,rate"
    # a second study, on the now cached reference, gives the same table
    assert convergence_study(exp).to_csv() == csv


def test_convergence_study_needs_two_levels():
    with pytest.raises(ConfigurationError, match="levels"):
        convergence_study(small_experiment(levels=(0,)))


# -- studies with worker processes ---------------------------------------------------


def _study(monkeypatch, workers, exp, **kw):
    """(report or raised error, [(category, text) of every warning]) of one study."""
    monkeypatch.setattr(harness, "_study_workers", lambda: workers)
    # an empty cache: every study computes its reference and gives its warnings
    with tempfile.TemporaryDirectory() as cache, warnings.catch_warnings(record=True) as caught:
        monkeypatch.setenv(CACHE_ENV, cache)
        warnings.simplefilter("always")
        try:
            out = convergence_study(exp, **kw)
        except NumericsError as exc:
            out = exc
    assert multiprocessing.active_children() == []  # no worker outlives the study
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_a_study_with_a_worker_is_the_serial_study(monkeypatch, bc):
    exp = small_experiment(bc=bc, levels=(0, 1, 2), reference_level=4)
    (inline, _), (pooled, _) = (_study(monkeypatch, w, exp) for w in (0, 1))
    assert pooled.rows == inline.rows
    assert pooled.to_csv() == inline.to_csv()
    cells = {f"{s}/{n}" for s in ("lxf1", "nt-v2") for n in (0, 1, 2)}
    assert set(pooled.metadata["runtimes"]) == set(inline.metadata["runtimes"]) == cells


def _exceed_on(monkeypatch, factors):
    """CFL monitor that reads the limit times ``factors[cells]`` on grids of those sizes."""

    def speed(model, values, box):
        return CFL_LIMIT / 0.2 * factors.get(values.shape[1], 0.5)

    monkeypatch.setattr(harness, "flux_speed_estimate", speed)


def test_a_study_with_a_worker_warns_as_the_serial_study(monkeypatch):
    # every run warns once, with its own ratio; the reference (320 cells) first
    _exceed_on(monkeypatch, {40: 1.01, 80: 1.02, 320: 1.03})
    exp = small_experiment()
    (_, inline), (_, pooled) = (_study(monkeypatch, w, exp) for w in (0, 1))
    assert pooled == inline
    ratios = [re.search(r"\((\S+) times", text).group(1) for _, text in inline]
    assert ratios == ["1.03", "1.01", "1.02", "1.01", "1.02"]
    assert {category for category, _ in inline} == {RuntimeWarning}


def test_a_study_with_a_worker_fails_as_the_serial_study(monkeypatch):
    # under strict_cfl the first level-1 run (lxf1) fails; the reference warns
    _exceed_on(monkeypatch, {80: 1.02, 320: 1.03})
    exp = small_experiment()
    (inline, w_inline), (pooled, w_pooled) = (
        _study(monkeypatch, w, exp, strict_cfl=True) for w in (0, 1)
    )
    assert type(pooled) is type(inline) is CflViolationError
    assert str(pooled) == str(inline)
    assert pooled.step == inline.step
    assert w_pooled == w_inline and len(w_inline) == 1


def test_a_failed_run_in_a_study_warns_before_it_fails(monkeypatch):
    # the 80-cell runs warn at step 1 and turn non-finite at step 3
    _exceed_on(monkeypatch, {80: 1.02})
    step = Stepper.step

    def poisoned(self, values, dt):
        out = step(self, values, dt)
        self.taken = getattr(self, "taken", 0) + 1
        if self.grid.cells == 80 and self.taken == 3:
            out[0, 5] = np.nan
        return out

    monkeypatch.setattr(Stepper, "step", poisoned)
    exp = small_experiment()
    (inline, w_inline), (pooled, w_pooled) = (_study(monkeypatch, w, exp) for w in (0, 1))
    assert type(pooled) is type(inline) is NumericsError
    assert (str(pooled), pooled.step) == (str(inline), inline.step)
    assert inline.step == 3
    assert w_pooled == w_inline and len(w_inline) == 1


def test_the_caller_runs_the_cells_no_worker_has_started(monkeypatch):
    # every run names its process in a warning; the worker is slow, so it
    # runs only the first cells, those the pool handed out before the
    # reference was done, and the caller runs the rest
    caller = os.getpid()
    run, reference = harness.run_simulation, harness.compute_reference

    def named_run(*args, **kwargs):
        warnings.warn(f"ran in {os.getpid()}", UserWarning)
        if os.getpid() != caller:
            time.sleep(0.5)
        return run(*args, **kwargs)

    def slow_reference(*args, **kwargs):
        time.sleep(0.2)  # time for the pool to hand out its first cells
        return reference(*args, **kwargs)

    monkeypatch.setattr(harness, "run_simulation", named_run)
    monkeypatch.setattr(harness, "compute_reference", slow_reference)
    exp = small_experiment()
    report, caught = _study(monkeypatch, 1, exp)
    serial, _ = _study(monkeypatch, 0, exp)
    assert report.to_csv() == serial.to_csv()
    pids = [int(text.split()[-1]) for _, text in caught]
    assert pids[0] == caller  # the reference
    worker, cells = pids[1], pids[1:]
    started = cells.count(worker)
    assert worker != caller and 0 < started < 4
    assert cells == [worker] * started + [caller] * (4 - started)


def test_a_study_without_fork_runs_in_the_caller(monkeypatch):
    pids = []
    run = harness.run_simulation

    def named_run(*args, **kwargs):
        pids.append(os.getpid())
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run_simulation", named_run)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    report, _ = _study(monkeypatch, 1, small_experiment())
    assert pids == [os.getpid()] * 5  # the reference, then the four cells
    assert set(report.metadata["runtimes"]) == {"lxf1/0", "lxf1/1", "nt-v2/0", "nt-v2/1"}


def test_study_workers_leave_one_cpu_to_the_caller(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert harness._study_workers() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness._study_workers() == 0


# -- snapshots -----------------------------------------------------------------------


def test_snapshot_csv_includes_derived_columns():
    model = make_model("garz")
    grid = Grid(-0.5, 1.0, 6)
    values = np.stack([np.full(6, 0.5), np.linspace(0.5, 1.0, 6)])
    text = csv_table(*snapshot_columns(model, grid, values))
    lines = text.strip().splitlines()
    assert lines[0] == "x,rho,q,w"
    assert len(lines) == 7
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(grid.centers[0])
    assert first[3] == pytest.approx(first[2] / first[1])


def one_repr_per_entry(header, columns):
    """The reference CSV writer: ``repr`` of every entry, one at a time."""
    lines = [",".join(header)]
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def _monitor_of_a_flat_state():
    grid = Grid(0.0, 1.0, 8)
    log = MonitorLog(grid, "periodic")
    for t in (0.0, 0.1, 0.2, 0.3, 0.4):
        log.record(t, np.stack([np.full(8, 0.5), np.full(8, -0.0)]))
    return log.csv_columns(["a", "b"])


@pytest.mark.parametrize(
    "header, columns",
    [
        (["x", "y"], [np.empty(0), np.empty(0)]),
        (["x", "y"], [np.array([0.25]), np.array([-0.0])]),
        (["z"], [np.array([0.0] * 3 + [-0.0] * 3 + [0.0] * 2 + [-0.0] * 2)]),
        (["s"], [np.array([np.nan] * 3 + [np.inf] * 3 + [-np.inf] * 3 + [5e-324] * 3)]),
        (["n"], [np.array([0x7FF8000000000000] * 3 + [0x7FF8000000000001] * 3 + [0]).view(float)]),
        (["first"], [np.array([1.5] * 5 + [2.0, 3.0])]),
        (["last"], [np.array([2.0, 3.0] + [1.5] * 5)]),
        (["distinct"], [np.linspace(0.0, 1.0, 7)]),
        _monitor_of_a_flat_state(),
    ],
    ids=["no-rows", "one-row", "signed-zeros", "non-finite", "nan-payloads", "run-first",
         "run-last", "distinct", "monitor"],
)
def test_csv_table_writes_what_one_repr_per_entry_writes(header, columns):
    assert csv_table(header, columns) == one_repr_per_entry(header, columns)


def test_csv_table_mixes_both_paths_in_one_table():
    header, columns = _monitor_of_a_flat_state()
    assert not columns[1].flags.c_contiguous  # a strided view of the monitor's table
    kinds = {type(harness._column_text(c)) for c in columns}
    assert kinds == {map, list}  # t is formatted entry by entry, the flat columns by runs


# -- spec-level solution properties ---------------------------------------------------


def test_total_variation_growth_bounded_under_refinement():
    # discontinuous data: per-step TV growth obeys TV(n+1) <= (1+C*dt)TV(n)
    # with C independent of the mesh, so the fitted C must stay bounded as
    # the grid refines and TV can never run away from its initial value
    fitted = []
    for base in (1 / 40, 1 / 80, 1 / 160):
        exp = Experiment(
            model="arrhenius",
            t_final=1.5,
            initial_data="arrhenius-box",
            model_params={"eta": 0.2},
            domain=(-1.0, 2.0),
            bc="constant",
            base_dx=base,
            levels=(0,),
            reference_level=1,
            time_ratio=0.2,
            schemes=(SchemeSpec("nt", "v2"),),
        )
        state, log = run_simulation(exp, 0)
        tv = log.tv[:, 0]
        assert tv[0] == pytest.approx(1.6)  # jumps land on interfaces
        assert tv.max() <= 1.05 * tv[0]
        assert tv[-1] < tv[0]
        growth = np.diff(tv) / tv[:-1] / np.diff(log.times)
        fitted.append(max(growth.max(), 0.0))
        final = total_variation(state.values, BoundaryCondition.CONSTANT)[0]
        assert final == pytest.approx(tv[-1])
    assert max(fitted) <= 0.5
    # refining the mesh by 4x must not inflate the growth constant
    assert fitted[2] <= 2.0 * fitted[0]


def test_entropy_residual_vanishes_for_out_of_range_reference():
    # for a reference value outside the solution range the inequality
    # collapses to the projection identity, so the residual is roundoff
    grid = Grid(-1.0, 1.0, 80)
    model = make_model("arrhenius", eta=0.2)
    from ntcentral.core import init_cell_averages

    values = init_cell_averages(lambda x: 0.5 + 0.4 * np.sin(np.pi * x), grid)
    res = entropy_residual(
        model, grid, values, zeta=2.0, t_final=0.05, time_ratio=0.2
    )
    assert res.max() <= 1e-12
