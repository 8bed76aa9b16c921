"""Experiment plumbing: profiles, restriction, caching, monitors, studies."""

import dataclasses
import glob
import os

import numpy as np
import pytest

from ntcentral.cli import load_preset, parse_config, preset_names
from ntcentral.core import (
    CFL_LIMIT,
    BoundaryCondition,
    Grid,
    SystemState,
    init_cell_averages,
    total_variation,
)
from ntcentral.errors import ConfigurationError, InputDataError
from ntcentral.harness import (
    CACHE_ENV,
    Experiment,
    MonitorLog,
    SchemeSpec,
    compute_reference,
    convergence_study,
    entropy_residual,
    expression_profile,
    flux_speed_estimate,
    l1_error,
    nonlocal_bounds,
    resolve_profiles,
    resolve_time_ratio,
    restrict_to_coarse,
    restrict_values,
    run_simulation,
    snapshot_csv,
    state_bounds,
)
from ntcentral.models import make_model
from ntcentral.schemes import Stepper


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


def test_resolve_profiles_registry_and_errors():
    fs = resolve_profiles("kk-sine")
    assert len(fs) == 2
    with pytest.raises(ConfigurationError, match="registered"):
        resolve_profiles("kk-sin")
    fs = resolve_profiles(["x", "2*x"])
    assert fs[1](np.array([3.0]))[0] == 6.0


# -- experiment validation -----------------------------------------------------


def test_experiment_validation():
    with pytest.raises(ConfigurationError, match="finer"):
        small_experiment(reference_level=1)
    with pytest.raises(ConfigurationError, match="duplicate"):
        small_experiment(schemes=(SchemeSpec("lxf1"), SchemeSpec("lxf1")))
    with pytest.raises(ConfigurationError, match="boundary"):
        small_experiment(bc="outflowing")
    with pytest.raises(ConfigurationError, match="whole number"):
        small_experiment(base_dx=0.3).cells_at(0)


def test_experiment_grids_and_digest():
    exp = small_experiment()
    assert exp.cells_at(0) == 40
    assert exp.grid_at(2).cells == 160
    assert exp.digest() == small_experiment().digest()
    assert exp.digest() != small_experiment(t_final=0.06).digest()
    # scheme selection does not change the physical digest
    assert exp.digest() == small_experiment(schemes=(SchemeSpec("lxf1"),)).digest()


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
    box = state_bounds(model, values)
    assert box[0, 0] >= 0.0 and box[0, 1] <= 1.0
    model2 = make_model("nonlocal-euler")
    box2 = state_bounds(model2, np.array([[0.1, 0.3], [-0.5, 0.5]]))
    assert box2[0, 0] < 0.1 and box2[1, 1] > 0.5


def test_nonlocal_bounds_cover_derived_quantities():
    model = make_model("garz")
    values = np.array([[0.2, 0.4], [0.4, 0.4]])
    box = nonlocal_bounds(model, values)
    v = model.convolved_values(values)
    assert box[0, 0] <= v.min() and box[0, 1] >= v.max()


def test_resolve_time_ratio_explicit_and_derived():
    assert resolve_time_ratio(small_experiment()) == 0.2
    exp = small_experiment(time_ratio=None)
    lam = resolve_time_ratio(exp)
    assert 0.0 < lam
    # dt/dx * L <= CFL limit by construction, with L >= flux slope bound ~ e^0
    assert lam <= CFL_LIMIT / 0.1


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
            v0 = init_cell_averages(e.profiles(), grid).values
            lam = resolve_time_ratio(e, model)
            ratio = lam * flux_speed_estimate(model, v0)
            assert ratio <= CFL_LIMIT, (exp.name, bc, ratio / CFL_LIMIT)
            for spec in e.schemes:
                v1 = Stepper(model, grid, bc, spec.config(e.clip)).step(v0, lam * grid.dx)
                ratio = lam * flux_speed_estimate(model, v1)
                assert ratio <= CFL_LIMIT, (exp.name, bc, spec.name, ratio / CFL_LIMIT)


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
    fine = SystemState(np.zeros((1, 24)), 1.0)
    with pytest.raises(InputDataError, match="not nested"):
        restrict_to_coarse(fine, Grid(0.0, 1.0, 5))
    with pytest.raises(InputDataError, match="power of two"):
        restrict_to_coarse(fine, Grid(0.0, 1.0, 8))
    out = restrict_to_coarse(fine, Grid(0.0, 1.0, 6))
    assert out.n_cells == 6 and out.time == 1.0


def test_l1_error_hand_value():
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert l1_error(a, b, 0.5) == pytest.approx(0.5 * 5.0)
    with pytest.raises(InputDataError, match="shape"):
        l1_error(a, np.zeros((1, 2)), 0.5)


# -- monitors -------------------------------------------------------------------


def test_monitor_log_requires_increasing_times():
    log = MonitorLog(Grid(0.0, 1.0, 4), "periodic")
    log.record(0.0, np.ones((1, 4)))
    log.record(0.5, np.ones((1, 4)))
    with pytest.raises(InputDataError, match="increase"):
        log.record(0.5, np.ones((1, 4)))
    assert log.n_records == 2
    assert log.relative_mass_drift() == 0.0


# -- simulation runs --------------------------------------------------------------


def test_zero_time_run_returns_projected_data():
    exp = small_experiment(t_final=0.0)
    state, log = run_simulation(exp, 0, SchemeSpec("nt", "v1"))
    from ntcentral.core import init_cell_averages

    want = init_cell_averages(exp.profiles(), exp.grid_at(0)).values
    np.testing.assert_array_equal(state.values, want)
    assert log.n_records == 1


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
    assert log.relative_mass_drift() <= 1e-13


# -- reference cache ---------------------------------------------------------------


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


def test_reference_ignores_cache_when_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    exp = small_experiment(levels=(0,), reference_level=2)
    a = compute_reference(exp, use_cache=False)
    assert not glob.glob(os.path.join(str(tmp_path), "*.npy"))
    b = compute_reference(exp, use_cache=True)
    np.testing.assert_array_equal(a, b)


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
    assert rep.errors("nt-v2")[0] < rep.errors("lxf1")[0]
    assert rep.errors("nt-v2")[1] < rep.errors("lxf1")[1]
    assert rep.rates("nt-v2")[-1] > 1.5
    assert rep.rates("lxf1")[-1] > 0.7
    csv_serial = rep.to_csv()
    rep_threaded = convergence_study(exp, threads=2)
    assert rep_threaded.to_csv() == csv_serial
    assert csv_serial.splitlines()[0] == "scheme,n,dx,l1_error,rate"


def test_convergence_study_needs_two_levels():
    with pytest.raises(ConfigurationError, match="levels"):
        convergence_study(small_experiment(levels=(0,)))


# -- snapshots -----------------------------------------------------------------------


def test_snapshot_csv_includes_derived_columns():
    model = make_model("garz")
    grid = Grid(-0.5, 1.0, 6)
    values = np.stack([np.full(6, 0.5), np.linspace(0.5, 1.0, 6)])
    text = snapshot_csv(model, grid, values)
    lines = text.strip().splitlines()
    assert lines[0] == "x,rho,q,w"
    assert len(lines) == 7
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(grid.centers[0])
    assert first[3] == pytest.approx(first[2] / first[1])


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
        final = total_variation(state, BoundaryCondition.CONSTANT)[0]
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

    values = init_cell_averages(lambda x: 0.5 + 0.4 * np.sin(np.pi * x), grid).values
    res = entropy_residual(
        model, grid, values, zeta=2.0, t_final=0.05, time_ratio=0.2
    )
    assert res.max() <= 1e-12
