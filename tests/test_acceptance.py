"""Acceptance gate.

Each criterion owns one test that prints a single PASS/FAIL line; run with
``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines inline).
Tolerances: convergence rates within +/-0.15 of the published values, error
magnitudes within a factor of two.  The reference cache makes reruns cheap;
the first run computes fine-grid references and takes a while.
"""

import numpy as np
import pytest

from ntcentral.cli import cmd_compare, cmd_run, load_preset, parse_config
from ntcentral.core import Grid, init_cell_averages
from ntcentral.harness import (
    Experiment,
    SchemeSpec,
    compute_reference,
    convergence_study,
    entropy_residual,
    l1_error,
    resolve_time_ratio,
    restrict_values,
    run_simulation,
)
from ntcentral.kernels import build_weights, builtin_kernel
from ntcentral.limiters import minmod
from ntcentral.models import make_model
from ntcentral.schemes import Stepper

RATE_TOL = 0.15
ERR_FACTOR = 2.0


def experiments(preset):
    cfg = parse_config(load_preset(preset), preset)
    return cfg.experiments


def study(preset, index=0):
    return convergence_study(experiments(preset)[index])


def errors(rep, scheme):
    """The L1 errors of one scheme's rows, coarsest level first."""
    return np.asarray([row[2] for row in rep.rows[scheme]])


def rates(rep, scheme):
    """The observed orders of one scheme's rows (None where no rate is taken)."""
    return [row[3] for row in rep.rows[scheme]]


def within_factor(got, want, factor=ERR_FACTOR):
    return want / factor <= got <= want * factor


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- 1: Keyfitz-Kranzer table ---------------------------------------------------

KK_NT_ERRORS = [1.77e-2, 5.52e-3, 1.56e-3, 4.25e-4, 1.10e-4, 2.77e-5]
KK_NT_RATES = [1.68, 1.82, 1.88, 1.95, 1.99]
KK_LXF_ERRORS = [8.53e-2, 4.56e-2, 2.37e-2, 1.21e-2, 6.09e-3, 3.06e-3]
KK_LXF_RATES = [0.90, 0.95, 0.97, 0.99, 0.99]


def test_criterion_1_keyfitz_kranzer_rates():
    rep = study("table-keyfitz-kranzer")
    problems = []
    for scheme, want_err, want_rate in (
        ("nt-v1", KK_NT_ERRORS, KK_NT_RATES),
        ("lxf1", KK_LXF_ERRORS, KK_LXF_RATES),
    ):
        errs = errors(rep, scheme)
        observed = rates(rep, scheme)[1:]
        for n, (g, w) in enumerate(zip(errs, want_err)):
            if not within_factor(g, w):
                problems.append(f"{scheme} n={n} error {g:.3e} vs {w:.3e}")
        for n, (g, w) in enumerate(zip(observed, want_rate), start=1):
            if abs(g - w) > RATE_TOL:
                problems.append(f"{scheme} n={n} rate {g:.2f} vs {w:.2f}")
    verdict(1, not problems, f"nt-v1 final rate {rates(rep, 'nt-v1')[-1]:.2f}")
    assert not problems, problems


# -- 2: Arrhenius table, three kernels --------------------------------------------

ARRHENIUS_ANCHOR = 9.85e-6


def test_criterion_2_arrhenius_all_kernels():
    problems = []
    finals = []
    for index, kernel in enumerate(("constant", "linear", "concave")):
        rep = study("table-arrhenius", index)
        err5 = errors(rep, "nt-v2")[-1]
        rate5 = rates(rep, "nt-v2")[-1]
        finals.append(err5)
        if not within_factor(err5, ARRHENIUS_ANCHOR):
            problems.append(f"{kernel}: n=5 error {err5:.3e}")
        if abs(rate5 - 1.95) > RATE_TOL:
            problems.append(f"{kernel}: n=5 rate {rate5:.2f}")
        worse = errors(rep, "nt-v1") < errors(rep, "nt-v2")
        if worse.any():
            problems.append(f"{kernel}: v2 above v1 at levels {np.where(worse)[0]}")
    verdict(2, not problems, "n=5 errors " + " ".join(f"{e:.2e}" for e in finals))
    assert not problems, problems


# -- 3/4/5: multilane, Euler, GARZ tables ----------------------------------------


def test_criterion_3_multilane_rates():
    rep = study("table-multilane")
    err5, rate5 = errors(rep, "nt-v2")[-1], rates(rep, "nt-v2")[-1]
    ok = within_factor(err5, 2.18e-4) and abs(rate5 - 1.90) <= RATE_TOL
    verdict(3, ok, f"n=5 error {err5:.3e}, rate {rate5:.2f}")
    assert ok


def test_criterion_4_euler_rates():
    rep = study("table-euler")
    err5, rate5 = errors(rep, "nt-v1")[-1], rates(rep, "nt-v1")[-1]
    ok = within_factor(err5, 2.51e-5) and abs(rate5 - 1.91) <= RATE_TOL
    verdict(4, ok, f"n=5 error {err5:.3e}, rate {rate5:.2f}")
    assert ok


def test_criterion_5_garz_rates():
    rep = study("table-garz")
    err5, rate5 = errors(rep, "nt-v1")[-1], rates(rep, "nt-v1")[-1]
    ok = within_factor(err5, 3.42e-4) and abs(rate5 - 1.85) <= RATE_TOL
    verdict(5, ok, f"n=5 error {err5:.3e}, rate {rate5:.2f}")
    assert ok


# -- 6: discontinuous benchmarks, scheme ordering ----------------------------------

FIG_PRESETS = (
    "fig-keyfitz-kranzer",
    "fig-arrhenius",
    "fig-euler",
    "fig-garz",
)


def test_criterion_6_first_order_most_diffusive():
    problems = []
    details = []
    for preset in FIG_PRESETS:
        exp = experiments(preset)[0]
        lam = resolve_time_ratio(exp)
        reference = compute_reference(exp, lam)
        level = exp.levels[0]
        coarse = restrict_values(reference, 2 ** (exp.reference_level - level))
        dx = exp.grid_at(level).dx
        errs = {}
        for spec in exp.schemes:
            state, _ = run_simulation(exp, level, spec, record=False, time_ratio=lam)
            errs[spec.name] = l1_error(state.values, coarse, dx)
        for other, err in errs.items():
            if other != "lxf1" and errs["lxf1"] <= err:
                problems.append(f"{preset}: lxf1 {errs['lxf1']:.3e} <= {other} {err:.3e}")
        details.append(f"{preset.removeprefix('fig-')} lxf1/nt {errs['lxf1'] / errs['nt-v1']:.2f}x")
    verdict(6, not problems, "; ".join(details))
    assert not problems, problems


# -- 7: property suite ----------------------------------------------------------------


def _mass_drift_cases():
    smooth = [
        ("arrhenius", "arrhenius-sine", {"eta": 0.2}, 0.2, True),
        ("keyfitz-kranzer", "kk-sine", {"eta": 0.5}, 0.06, True),
        ("garz", "garz-sine", {"eta": 0.1}, 0.12, False),
    ]
    for model, data, params, lam, has_v2 in smooth:
        variants = [SchemeSpec("lxf1"), SchemeSpec("lxf2"), SchemeSpec("nt", "v1")]
        if has_v2:
            variants.append(SchemeSpec("nt", "v2"))
        for spec in variants:
            yield model, data, params, lam, spec


def _check_mass_conservation(problems):
    for model, data, params, lam, spec in _mass_drift_cases():
        exp = Experiment(
            model=model,
            t_final=0.05,
            initial_data=data,
            model_params=params,
            base_dx=0.025,
            levels=(0,),
            reference_level=1,
            time_ratio=lam,
            schemes=(spec,),
        )
        _, log = run_simulation(exp, 0)
        drift = log.relative_mass_drift()
        if drift > 1e-11:
            problems.append(f"mass drift {model}/{spec.name}: {drift:.2e}")


def _check_constant_states(problems):
    settings = {
        "arrhenius": [0.4],
        "keyfitz-kranzer": [0.1, 0.3],
        "multilane": [0.3, 0.3],
        "garz": [0.5, 1.0],
        "nonlocal-euler": [0.5, 0.3],
    }
    grid = Grid(-1.0, 1.0, 40)
    dt = 0.002
    for name, consts in settings.items():
        model = make_model(name)
        tol = 1e-14
        if name == "nonlocal-euler":
            # the relaxation source sees the quadrature residue of the
            # curved kernel, so the fixed point is exact only up to it
            weights = build_weights(model.kernels[0], grid.dx).weights
            defect = abs(weights.sum() - 1.0)
            tol = max(tol, 4.0 * consts[0] * abs(consts[1]) * defect * dt)
        values = np.repeat(np.asarray(consts)[:, None], grid.cells, axis=1)
        for config in (
            SchemeSpec("nt", "v1"),
            SchemeSpec("lxf1"),
            SchemeSpec("lxf2"),
        ):
            stepper = Stepper(model, grid, "periodic", config)
            out = stepper.step(values, dt=dt)
            dev = np.abs(out - values).max()
            if dev > tol:
                problems.append(f"constant state {name}/{config.scheme}: {dev:.2e}")


def _check_minmod(problems):
    rng = np.random.default_rng(52801)
    a = rng.normal(size=100_000)
    b = rng.normal(size=100_000)
    m = minmod(a, b)
    ok = (
        (np.abs(m) <= np.minimum(np.abs(a), np.abs(b)) + 1e-15).all()
        and (m[a * b <= 0] == 0.0).all()
        and (m * a >= 0).all()
        and (m * b >= 0).all()
        and (minmod(a, a) == a).all()
    )
    if not ok:
        problems.append("minmod algebra failed on random pairs")


def _check_kernel_weight_sums(problems):
    eta = 0.2
    for name in ("constant", "linear"):
        for dx in (0.05, 0.025):
            w = build_weights(builtin_kernel(name, eta), dx)
            if abs(w.weights.sum() - 1.0) > 1e-13:
                problems.append(f"{name} kernel weights at dx={dx}: {w.weights.sum()!r}")
    for name in ("concave", "symmetric-parabola", "backward-power52"):
        defects = []
        for dx in (0.05, 0.025, 0.0125):
            w = build_weights(builtin_kernel(name, eta), dx)
            defects.append(abs(w.weights.sum() - 1.0))
        # two halvings of dx must shrink the defect at least 4x4 = 16-ish;
        # steep kernels converge faster, which is fine
        ratio = defects[0] / defects[2]
        if not (defects[2] < 1e-3 and ratio >= 12.0):
            problems.append(f"{name} kernel weight defect not O(dx^2): {defects}")


def _check_multilane_positivity(problems):
    exp = Experiment(
        model="multilane",
        t_final=0.5,
        initial_data="multilane-bumps",
        model_params={"eta": 0.5},
        base_dx=0.0125,
        levels=(0,),
        reference_level=1,
        positivity=True,
        schemes=(SchemeSpec("nt", "v2"),),
    )
    _, log = run_simulation(exp, 0)
    low = log.vmin.min()
    if low < -1e-13:
        problems.append(f"multilane positivity: min {low:.2e}")


def _check_entropy_residual(problems):
    grid = Grid(-1.0, 1.0, 160)
    model = make_model("arrhenius", eta=0.2)
    values = init_cell_averages(lambda x: np.where(np.abs(x) <= 0.25, 1.0, 0.2), grid)
    res = entropy_residual(
        model, grid, values, zeta=0.6, t_final=0.15, time_ratio=0.2
    )
    if res.max() > 1e-10:
        problems.append(f"entropy residual: {res.max():.2e}")


def _check_v1_v2_agreement(problems):
    exp = Experiment(
        model="arrhenius",
        t_final=0.15,
        initial_data="arrhenius-sine",
        model_params={"eta": 0.2},
        base_dx=0.05,
        levels=(0,),
        reference_level=1,
        time_ratio=0.2,
        schemes=(SchemeSpec("nt", "v1"),),
    )
    diffs = []
    for level in (0, 1, 2, 3):
        a, _ = run_simulation(exp, level, SchemeSpec("nt", "v1"), record=False)
        b, _ = run_simulation(exp, level, SchemeSpec("nt", "v2"), record=False)
        diffs.append(l1_error(a.values, b.values, exp.grid_at(level).dx))
    orders = np.log2(np.asarray(diffs[:-1]) / np.asarray(diffs[1:]))
    if not (orders >= 1.0).all():
        problems.append(f"v1/v2 agreement orders {orders}")


def test_criterion_7_property_suite():
    problems = []
    _check_mass_conservation(problems)
    _check_constant_states(problems)
    _check_minmod(problems)
    _check_kernel_weight_sums(problems)
    _check_multilane_positivity(problems)
    _check_entropy_residual(problems)
    _check_v1_v2_agreement(problems)
    verdict(7, not problems, "mass/constants/minmod/kernels/positivity/entropy/v1v2")
    assert not problems, problems


# -- 8: determinism ---------------------------------------------------------------------


def test_criterion_8_byte_identical_csv(tmp_path):
    cfg1 = parse_config(load_preset("fig-keyfitz-kranzer"), "fig-keyfitz-kranzer")
    cfg1.out_dir = str(tmp_path / "a")
    cfg2 = parse_config(load_preset("fig-keyfitz-kranzer"), "fig-keyfitz-kranzer")
    cfg2.out_dir = str(tmp_path / "b")
    import os

    os.makedirs(cfg1.out_dir)
    os.makedirs(cfg2.out_dir)
    assert cmd_compare(cfg1) == 0
    assert cmd_compare(cfg2) == 0
    a = (tmp_path / "a" / "fig-keyfitz-kranzer.csv").read_bytes()
    b = (tmp_path / "b" / "fig-keyfitz-kranzer.csv").read_bytes()
    # run takes one level: the table's experiments at level 0
    table = load_preset("table-arrhenius")
    for e in table["experiments"]:
        del e["levels"]
        e["level"] = 0
    run1 = parse_config(table, "table-arrhenius")
    run1.out_dir = str(tmp_path / "a")
    run2 = parse_config(table, "table-arrhenius")
    run2.out_dir = str(tmp_path / "b")
    assert cmd_run(run1) == 0
    assert cmd_run(run2) == 0
    name = "table-arrhenius-constant-nt-v2.csv"
    r1 = (tmp_path / "a" / name).read_bytes()
    r2 = (tmp_path / "b" / name).read_bytes()
    ok = a == b and len(a) > 1000 and r1 == r2
    verdict(8, ok, f"compare csv {len(a)} bytes, snapshot {len(r1)} bytes")
    assert ok
