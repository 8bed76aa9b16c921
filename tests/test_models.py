"""Model zoo consistency: shapes, product-form fluxes, sources, validation."""

import numpy as np
import pytest

from ntcentral.core import BoundaryCondition, extend_array
from ntcentral.errors import ConfigurationError, ModelDefinitionError
from ntcentral.kernels import KernelSpec
from ntcentral.limiters import slopes_of_extended
from ntcentral.models import (
    MODEL_FACTORIES,
    DerivedFieldHook,
    ModelDef,
    make_model,
)

PER = BoundaryCondition.PERIODIC


def _sample_values(model, n=24, seed=3):
    rng = np.random.default_rng(seed)
    lo = 0.05 if model.rho_min is not None else -0.8
    hi = 0.9
    return lo + (hi - lo) * rng.random((model.n_species, n))


def _convolved(model, values):
    """Cellwise values of every convolved quantity, shape (m, n): a stand-in for R."""
    return np.array([
        src.value(values) if isinstance(src, DerivedFieldHook) else values[src]
        for src in model.nonlocal_sources
    ])


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_factory_shapes_and_bounds(name):
    model = make_model(name)
    values = _sample_values(model)
    conv = _convolved(model, values)
    assert conv.shape == (len(model.kernels), values.shape[1])
    R = conv.copy()  # cellwise stand-in for the kernel average
    F = model.eval_flux(values, R)
    assert F.shape == values.shape
    assert np.all(np.isfinite(F))
    assert (model.source is None) == (model.lip_source is None)
    if model.source is not None:
        assert model.source(values, R).shape == values.shape
    sbox = np.stack([values.min(axis=1), values.max(axis=1)], axis=1)
    nbox = np.stack([conv.min(axis=1), conv.max(axis=1)], axis=1)
    lf = model.lip_flux(sbox, nbox)
    assert np.isfinite(lf) and lf > 0.0
    if model.lip_source is not None:
        assert model.lip_source(sbox, nbox) >= 0.0


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_eval_flux_is_g_times_v_with_each_v_once(name):
    model = make_model(name)
    values = _sample_values(model, seed=11)
    R = _convolved(model, values)
    V, calls = model.V, []

    def V_counted(R):
        calls.append(R)
        return V(R)

    model.V = V_counted
    F = model.eval_flux(values, R)
    assert len(calls) == 1
    speeds = V(R)
    # Keyfitz-Kranzer's species share one speed, GARZ's one velocity
    # average, and Arrhenius has one species: a row of shape (n,)
    shared = name in ("keyfitz-kranzer", "garz", "arrhenius")
    assert speeds.shape == ((values.shape[1],) if shared else values.shape)
    g_rows = model.g(values)
    for k in range(model.n_species):
        np.testing.assert_array_equal(F[k], g_rows[k] * (speeds if shared else speeds[k]))
    # both faces of lxf2 take the one V(R)
    faces = np.stack([values, values[:, ::-1]], axis=1)
    F2 = model.eval_flux(faces, R)
    assert len(calls) == 2 and F2.shape == faces.shape
    np.testing.assert_array_equal(F2[:, 0], F)


@pytest.mark.parametrize(
    "name", [n for n in sorted(MODEL_FACTORIES) if make_model(n).supports_v2]
)
def test_product_form_gradient_matches_finite_differences(name):
    # dV(R, dR) is the derivative of V along dR: central differences of V
    # along each field's own direction and along random mixed ones
    model = make_model(name)
    values = _sample_values(model, seed=7)
    R = _convolved(model, values)
    rng = np.random.default_rng(7)
    eps = 1e-6
    unit = np.eye(len(model.kernels))[:, :, None] * np.ones_like(R)
    directions = [*unit, *rng.standard_normal((3, *R.shape))]
    for dR in directions:
        dV = model.dV(R, dR)
        fd = (model.V(R + eps * dR) - model.V(R - eps * dR)) / (2.0 * eps)
        assert dV.shape == np.shape(model.V(R))
        np.testing.assert_allclose(dV, fd, rtol=1e-6, atol=1e-9)


def test_multilane_exchange_conserves_total_density():
    model = make_model("multilane")
    values = _sample_values(model, seed=19)
    R = _convolved(model, values)
    src = model.source(values, R)
    np.testing.assert_allclose(src.sum(axis=0), 0.0, atol=1e-15)
    # exchange moves mass toward the faster lane
    faster2 = (1.0 - R[1] ** 2) > (1.0 - R[0] ** 2)
    assert np.all(src[1][faster2] >= 0.0)


def test_euler_source_only_relaxes_velocity():
    model = make_model("nonlocal-euler")
    values = _sample_values(model, seed=23)
    R = _convolved(model, values)
    src = model.source(values, R)
    np.testing.assert_array_equal(src[0], np.zeros(values.shape[1]))
    np.testing.assert_allclose(src[1], values[0] * (R[0] - values[1]))


def test_garz_derived_field_chain_rule():
    model = make_model("garz")
    hook = model.nonlocal_sources[0]
    assert isinstance(hook, DerivedFieldHook)
    rng = np.random.default_rng(31)
    values = np.stack([0.2 + 0.6 * rng.random(16), 0.5 + rng.random(16)])
    sms = rng.standard_normal((2, 16))
    eps = 1e-7
    fd = (hook.value(values + eps * sms) - hook.value(values - eps * sms)) / (2 * eps)
    np.testing.assert_allclose(hook.time_integrand(values, sms), fd, rtol=1e-5)


def test_garz_snapshot_field_w():
    model = make_model("garz")
    values = np.array([[0.5, 0.25], [1.0, 1.0]])
    np.testing.assert_allclose(model.snapshot_fields["w"](values), [2.0, 4.0])


def test_derived_field_evaluate_pipeline():
    model = make_model("garz")
    hook = model.nonlocal_sources[0]
    values = np.stack([np.full(8, 0.4), np.linspace(0.4, 1.2, 8)])
    sms = np.zeros((2, 8))
    u = hook.value(values)
    su = slopes_of_extended(extend_array(u, 1, 1, PER), 0.1)
    integrand = hook.time_integrand(values, sms)
    np.testing.assert_allclose(u, values[1] / 0.4 - 2.4)
    assert su.shape == (8,)
    np.testing.assert_array_equal(integrand, np.zeros(8))


def test_keyfitz_kranzer_theta_default():
    assert make_model("keyfitz-kranzer").default_theta == pytest.approx(1.0 / 3.0)
    assert make_model("arrhenius").default_theta == 1.0


def test_garz_does_not_support_v2():
    assert make_model("garz").supports_v2 is False


def test_make_model_error_paths():
    with pytest.raises(ModelDefinitionError, match="unknown model"):
        make_model("burgers")
    with pytest.raises(ConfigurationError, match="'arrhenius' takes no parameter 'viscosity'"):
        make_model("arrhenius", viscosity=0.1)
    with pytest.raises(ModelDefinitionError, match="forward-looking"):
        make_model("arrhenius", kernel="backward-power52")


def test_model_parameters_are_read_afresh_for_a_replaced_factory(monkeypatch):
    from ntcentral import models

    assert models.model_parameters("arrhenius") == ("eta", "kernel")

    def make_slow_arrhenius(eta: float = 0.2, slowdown: float = 1.0):
        return models.make_arrhenius(eta)

    monkeypatch.setitem(MODEL_FACTORIES, "arrhenius", make_slow_arrhenius)
    assert models.model_parameters("arrhenius") == ("eta", "slowdown")
    assert make_model("arrhenius", slowdown=2.0).name == "arrhenius"
    with pytest.raises(ConfigurationError, match="takes no parameter 'kernel'"):
        make_model("arrhenius", kernel="linear")


def test_modeldef_cross_validation():
    k = KernelSpec(omega=lambda x: np.ones_like(np.asarray(x)), support=(0.0, 1.0))
    flux = {"g": lambda v: v, "V": lambda R: R[0]}
    # a g or V with the wrong rows is refused when the model is built, before any step
    for part, wrong, message in [
        ("g", lambda v: v[:1], r"g gives \(1, 2\) for 2 species"),
        ("V", lambda R: np.ones((3, 2)), r"V gives \(3, 2\)"),
        ("V", lambda R: 0.5, r"V gives \(\)"),
        ("dV", lambda R, dR: dR, r"dV gives \(1, 2\)"),
    ]:
        with pytest.raises(ModelDefinitionError, match=message):
            ModelDef(
                name="broken",
                species=("a", "b"),
                kernels=(k,),
                nonlocal_sources=(0,),
                **{**flux, part: wrong},
            )
    with pytest.raises(ModelDefinitionError, match="neither a species index"):
        ModelDef(
            name="broken",
            species=("a",),
            kernels=(k,),
            nonlocal_sources=(2,),
            **flux,
        )
    with pytest.raises(ModelDefinitionError, match="local: a model needs at least one nonlocal"):
        ModelDef(name="local", species=("a",), kernels=(), nonlocal_sources=(), **flux)
    model = ModelDef(name="v1-only", species=("a",), kernels=(k,), nonlocal_sources=(0,), **flux)
    assert not model.supports_v2
    rows = ModelDef(
        name="per-species",
        species=("a", "b"),
        kernels=(k,),
        nonlocal_sources=(0,),
        g=lambda v: v,
        V=lambda R: np.stack([R[0], 2.0 * R[0]]),
        dV=lambda R, dR: np.stack([dR[0], 2.0 * dR[0]]),
    )
    assert rows.supports_v2


# -- the Lipschitz bounds are sound interval bounds ---------------------------
#
# Each model's flux and source written out symbolically, independently of
# models.py, in the species symbols P and the nonlocal symbols Q; sympy
# differentiates them, and the bounds must cover every partial derivative at
# every point of the box.


def _symbolic_model(name):
    """(species symbols, nonlocal symbols, flux rows, source rows or None)."""
    import sympy as sp

    if name == "keyfitz-kranzer":
        p1, p2, a, b = sp.symbols("p1 p2 a b", real=True)
        w = 1 - a**2 - b**2
        return (p1, p2), (a, b), (p1 * w**3, p2 * w**3), None
    if name == "arrhenius":
        p, r = sp.symbols("p r", real=True)
        return (p,), (r,), (p * (1 - p) * sp.exp(-r),), None
    if name == "multilane":
        p1, p2, r1, r2 = sp.symbols("p1 p2 r1 r2", real=True)
        v1, v2 = 1 - r1**2, 1 - r2**2
        s = sp.Piecewise(
            ((v2 - v1) * p1 * (1 - p2), v2 >= v1), ((v2 - v1) * p2 * (1 - p1), True)
        )
        return (p1, p2), (r1, r2), (p1 * v1, p2 * v2), (-s, s)
    if name == "nonlocal-euler":
        p, u, r = sp.symbols("p u r", real=True)
        return (p, u), (r,), (p * r, u**2 / 2), (sp.Integer(0), p * (r - u))
    if name == "garz":
        p, q, r = sp.symbols("p q r", real=True)
        return (p, q), (r,), (p * r, q * r), None
    raise KeyError(name)


def _random_box(rng, rows):
    """Boxes of every kind: wide, narrow, straddling 0, and degenerate."""
    kind = rng.integers(4, size=rows)
    c = rng.uniform(-1.5, 1.5, rows)
    w = np.where(kind == 0, rng.uniform(0, 2, rows), 10 ** rng.uniform(-9, -1, rows))
    w[kind == 3] = 0.0
    c[kind == 2] = rng.uniform(-0.5, 0.5, int((kind == 2).sum())) * w[kind == 2]
    return np.stack([c - w, c + w], axis=1)


def _within(box, t):
    """The points lo + t (hi - lo) of each row's [lo, hi], for t in [0, 1]."""
    return box[:, :1] + t * (box[:, 1:] - box[:, :1])


def _points_in(rng, box, n):
    """n points of the box, a third of their coordinates on a face."""
    shape = (box.shape[0], n)
    t = np.where(rng.random(shape) < 1 / 3, rng.integers(0, 2, shape), rng.random(shape))
    return _within(box, t)


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_lipschitz_bounds_cover_every_partial_derivative(name):
    import sympy as sp

    model = make_model(name)
    P, Q, flux, source = _symbolic_model(name)
    symbols = P + Q

    def lambdified(rows):
        values = [sp.lambdify(symbols, row, "numpy") for row in rows]
        partials = [
            sp.lambdify(symbols, sp.diff(row, x), "numpy") for row in rows for x in symbols
        ]
        return values, partials

    checks = [(model.lip_flux, model.eval_flux, lambdified(flux))]
    if source is not None:
        checks.append((model.lip_source, model.source, lambdified(source)))
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        sbox = _random_box(rng, model.n_species)
        nbox = _random_box(rng, len(model.kernels))
        values, R = _points_in(rng, sbox, 64), _points_in(rng, nbox, 64)
        args = (*values, *R)
        sub = [_within(b, np.sort(rng.random((len(b), 2)), axis=1)) for b in (sbox, nbox)]
        for bound, evaluate, (fns, partials) in checks:
            # the symbolic model is the model under test
            want = np.stack([np.broadcast_to(f(*args), R.shape[1:]) for f in fns])
            np.testing.assert_allclose(evaluate(values, R), want, rtol=1e-12, atol=1e-14)
            largest = max(np.abs(d(*args)).max() for d in partials)
            L = bound(sbox, nbox)
            # the bound and the partials round differently: allow 1e-12 relative
            assert largest <= L * (1.0 + 1e-12), (sbox, nbox, largest, L)
            assert bound(*sub) <= L, (sbox, nbox, sub)


def test_a_user_model_of_three_callables_runs_nt_v2():
    # the model of the README: an identity g, a V shared by both species
    # and its derivative along dR
    from ntcentral.core import Grid
    from ntcentral.kernels import builtin_kernel
    from ntcentral.schemes import SchemeSpec, Stepper

    k = builtin_kernel("linear", 0.5)
    model = ModelDef("mine", ("a", "b"), (k, k), (0, 1), g=lambda v: v,
                     V=lambda R: 1.0 - R[0] * R[1],
                     dV=lambda R, dR: -(dR[0] * R[1] + R[0] * dR[1]))
    assert model.supports_v2
    grid = Grid(-1.0, 1.0, 40)
    x = grid.centers
    v = np.stack([0.4 + 0.2 * np.sin(np.pi * x), 0.3 + 0.1 * np.cos(np.pi * x)])
    new = Stepper(model, grid, PER, SchemeSpec("nt", "v2")).step(v, 0.1 * grid.dx)
    assert np.all(np.isfinite(new))
    np.testing.assert_allclose(new.sum(axis=1), v.sum(axis=1), rtol=1e-14)
