"""Stepper tests: loop-based oracle for the central scheme, baselines, guards."""

import numpy as np
import pytest

from ntcentral.core import BoundaryCondition, Grid, SystemState, init_cell_averages, total_mass
from ntcentral.errors import ConfigurationError
from ntcentral.models import make_model
from ntcentral.schemes import SchemeConfig, Stepper

PER = BoundaryCondition.PERIODIC


def _mm(a, b):
    if a * b <= 0.0:
        return 0.0
    return a if abs(a) < abs(b) else b


def oracle_nt_step_scalar(u, dx, dt, flux):
    """Index-by-index reference of one central-scheme step.

    Scalar model, periodic wrap, constant kernel with support 2 dx (weights
    1/4, 1/2, 1/4 plus the dx/4 end slope corrections), flux-difference
    slopes, no source.  Written with plain loops and dictionaries so it
    shares no array plumbing with the implementation under test.
    """
    J = len(u)
    lam = dt / dx

    def g(j):
        return u[j % J]

    s = {j: _mm(g(j + 1) - g(j), g(j) - g(j - 1)) / dx for j in range(-6, J + 8)}
    R = {
        j: 0.25 * (g(j) + 0.25 * dx * s[j])
        + 0.5 * g(j + 1)
        + 0.25 * (g(j + 2) - 0.25 * dx * s[j + 2])
        for j in range(-4, J + 5)
    }
    F = {j: flux(g(j), R[j]) for j in range(-4, J + 5)}
    sig = {j: _mm(F[j + 1] - F[j], F[j] - F[j - 1]) / dx for j in range(-3, J + 4)}
    Rt = {
        j: 0.25 * (-sig[j]) + 0.5 * (-sig[j + 1]) + 0.25 * (-sig[j + 2])
        for j in range(-3, J + 2)
    }
    uh = {j: g(j) - 0.5 * dt * sig[j] for j in range(-3, J + 2)}
    Rh = {j: R[j] + 0.5 * dt * Rt[j] for j in range(-3, J + 2)}
    Fh = {j: flux(uh[j], Rh[j]) for j in range(-3, J + 2)}
    A = {
        j: 0.5 * (g(j) + g(j + 1))
        + (dx / 8.0) * (s[j] - s[j + 1])
        - lam * (Fh[j + 1] - Fh[j])
        for j in range(-3, J + 1)
    }
    ss = {j: _mm(A[j + 1] - A[j], A[j] - A[j - 1]) / dx for j in range(-2, J)}
    out = np.empty(J)
    for j in range(J):
        out[j] = (
            0.25 * (g(j - 1) + 2.0 * g(j) + g(j + 1))
            - (dx / 16.0) * (s[j + 1] - s[j - 1])
            - (dx / 8.0) * (ss[j] - ss[j - 1])
            - 0.5 * lam * (Fh[j + 1] - Fh[j - 1])
        )
    return out


@pytest.fixture
def eight_cell_setup():
    grid = Grid(0.0, 0.8, 8)
    model = make_model("arrhenius", eta=2 * grid.dx)
    u = np.array([0.31, 0.52, 0.48, 0.80, 0.62, 0.30, 0.35, 0.44])
    return grid, model, u


def test_nt_step_matches_loop_oracle(eight_cell_setup):
    grid, model, u = eight_cell_setup
    dt = 0.02
    stepper = Stepper(model, grid, PER, SchemeConfig(scheme="nt", slope_variant="v1"))
    got = stepper.step(u[None, :], dt)

    def flux(r, R):
        return r * (1.0 - r) * np.exp(-R)

    want = oracle_nt_step_scalar(list(u), grid.dx, dt, flux)
    np.testing.assert_allclose(got[0], want, rtol=1e-13, atol=1e-15)


def test_nt_step_frozen_spot_values(eight_cell_setup):
    # first, middle and last cell of the oracle result for this exact input,
    # pinned against accidental stencil changes
    grid, model, u = eight_cell_setup
    got = Stepper(model, grid, PER).step(u[None, :], 0.02)[0]
    assert got[0] == pytest.approx(0.39340504808779597, abs=1e-14)
    assert got[4] == pytest.approx(0.5946631074823213, abs=1e-14)
    assert got[7] == pytest.approx(0.3900123158911774, abs=1e-14)


def test_zero_dt_is_identity_copy(eight_cell_setup):
    grid, model, u = eight_cell_setup
    stepper = Stepper(model, grid, PER)
    out = stepper.step(u[None, :], 0.0)
    np.testing.assert_array_equal(out, u[None, :])
    assert out is not u
    with pytest.raises(ConfigurationError):
        stepper.step(u[None, :], -0.01)


def test_state_shape_is_checked(eight_cell_setup):
    grid, model, _ = eight_cell_setup
    with pytest.raises(ConfigurationError, match="shape"):
        Stepper(model, grid, PER).step(np.zeros((1, 9)), 0.01)


@pytest.mark.parametrize("scheme", ["nt", "lxf1", "lxf2"])
def test_periodic_mass_conservation(scheme):
    grid = Grid(-1.0, 1.0, 80)
    model = make_model("arrhenius", eta=0.2)
    state = init_cell_averages(lambda x: 0.5 + 0.4 * np.sin(np.pi * x), grid)
    stepper = Stepper(model, grid, PER, SchemeConfig(scheme=scheme))
    v = state.values
    m0 = total_mass(state, grid)
    for _ in range(25):
        v = stepper.step(v, 0.2 * grid.dx)
    m1 = total_mass(SystemState(v), grid)
    np.testing.assert_allclose(m1, m0, rtol=1e-13)


def test_multilane_exchange_conserves_combined_mass():
    grid = Grid(-1.0, 1.0, 64)
    model = make_model("multilane", eta=0.5)
    state = init_cell_averages(
        [
            lambda x: 0.5 + 0.5 * np.sin(np.pi * x),
            lambda x: 0.25 + 0.25 * np.cos(2 * np.pi * x),
        ],
        grid,
    )
    stepper = Stepper(model, grid, PER, SchemeConfig(scheme="nt", slope_variant="v2"))
    v = state.values
    m0 = total_mass(state, grid).sum()
    per_species0 = total_mass(state, grid)
    for _ in range(20):
        v = stepper.step(v, 0.045 * grid.dx)
    m1 = total_mass(SystemState(v), grid)
    assert m1.sum() == pytest.approx(m0, rel=1e-13)
    # the lane exchange really moves mass between the species
    assert abs(m1[0] - per_species0[0]) > 1e-6


def test_constant_state_is_a_fixed_point():
    grid = Grid(-1.0, 1.0, 40)
    model = make_model("arrhenius", eta=0.2)
    v = np.full((1, 40), 0.4)
    for scheme in ("nt", "lxf1", "lxf2"):
        stepper = Stepper(model, grid, PER, SchemeConfig(scheme=scheme))
        out = stepper.step(v, 0.2 * grid.dx)
        np.testing.assert_allclose(out, v, atol=1e-15)


def test_v2_requires_product_form_support():
    grid = Grid(-0.5, 1.0, 300)
    model = make_model("garz")
    with pytest.raises(ConfigurationError, match="v1"):
        Stepper(model, grid, "constant", SchemeConfig(scheme="nt", slope_variant="v2"))


def test_theta_resolution():
    grid = Grid(-1.0, 1.0, 40)
    kk = make_model("keyfitz-kranzer", eta=0.5)
    assert Stepper(kk, grid, PER).theta == pytest.approx(1.0 / 3.0)
    arr = make_model("arrhenius")
    assert Stepper(arr, grid, PER).theta == 1.0
    cfg = SchemeConfig(scheme="lxf2", theta=0.5)
    assert Stepper(arr, grid, PER, cfg).theta == 0.5


def test_scheme_config_validation():
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        SchemeConfig(scheme="weno")
    with pytest.raises(ConfigurationError, match="slope variant"):
        SchemeConfig(slope_variant="v3")
    with pytest.raises(ConfigurationError, match="theta"):
        SchemeConfig(theta=1.5)
    with pytest.raises(ConfigurationError, match="theta"):
        SchemeConfig(theta=0.0)


def test_step_with_fields_returns_consistent_margins(eight_cell_setup):
    grid, model, u = eight_cell_setup
    stepper = Stepper(model, grid, PER)
    dt = 0.02
    new, fields = stepper.step_with_fields(u[None, :], dt)
    np.testing.assert_array_equal(new, stepper.step(u[None, :], dt))
    J = grid.cells
    m = fields["margin"]
    assert m == 3
    assert fields["values"].shape[-1] == J + 2 * m
    assert fields["staggered"].shape[-1] == J + 2 * m - 1
    assert fields["staggered_slopes"].shape[-1] == J + 2 * m - 3
    assert fields["half_flux"].shape[-1] == J + 2 * m
    with pytest.raises(ConfigurationError):
        Stepper(model, grid, PER, SchemeConfig(scheme="lxf1")).step_with_fields(
            u[None, :], dt
        )


def test_sup_norm_growth_is_controlled_under_refinement():
    # max-norm growth factor C in |u(T)| <= |u(0)| exp(C T) stays small and
    # does not blow up as the grid is refined
    model = make_model("arrhenius", eta=0.2)
    T = 0.15
    growth = []
    for n in (80, 160):
        grid = Grid(-1.0, 1.0, n)
        state = init_cell_averages(lambda x: 0.5 + 0.4 * np.sin(np.pi * x), grid)
        v = state.values
        dt = 0.2 * grid.dx
        steps = int(round(T / dt))
        stepper = Stepper(model, grid, PER)
        for _ in range(steps):
            v = stepper.step(v, dt)
        growth.append(np.abs(v).max() / np.abs(state.values).max())
    for g in growth:
        assert g <= np.exp(0.5 * T)
    assert abs(growth[1] - 1.0) <= abs(growth[0] - 1.0) + 0.01


# -- the torus path against the margin path ------------------------------------

MODELS = ("keyfitz-kranzer", "arrhenius", "multilane", "nonlocal-euler", "garz")
CONFIGS = {
    "nt-v1": SchemeConfig(scheme="nt", slope_variant="v1"),
    "nt-v2": SchemeConfig(scheme="nt", slope_variant="v2"),
    "lxf1": SchemeConfig(scheme="lxf1"),
    "lxf2": SchemeConfig(scheme="lxf2"),
}
# 80 cells keep every band (eta = 0.25, at most 21 taps) on the direct sum,
# 2560 cells (up to 321 taps) put them on the FFT
SIZES = (80, 2560)


def _profiles(model_name, shape):
    """Per-species initial profiles of a model, built on one shape s(x)."""
    return {
        "keyfitz-kranzer": [lambda x: -0.3 * shape(x), lambda x: 0.2 * shape(x)],
        "arrhenius": [lambda x: 0.6 * shape(x)],
        "multilane": [lambda x: 0.5 * shape(x), lambda x: 0.3 * shape(x)],
        "nonlocal-euler": [lambda x: 0.5 * shape(x), lambda x: 0.4 * shape(x)],
        "garz": [lambda x: 0.3 * shape(x), lambda x: 0.3 * shape(x) * (0.5 + 0.2 * x)],
    }[model_name]


def _compact_bump(x):
    # smooth, and zero for |x| >= 0.3: on [-1, 1] that leaves 0.7 of zeros at
    # each end, more than the band width 0.25 plus the stencil width
    return np.where(np.abs(x) < 0.3, np.cos(np.pi * x / 0.6) ** 2, 0.0)


def _periodic_wave(x):
    return 0.6 + 0.3 * np.sin(np.pi * x) + 0.1 * np.cos(3 * np.pi * x)


def _runs(model_name):
    model = make_model(model_name, eta=0.25)
    for name, cfg in CONFIGS.items():
        if name == "nt-v2" and not model.supports_v2:
            continue
        yield name, model, cfg


@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("model_name", MODELS)
def test_periodic_and_zero_closures_agree_on_compact_data(model_name, cells):
    # data that vanishes near both ends sees zeros through either closure, so
    # the torus quadrature and the band-width ghost margin must agree
    grid = Grid(-1.0, 1.0, cells)
    v = init_cell_averages(_profiles(model_name, _compact_bump), grid).values
    for name, model, cfg in _runs(model_name):
        per = Stepper(model, grid, "periodic", cfg).step(v, 0.1 * grid.dx)
        zero = Stepper(model, grid, "zero", cfg).step(v, 0.1 * grid.dx)
        scale = np.abs(zero).max()
        assert np.abs(per - zero).max() <= 1e-13 * scale, name


@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("model_name", MODELS)
def test_periodic_step_commutes_with_a_shift(model_name, cells):
    grid = Grid(-1.0, 1.0, cells)
    v = init_cell_averages(_profiles(model_name, _periodic_wave), grid).values
    for name, model, cfg in _runs(model_name):
        stepper = Stepper(model, grid, PER, cfg)
        assert stepper.nmax == 0
        base = stepper.step(v, 0.1 * grid.dx)
        scale = np.abs(base).max()
        for k in (1, cells // 3):
            shifted = stepper.step(np.roll(v, k, axis=-1), 0.1 * grid.dx)
            diff = np.abs(shifted - np.roll(base, k, axis=-1)).max()
            assert diff <= 1e-13 * scale, (name, k)
