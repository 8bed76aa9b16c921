"""Grid, initial projection, boundary handling and step-size control."""

import math

import numpy as np
import pytest

from ntcentral import core
from ntcentral.core import (
    CFL_LIMIT,
    KAPPA,
    TAU,
    BoundaryCondition,
    Grid,
    SystemState,
    extend_array,
    init_cell_averages,
    max_stable_dt,
)
from ntcentral.errors import ConfigurationError, InputDataError
from ntcentral.harness import Experiment
from oracles import total_mass, total_variation


def interfaces(g):
    """The cell edges x_left + j dx, j = 0 .. cells."""
    return g.x_left + np.arange(g.cells + 1) * g.dx


def test_grid_geometry():
    g = Grid(0.0, 4.0, 160)
    assert g.dx == pytest.approx(0.025)
    assert g.centers[0] == pytest.approx(0.0125)
    assert g.centers[-1] == pytest.approx(4.0 - 0.0125)
    assert interfaces(g)[0] == 0.0 and interfaces(g)[-1] == 4.0
    assert len(interfaces(g)) == 161


def test_grid_rejects_bad_domains():
    with pytest.raises(ConfigurationError):
        Grid(1.0, 1.0, 10)
    with pytest.raises(ConfigurationError):
        Grid(0.0, 1.0, 3)


def test_gauss_legendre_constants_match_leggauss():
    # core states the rule as literals so that numpy.polynomial stays unloaded
    nodes, weights = np.polynomial.legendre.leggauss(5)
    np.testing.assert_array_max_ulp(core._GL_NODES, nodes, maxulp=2)
    np.testing.assert_array_max_ulp(core._GL_WEIGHTS, weights / weights.sum(), maxulp=2)
    assert core._GL_NODES[2] == 0.0 and core._GL_WEIGHTS.sum() == 1.0


def test_init_is_exact_for_degree_nine_polynomials(unit_grid):
    # the 5-point rule integrates degree <= 9 exactly; compare with the
    # antiderivative x^10/10 evaluated on each cell
    g = unit_grid
    values = init_cell_averages(lambda x: x**9, g)
    edges = interfaces(g)
    exact = (edges[1:] ** 10 - edges[:-1] ** 10) / (10.0 * g.dx)
    np.testing.assert_allclose(values[0], exact, rtol=0, atol=1e-14)


def test_init_is_exact_for_interface_aligned_jump():
    # 0 is a cell interface of this grid, so the indicator of x > 0 projects
    # to exact {0, 1} averages even though the profile is discontinuous
    g = Grid(-1.0, 1.0, 8)
    values = init_cell_averages(lambda x: np.where(x > 0.0, 1.0, 0.0), g)
    np.testing.assert_array_equal(values[0], [0, 0, 0, 0, 1, 1, 1, 1])


def test_init_broadcasts_scalar_profiles(unit_grid):
    values = init_cell_averages([lambda x: 0.75, lambda x: np.sin(np.pi * x)], unit_grid)
    assert values.shape[0] == 2
    np.testing.assert_array_equal(values[0], np.full(40, 0.75))


def test_init_smooth_profile_error_is_tiny(unit_grid):
    g = unit_grid
    values = init_cell_averages(lambda x: np.sin(np.pi * x), g)
    edges = interfaces(g)
    exact = (np.cos(np.pi * edges[:-1]) - np.cos(np.pi * edges[1:])) / (np.pi * g.dx)
    np.testing.assert_allclose(values[0], exact, atol=1e-12)


def test_init_rejects_non_finite_data(unit_grid):
    with np.errstate(divide="ignore"), pytest.raises(InputDataError, match="non-finite"):
        init_cell_averages(lambda x: 1.0 / (x - x[0, 0]), unit_grid)


def test_state_requires_two_dims():
    with pytest.raises(InputDataError):
        SystemState(np.zeros(5))


def test_cfl_limit_value():
    assert CFL_LIMIT == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0)
    assert CFL_LIMIT == pytest.approx(0.20710678, abs=1e-8)


def test_max_stable_dt_flux_only():
    dt = max_stable_dt(0.1, lip_flux=1.0)
    assert dt == pytest.approx(0.020710678, abs=1e-9)
    assert max_stable_dt(0.1, 1.0, safety=0.5) == 0.5 * dt


def test_max_stable_dt_positivity_split():
    assert KAPPA == TAU == CFL_LIMIT / 2
    # flux-limited branch
    dt = max_stable_dt(0.1, lip_flux=1.0, lip_source=0.01, positivity=True)
    assert dt == pytest.approx(0.5 * CFL_LIMIT * 0.1)
    # source-limited branch: 2 tau / L_S < kappa dx / L_F
    dt = max_stable_dt(0.1, lip_flux=1.0, lip_source=100.0, positivity=True)
    assert dt == pytest.approx(2.0 * (CFL_LIMIT / 2) / 100.0)


def test_controller_validation():
    def experiment(**kw):
        return Experiment(model="arrhenius", initial_data="arrhenius-sine", **kw)

    with pytest.raises(ConfigurationError, match="t_final"):
        experiment(t_final=-1.0)
    # safety is checked at construction, also when a time_ratio leaves it unused
    for safety in (0.0, 1.5):
        for time_ratio in (None, 0.1):
            with pytest.raises(ConfigurationError, match=r"must lie in \(0, 1\]"):
                experiment(t_final=1.0, safety=safety, time_ratio=time_ratio)


def test_extend_array_closures():
    a = np.array([[1.0, 2.0, 3.0, 4.0]])
    per = extend_array(a, 2, 1, BoundaryCondition.PERIODIC)
    np.testing.assert_array_equal(per[0], [3, 4, 1, 2, 3, 4, 1])
    con = extend_array(a, 1, 2, BoundaryCondition.CONSTANT)
    np.testing.assert_array_equal(con[0], [1, 1, 2, 3, 4, 4, 4])
    zer = extend_array(a, 1, 1, BoundaryCondition.ZERO)
    np.testing.assert_array_equal(zer[0], [0, 1, 2, 3, 4, 0])
    assert extend_array(a, 0, 0, BoundaryCondition.ZERO) is a


@pytest.mark.parametrize("shape", [(7,), (3, 7), (1500,), (2, 1500)])
def test_extend_array_matches_np_pad(shape):
    # byte for byte, for margins from none to more than twice the period
    a = np.random.default_rng(shape[-1]).random(shape)
    n = shape[-1]
    modes = {
        BoundaryCondition.PERIODIC: dict(mode="wrap"),
        BoundaryCondition.CONSTANT: dict(mode="edge"),
        BoundaryCondition.ZERO: dict(mode="constant", constant_values=0.0),
    }
    margins = (0, 1, n - 1, n, 2 * n + 3)
    for bc, kwargs in modes.items():
        for left in margins:
            for right in margins:
                want = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(left, right)], **kwargs)
                got = extend_array(a, left, right, bc)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (bc, left, right)


def test_ghost_value_mirrors_extend():
    # cell j of the padded array sits at index j + left
    a = np.array([[1.0, 2.0, 3.0, 4.0]])
    per = extend_array(a, 1, 1, BoundaryCondition.PERIODIC)
    assert per[0, -1 + 1] == 4.0
    assert per[0, 4 + 1] == 1.0
    con = extend_array(a, 1, 2, BoundaryCondition.CONSTANT)
    assert con[0, -1 + 1] == 1.0
    assert con[0, 5 + 1] == 4.0
    zer = extend_array(a, 1, 1, BoundaryCondition.ZERO)
    assert zer[0, -1 + 1] == 0.0
    assert zer[0, 2 + 1] == 3.0


def test_boundary_condition_parse():
    assert BoundaryCondition.parse("periodic") is BoundaryCondition.PERIODIC
    assert BoundaryCondition.parse(BoundaryCondition.ZERO) is BoundaryCondition.ZERO
    with pytest.raises(ConfigurationError, match="unknown boundary"):
        BoundaryCondition.parse("reflecting")


def test_total_mass_and_variation():
    g = Grid(0.0, 1.0, 4)
    values = np.array([[1.0, 3.0, 0.0, 2.0]])
    np.testing.assert_allclose(total_mass(values, g), [1.5])
    tv_per = total_variation(values, BoundaryCondition.PERIODIC)
    np.testing.assert_allclose(tv_per, [2 + 3 + 2 + 1])
    tv_open = total_variation(values, BoundaryCondition.CONSTANT)
    np.testing.assert_allclose(tv_open, [2 + 3 + 2])
