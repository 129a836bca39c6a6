import math

import numpy as np
import pytest

from diskflow.errors import GridError
from diskflow.grid import MAX_NODES, GridSpec, build_grid


def test_uniform_log_spacing_small_grid():
    g = build_grid(GridSpec(9, 8, math.e))
    assert np.array_equal(g.s_nodes, np.arange(9) / 8.0)
    assert g.r_nodes[0] == 1.0
    assert g.r_nodes[-1] == math.e
    assert np.allclose(g.r_nodes[1:-1], np.exp(g.s_nodes[1:-1]), rtol=0, atol=0)


def test_endpoints_exact():
    g = build_grid(GridSpec(64, 128, 8.0))
    assert g.r_nodes[0] == 1.0
    assert g.r_nodes[-1] == 8.0


def test_odd_node_count_puts_a_node_at_the_log_midpoint():
    # 17 nodes on [0, ln 4] put node 8 at s = ln(4)/2, i.e. r = 2
    g = build_grid(GridSpec(17, 8, 4.0))
    assert abs(g.r_nodes[8] - 2.0) <= 4e-16
    assert abs(g.s_nodes[8] - math.log(4.0) / 2.0) <= 4e-16


@pytest.mark.parametrize("n_r,n_theta,r_max", [
    (2, 8, 8.0),      # radial count below minimum
    (7, 8, 8.0),
    (16, 9, 8.0),     # odd angular count
    (16, 6, 8.0),
    (16, 8, 1.0),     # truncation radius must exceed the obstacle
    (16, 8, 0.5),
])
def test_invalid_specs_rejected(n_r, n_theta, r_max):
    with pytest.raises(GridError):
        GridSpec(n_r, n_theta, r_max)


def test_node_count_capped():
    GridSpec(MAX_NODES // 128, 128, 8.0)
    with pytest.raises(GridError) as err:
        GridSpec(MAX_NODES // 128 + 1, 128, 8.0)
    assert err.value.key == "n_r"


def test_grid_error_is_value_error():
    with pytest.raises(ValueError):
        GridSpec(2, 8, 8.0)


def test_weight_sum_matches_annulus_area():
    g = build_grid(GridSpec(64, 128, 8.0))
    area = math.pi * 63.0
    assert abs(float(g.weights.sum()) - area) <= 1e-12 * area


@pytest.mark.parametrize("n_r,n_theta,r_max", [
    (8, 8, 2.0),
    (33, 16, 4.0),
    (128, 64, 8.0),
    (257, 32, 10.0),
])
def test_constant_integrates_to_annulus_area(n_r, n_theta, r_max):
    g = build_grid(GridSpec(n_r, n_theta, r_max))
    area = math.pi * (r_max ** 2 - 1.0)
    assert abs(float(g.weights.sum()) - area) <= 1e-12 * area


def test_cos_theta_integrates_to_zero():
    g = build_grid(GridSpec(64, 128, 8.0))
    f = np.broadcast_to(np.cos(g.theta_nodes), g.weights.shape)
    assert abs(float(np.sum(g.weights * f))) <= 1e-12


def test_weights_positive():
    g = build_grid(GridSpec(16, 8, 4.0))
    assert (g.weights > 0).all()


def test_quadrature_second_order():
    # integral of r^-3 over the annulus: 2*pi*(1 - 1/8) = 7*pi/4
    exact = 2.0 * math.pi * (1.0 - 1.0 / 8.0)
    errs = []
    for n_r in (64, 128):
        g = build_grid(GridSpec(n_r, 8, 8.0))
        f = np.broadcast_to((g.r_nodes ** -3)[:, None], g.weights.shape)
        errs.append(abs(float(np.sum(g.weights * f)) - exact))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_construction_pure():
    a = build_grid(GridSpec(64, 128, 8.0))
    b = build_grid(GridSpec(64, 128, 8.0))
    assert a.s_nodes.tobytes() == b.s_nodes.tobytes()
    assert a.theta_nodes.tobytes() == b.theta_nodes.tobytes()
    assert a.r_nodes.tobytes() == b.r_nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def test_arrays_frozen():
    g = build_grid(GridSpec(16, 8, 4.0))
    for arr in (g.s_nodes, g.theta_nodes, g.r_nodes, g.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
