"""Corrector construction, support/agreement structure, collar scalings."""

import numpy as np
import pytest

from diskflow.grid import GridSpec, build_grid
from diskflow.fields import ScalarField, norm_l2, perp_grad, seminorm_hk
from diskflow.boundary_layer import (CorrectorReport, build_corrector,
                                     collar_cells, corrector_scaling_report,
                                     eta)
from diskflow.errors import ConfigError, DegenerateFitError


def log_stream(grid):
    vals = np.log(grid.r_nodes)[:, None] * np.cos(grid.theta_nodes)[None, :]
    return ScalarField(grid, vals)


def algebraic_stream(grid):
    f = 1.0 / grid.r_nodes - 1.0 / grid.r_nodes ** 3
    return ScalarField(grid, f[:, None] * np.cos(grid.theta_nodes)[None, :])


# ---------------------------------------------------------------- eta

def test_eta_plateau_and_tail_values():
    assert eta(0.5) == 1.0
    assert eta(0.0) == 1.0
    assert eta(1.0) == 1.0
    assert eta(2.0) == 0.0
    assert eta(3.0) == 0.0
    # smoothstep midpoint: 6/32 - 15/16 + 10/8 = 1/2
    assert eta(1.5) == pytest.approx(0.5, abs=1e-15)


def test_eta_monotone_and_bounded_on_ramp():
    x = np.linspace(1.0, 2.0, 501)
    v = eta(x)
    assert np.all(np.diff(v) <= 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_eta_is_c2_at_junctions():
    # first and second finite differences shrink with the probe scale
    for x0 in (1.0, 2.0):
        for h in (1e-3, 1e-4):
            d1 = (eta(x0 + h) - eta(x0 - h)) / (2 * h)
            d2 = (eta(x0 + h) - 2 * eta(x0) + eta(x0 - h)) / h ** 2
            assert abs(d1) <= 40.0 * h
            assert abs(d2) <= 40.0 * h


def test_eta_rejects_negative_argument():
    with pytest.raises(ConfigError):
        eta(-0.1)
    with pytest.raises(ConfigError):
        eta(np.array([0.5, -1.0]))


def test_eta_vectorized_matches_scalar():
    x = np.linspace(0.0, 3.0, 77)
    v = eta(x)
    assert v.shape == x.shape
    # scalar and SIMD pow may differ in the last ulp
    scalars = np.array([eta(float(t)) for t in x])
    assert np.max(np.abs(v - scalars)) <= 1e-15


# ------------------------------------------------------- build_corrector

def test_corrector_rejects_bad_width():
    g = build_grid(GridSpec(n_r=64, n_theta=16, r_max=8.0))
    psi = log_stream(g)
    for d in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ConfigError):
            build_corrector(psi, d)


def test_corrector_rejects_nonvanishing_trace():
    g = build_grid(GridSpec(n_r=64, n_theta=16, r_max=8.0))
    psi = ScalarField(g, np.ones((64, 16)))
    with pytest.raises(ConfigError):
        build_corrector(psi, 0.1)


def test_cutoff_inactive_reproduces_perp_grad_exactly():
    # stream supported strictly inside rho < delta: eta is 1 on the support,
    # 0 outside it, so the product field equals psi node-for-node
    g = build_grid(GridSpec(n_r=257, n_theta=16, r_max=8.0))
    rho = g.r_nodes - 1.0
    prof = np.where((rho > 0.05) & (rho < 0.28),
                    np.sin(np.pi * (rho - 0.05) / 0.23) ** 4, 0.0)
    psi = ScalarField(g, prof[:, None] * np.cos(g.theta_nodes)[None, :])
    ub = build_corrector(psi, 0.3)
    uref = perp_grad(psi)
    assert np.array_equal(ub.u_r, uref.u_r)
    assert np.array_equal(ub.u_theta, uref.u_theta)


def test_support_vanishes_past_twice_delta():
    g = build_grid(GridSpec(n_r=257, n_theta=16, r_max=8.0))
    ub = build_corrector(log_stream(g), 0.2)
    # one interior row of stencil margin past rho = 2 delta
    beyond = np.where(g.r_nodes - 1.0 > 0.4)[0][1:]
    assert np.all(ub.u_r[beyond] == 0.0)
    assert np.all(ub.u_theta[beyond] == 0.0)


def test_agreement_inside_delta_is_exact():
    g = build_grid(GridSpec(n_r=513, n_theta=16, r_max=8.0))
    psi = log_stream(g)
    delta = 0.2
    ub = build_corrector(psi, delta)
    uref = perp_grad(psi)
    inner = np.where(g.r_nodes - 1.0 < delta)[0][:-1]  # stencil margin
    assert np.array_equal(ub.u_r[inner], uref.u_r[inner])
    assert np.array_equal(ub.u_theta[inner], uref.u_theta[inner])
    collar = np.where((g.r_nodes - 1.0 >= delta)
                      & (g.r_nodes - 1.0 <= 2 * delta))[0]
    assert np.max(np.abs(ub.u_theta[collar] - uref.u_theta[collar])) > 1e-3


def test_corrector_matches_product_rule_formula():
    # second-order agreement with delta^{-1} eta' psi e_theta + eta perp_grad
    def max_err(n_r):
        g = build_grid(GridSpec(n_r=n_r, n_theta=32, r_max=8.0))
        psi = algebraic_stream(g)
        delta = 0.25
        ub = build_corrector(psi, delta)
        r = g.r_nodes[:, None]
        th = g.theta_nodes[None, :]
        x = (g.r_nodes - 1.0) / delta
        y = 2.0 - x
        etp = np.where((x > 1.0) & (x < 2.0),
                       -(30 * y ** 4 - 60 * y ** 3 + 30 * y ** 2), 0.0)
        f = 1.0 / g.r_nodes - 1.0 / g.r_nodes ** 3
        df = -1.0 / g.r_nodes ** 2 + 3.0 / g.r_nodes ** 4
        cut = eta(x)
        exact_ur = (cut * f / g.r_nodes)[:, None] * np.sin(th)
        exact_ut = (etp / delta * f + cut * df)[:, None] * np.cos(th)
        return max(np.max(np.abs(ub.u_r - exact_ur)),
                   np.max(np.abs(ub.u_theta - exact_ut)))

    e1, e2 = max_err(257), max_err(513)
    assert e1 / e2 == pytest.approx(4.0, abs=1.5)


# ------------------------------------------------------- scaling report

# continuum collar integrals for psi = ln(r) cos(theta), quad-integrated
# pi * int [(d_r g)^2 + ...] r dr on [1, 1+2 delta] to 1e-10
LOG_L2 = {0.4: 2.02376, 0.2: 1.42960, 0.1: 1.01027, 0.05: 0.71421}
LOG_H1 = {0.4: 18.30115, 0.2: 25.95074, 0.1: 36.71431, 0.05: 51.91432}


def test_scaling_slopes_at_working_resolution():
    g = build_grid(GridSpec(n_r=512, n_theta=16, r_max=8.0))
    deltas = [0.4, 0.2, 0.1, 0.05]
    rep = corrector_scaling_report(log_stream(g), deltas)
    assert all(r.resolved for r in rep.rows)
    assert rep.l2_fit.slope == pytest.approx(0.5, abs=0.05)
    assert rep.h1_fit.slope == pytest.approx(-0.5, abs=0.05)
    # K stable across the two finest widths
    k_fine = rep.rows[-1].norm_ub / rep.rows[-1].delta ** 0.5
    k_next = rep.rows[-2].norm_ub / rep.rows[-2].delta ** 0.5
    assert k_fine / k_next == pytest.approx(1.0, abs=0.2)


def test_collar_norms_match_continuum_quadrature_oracle():
    # discrete norms converge at second order onto the quad values; on the
    # 2048 grid the finest-width error is 0.1% (L2) and 0.6% (H1)
    g = build_grid(GridSpec(n_r=2048, n_theta=16, r_max=8.0))
    rep = corrector_scaling_report(log_stream(g), [0.4, 0.2, 0.1, 0.05])
    for row in rep.rows:
        assert row.norm_ub == pytest.approx(LOG_L2[row.delta], rel=5e-3)
        assert row.seminorm_ub == pytest.approx(LOG_H1[row.delta], rel=1e-2)


def test_report_flags_underresolved_widths():
    g = build_grid(GridSpec(n_r=128, n_theta=16, r_max=8.0))
    deltas = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125]
    rep = corrector_scaling_report(log_stream(g), deltas)
    flags = [r.resolved for r in rep.rows]
    expect = [collar_cells(g, d) >= 4 for d in deltas]
    assert flags == expect
    assert flags[:3] == [True, True, True]
    assert flags[3:] == [False, False, False]
    # fits used only the resolved rows
    assert len(rep.l2_fit.points) == 3


def test_report_with_too_few_resolved_widths_degenerates():
    g = build_grid(GridSpec(n_r=64, n_theta=16, r_max=8.0))
    with pytest.raises(DegenerateFitError):
        corrector_scaling_report(log_stream(g), [0.1, 0.05, 0.025])


def test_zero_stream_degenerates():
    g = build_grid(GridSpec(n_r=128, n_theta=16, r_max=8.0))
    psi = ScalarField(g, np.zeros((128, 16)))
    with pytest.raises(DegenerateFitError):
        corrector_scaling_report(psi, [0.4, 0.2, 0.1])


def test_report_rejects_non_geometric_deltas():
    g = build_grid(GridSpec(n_r=128, n_theta=16, r_max=8.0))
    with pytest.raises(ConfigError):
        corrector_scaling_report(log_stream(g), [0.4, 0.3, 0.1])
    with pytest.raises(ConfigError):
        corrector_scaling_report(log_stream(g), [0.4, 0.2])


def test_time_derivative_streams_share_the_scalings():
    # finite-difference d/dt of a sequence of stream snapshots feeds the
    # same machinery; a linear-in-time family has d/dt psi proportional to
    # psi, so the fitted slopes must agree with the static ones
    g = build_grid(GridSpec(n_r=256, n_theta=16, r_max=8.0))
    base = log_stream(g)
    times = [0.0, 0.1, 0.2]
    snaps = [ScalarField(g, (1.0 + 0.5 * t) * base.values) for t in times]
    dpsi = ScalarField(g, (snaps[2].values - snaps[0].values)
                       / (times[2] - times[0]))
    rep_static = corrector_scaling_report(base, [0.4, 0.2, 0.1])
    rep_dt = corrector_scaling_report(dpsi, [0.4, 0.2, 0.1])
    assert rep_dt.l2_fit.slope == pytest.approx(rep_static.l2_fit.slope,
                                                abs=1e-10)
    assert rep_dt.h1_fit.slope == pytest.approx(rep_static.h1_fit.slope,
                                                abs=1e-10)
    assert rep_dt.l2_fit.constant == pytest.approx(
        0.5 * rep_static.l2_fit.constant, rel=1e-10)
