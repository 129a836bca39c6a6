"""Time-stepping tests: steady states, diffusion oracle, order, guards."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from conftest import held_prefixes
from diskflow.grid import GridSpec, build_grid
from diskflow.fields import (ScalarField, VectorField, advect, laplacian,
                             norm_l2, perp_grad, seminorm_hk, write_snapshot)
from diskflow.elliptic import recover_q, total_mass
from diskflow.dynamics import (EULER_MASS_TOL, FlowState, ModelParams,
                               RunConfig, Trajectory, cfl_dt, energy,
                               initial_state, make_state, outer_circulation,
                               rhs, run, snapshot_times, step)
from diskflow.errors import (CirculationError, ConfigError,
                             EllipticSolveError, NumericalFailure)
from diskflow.harness import euler_reference_state
from diskflow.initial_data import InitialCase, canonical_psi, make_initial


# ---------------------------------------------------------------- helpers

def poly_bump(lo, hi, p):
    """C^{p-1} bump on [lo, hi], normalized to max 1; returns (f, f')."""
    from numpy.polynomial import Polynomial
    base = Polynomial.fromroots([0.0] * p + [1.0] * p)
    peak = abs(base(0.5))
    core = base / peak if peak != 0 else base
    dcore = core.deriv()
    width = hi - lo

    def f(r):
        x = (np.asarray(r, dtype=float) - lo) / width
        out = np.where((x > 0) & (x < 1), core(np.clip(x, 0.0, 1.0)), 0.0)
        return out * np.sign(core(0.5))

    def df(r):
        x = (np.asarray(r, dtype=float) - lo) / width
        out = np.where((x > 0) & (x < 1), dcore(np.clip(x, 0.0, 1.0)), 0.0)
        return out * np.sign(core(0.5)) / width

    return f, df


def radial_stream(grid, lo=2.0, hi=6.0, p=4, moded=None):
    """Stream field from a compact radial bump, optionally theta-modulated."""
    f, _ = poly_bump(lo, hi, p)
    psi = np.repeat(f(grid.r_nodes)[:, None], grid.spec.n_theta, axis=1)
    if moded is not None:
        amp, m = moded
        psi = psi * (1.0 + amp * np.cos(m * grid.theta_nodes)[None, :])
    return ScalarField(grid, psi)


def velocity_from_stream(psi):
    u = perp_grad(psi)
    return VectorField(psi.grid, u.u_r, u.u_theta, tag="no-slip")


GRID64 = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))


# ---------------------------------------------------------------- params

@pytest.mark.parametrize("kw", [
    dict(kind="second_grade", alpha=0.0, nu=1e-3),
    dict(kind="second_grade", alpha=0.2, nu=0.0),
    dict(kind="euler_alpha", alpha=0.0),
    dict(kind="euler_alpha", alpha=0.2, nu=1e-3),
    dict(kind="euler", alpha=0.2),
    dict(kind="euler", nu=1e-3),
    dict(kind="navier_stokes", alpha=0.1, nu=0.1),
])
def test_model_params_rejects_inconsistent_combinations(kw):
    with pytest.raises(ConfigError):
        ModelParams(**kw)


def test_model_params_boundary_tags():
    assert ModelParams("second_grade", alpha=0.2, nu=1e-3).boundary_tag == "no-slip"
    assert ModelParams("euler_alpha", alpha=0.2).boundary_tag == "no-slip"
    assert ModelParams("euler").boundary_tag == "non-penetration"


@pytest.mark.parametrize("kw", [dict(cfl=0.0), dict(cfl=1.5), dict(dt=0.0),
                                dict(dt=-1e-3)])
def test_run_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        RunConfig(**kw)


def test_initial_state_enforces_boundary_tag():
    g = GRID64
    # 1/r swirl slips on the ring: fine for euler, rejected for alpha kinds
    ut = np.repeat((1.0 / g.r_nodes)[:, None], g.spec.n_theta, axis=1)
    u = VectorField(g, np.zeros_like(ut), ut)
    with pytest.raises(ValueError):
        initial_state(ModelParams("euler_alpha", alpha=0.2), u)


# ---------------------------------------------------------------- cfl_dt

def _state_with_velocity(g, u_r, u_theta, params):
    q = ScalarField(g, np.zeros((g.spec.n_r, g.spec.n_theta)))
    u = VectorField(g, u_r, u_theta)
    z = ScalarField(g, np.zeros_like(q.values))
    return FlowState(time=0.0, q=q, w=z, phi=z, u=u, params=params)


def test_cfl_dt_zero_velocity_returns_dt_max():
    g = GRID64
    zeros = np.zeros((g.spec.n_r, g.spec.n_theta))
    st = _state_with_velocity(g, zeros, zeros, ModelParams("euler_alpha", alpha=0.2))
    assert cfl_dt(st, 0.5, dt_max=0.037) == 0.037


def test_cfl_dt_diffusion_bound():
    g = GRID64
    zeros = np.zeros((g.spec.n_r, g.spec.n_theta))
    nu = 1e-2
    st = _state_with_velocity(g, zeros, zeros,
                              ModelParams("second_grade", alpha=0.2, nu=nu))
    expect = min(g.ds, g.dtheta) ** 2 / (4.0 * nu)
    assert cfl_dt(st, 0.5, dt_max=10.0) == pytest.approx(expect, rel=1e-14)


def test_cfl_dt_azimuthal_advective_bound():
    g = GRID64
    zeros = np.zeros((g.spec.n_r, g.spec.n_theta))
    ones = np.ones_like(zeros)
    st = _state_with_velocity(g, zeros, ones, ModelParams("euler_alpha", alpha=0.2))
    # tightest arc spacing is r=1: dt = cfl * dtheta
    assert cfl_dt(st, 0.4, dt_max=10.0) == pytest.approx(0.4 * g.dtheta, rel=1e-14)


def test_cfl_dt_matches_brute_force_scan():
    g = GRID64
    rng = np.random.default_rng(7)
    u_r = rng.normal(size=(g.spec.n_r, g.spec.n_theta))
    u_t = rng.normal(size=(g.spec.n_r, g.spec.n_theta))
    st = _state_with_velocity(g, u_r, u_t, ModelParams("euler_alpha", alpha=0.2))
    best = np.inf
    for i, r in enumerate(g.r_nodes):
        for j in range(g.spec.n_theta):
            if u_r[i, j] != 0.0:
                best = min(best, r * g.ds / abs(u_r[i, j]))
            if u_t[i, j] != 0.0:
                best = min(best, r * g.dtheta / abs(u_t[i, j]))
    assert cfl_dt(st, 0.3, dt_max=1e9) == pytest.approx(0.3 * best, rel=1e-12)


def test_cfl_dt_rejects_bad_cfl():
    g = GRID64
    zeros = np.zeros((g.spec.n_r, g.spec.n_theta))
    st = _state_with_velocity(g, zeros, zeros, ModelParams("euler_alpha", alpha=0.2))
    with pytest.raises(ConfigError):
        cfl_dt(st, 0.0)


# ------------------------------------------------------- steady states

def test_radial_data_is_exact_steady_state_euler_alpha():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g))
    params = ModelParams("euler_alpha", alpha=0.25)
    traj = run(params, u0, 0.3, RunConfig(dt=0.05))
    s0, s1 = traj.snapshots[0], traj.snapshots[-1]
    assert s1.time == pytest.approx(0.3)
    # u_r and d/dtheta vanish exactly for radial data, so every RK stage
    # tendency is identically zero and the state never moves
    assert np.max(np.abs(s1.u.u_theta - s0.u.u_theta)) <= 1e-13
    assert np.max(np.abs(s1.q.values - s0.q.values)) <= 1e-13
    e = traj.diagnostics["energy"]
    assert np.max(np.abs(e - e[0])) <= 1e-12 * e[0]


def test_radial_data_is_exact_steady_state_euler():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g))
    params = ModelParams("euler")
    traj = run(params, u0, 0.2, RunConfig(dt=0.05))
    s0, s1 = traj.snapshots[0], traj.snapshots[-1]
    assert np.max(np.abs(s1.w.values - s0.w.values)) <= 1e-13
    assert np.max(np.abs(s1.u.u_theta - s0.u.u_theta)) <= 1e-13


def test_radial_run_is_bitwise_steady_when_n_theta_is_not_a_power_of_two():
    # at n_theta = 100 the rfft of a constant row leaves roundoff in the
    # modes m >= 1; the elliptic solves drop it, so u_r stays exactly zero
    # and only mode 0 is ever factored
    g = build_grid(GridSpec(n_r=65, n_theta=100, r_max=10.0))
    params = ModelParams("euler_alpha", alpha=0.2)
    u0 = make_initial(canonical_psi(InitialCase("radial_vortex"), g),
                      params.alpha)
    q0 = initial_state(params, u0).q.values
    traj = run(params, u0, 0.2, RunConfig(snapshot_dt=0.05))
    assert len(traj.snapshots) == 5
    for s in traj.snapshots:
        assert np.array_equal(s.q.values, q0)
        assert not s.u.u_r.any()
    assert held_prefixes(g) == {("stream", 0.2): 1}


def test_radial_run_is_bitwise_steady_where_the_irfft_of_mode_0_is_not():
    # at n_theta = 478 = 2 * 239 the irfft of mode 0 alone leaves rows that
    # are not exactly constant; the solves fill each row of phi from its
    # column 0, so phi, u and q stay radial bit for bit
    g = build_grid(GridSpec(n_r=64, n_theta=478, r_max=10.0))
    params = ModelParams("euler_alpha", alpha=0.2)
    u0 = make_initial(canonical_psi(InitialCase("radial_vortex"), g),
                      params.alpha)
    q0 = initial_state(params, u0).q.values
    traj = run(params, u0, 0.05, RunConfig(dt=0.01, snapshot_dt=0.01))
    assert len(traj.snapshots) == 6
    for s in traj.snapshots:
        assert np.array_equal(s.q.values, q0)
        assert (s.phi.values == s.phi.values[:, :1]).all()
        assert not s.u.u_r.any()


def test_energy_identity_inviscid_perturbed():
    # theta-dependent flow: conservation holds to the spatial-adjointness
    # error of the discrete operators, not to roundoff
    g = build_grid(GridSpec(n_r=65, n_theta=32, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.1, 2)))
    traj = run(ModelParams("euler_alpha", alpha=0.3), u0, 0.25, RunConfig(cfl=0.4))
    e = traj.diagnostics["energy"]
    assert np.max(np.abs(e - e[0])) <= 2e-3 * e[0]


def test_viscous_energy_balance_radial():
    # E(t) + 2 nu int_0^t |grad u|^2 = E(0) within the quadrature error
    g = build_grid(GridSpec(n_r=129, n_theta=8, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g))
    nu = 1e-3
    traj = run(ModelParams("second_grade", alpha=0.2, nu=nu), u0, 0.5,
               RunConfig(cfl=0.4))
    t = traj.diagnostics["t"]
    e = traj.diagnostics["energy"]
    dissip = 2.0 * nu * np.array(
        [np.trapezoid(traj.diagnostics["grad_u_sq"][:k + 1], t[:k + 1])
         for k in range(len(t))])
    residual = np.abs(e + dissip - e[0])
    assert np.max(residual) <= 1e-4 * e[0]


def test_maximum_principle_inviscid():
    g = build_grid(GridSpec(n_r=65, n_theta=32, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.1, 2)))
    params = ModelParams("euler_alpha", alpha=0.3)
    traj = run(params, u0, 0.3, RunConfig(cfl=0.4, snapshot_dt=0.1))
    m0 = np.max(np.abs(traj.snapshots[0].q.values))
    worst = max(np.max(np.abs(s.q.values)) for s in traj.snapshots)
    assert worst <= 1.02 * m0


def test_apriori_seminorm_stays_bounded():
    g = build_grid(GridSpec(n_r=65, n_theta=32, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.1, 2)))
    alpha = 0.3
    traj = run(ModelParams("euler_alpha", alpha=alpha), u0, 0.3,
               RunConfig(cfl=0.4, snapshot_dt=0.1))
    probe = [alpha * seminorm_hk(s.u, 1) for s in traj.snapshots]
    assert max(probe) <= 2.0 * probe[0]


# ------------------------------------------------------- heat oracle

def _mode0_heat_oracle(alpha, nu, t_final, w0_of_r, n=2001, r_max=8.0):
    """Radial filtered-diffusion reference on a dense uniform-r grid.

    d/dt (w - a^2 L w) = nu L w with L = d_rr + (1/r) d_r and w pinned to
    zero at both ends (the bump never reaches them).
    """
    r = np.linspace(1.0, r_max, n)
    dr = r[1] - r[0]
    main = np.full(n, -2.0 / dr ** 2)
    upper = 1.0 / dr ** 2 + 1.0 / (2.0 * r[:-1] * dr)
    lower = 1.0 / dr ** 2 - 1.0 / (2.0 * r[1:] * dr)
    L = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="lil")
    L[0, :] = 0.0
    L[-1, :] = 0.0
    L = L.tocsc()
    helm = scipy.sparse.identity(n, format="csc") - alpha ** 2 * L
    lu = scipy.sparse.linalg.splu(helm)

    w = w0_of_r(r)
    w[0] = w[-1] = 0.0
    q = w - alpha ** 2 * (L @ w)

    # filtered diffusion has bounded symbol nu/alpha^2, so dt is accuracy-
    # limited only
    steps = max(200, int(t_final / 5e-3))
    dt = t_final / steps
    for _ in range(steps):
        k1 = nu * (L @ lu.solve(q))
        k2 = nu * (L @ lu.solve(q + 0.5 * dt * k1))
        k3 = nu * (L @ lu.solve(q + 0.5 * dt * k2))
        k4 = nu * (L @ lu.solve(q + dt * k3))
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return r, lu.solve(q)


def test_mode0_diffusion_matches_dense_radial_oracle():
    # the bump must stay clear of both boundaries: the oracle pins w=0 at
    # the ends, so wall vorticity production and far-field spread have to be
    # negligible over the horizon for the comparison to be fair
    alpha, nu, t_final = 0.25, 0.04, 1.0
    lo, hi, p = 2.3, 5.2, 4
    f, df = poly_bump(lo, hi, p)
    h = 1e-5

    def w0_of_r(r):
        d2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / h ** 2
        return d2 + df(r) / r

    r_dense, w_ref = _mode0_heat_oracle(alpha, nu, t_final, w0_of_r, n=4001)

    def rel_err(n_r):
        g = build_grid(GridSpec(n_r=n_r, n_theta=8, r_max=8.0))
        psi = ScalarField(g, np.repeat(f(g.r_nodes)[:, None], 8, axis=1))
        u0 = velocity_from_stream(psi)
        # dissipation is filtered, |nu k^2/(1+a^2 k^2)| <= nu/a^2, so a fixed
        # dt well under the advective limit is stable on every grid here;
        # the tail threshold allows the real filtered-diffusion far tail
        traj = run(ModelParams("second_grade", alpha=alpha, nu=nu), u0,
                   t_final, RunConfig(dt=0.02, tail_threshold=1e-4))
        w_pkg = traj.snapshots[-1].w.values[:, 0]
        w_cmp = np.interp(g.r_nodes, r_dense, w_ref)
        return (np.sqrt(np.sum(g.weights[:, 0] * (w_pkg - w_cmp) ** 2))
                / np.sqrt(np.sum(g.weights[:, 0] * w_cmp ** 2)))

    coarse, mid = rel_err(193), rel_err(385)
    assert 2.8 <= coarse / mid <= 5.5  # second order in the radial step
    assert rel_err(769) <= 1e-3


# ------------------------------------------------------- passive patch

def test_passive_swirl_advection_patch():
    # solver bypassed: RK4 on dq/dt = -u . grad q with frozen u_theta = 1/r;
    # exact solution is q0(r, theta - t/r^2)
    g = build_grid(GridSpec(n_r=129, n_theta=48, r_max=8.0))
    f, _ = poly_bump(2.0, 4.0, 4)
    th = g.theta_nodes[None, :]
    rr = g.r_nodes[:, None]
    q = f(rr) * (np.cos(th) + 0.3 * np.cos(3.0 * th))
    ut = np.repeat((1.0 / g.r_nodes)[:, None], 48, axis=1)
    u = VectorField(g, np.zeros_like(ut), ut)

    r0 = 3.0
    t_final = 2.0 * np.pi * r0 ** 2  # one revolution at the bump center
    steps = 600
    dt = t_final / steps

    def f_rhs(qv):
        return -advect(u, ScalarField(g, qv)).values

    for _ in range(steps):
        k1 = f_rhs(q)
        k2 = f_rhs(q + 0.5 * dt * k1)
        k3 = f_rhs(q + 0.5 * dt * k2)
        k4 = f_rhs(q + dt * k3)
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    shifted = th - t_final / rr ** 2
    exact = f(rr) * (np.cos(shifted) + 0.3 * np.cos(3.0 * shifted))
    err = np.sqrt(np.sum(g.weights * (q - exact) ** 2))
    ref = np.sqrt(np.sum(g.weights * exact ** 2))
    assert err <= 0.02 * ref


# ------------------------------------------------------- time order

def test_rk4_global_order_four():
    g = build_grid(GridSpec(n_r=49, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, lo=1.8, hi=6.0, moded=(0.3, 2)))
    params = ModelParams("euler_alpha", alpha=0.3)
    t_final = 0.04

    def final_q(dt):
        traj = run(params, u0, t_final, RunConfig(dt=dt))
        return traj.snapshots[-1].q.values

    ref = final_q(t_final / 128.0)
    dts = np.array([t_final / 4.0, t_final / 8.0, t_final / 16.0])
    errs = np.array([np.linalg.norm(final_q(dt) - ref) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.7 <= slope <= 4.3


# ------------------------------------------------------- guards

def test_nan_failure_carries_time_and_stage():
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.3, 2)))
    params = ModelParams("euler_alpha", alpha=0.3)
    state = initial_state(params, u0)
    # the overflow is the point: keep its warnings out of the test output
    with pytest.raises(NumericalFailure) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        for _ in range(40):
            state = step(state, 1e6)
    assert exc.value.kind == "nan"
    assert exc.value.time >= 0.0
    assert exc.value.detail in {"k1", "k2", "k3", "k4", "update"}


def _broken_make_state(values_of):
    """dynamics.make_state with its q field replaced by values_of(q.values)."""
    import diskflow.dynamics as dynamics
    real = dynamics.make_state

    def broken(params, q, time, with_w=True):
        return real(params, ScalarField(q.grid, values_of(q.values)), time,
                    with_w)
    return broken


def test_only_non_finite_fields_map_to_nan(monkeypatch):
    import diskflow.dynamics as dynamics
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.3, 2)))
    state = initial_state(ModelParams("euler_alpha", alpha=0.3), u0)

    # a shape mismatch is a bug, not a numerical failure
    monkeypatch.setattr(dynamics, "make_state",
                        _broken_make_state(lambda v: v[:, :-1]))
    with pytest.raises(ValueError, match="shape"):
        step(state, 1e-3)

    # so is a velocity that slips on the ring
    def slipping(params, q, time, with_w=True):
        ut = np.ones((g.spec.n_r, g.spec.n_theta))
        VectorField(g, np.zeros_like(ut), ut, tag="no-slip")
    monkeypatch.setattr(dynamics, "make_state", slipping)
    with pytest.raises(ValueError, match="no-slip"):
        step(state, 1e-3)

    # stage k1 builds no state: a broken make_state first fires at k2
    monkeypatch.setattr(dynamics, "make_state",
                        _broken_make_state(lambda v: v * np.nan))
    with pytest.raises(NumericalFailure) as exc:
        step(state, 1e-3)
    assert exc.value.kind == "nan"
    assert exc.value.detail == "k2"


def test_non_finite_tendency_of_the_given_state_fails_at_k1(monkeypatch):
    import diskflow.dynamics as dynamics
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.3, 2)))
    state = initial_state(ModelParams("euler_alpha", alpha=0.3), u0)
    # rhs wraps its tendency in a field, which rejects a non-finite one
    monkeypatch.setattr(dynamics, "rhs", lambda s: ScalarField(
        g, np.full((g.spec.n_r, g.spec.n_theta), np.nan)))
    with pytest.raises(NumericalFailure) as exc:
        step(state, 1e-3)
    assert exc.value.kind == "nan"
    assert exc.value.detail == "k1"
    assert exc.value.time == state.time


def test_step_builds_four_states(monkeypatch):
    import diskflow.dynamics as dynamics
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.3, 2)))
    state = initial_state(ModelParams("euler_alpha", alpha=0.3), u0)
    built, with_w = [], []
    real = dynamics.make_state

    def counted(*args, **kwargs):
        built.append(args[2])
        with_w.append(kwargs.get("with_w", True))
        return real(*args, **kwargs)
    monkeypatch.setattr(dynamics, "make_state", counted)
    step(state, 1e-2)
    # k2, k3, k4 and the update; k1 reuses the given state's fields
    assert built == pytest.approx([0.005, 0.005, 0.01, 0.01])
    # inviscid stages skip w; the update builds a full state
    assert with_w == [False, False, False, True]


@pytest.mark.parametrize("params, calls", [
    (ModelParams("euler_alpha", alpha=0.3), 1),
    (ModelParams("second_grade", alpha=0.3, nu=1e-3), 8),
    (ModelParams("euler"), 4),
], ids=["euler_alpha", "second_grade", "euler"])
def test_step_forms_only_the_laplacians_its_stages_read(monkeypatch, params,
                                                        calls):
    import diskflow.dynamics as dynamics
    import diskflow.elliptic as elliptic
    from diskflow.fields import laplacian
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u = perp_grad(radial_stream(g, moded=(0.3, 2)))
    u0 = VectorField(g, u.u_r, u.u_theta, tag=params.boundary_tag)
    state = initial_state(params, u0)
    n = [0]

    def counted(f):
        n[0] += 1
        return laplacian(f)
    for module in (dynamics, elliptic):
        monkeypatch.setattr(module, "laplacian", counted)
    new = step(state, 1e-3)
    # euler_alpha: w of the update only; second_grade: w and nu lap(w) at
    # k2-k4 and w of the update, plus nu lap(w) at k1; euler: one Poisson
    # residual per inversion
    assert n[0] == calls
    assert new.w is not None


@pytest.mark.parametrize("failing_call, stage", [
    (1, "k2"), (2, "k3"), (3, "k4"), (4, "update")])
@pytest.mark.parametrize("error", [EllipticSolveError, CirculationError])
def test_solver_errors_in_a_step_are_solve_failures(monkeypatch, failing_call,
                                                    stage, error):
    import diskflow.dynamics as dynamics
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.3, 2)))
    state = initial_state(ModelParams("euler_alpha", alpha=0.3), u0)
    real = dynamics.solve_stream_helmholtz
    calls = []

    def failing(q, alpha, **kwargs):
        calls.append(alpha)
        if len(calls) == failing_call:
            raise error("synthetic solver failure")
        return real(q, alpha, **kwargs)
    monkeypatch.setattr(dynamics, "solve_stream_helmholtz", failing)
    with pytest.raises(NumericalFailure) as exc:
        step(state, 1e-2)
    assert exc.value.kind == "solve"
    assert exc.value.detail == stage
    assert exc.value.time == (0.005 if stage in ("k2", "k3") else
                              0.01 if stage == "k4" else 0.0)
    assert isinstance(exc.value.__cause__, error)
    assert "synthetic solver failure" in str(exc.value)


@pytest.mark.parametrize("how, kind", [("overflow", "nan"),
                                       ("solve", "solve")])
def test_a_failure_forming_the_initial_state_fails_the_run(monkeypatch, how,
                                                           kind):
    import diskflow.dynamics as dynamics
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    psi = radial_stream(g, moded=(0.3, 2))
    if how == "overflow":
        # finite velocity whose filtered vorticity overflows
        psi = ScalarField(g, 1e306 * psi.values)
    else:
        def failing(q, alpha, **kwargs):
            raise EllipticSolveError("synthetic solver failure")
        monkeypatch.setattr(dynamics, "solve_stream_helmholtz", failing)
    u0 = velocity_from_stream(psi)
    with pytest.raises(NumericalFailure) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        run(ModelParams("euler_alpha", alpha=0.3), u0, 0.1)
    assert exc.value.kind == kind
    assert exc.value.detail == "initial" and exc.value.time == 0.0


@pytest.mark.parametrize("moded", [None, (0.3, 2)], ids=["radial", "moded"])
@pytest.mark.parametrize("kind,alpha,nu", [("euler_alpha", 0.3, 0.0),
                                           ("second_grade", 0.3, 1e-3),
                                           ("euler", 0.0, 0.0)])
def test_step_equals_the_plain_rk4_expressions_bit_for_bit(kind, alpha, nu,
                                                          moded):
    g = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=moded))
    params = ModelParams(kind, alpha=alpha, nu=nu)
    state = initial_state(params, u0)
    dt = 0.01

    def k(values, time, st=None):
        if st is None:
            st = make_state(params, ScalarField(g, values), time)
        vals = -advect(st.u, st.q).values
        if nu > 0.0:
            vals = vals + nu * laplacian(st.w).values
        return vals
    for _ in range(2):
        q, t = state.q.values, state.time
        k1 = k(q, t, state)
        k2 = k(q + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = k(q + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = k(q + dt * k3, t + dt)
        want = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        state = step(state, dt)
        assert np.array_equal(state.q.values.view(np.uint64),
                              want.view(np.uint64))


def _rebuilding_step(state, dt, end_time=None):
    """Textbook RK4 that recovers (phi, w, u) from q at every stage."""
    params, g, q, t = state.params, state.q.grid, state.q.values, state.time

    def k(values, time):
        return rhs(make_state(params, ScalarField(g, values), time)).values
    k1 = k(q, t)
    k2 = k(q + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = k(q + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = k(q + dt * k3, t + dt)
    q_new = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t_new = t + dt if end_time is None else end_time
    return make_state(params, ScalarField(g, q_new), t_new)


@pytest.mark.parametrize("params", [
    ModelParams("euler_alpha", alpha=0.3),
    ModelParams("second_grade", alpha=0.3, nu=1e-3),
    ModelParams("euler"),
], ids=["euler_alpha", "second_grade", "euler"])
def test_reused_k1_state_matches_rebuilt_bit_for_bit(monkeypatch, params):
    import diskflow.dynamics as dynamics
    g = build_grid(GridSpec(n_r=49, n_theta=16, r_max=8.0))
    u = perp_grad(radial_stream(g, lo=1.8, hi=6.0, moded=(0.3, 2)))
    u0 = VectorField(g, u.u_r, u.u_theta, tag=params.boundary_tag)
    # the tail guard is lifted: the far-field closure at r_max makes viscous
    # runs feed vorticity at the truncation ring, and this test compares two
    # step paths, not the far field
    config = RunConfig(cfl=0.4, snapshot_dt=0.02, tail_threshold=1.0)
    got = run(params, u0, 0.06, config)
    monkeypatch.setattr(dynamics, "step", _rebuilding_step)
    want = run(params, u0, 0.06, config)
    assert len(got.snapshots) == len(want.snapshots) > 2
    for a, b in zip(got.snapshots, want.snapshots):
        assert a.time == b.time
        assert np.array_equal(a.q.values, b.q.values)
        assert np.array_equal(a.u.u_r, b.u.u_r)
        assert np.array_equal(a.u.u_theta, b.u.u_theta)
    for key in got.diagnostics:
        assert np.array_equal(got.diagnostics[key], want.diagnostics[key]), key


def test_tail_mass_abort():
    g = build_grid(GridSpec(n_r=129, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, lo=6.4, hi=7.5, moded=(0.2, 2)))
    params = ModelParams("euler_alpha", alpha=0.2)
    with pytest.raises(NumericalFailure) as exc:
        run(params, u0, 0.5, RunConfig(dt=0.01))
    assert exc.value.kind == "tail_mass"
    assert exc.value.detail > 0.0


def test_outer_circulation_precheck():
    g = GRID64
    ut = np.repeat((1.0 / g.r_nodes)[:, None], g.spec.n_theta, axis=1)
    u0 = VectorField(g, np.zeros_like(ut), ut, tag="non-penetration")
    with pytest.raises(ConfigError):
        run(ModelParams("euler"), u0, 0.1)


@pytest.mark.parametrize("amp", [1e-200, 1.0, 1e150, 1e160, 1e200])
def test_outer_circulation_precheck_at_any_amplitude(amp):
    # the guard compares circulation and L2 norm of u0 / max|u0|, so no
    # square overflows or underflows at any amplitude
    g = build_grid(GridSpec(n_r=32, n_theta=16, r_max=8.0))
    ut = np.repeat(amp * (1.0 - 1.0 / g.r_nodes)[:, None], g.spec.n_theta,
                   axis=1)
    u0 = VectorField(g, np.zeros_like(ut), ut, tag="no-slip")
    with pytest.raises(ConfigError) as exc:
        run(ModelParams("euler_alpha", alpha=0.2), u0, 0.1)
    assert exc.value.key == "u0"


def test_outer_circulation_precheck_accepts_a_zero_field():
    g = build_grid(GridSpec(n_r=32, n_theta=16, r_max=8.0))
    zero = np.zeros((g.spec.n_r, g.spec.n_theta))
    traj = run(ModelParams("euler_alpha", alpha=0.2),
               VectorField(g, zero, zero, tag="no-slip"), 0.1)
    assert [s.time for s in traj.snapshots] == [0.0, 0.1]


@pytest.mark.parametrize("case_name", ["radial_vortex", "perturbed_vortex"])
def test_default_config_runs_euler_from_a_stream_function(case_name):
    # grid vorticity from a stream function has O(h^2) net mass, beyond
    # solve_poisson's own default guard; the Euler slack admits it
    g = build_grid(GridSpec(n_r=64, n_theta=16))
    psi = canonical_psi(InitialCase(case_name), g)
    u0 = euler_reference_state(psi).u
    w0 = recover_q(u0, 0.0)
    assert 1e-6 * norm_l2(w0) < abs(total_mass(w0)) < EULER_MASS_TOL
    traj = run(ModelParams("euler"), u0, 0.1, RunConfig(snapshot_dt=0.05))
    assert [s.time for s in traj.snapshots] == \
        pytest.approx([0.0, 0.05, 0.1], abs=1e-12)


def test_euler_mass_guard_rejects_a_swirl_that_slips_on_the_ring():
    g = GRID64
    ut = np.repeat(np.exp(-(g.r_nodes - 1.0) ** 2)[:, None], g.spec.n_theta,
                   axis=1)
    u = VectorField(g, np.zeros_like(ut), ut)
    # the swirl's circulation 2 pi on the ring is net vorticity mass -2 pi
    assert total_mass(recover_q(u, 0.0)) == pytest.approx(-2.0 * np.pi,
                                                          rel=1e-3)
    with pytest.raises(CirculationError):
        initial_state(ModelParams("euler"), u)


def test_min_dt_collapse_raises_cfl_failure():
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g))
    params = ModelParams("euler_alpha", alpha=0.2)
    with pytest.raises(NumericalFailure) as exc:
        run(params, u0, 0.1, RunConfig(dt=1e-12))
    assert exc.value.kind == "cfl"


def test_run_rejects_nonpositive_t_final():
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g))
    with pytest.raises(ConfigError):
        run(ModelParams("euler_alpha", alpha=0.2), u0, 0.0)


# ------------------------------------------------------- bookkeeping

@pytest.mark.parametrize("t_final, snapshot_dt, times", [
    (1.0, None, (0.0, 1.0)),
    (1.0, 0.25, (0.0, 0.25, 0.5, 0.75, 1.0)),
    # products k * 0.3, not running sums; 0.8999999999999999 < 0.9
    (1.0, 0.3, (0.0, 0.3, 0.6, 0.8999999999999999, 1.0)),
    (1.0, 2.0, (0.0, 1.0)),
    # 3 * 0.1 lies within 1e-9 of 0.3: t_final is the only end
    (0.3, 0.1, (0.0, 0.1, 0.2, 0.3)),
    (1.0, 0.5 - 4e-10, (0.0, 0.5 - 4e-10, 1.0)),
], ids=["ends-only", "dividing", "not-dividing", "larger", "within-eps",
        "near-multiple"])
def test_snapshot_times_table(t_final, snapshot_dt, times):
    assert snapshot_times(t_final, snapshot_dt) == times


@pytest.mark.parametrize("config", [
    RunConfig(cfl=0.4, snapshot_dt=0.03),
    RunConfig(dt=0.007, snapshot_dt=0.03),
    RunConfig(dt=0.01, snapshot_dt=0.02),
], ids=["adaptive", "fixed", "fixed-dividing"])
def test_run_keeps_its_snapshots_at_the_scheduled_times(config):
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g, moded=(0.1, 2)))
    traj = run(ModelParams("euler_alpha", alpha=0.25), u0, 0.1, config)
    times = snapshot_times(0.1, config.snapshot_dt)
    assert tuple(s.time for s in traj.snapshots) == times
    # every step ends on a scheduled time or short of it, never past it
    t = traj.diagnostics["t"].tolist()
    assert not any(a < s < b for a, b in zip(t, t[1:]) for s in times)


def test_a_run_shorter_than_eps_takes_one_step_to_t_final():
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g))
    traj = run(ModelParams("euler_alpha", alpha=0.2), u0, 1e-10)
    assert [s.time for s in traj.snapshots] == [0.0, 1e-10]
    assert traj.diagnostics["dt"].tolist() == [0.0, 1e-10]


def test_snapshots_land_on_exact_times(tmp_path):
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g))
    params = ModelParams("euler_alpha", alpha=0.2)
    csv = tmp_path / "diag.csv"
    traj = run(params, u0, 0.2, RunConfig(dt=0.003, snapshot_dt=0.05),
               diagnostics_path=str(csv))
    times = [s.time for s in traj.snapshots]
    assert times == pytest.approx([0.0, 0.05, 0.10, 0.15, 0.20], abs=1e-12)

    t = traj.diagnostics["t"]
    assert np.all(np.diff(t) > 0.0)
    assert np.all(traj.diagnostics["dt"][1:] <= 0.003 + 1e-15)

    rows = np.loadtxt(str(csv), delimiter=",", skiprows=1)
    header = csv.read_text().splitlines()[0]
    assert header == "t,dt,energy,enstrophy,tail_mass,norm_u_sq,grad_u_sq"
    assert rows.shape == (len(t), 7)
    assert rows[:, 2] == pytest.approx(traj.diagnostics["energy"], rel=1e-15)


def test_run_is_deterministic():
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g, moded=(0.1, 2)))
    params = ModelParams("euler_alpha", alpha=0.25)
    t1 = run(params, u0, 0.1, RunConfig(cfl=0.4))
    t2 = run(params, u0, 0.1, RunConfig(cfl=0.4))
    assert np.array_equal(t1.snapshots[-1].q.values, t2.snapshots[-1].q.values)
    assert np.array_equal(t1.diagnostics["energy"], t2.diagnostics["energy"])


@pytest.mark.parametrize("snapshot_dt", [None, 0.015],
                         ids=["ends-only", "strided"])
def test_on_snapshot_receives_what_snapshots_would_hold(snapshot_dt):
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g, moded=(0.1, 2)))
    params = ModelParams("euler_alpha", alpha=0.25)
    config = RunConfig(cfl=0.4, snapshot_dt=snapshot_dt)
    want = run(params, u0, 0.05, config)
    got = []
    traj = run(params, u0, 0.05, config, on_snapshot=got.append)
    assert traj.snapshots == []
    assert len(want.snapshots) == (2 if snapshot_dt is None else 5)
    assert [s.time for s in got] == [s.time for s in want.snapshots]
    assert got[0].time == 0.0 and got[-1].time == 0.05
    for a, b in zip(got, want.snapshots, strict=True):
        for x, y in ((a.q.values, b.q.values), (a.w.values, b.w.values),
                     (a.phi.values, b.phi.values), (a.u.u_r, b.u.u_r),
                     (a.u.u_theta, b.u.u_theta)):
            assert np.array_equal(x, y)
    for key in want.diagnostics:
        assert np.array_equal(traj.diagnostics[key], want.diagnostics[key])


def test_on_snapshot_has_every_snapshot_before_a_failure():
    g = build_grid(GridSpec(n_r=129, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, lo=6.4, hi=7.5, moded=(0.2, 2)))
    got = []
    with pytest.raises(NumericalFailure) as exc:
        run(ModelParams("euler_alpha", alpha=0.2), u0, 0.5,
            RunConfig(dt=0.01, snapshot_dt=0.01), on_snapshot=got.append)
    assert exc.value.kind == "tail_mass"
    assert got and got[0].time == 0.0
    assert got[-1].time == pytest.approx(exc.value.time - 0.01)


def test_rhs_matches_hand_assembly():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    u0 = velocity_from_stream(radial_stream(g, moded=(0.2, 2)))
    params = ModelParams("second_grade", alpha=0.3, nu=1e-2)
    st = initial_state(params, u0)
    from diskflow.fields import laplacian
    expect = (-advect(st.u, st.q).values
              + params.nu * laplacian(st.w).values)
    got = rhs(st).values
    assert np.max(np.abs(got - expect)) == 0.0


def test_energy_reduces_to_plain_l2_for_euler():
    g = GRID64
    u0 = velocity_from_stream(radial_stream(g))
    st = initial_state(ModelParams("euler"), u0)
    assert energy(st) == pytest.approx(norm_l2(st.u) ** 2, rel=1e-14)


# ------------------------------------------------------- angular transforms

def _vortex_state(kind, case_name):
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=10.0))
    psi = canonical_psi(InitialCase(case_name), g)
    nu = 1e-3 if kind == "second_grade" else 0.0
    params = ModelParams(kind, alpha=0.2, nu=nu)
    return params, make_initial(psi, params.alpha)


@pytest.mark.parametrize("kind, case_name, calls", [
    ("euler_alpha", "radial_vortex", 0),
    ("second_grade", "radial_vortex", 0),
    ("euler_alpha", "perturbed_vortex", 13),
    ("second_grade", "perturbed_vortex", 20),
])
def test_step_transforms_only_what_varies_in_angle(monkeypatch, kind,
                                                   case_name, calls):
    params, u0 = _vortex_state(kind, case_name)
    state = initial_state(params, u0)
    counts = {"rfft": 0, "irfft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name))
    step(state, 1e-3)
    # radial data at n_theta 16: the elliptic inversions take mode 0 in
    # closed form and fields skip every d/dtheta, so no transform at all
    assert counts == {"rfft": calls, "irfft": calls}


def test_radial_state_makes_no_angular_arrays_in_fields(monkeypatch):
    # every d/dtheta of radial data is None: one step, one diagnostics
    # row, one audit snapshot and the a-priori seminorms make no zero
    # array and no transform in fields
    import sys
    from diskflow.dynamics import _diag_row
    from diskflow.fields import seminorms_hk
    from diskflow.grid import tail_weights
    from diskflow.harness import EnergyBudget
    params, u0 = _vortex_state("second_grade", "radial_vortex")
    state = initial_state(params, u0)
    calls = {"zeros_like": 0, "rfft": 0, "irfft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "diskflow.fields":
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(np, "zeros_like", counted("zeros_like",
                                                  np.zeros_like))
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    nxt = step(state, 1e-3)
    _diag_row(nxt, 1e-3, tail_weights(u0.grid))
    EnergyBudget(0.1, (nxt.time, 1.0, 2.0)).add(nxt, u0)
    seminorms_hk(nxt.u, 3)
    assert calls == {"zeros_like": 0, "rfft": 0, "irfft": 0}


@pytest.mark.parametrize("kind", ["euler_alpha", "second_grade"])
def test_radial_step_scans_no_array_for_theta_constancy(monkeypatch, kind):
    # the state's fields are kept as columns, and every array a step
    # builds from columns is a column, kept without a scan
    import diskflow.fields as fields
    params, u0 = _vortex_state(kind, "radial_vortex")
    state = initial_state(params, u0)
    scans = []
    real = fields._bit_column
    monkeypatch.setattr(fields, "_bit_column",
                        lambda a: scans.append(a.shape) or real(a))
    nxt = step(state, 1e-3)
    assert scans == []
    held = [fields._column(f, i) is not None
            for f in (nxt.q, nxt.w, nxt.phi, nxt.u)
            for i in range(len(f._arrs))]
    assert scans == [] and held == [True] * 5


@pytest.mark.parametrize("kind", ["euler_alpha", "second_grade"])
def test_radial_step_builds_no_full_size_view(monkeypatch, kind):
    # a column's full-size view is built only when its public attribute is
    # read, and a step reads none
    import sys
    params, u0 = _vortex_state(kind, "radial_vortex")
    state = initial_state(params, u0)
    views = []
    real = np.broadcast_to

    def spy(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "diskflow.fields":
            views.append(args[0].shape)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "broadcast_to", spy)
    nxt = step(state, 1e-3)
    assert views == []
    spec = u0.grid.spec
    assert nxt.u.u_theta.shape == (spec.n_r, spec.n_theta)
    assert views == [(spec.n_r, 1)]


def _full_size_lines(fn, n_bytes, excluded):
    """(function, line) of each line of diskflow code whose run under fn()
    allocated n_bytes or more, with calls of the excluded (module, name)
    pairs not counted.

    Every line, call and return event of a diskflow frame closes an
    interval; tracemalloc's peak over the interval less its start is what
    the line allocated at most at once.  An interval that runs an excluded
    call is skipped.
    """
    import sys
    import tracemalloc
    depth = [0]
    open_line = {"where": None, "start": 0, "skip": False}
    found = []

    def close(frame):
        cur, peak = tracemalloc.get_traced_memory()
        if open_line["where"] is not None and not open_line["skip"] \
                and peak - open_line["start"] >= n_bytes:
            found.append(open_line["where"])
        tracemalloc.reset_peak()
        open_line.update(where=(frame.f_code.co_name, frame.f_lineno),
                         start=tracemalloc.get_traced_memory()[0],
                         skip=False)

    def local(frame, event, arg):
        if depth[0] == 0:
            close(frame)
        return local

    def tracer(frame, event, arg):
        if depth[0] or not frame.f_globals.get("__name__", "").startswith(
                "diskflow"):
            return None
        close(frame)
        return local

    def skipped(real):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
                open_line["skip"] = True
        return wrapper

    saved = [(module, name, getattr(module, name))
             for module, name in excluded]
    for module, name, real in saved:
        setattr(module, name, skipped(real))
    old = sys.gettrace()
    tracemalloc.start()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
        tracemalloc.stop()
        for module, name, real in saved:
            setattr(module, name, real)
    return found


@pytest.mark.parametrize("kind", ["euler_alpha", "second_grade"])
def test_radial_step_makes_no_full_size_array(monkeypatch, kind):
    # a radial step works on (n_r, 1) columns: apart from the weighted
    # sums, no line makes an (n_r, n_theta) array; the elliptic solves take
    # mode 0 in closed form at this n_theta, so a full-size spectrum or
    # synthesis in a step fails this
    import diskflow.fields as fields
    g = build_grid(GridSpec(n_r=65, n_theta=512, r_max=10.0))
    nu = 1e-3 if kind == "second_grade" else 0.0
    params = ModelParams(kind, alpha=0.2, nu=nu)
    excluded = [(fields, "_weighted_sum")]
    n_bytes = 65 * 512 * 8

    def lines():
        psi = canonical_psi(InitialCase("radial_vortex"), g)
        state = initial_state(params, make_initial(psi, params.alpha))
        return _full_size_lines(lambda: step(state, 1e-3), n_bytes, excluded)
    assert lines() == []
    # the same probe finds the full-size arrays of the full-array path
    monkeypatch.setattr(fields, "_bit_column", lambda a: None)
    assert len(lines()) > 10


@pytest.mark.parametrize("kind", ["euler_alpha", "second_grade"])
def test_radial_run_matches_the_fft_path(monkeypatch, tmp_path, kind):
    import diskflow.fields as fields
    import sys
    params, u0 = _vortex_state(kind, "radial_vortex")
    config = RunConfig(snapshot_dt=0.05)
    got = run(params, u0, 0.2, config)
    # every column that no operator makes comes from a _bit_column scan,
    # so with the scan holding nothing, fields built from fresh inputs take
    # the transform path throughout
    monkeypatch.setattr(fields, "_bit_column", lambda a: None)
    transforms = []
    real_rfft = np.fft.rfft

    def rfft(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "diskflow.fields":
            transforms.append(1)
        return real_rfft(*args, **kwargs)
    monkeypatch.setattr(np.fft, "rfft", rfft)
    params, u0 = _vortex_state(kind, "radial_vortex")
    want = run(params, u0, 0.2, config)
    assert transforms
    assert len(got.snapshots) == len(want.snapshots) == 5

    def arrays(s):
        return (s.q.values, s.w.values, s.phi.values, s.u.u_r, s.u.u_theta)
    for i, (a, b) in enumerate(zip(got.snapshots, want.snapshots)):
        assert a.time == b.time
        for x, y in zip(arrays(a), arrays(b), strict=True):
            assert np.array_equal(x, y)
        for s, side in ((a, "got"), (b, "want")):
            write_snapshot(s.q, tmp_path / ("%s_%d.csv" % (side, i)),
                           time=s.time, alpha=params.alpha, nu=params.nu)
        assert (tmp_path / ("got_%d.csv" % i)).read_bytes() \
            == (tmp_path / ("want_%d.csv" % i)).read_bytes()
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key in got.diagnostics:
        assert got.diagnostics[key].tobytes() \
            == want.diagnostics[key].tobytes(), key
