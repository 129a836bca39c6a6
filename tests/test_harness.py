"""Sweep records, sup-error semantics, and the error-energy audit."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from diskflow.dynamics import (FlowState, ModelParams, RunConfig, Trajectory,
                               energy, run)
from diskflow.errors import (ConfigError, DegenerateFitError, DiskflowError,
                             NumericalFailure)
from diskflow.fields import (VectorField, advect_vector, grad_transpose_apply,
                             inner_l2, norm_l2, perp_grad, seminorm_hk,
                             seminorms_hk, vector_laplacian)
from diskflow.grid import GridSpec, build_grid
from diskflow.harness import (EnergyAudit, EnergyBudget, SweepConfig,
                              SweepRecord,
                              _energy_drift, bound_margins, energy_audit,
                              euler_reference_state, euler_run,
                              fit_theorem_constant, frozen_trajectory,
                              rate_entry, run_sweep, snapshot_interval,
                              theorem_rhs, write_sweep_csv)
from diskflow.initial_data import InitialCase, canonical_psi, make_initial
from diskflow.ratefit import fit_rate
from diskflow.verify import energy_audit_study

H_CASE = InitialCase(name="radial_vortex", amplitude=0.4, r0=1.0, sigma=1.5,
                     boundary_profile="linear")
GRID_H = GridSpec(n_r=129, n_theta=16, r_max=10.0)


# ---------------------------------------------------------------- config

@pytest.mark.parametrize("kw", [
    dict(alphas=()),
    dict(alphas=(0.1, 0.2)),
    dict(alphas=(0.2, 0.15, 0.1)),
    dict(alphas=(0.6, 0.3)),
    dict(alphas=(0.4, 0.2), nu_c=-1.0),
    dict(alphas=(0.4, 0.2), t_final=0.0),
    dict(alphas=(0.4, 0.2), delta_rule=0.0),
    dict(alphas=(0.4, 0.2), snapshot_dt=0.0),
    dict(alphas=(0.4, 0.2), dt=-0.1),
    dict(alphas=(0.4, 0.2), cfl=1.5),
    dict(alphas=(0.4, 0.2), dt_max=0.0),
])
def test_sweep_config_rejects(kw):
    kw.setdefault("grid", GRID_H)
    with pytest.raises(ConfigError):
        SweepConfig(**kw)


def test_sweep_config_rejects_unresolvable_alpha():
    # ds = ln(10)/16 = 0.144: even alpha = 0.4 spans only 2 cells
    with pytest.raises(ConfigError):
        SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(17, 16, 10.0))


def test_sweep_record_invariants():
    good = dict(alpha=0.2, nu=0.0, delta=0.1, sup_err_l2=2.0,
                final_err_l2=1.0, err0=1.0, alpha_grad_u0=1.0,
                apriori_max=(1.0, 1.0, 1.0), energy_drift=0.0, runtime_s=0.1)
    SweepRecord(**good)
    with pytest.raises(DiskflowError):
        SweepRecord(**{**good, "sup_err_l2": 0.5})
    with pytest.raises(DiskflowError):
        SweepRecord(**{**good, "energy_drift": math.nan})
    # failed rows may carry nan payloads
    SweepRecord(**{**good, "sup_err_l2": math.nan, "status": "cfl"})


def test_theorem_scale_and_rhs():
    rec = SweepRecord(alpha=0.2, nu=0.04, delta=0.1, sup_err_l2=1.0,
                      final_err_l2=0.5, err0=0.25, alpha_grad_u0=0.5,
                      apriori_max=(1.0, 1.0, 1.0), energy_drift=0.0,
                      runtime_s=0.1)
    expect = 0.2 ** (1 / 3) + 0.2 * 0.2 ** (-2 / 3)
    assert rec.theorem_scale == pytest.approx(expect, rel=1e-15)
    assert theorem_rhs(rec) == pytest.approx(0.75 + expect, rel=1e-15)


# ---------------------------------------------------------------- reference

def test_frozen_trajectory_and_reference_state():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    psi0 = canonical_psi(InitialCase(), g)
    st = euler_reference_state(psi0)
    assert st.params.kind == "euler"
    assert st.u.tag == "non-penetration"
    assert st.q is st.w
    traj = frozen_trajectory(st, [0.0, 0.25, 0.5])
    assert [s.time for s in traj.snapshots] == [0.0, 0.25, 0.5]
    assert np.all(np.diff(traj.diagnostics["energy"]) == 0.0)
    assert np.array_equal(traj.snapshots[2].u.u_theta, st.u.u_theta)


# ---------------------------------------------------------------- sweeps

def test_inviscid_radial_sweep_is_steady_and_monotone():
    cfg = SweepConfig(alphas=(0.4, 0.2, 0.1), grid=GRID_H, case=H_CASE,
                      t_final=0.25)
    recs = run_sweep(cfg, threads=1)
    assert [r.alpha for r in recs] == [0.4, 0.2, 0.1]
    for r in recs:
        assert r.status == "ok"
        assert r.nu == 0.0
        assert r.delta == pytest.approx(r.alpha ** (4 / 3), rel=1e-15)
        # radial data is a discrete steady state: every snapshot is bitwise
        # the recovered initial state, so sup and final coincide exactly;
        # against err0 (built from u0^a directly, not the recovered u) the
        # gap is the collar discretization error of the q round trip
        assert r.sup_err_l2 == r.final_err_l2
        assert r.sup_err_l2 == pytest.approx(r.err0, rel=0.15)
        assert r.energy_drift == 0.0
        assert r.runtime_s > 0.0
    sups = [r.sup_err_l2 for r in recs]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    c = fit_theorem_constant(recs)
    margins = bound_margins(recs, c)
    assert margins[0] == pytest.approx(1.0, rel=1e-12)
    assert all(a > b for a, b in zip(margins, margins[1:]))
    assert all(m <= 1.0 + 1e-9 for m in margins)
    # scaled derivative seminorms stay within a 3x band of the coarsest alpha
    for k in range(3):
        vals = [r.apriori_max[k] for r in recs]
        assert max(vals) < 3.0 * vals[0]
        assert min(vals) > vals[0] / 3.0


def test_viscous_sweep_second_grade_smoke():
    # nu * lap(w) feeds the guard ring through the exp(-rho/alpha) tail of
    # the filtered vorticity: ~1e-8 of |q0| per step at alpha = 0.4, real
    # physics rather than an instability, so the guard needs headroom
    cfg = SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 16, 10.0),
                      case=H_CASE, nu_c=1.0, nu_gamma=2.0, t_final=0.1,
                      dt=0.02, tail_threshold=1e-5)
    recs = run_sweep(cfg, threads=1)
    for r in recs:
        assert r.status == "ok"
        assert r.nu == pytest.approx(r.alpha ** 2, rel=1e-15)
        assert r.sup_err_l2 >= r.final_err_l2 >= 0.0
        # balance residual is trapezoid error on 2 nu int |grad u|^2 over
        # five coarse steps, not a solver defect; nu = 0.16 decays fast
        assert r.energy_drift <= 2e-3
        assert all(np.isfinite(r.apriori_max))


def test_sweep_with_numerical_euler_reference():
    cfg = SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 32, 8.0),
                      case=InitialCase(name="perturbed_vortex"),
                      t_final=0.05, snapshot_dt=0.025)
    recs = run_sweep(cfg, threads=1)
    g = build_grid(cfg.grid)
    psi0 = canonical_psi(cfg.case, g)
    ref = euler_run(psi0, cfg.t_final, RunConfig(snapshot_dt=0.025))
    for r in recs:
        assert r.status == "ok"
        assert r.sup_err_l2 >= r.final_err_l2 >= 0.0
        assert r.sup_err_l2 > 0.0
        # the largest and the last L2 gap to the Euler run over the snapshots
        traj = run(ModelParams.regularized(r.alpha, r.nu),
                   make_initial(psi0, r.alpha), cfg.t_final, cfg)
        errs = [norm_l2(VectorField(g, a.u.u_r - b.u.u_r,
                                    a.u.u_theta - b.u.u_theta))
                for a, b in zip(traj.snapshots, ref.snapshots)]
        assert len(errs) == 3
        assert (r.sup_err_l2, r.final_err_l2) == (max(errs), errs[-1])


def test_radial_sweep_errors_are_gaps_to_the_frozen_initial_state():
    cfg = SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 16, 10.0),
                      case=H_CASE, t_final=0.1, snapshot_dt=0.05)
    recs = run_sweep(cfg, threads=1)
    g = build_grid(cfg.grid)
    psi0 = canonical_psi(cfg.case, g)
    ref = euler_reference_state(psi0).u
    for r in recs:
        assert r.status == "ok"
        traj = run(ModelParams.regularized(r.alpha, r.nu),
                   make_initial(psi0, r.alpha), cfg.t_final, cfg)
        errs = [norm_l2(VectorField(g, s.u.u_r - ref.u_r,
                                    s.u.u_theta - ref.u_theta))
                for s in traj.snapshots]
        assert len(errs) == 3
        assert (r.sup_err_l2, r.final_err_l2) == (max(errs), errs[-1])
        assert r.sup_err_l2 > 0.0


@pytest.mark.parametrize("mismatch, message", [
    ("fewer", "snapshot time grids do not match"),
    ("more", "snapshot time grids do not match"),
    ("times", "snapshot time grids do not match"),
    ("grid", "different grids"),
], ids=["fewer", "more", "times", "grid"])
def test_sweep_rejects_a_reference_it_cannot_compare(monkeypatch, mismatch,
                                                     message):
    import diskflow.harness as hz
    cfg = SweepConfig(alphas=(0.4,), grid=GridSpec(65, 32, 8.0),
                      case=InitialCase(name="perturbed_vortex"),
                      t_final=0.05, snapshot_dt=0.025)
    spec = GridSpec(33, 32, 8.0) if mismatch == "grid" else cfg.grid
    times = {"fewer": [0.0, 0.025], "more": [0.0, 0.025, 0.05, 0.075],
             "times": [0.0, 0.02, 0.05]}.get(mismatch, [0.0, 0.025, 0.05])

    def misaligned(psi0, t_final, config, on_snapshot):
        psi = canonical_psi(cfg.case, build_grid(spec))
        for s in frozen_trajectory(euler_reference_state(psi),
                                   times).snapshots:
            on_snapshot(s)

    monkeypatch.setattr(hz, "euler_run", misaligned)
    with pytest.raises(ConfigError, match=message) as exc:
        run_sweep(cfg, threads=1)
    assert exc.value.key == "trajectories"


def test_sweep_isolates_per_alpha_failures(monkeypatch):
    import diskflow.harness as hz
    real_run = hz.run

    def exploding(params, u0, t_final, config=RunConfig(), on_snapshot=None):
        if params.alpha == 0.2:
            raise NumericalFailure("synthetic blow-up", kind="nan", time=0.0)
        return real_run(params, u0, t_final, config, on_snapshot=on_snapshot)

    monkeypatch.setattr(hz, "run", exploding)
    cfg = SweepConfig(alphas=(0.4, 0.2, 0.1), grid=GRID_H, case=H_CASE,
                      t_final=0.1)
    recs = run_sweep(cfg, threads=1)
    assert [r.alpha for r in recs] == [0.4, 0.2, 0.1]
    assert [r.status for r in recs] == ["ok", "nan", "ok"]
    bad = recs[1]
    assert math.isnan(bad.sup_err_l2) and math.isnan(bad.energy_drift)
    assert np.isfinite(bad.err0) and np.isfinite(bad.alpha_grad_u0)
    # the anchored constant skips failed rows
    assert fit_theorem_constant(recs) == recs[0].sup_err_l2 / theorem_rhs(recs[0])
    assert len(bound_margins(recs, 1.0)) == 2


def test_fit_constant_needs_a_successful_record():
    rec = SweepRecord(alpha=0.2, nu=0.0, delta=0.1, sup_err_l2=math.nan,
                      final_err_l2=math.nan, err0=1.0, alpha_grad_u0=1.0,
                      apriori_max=(math.nan,) * 3, energy_drift=math.nan,
                      runtime_s=0.1, status="cfl")
    with pytest.raises(DegenerateFitError):
        fit_theorem_constant([rec])


@pytest.mark.parametrize("cfg, threads", [
    (SweepConfig(alphas=(0.4, 0.2, 0.1), grid=GRID_H, case=H_CASE,
                 t_final=0.1), 3),
    # a numerical Euler reference, shared by the pooled runs
    (SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 32, 8.0),
                 case=InitialCase(name="perturbed_vortex"), t_final=0.05,
                 snapshot_dt=0.025), 2),
], ids=["radial", "perturbed"])
def test_sweep_records_independent_of_thread_count(cfg, threads):
    seq = run_sweep(cfg, threads=1)
    par = run_sweep(cfg, threads=threads)
    assert len(par) == len(seq) == len(cfg.alphas)
    for a, b in zip(seq, par):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        da.pop("runtime_s"), db.pop("runtime_s")
        assert da == db


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_euler_reference_fails_the_sweep(monkeypatch, threads):
    import diskflow.harness as hz
    started = []

    def failing(psi0, t_final, config, on_snapshot):
        raise NumericalFailure("synthetic reference blow-up",
                               kind="tail_mass", time=0.01)

    def counted(params, u0, t_final, config=RunConfig(), on_snapshot=None):
        started.append(params.alpha)
        return Trajectory(snapshots=[], diagnostics={})

    monkeypatch.setattr(hz, "euler_run", failing)
    monkeypatch.setattr(hz, "run", counted)
    cfg = SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 32, 8.0),
                      case=InitialCase(name="perturbed_vortex"),
                      t_final=0.05, snapshot_dt=0.025)
    with pytest.raises(NumericalFailure, match="synthetic reference") as exc:
        run_sweep(cfg, threads=threads)
    assert exc.value.kind == "tail_mass"
    assert started == []    # the reference runs before any alpha


def test_euler_reference_takes_the_solver_keys_of_the_alpha_runs(
        monkeypatch):
    import diskflow.harness as hz
    real_euler_run, real_run = hz.euler_run, hz.run
    seen = {"euler": [], "alpha": []}
    keys = ("cfl", "dt", "dt_max", "snapshot_dt", "tail_threshold")

    def euler_spy(psi0, t_final, config, on_snapshot):
        seen["euler"].append(tuple(getattr(config, k) for k in keys))
        return real_euler_run(psi0, t_final, config, on_snapshot=on_snapshot)

    def run_spy(params, u0, t_final, config=RunConfig(), on_snapshot=None):
        if params.kind != "euler":
            seen["alpha"].append(tuple(getattr(config, k) for k in keys))
        return real_run(params, u0, t_final, config, on_snapshot=on_snapshot)

    monkeypatch.setattr(hz, "euler_run", euler_spy)
    monkeypatch.setattr(hz, "run", run_spy)
    cfg = SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 32, 8.0),
                      case=InitialCase(name="perturbed_vortex"),
                      t_final=0.004, cfl=0.1, dt_max=0.001)
    recs = run_sweep(cfg, threads=1)
    assert [r.status for r in recs] == ["ok", "ok"]
    assert seen["euler"] == [(0.1, None, 0.001, 0.0005, 1e-8)]
    assert seen["alpha"] == seen["euler"] * 2


def batch_sweep_records(cfg):
    """A sweep's records by the batch formulas: each alpha's trajectory and
    the whole Euler reference trajectory held, then reduced."""
    g = build_grid(cfg.grid)
    psi0 = canonical_psi(cfg.case, g)
    u0 = perp_grad(psi0)
    run_cfg = dataclasses.replace(
        cfg, snapshot_dt=snapshot_interval(cfg.snapshot_dt, cfg.t_final))
    if cfg.case.name != "radial_vortex":
        ref = euler_run(psi0, cfg.t_final, run_cfg)
    out = []
    for alpha in cfg.alphas:
        nu = cfg.nu_of(alpha)
        u0a = make_initial(psi0, alpha)
        traj = run(ModelParams.regularized(alpha, nu), u0a, cfg.t_final,
                   run_cfg)
        if cfg.case.name == "radial_vortex":
            ref = frozen_trajectory(euler_reference_state(psi0),
                                    [s.time for s in traj.snapshots])
        errs = [norm_l2(VectorField(g, a.u.u_r - b.u.u_r,
                                    a.u.u_theta - b.u.u_theta))
                for a, b in zip(traj.snapshots, ref.snapshots, strict=True)]
        norms = [seminorms_hk(s.u, 3) for s in traj.snapshots]
        out.append(dict(
            alpha=alpha, nu=nu, delta=alpha ** cfg.delta_rule,
            sup_err_l2=max(errs), final_err_l2=errs[-1],
            err0=norm_l2(VectorField(g, u0a.u_r - u0.u_r,
                                     u0a.u_theta - u0.u_theta)),
            alpha_grad_u0=alpha * seminorm_hk(u0a, 1),
            apriori_max=tuple(max(alpha ** k * n[k - 1] for n in norms)
                              for k in (1, 2, 3)),
            energy_drift=_energy_drift(traj, nu), status="ok"))
    return out


STREAMED_SWEEPS = [
    # viscous radial: a frozen reference, errors and energy that move
    SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 16, 10.0), case=H_CASE,
                nu_c=1.0, nu_gamma=2.0, t_final=0.1, dt=0.02,
                tail_threshold=1e-5),
    # perturbed: a numerical Euler reference
    SweepConfig(alphas=(0.4, 0.2), grid=GridSpec(65, 32, 8.0),
                case=InitialCase(name="perturbed_vortex"), t_final=0.05,
                snapshot_dt=0.025),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("cfg", STREAMED_SWEEPS, ids=["radial", "perturbed"])
def test_streamed_sweep_records_equal_the_batch_formulas(cfg, threads):
    want = batch_sweep_records(cfg)
    got = run_sweep(cfg, threads=threads)
    assert len(got) == len(want)
    for rec, expect in zip(got, want):
        d = dataclasses.asdict(rec)
        d.pop("runtime_s")
        assert d == expect


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("cfg", STREAMED_SWEEPS, ids=["radial", "perturbed"])
def test_sweep_runs_hold_no_snapshots_and_free_their_factors(monkeypatch, cfg,
                                                             threads):
    import diskflow.harness as hz
    real_run = hz.run
    seen, grids = [], []

    def spy(params, u0, t_final, config=RunConfig(), on_snapshot=None):
        if params.kind == "euler":
            return real_run(params, u0, t_final, config,
                            on_snapshot=on_snapshot)
        cached = list(u0.grid.solver_cache)
        traj = real_run(params, u0, t_final, config, on_snapshot=on_snapshot)
        seen.append((params.alpha, on_snapshot is not None,
                     len(traj.snapshots), cached))
        grids.append(u0.grid)
        return traj

    monkeypatch.setattr(hz, "run", spy)
    recs = run_sweep(cfg, threads=threads)
    assert [r.status for r in recs] == ["ok"] * len(cfg.alphas)
    assert sorted(a for a, _, _, _ in seen) == sorted(cfg.alphas)
    for alpha, streamed, held, cached in seen:
        assert streamed
        assert held == 0
        if threads == 1:
            # neither the Poisson factor nor an earlier alpha's stream factor
            assert all(k[:2] == ("stream", alpha) for k in cached), cached
    assert all(not g.solver_cache for g in grids)


def test_pooled_factor_release_under_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching every microsecond: each worker
    # builds and drops its factors while the others read and write the same
    # grid cache, which must end empty with the records of one thread
    import sys
    import diskflow.harness as hz
    real_run, grids = hz.run, []

    def spy(params, u0, t_final, config=RunConfig(), on_snapshot=None):
        grids.append(u0.grid)
        return real_run(params, u0, t_final, config, on_snapshot=on_snapshot)

    cfg = SweepConfig(alphas=(0.4, 0.2, 0.1), grid=GRID_H, case=H_CASE,
                      t_final=0.1)
    want = [dataclasses.replace(r, runtime_s=0.0)
            for r in run_sweep(cfg, threads=1)]
    monkeypatch.setattr(hz, "run", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_sweep(cfg, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert [dataclasses.replace(r, runtime_s=0.0) for r in got] == want
    assert len(grids) == 3 and len({id(g) for g in grids}) == 1
    assert list(grids[0].solver_cache) == []


def test_failed_alpha_run_frees_its_factor(monkeypatch):
    import diskflow.harness as hz
    real_run = hz.run
    grids = []

    def failing_late(params, u0, t_final, config=RunConfig(),
                     on_snapshot=None):
        real_run(params, u0, t_final, config, on_snapshot=on_snapshot)
        grids.append(u0.grid)
        assert ("stream", params.alpha, (0,)) in u0.grid.solver_cache
        raise NumericalFailure("synthetic blow-up", kind="nan", time=t_final)

    monkeypatch.setattr(hz, "run", failing_late)
    cfg = SweepConfig(alphas=(0.4,), grid=GRID_H, case=H_CASE, t_final=0.1)
    recs = run_sweep(cfg, threads=1)
    assert [r.status for r in recs] == ["nan"]
    assert len(grids) == 1
    assert list(grids[0].solver_cache) == []


# ---------------------------------------------------------------- audit

def test_energy_audit_identical_steady_trajectories():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    psi0 = canonical_psi(InitialCase(), g)
    from diskflow.dynamics import initial_state
    st = initial_state(ModelParams(kind="euler_alpha", alpha=0.2),
                       make_initial(psi0, 0.2))
    times = [0.0, 0.1, 0.2]
    a = frozen_trajectory(st, times)
    b = frozen_trajectory(st, times)
    audit = energy_audit(a, b, delta=0.1)
    assert (audit.i1, audit.i2, audit.i3, audit.i4) == (0.0, 0.0, 0.0, 0.0)
    assert audit.lhs == 0.0 and audit.residual == 0.0
    assert audit.n_times == 3


def test_energy_audit_radial_symmetry_zeroes_i2_and_i4():
    # w = u_euler after scaling u = 2 u_euler; every budget integrand then
    # reduces to an azimuthal field dotted against a vanishing component
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    psi0 = canonical_psi(InitialCase(), g)
    ref = euler_reference_state(psi0)
    params = ModelParams(kind="euler_alpha", alpha=0.2)
    # untagged: the scaled reference still slips at the wall by O(h^2)
    u2 = VectorField(g, 2.0 * ref.u.u_r, 2.0 * ref.u.u_theta)
    st = FlowState(time=0.0, q=ref.q, w=ref.w, phi=ref.phi, u=u2,
                   params=params)
    times = [0.0, 0.05, 0.1]
    audit = energy_audit(frozen_trajectory(st, times),
                         frozen_trajectory(ref, times), delta=0.2)
    assert audit.i2 == 0.0
    assert audit.i4 == 0.0
    # d_t stencil of bitwise-constant snapshots leaves (-3a+4a-a)-style dust
    assert abs(audit.i3) <= 1e-13
    assert audit.lhs == 0.0
    assert audit.alpha == 0.2 and audit.nu == 0.0


def test_energy_audit_g_shape_value():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    psi0 = canonical_psi(InitialCase(), g)
    from diskflow.dynamics import initial_state
    st = initial_state(ModelParams(kind="euler_alpha", alpha=0.2),
                       make_initial(psi0, 0.2))
    times = [0.0, 0.1, 0.2]
    audit = energy_audit(frozen_trajectory(st, times),
                         frozen_trajectory(st, times), delta=0.25)
    # (nu + a^2)(a^-2 delta^(1/2) + delta^-1) + a^2 at a=0.2, nu=0
    expect = 0.04 * (0.5 / 0.04 + 4.0) + 0.04
    assert audit.g_shape == pytest.approx(expect, rel=1e-15)


def test_energy_audit_rejects_bad_inputs():
    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    st = euler_reference_state(canonical_psi(InitialCase(), g))
    two = frozen_trajectory(st, [0.0, 0.1])
    three = frozen_trajectory(st, [0.0, 0.1, 0.2])
    other = frozen_trajectory(st, [0.0, 0.1, 0.3])
    four = frozen_trajectory(st, [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ConfigError, match="at least 3 snapshots") as exc:
        energy_audit(two, two, delta=0.1)
    assert exc.value.key == "trajectories"
    for ref in (two, four, other):
        with pytest.raises(ConfigError, match="time grids do not match") \
                as exc:
            energy_audit(three, ref, delta=0.1)
        assert exc.value.key == "trajectories"
    with pytest.raises(ConfigError):
        energy_audit(three, three, delta=0.0)
    g2 = build_grid(GridSpec(n_r=33, n_theta=16, r_max=8.0))
    st2 = euler_reference_state(canonical_psi(InitialCase(), g2))
    coarse = frozen_trajectory(st2, [0.0, 0.1, 0.2])
    with pytest.raises(ConfigError, match="different grids"):
        energy_audit(three, coarse, delta=0.1)


def test_energy_audit_second_grade_budget_closes():
    # the load-bearing check: a viscous run against the frozen Euler
    # reference must satisfy the four-term budget to discretization accuracy
    g = build_grid(GridSpec(n_r=129, n_theta=16, r_max=8.0))
    psi0 = canonical_psi(InitialCase(), g)
    u0a = make_initial(psi0, 0.2)
    params = ModelParams(kind="second_grade", alpha=0.2, nu=1e-4)
    traj = run(params, u0a, 0.2, RunConfig(snapshot_dt=0.01))
    ref = frozen_trajectory(euler_reference_state(psi0),
                            [s.time for s in traj.snapshots])
    audit = energy_audit(traj, ref, delta=0.2 ** (4 / 3))
    assert abs(audit.lhs) > 0.0
    assert audit.rel_residual <= 1e-3
    assert audit.n_times == 21


def batch_energy_audit(traj_sg, traj_euler, delta):
    """The audit's batch formula: every snapshot held, w and the vector
    Laplacian kept per snapshot, then stacked for np.gradient."""
    t = np.array([s.time for s in traj_sg.snapshots])
    params = traj_sg.snapshots[0].params
    a, nu = params.alpha, params.nu
    g = traj_sg.snapshots[0].u.grid
    ws, laps, f1, f2, f4 = [], [], [], [], []
    for s, sref in zip(traj_sg.snapshots, traj_euler.snapshots, strict=True):
        w = VectorField(g, s.u.u_r - sref.u.u_r, s.u.u_theta - sref.u.u_theta)
        lap = vector_laplacian(s.u)
        ws.append(w)
        laps.append(lap)
        f1.append(inner_l2(lap, w))
        f2.append(inner_l2(advect_vector(w, sref.u), w))
        f4.append(inner_l2(advect_vector(s.u, lap), w)
                  + inner_l2(grad_transpose_apply(s.u, lap), w))
    dl_r = np.gradient(np.stack([l.u_r for l in laps]), t, axis=0,
                       edge_order=2)
    dl_t = np.gradient(np.stack([l.u_theta for l in laps]), t, axis=0,
                       edge_order=2)
    f3 = [float(np.sum(g.weights * (dl_r[i] * ws[i].u_r
                                    + dl_t[i] * ws[i].u_theta)))
          for i in range(t.size)]
    i1 = nu * float(np.trapezoid(np.array(f1), t))
    i2 = -float(np.trapezoid(np.array(f2), t))
    i3 = a * a * float(np.trapezoid(np.array(f3), t))
    i4 = a * a * float(np.trapezoid(np.array(f4), t))
    lhs = 0.5 * (norm_l2(ws[-1]) ** 2 - norm_l2(ws[0]) ** 2)
    residual = abs(lhs - (i1 + i2 + i3 + i4))
    e0 = energy(traj_sg.snapshots[0])
    g_shape = ((nu + a * a) * (delta ** 0.5 / (a * a) + 1.0 / delta)
               + a * a)
    return EnergyAudit(i1=i1, i2=i2, i3=i3, i4=i4, lhs=lhs, residual=residual,
                       rel_residual=residual / max(abs(lhs), e0),
                       g_shape=g_shape, alpha=a, nu=nu, delta=delta,
                       n_times=int(t.size))


PERTURBED = InitialCase(name="perturbed_vortex")


# (case, grid, alpha, nu, t_final, snapshot_dt, times uniform in numpy's
# sense): multiples of T/8 = 3/64 and 3/256 are exact and equally spaced,
# multiples of 0.01 are not; a step of 3/2^k, unlike 2^-k, makes numpy's
# uniform and non-uniform formulas round differently
@pytest.mark.parametrize("case, spec, alpha, nu, t_final, snapshot_dt, uniform", [
    (InitialCase(), GridSpec(65, 16, 8.0), 0.2, 1e-4, 0.375, None, True),
    (InitialCase(), GridSpec(65, 16, 8.0), 0.2, 1e-4, 0.1, 0.01, False),
    (PERTURBED, GridSpec(65, 32, 8.0), 0.3, 0.0, 0.09375, None, True),
    (PERTURBED, GridSpec(65, 32, 8.0), 0.3, 0.0, 0.05, 0.01, False),
], ids=["frozen-uniform", "frozen-nonuniform", "euler-uniform",
        "euler-nonuniform"])
def test_streamed_audit_equals_the_batch_formula(case, spec, alpha, nu,
                                                 t_final, snapshot_dt,
                                                 uniform):
    g = build_grid(spec)
    psi0 = canonical_psi(case, g)
    cfg = RunConfig(snapshot_dt=t_final / 8.0 if snapshot_dt is None
                    else snapshot_dt)
    traj = run(ModelParams.regularized(alpha, nu), make_initial(psi0, alpha),
               t_final, cfg)
    if case.name == "radial_vortex":
        ref = frozen_trajectory(euler_reference_state(psi0),
                                [s.time for s in traj.snapshots])
    else:
        ref = euler_run(psi0, t_final, cfg)
    steps = np.diff([s.time for s in traj.snapshots])
    assert bool((steps == steps[0]).all()) is uniform
    delta = alpha ** (4.0 / 3.0)
    want = dataclasses.asdict(batch_energy_audit(traj, ref, delta))
    assert dataclasses.asdict(energy_audit(traj, ref, delta)) == want
    study = energy_audit_study(case, spec, alpha, nu, t_final,
                               RunConfig(snapshot_dt=snapshot_dt))
    assert dataclasses.asdict(study) == want


@pytest.mark.parametrize("change, message", [
    ("fewer", "time grids do not match"),
    ("more", "time grids do not match"),
    ("shifted", "time grids do not match"),
    ("grid", "different grids"),
])
def test_audit_study_names_a_reference_it_cannot_compare(monkeypatch, change,
                                                         message):
    import diskflow.harness as hz
    real_euler_run = hz.euler_run

    def altered(psi0, t_final, config, on_snapshot):
        if change == "grid":
            psi0 = canonical_psi(PERTURBED, build_grid(GridSpec(33, 32, 8.0)))
        taken = []
        real_euler_run(psi0, t_final, config, on_snapshot=taken.append)
        if change == "fewer":
            taken.pop()
        elif change == "more":
            taken.append(dataclasses.replace(taken[-1], time=2.0 * t_final))
        elif change == "shifted":
            taken[1] = dataclasses.replace(taken[1], time=taken[1].time + 1e-3)
        for s in taken:
            on_snapshot(s)

    monkeypatch.setattr(hz, "euler_run", altered)
    with pytest.raises(ConfigError, match=message) as exc:
        energy_audit_study(PERTURBED, GridSpec(65, 32, 8.0), alpha=0.3,
                           nu=0.0, t_final=0.02,
                           run_config=RunConfig(snapshot_dt=0.01))
    assert exc.value.key == "trajectories"


@pytest.mark.parametrize("case", [InitialCase(), PERTURBED],
                         ids=["frozen", "euler"])
def test_audit_study_needs_three_snapshots(case):
    with pytest.raises(ConfigError, match="at least 3 snapshots") as exc:
        energy_audit_study(case, GridSpec(65, 32, 8.0), alpha=0.3, nu=0.0,
                           t_final=0.01,
                           run_config=RunConfig(snapshot_dt=0.01))
    assert exc.value.key == "trajectories"


def _radial_audit_pair():
    # six snapshots of a viscous radial run on 64x16, with its frozen
    # Euler reference
    g = build_grid(GridSpec(n_r=64, n_theta=16, r_max=8.0))
    psi0 = canonical_psi(InitialCase(), g)
    traj = run(ModelParams("second_grade", alpha=0.2, nu=1e-4),
               make_initial(psi0, 0.2), 0.05, RunConfig(snapshot_dt=0.01))
    ref = frozen_trajectory(euler_reference_state(psi0),
                            [s.time for s in traj.snapshots])
    assert len(traj.snapshots) == 6
    return traj, ref


def test_energy_budget_finish_leaves_the_budget_as_it_was():
    traj, ref = _radial_audit_pair()
    budget = EnergyBudget(0.2 ** (4 / 3))
    for s, sref in zip(traj.snapshots[:4], ref.snapshots[:4]):
        budget.add(s, sref.u)
    first = dataclasses.asdict(budget.finish())
    assert dataclasses.asdict(budget.finish()) == first
    assert first["n_times"] == 4


def test_energy_budget_takes_snapshots_after_finish():
    traj, ref = _radial_audit_pair()
    delta = 0.2 ** (4 / 3)
    budget = EnergyBudget(delta)
    pairs = list(zip(traj.snapshots, ref.snapshots))
    for s, sref in pairs[:4]:
        budget.add(s, sref.u)
    budget.finish()
    for s, sref in pairs[4:]:
        budget.add(s, sref.u)
    assert dataclasses.asdict(budget.finish()) \
        == dataclasses.asdict(energy_audit(traj, ref, delta))


def test_energy_drift_matches_scipy_cumulative_trapezoid():
    # the drift integrates grad_u_sq with numpy in scipy's own operation
    # order, so the result is bit-identical to cumulative_trapezoid; the
    # random cases give the dissipation term weight against the energy, so
    # a last-bit difference in the integral shows in the drift
    def scipy_drift(d, nu):
        t = np.asarray(d["t"], dtype=float)
        e = np.asarray(d["energy"], dtype=float) + 2.0 * nu * \
            cumulative_trapezoid(np.asarray(d["grad_u_sq"], dtype=float), t,
                                 initial=0.0)
        return float(np.max(np.abs(e - e[0])) / max(e[0], 1e-300))

    g = build_grid(GridSpec(n_r=65, n_theta=16, r_max=8.0))
    u0a = make_initial(canonical_psi(InitialCase(), g), 0.2)
    params = ModelParams(kind="second_grade", alpha=0.2, nu=1e-4)
    traj = run(params, u0a, 0.05, RunConfig(snapshot_dt=0.01))
    assert len(set(np.diff(traj.diagnostics["t"]).tolist())) > 1
    cases = [(traj, 1e-4)]
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        d = {"t": np.cumsum(rng.uniform(1e-3, 1.0, n)),
             "energy": rng.uniform(1.0, 2.0, n),
             "grad_u_sq": rng.uniform(0.0, 10.0, n)}
        cases.append((Trajectory([], d), float(rng.uniform(0.01, 1.0))))
    for tr, nu in cases:
        assert _energy_drift(tr, nu) == scipy_drift(tr.diagnostics, nu)


# ---------------------------------------------------------------- files

def test_sweep_csv_layout(tmp_path):
    cfg = SweepConfig(alphas=(0.4, 0.2, 0.1), grid=GRID_H, case=H_CASE,
                      t_final=0.1)
    recs = run_sweep(cfg, threads=1)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(recs, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("alpha,nu,delta,sup_err_l2,final_err_l2,err0,"
                        "alpha_grad_u0,apriori_max_1,apriori_max_2,"
                        "apriori_max_3,energy_drift,runtime_s,status")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.4
    assert first[-1] == "ok"
    assert float(first[3]) == recs[0].sup_err_l2  # %.17g round trips


def test_rate_entry_schema():
    fit = fit_rate([0.4, 0.2, 0.1], [2.0, 1.4, 1.0])
    entry = rate_entry("sup_err_l2", fit)
    assert set(entry) == {"quantity", "slope", "constant", "residual",
                          "points"}
    assert entry["quantity"] == "sup_err_l2"
    json.dumps(entry)  # serializable as-is
